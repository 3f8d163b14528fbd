package client

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rstore/internal/memserver"
	"rstore/internal/proto"
	"rstore/internal/rdma"
	"rstore/internal/simnet"
)

// Notification is a producer/consumer signal delivered through a region's
// home memory server.
type Notification struct {
	Region proto.RegionID
	Token  uint32
	// ArriveV is the modeled virtual time the notification reached this
	// client (on the fabric-wide timeline), used by the latency harness.
	ArriveV simnet.VTime
}

const notifySlots = 64

// notifyConn is the client's notification channel to one memory server.
type notifyConn struct {
	c      *Client
	qp     *rdma.QP
	sendMR *rdma.MemoryRegion
	recvMR *rdma.MemoryRegion

	mu      sync.Mutex
	sendIdx int
	subs    map[proto.RegionID][]chan Notification
	acks    map[proto.RegionID][]chan struct{}

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// dialNotify opens the notification channel to a memory server and starts
// its receive loop.
func (c *Client) dialNotify(ctx context.Context, node simnet.NodeID) (*notifyConn, error) {
	qp, err := c.dev.Dial(ctx, node, proto.MemNotifyService, c.pd, rdma.ConnOpts{SendDepth: notifySlots * 2, RecvDepth: notifySlots * 2})
	if err != nil {
		return nil, fmt.Errorf("notify dial %v: %w", node, err)
	}
	sendMR, err := c.pd.RegisterMemory(make([]byte, notifySlots*memserver.NotifyMsgSize), 0)
	if err != nil {
		qp.Close()
		return nil, fmt.Errorf("notify buffers: %w", err)
	}
	recvMR, err := c.pd.RegisterMemory(make([]byte, notifySlots*memserver.NotifyMsgSize), rdma.AccessLocalWrite)
	if err != nil {
		qp.Close()
		return nil, fmt.Errorf("notify buffers: %w", err)
	}
	loopCtx, cancel := context.WithCancel(context.Background())
	nc := &notifyConn{
		c:      c,
		qp:     qp,
		sendMR: sendMR,
		recvMR: recvMR,
		subs:   make(map[proto.RegionID][]chan Notification),
		acks:   make(map[proto.RegionID][]chan struct{}),
		cancel: cancel,
	}
	for i := 0; i < notifySlots; i++ {
		if err := qp.PostRecv(rdma.RecvWR{
			WRID:  uint64(i),
			Local: rdma.SGE{MR: recvMR, Offset: uint64(i * memserver.NotifyMsgSize), Len: memserver.NotifyMsgSize},
		}); err != nil {
			cancel()
			qp.Close()
			return nil, fmt.Errorf("notify recvs: %w", err)
		}
	}
	c.chargeConnect()
	nc.wg.Add(1)
	go nc.recvLoop(loopCtx)
	return nc, nil
}

func (nc *notifyConn) close() {
	nc.cancel()
	nc.qp.Close()
	nc.wg.Wait()
	nc.mu.Lock()
	defer nc.mu.Unlock()
	for id, chans := range nc.subs {
		for _, ch := range chans {
			close(ch)
		}
		delete(nc.subs, id)
	}
}

func (nc *notifyConn) recvLoop(ctx context.Context) {
	defer nc.wg.Done()
	for {
		wc, err := nc.qp.RecvCQ().Next(ctx)
		if err != nil {
			return
		}
		if wc.Status != rdma.StatusSuccess {
			return
		}
		off := int(wc.WRID) * memserver.NotifyMsgSize
		kind, region, token, derr := memserver.DecodeNotifyMsg(nc.recvMR.Bytes()[off : off+memserver.NotifyMsgSize])
		if rerr := nc.qp.PostRecv(rdma.RecvWR{
			WRID:  wc.WRID,
			Local: rdma.SGE{MR: nc.recvMR, Offset: uint64(off), Len: memserver.NotifyMsgSize},
		}); rerr != nil {
			return
		}
		if derr != nil {
			continue
		}
		switch kind {
		case memserver.NotifyKindSubscribe: // subscription ack
			nc.mu.Lock()
			if pending := nc.acks[region]; len(pending) > 0 {
				close(pending[0])
				nc.acks[region] = pending[1:]
			}
			nc.mu.Unlock()
		case memserver.NotifyKindInvalidate:
			// Repair-plane push: the region's layout changed. Mark every
			// mapped handle stale so its next operation remaps.
			nc.c.invalidateRegion(region)
		case memserver.NotifyKindNotify:
			nc.mu.Lock()
			chans := append([]chan Notification(nil), nc.subs[region]...)
			nc.mu.Unlock()
			for _, ch := range chans {
				select {
				case ch <- Notification{Region: region, Token: token, ArriveV: wc.DoneV}:
				default:
					// Slow consumer: drop rather than stall delivery.
				}
			}
		}
	}
}

// send posts one frame, draining prior send completions to recycle slots.
func (nc *notifyConn) send(kind uint8, region proto.RegionID, token uint32) error {
	nc.mu.Lock()
	slot := nc.sendIdx % notifySlots
	nc.sendIdx++
	nc.qp.SendCQ().Poll(notifySlots)
	off := slot * memserver.NotifyMsgSize
	memserver.EncodeNotifyMsg(nc.sendMR.Bytes()[off:off+memserver.NotifyMsgSize], kind, region, token)
	err := nc.qp.PostSend(rdma.SendWR{
		WRID:  uint64(slot),
		Op:    rdma.OpSend,
		Local: rdma.SGE{MR: nc.sendMR, Offset: uint64(off), Len: memserver.NotifyMsgSize},
	})
	nc.mu.Unlock()
	return err
}

// Subscribe registers for notifications on the region and returns the
// delivery channel plus an unsubscribe function. Delivery is best-effort:
// a consumer that does not drain its channel loses notifications rather
// than blocking the store.
func (r *Region) Subscribe(ctx context.Context) (<-chan Notification, func(), error) {
	if err := r.checkMapped(); err != nil {
		return nil, nil, err
	}
	info := r.Info()
	nc, err := r.c.notify.Get(ctx, info.HomeServer(), r.c.dialNotify)
	if err != nil {
		return nil, nil, fmt.Errorf("subscribe %q: %w", info.Name, err)
	}
	ch := make(chan Notification, notifySlots)
	ack := make(chan struct{})
	nc.mu.Lock()
	nc.subs[info.ID] = append(nc.subs[info.ID], ch)
	nc.acks[info.ID] = append(nc.acks[info.ID], ack)
	nc.mu.Unlock()

	// unregister backs out the registrations above when the handshake
	// fails, so aborted subscriptions do not leak channels or leave a
	// stale ack queue entry that would steal a later subscriber's ack.
	unregister := func() {
		nc.mu.Lock()
		defer nc.mu.Unlock()
		chans := nc.subs[info.ID]
		for i, c2 := range chans {
			if c2 == ch {
				nc.subs[info.ID] = append(chans[:i], chans[i+1:]...)
				break
			}
		}
		pending := nc.acks[info.ID]
		for i, a := range pending {
			if a == ack {
				nc.acks[info.ID] = append(pending[:i], pending[i+1:]...)
				break
			}
		}
	}

	if err := nc.send(memserver.NotifyKindSubscribe, info.ID, 0); err != nil {
		unregister()
		return nil, nil, fmt.Errorf("subscribe %q: %w", info.Name, err)
	}
	// Bound the ack wait even when the caller's context has no deadline, so
	// a dead home server cannot hang the subscriber forever.
	timeout := time.NewTimer(5 * time.Second)
	defer timeout.Stop()
	select {
	case <-ack:
	case <-ctx.Done():
		unregister()
		return nil, nil, fmt.Errorf("subscribe %q: %w", info.Name, ctx.Err())
	case <-timeout.C:
		unregister()
		return nil, nil, fmt.Errorf("subscribe %q: %w", info.Name, rdma.ErrTimeout)
	}

	unsub := func() {
		_ = nc.send(memserver.NotifyKindUnsubscribe, info.ID, 0)
		nc.mu.Lock()
		chans := nc.subs[info.ID]
		for i, c2 := range chans {
			if c2 == ch {
				nc.subs[info.ID] = append(chans[:i], chans[i+1:]...)
				break
			}
		}
		nc.mu.Unlock()
	}
	return ch, unsub, nil
}

// Notify signals every subscriber of the region with the token, typically
// after a Write completes (producer/consumer handoff).
func (r *Region) Notify(ctx context.Context, token uint32) error {
	if err := r.checkMapped(); err != nil {
		return err
	}
	info := r.Info()
	nc, err := r.c.notify.Get(ctx, info.HomeServer(), r.c.dialNotify)
	if err != nil {
		return fmt.Errorf("notify %q: %w", info.Name, err)
	}
	if err := nc.send(memserver.NotifyKindNotify, info.ID, token); err != nil {
		return fmt.Errorf("notify %q: %w", info.Name, err)
	}
	return nil
}
