package rdma

import (
	"context"
	"fmt"
	"sync"

	"rstore/internal/simnet"
)

// ConnOpts tunes queue sizing for Dial and Listen.
type ConnOpts struct {
	SendDepth int
	RecvDepth int
}

// Listener accepts queue-pair connections for a named service on a device.
// All accepted QPs share the listener's protection domain, so memory the
// service registers in that domain is reachable by every connected client
// (subject to access flags).
type Listener struct {
	dev     *Device
	pd      *PD
	service string
	opts    ConnOpts
	backlog chan *QP

	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

// Listen registers a service endpoint on the device. Incoming Dial calls
// produce server-side QPs retrievable via Accept. A nil pd allocates a
// fresh protection domain.
func (d *Device) Listen(service string, pd *PD, opts ConnOpts) (*Listener, error) {
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("listen %q: %w", service, ErrDeviceClosed)
	}
	if pd == nil {
		pd = d.AllocPD()
	}
	l := &Listener{
		dev:     d,
		pd:      pd,
		service: service,
		opts:    opts,
		backlog: make(chan *QP, 64),
		done:    make(chan struct{}),
	}
	if err := d.net.registerListener(l); err != nil {
		return nil, err
	}
	return l, nil
}

// PD returns the protection domain shared by accepted QPs.
func (l *Listener) PD() *PD { return l.pd }

// Accept blocks for the next inbound connection.
func (l *Listener) Accept(ctx context.Context) (*QP, error) {
	select {
	case qp := <-l.backlog:
		return qp, nil
	case <-l.done:
		return nil, fmt.Errorf("accept %q: %w", l.service, ErrListenerClosed)
	case <-ctx.Done():
		return nil, fmt.Errorf("accept %q: %w", l.service, ctx.Err())
	}
}

// Close unregisters the service. Already-accepted QPs keep working.
func (l *Listener) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.mu.Unlock()
	close(l.done)
	l.dev.net.removeListener(l)
}

func (l *Listener) deliver(qp *QP) error {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return fmt.Errorf("connect %q: %w", l.service, ErrListenerClosed)
	}
	select {
	case l.backlog <- qp:
		return nil
	case <-l.done:
		return fmt.Errorf("connect %q: %w", l.service, ErrListenerClosed)
	default:
		return fmt.Errorf("connect %q: backlog full", l.service)
	}
}

// Dial establishes a reliable connected QP pair between this device and the
// named service on a remote node. The returned QP is ready for use; the
// server side surfaces through the listener's Accept. The modeled control
// cost of the handshake is Costs().ConnectTime(fabric params); callers
// account it on the control path.
func (d *Device) Dial(ctx context.Context, remote simnet.NodeID, service string, pd *PD, opts ConnOpts) (*QP, error) {
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("dial %q: %w", service, ErrDeviceClosed)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dial %q: %w", service, err)
	}
	if err := d.net.fabric.Reachable(d.node, remote); err != nil {
		return nil, fmt.Errorf("dial %q on %v: %w", service, remote, err)
	}
	l, ok := d.net.lookupListener(remote, service)
	if !ok {
		return nil, fmt.Errorf("dial %q on %v: %w", service, remote, ErrServiceNotFound)
	}
	if pd == nil {
		pd = d.AllocPD()
	}

	client := newQP(d, pd, service, opts.SendDepth, opts.RecvDepth)
	server := newQP(l.dev, l.pd, service, l.opts.SendDepth, l.opts.RecvDepth)
	client.peer = server
	server.peer = client
	client.start()
	server.start()

	if err := l.deliver(server); err != nil {
		client.Close()
		server.Close()
		return nil, err
	}
	return client, nil
}
