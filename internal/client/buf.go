package client

import (
	"fmt"

	"rstore/internal/rdma"
)

// Buf is a client-local, NIC-registered buffer: the zero-copy source and
// destination of one-sided operations. Registering is a control-path cost
// (charged to ControlStats); applications allocate buffers once and reuse
// them, exactly as the paper's applications do.
type Buf struct {
	mr *rdma.MemoryRegion
}

// AllocBuf registers n bytes of local memory for zero-copy IO.
func (c *Client) AllocBuf(n int) (*Buf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("client: alloc buf: non-positive size %d", n)
	}
	mr, err := c.pd.RegisterMemory(make([]byte, n), rdma.AccessLocalWrite)
	if err != nil {
		return nil, fmt.Errorf("client: alloc buf: %w", err)
	}
	c.chargeRegister(n)
	return &Buf{mr: mr}, nil
}

// Bytes returns the registered memory for direct access.
func (b *Buf) Bytes() []byte { return b.mr.Bytes() }

// Len returns the buffer size.
func (b *Buf) Len() int { return b.mr.Len() }

// Release deregisters the buffer.
func (b *Buf) Release() { b.mr.Deregister() }

// acquireStaging borrows a staging chunk, blocking until one frees up.
func (c *Client) acquireStaging() *Buf {
	return <-c.staging
}

func (c *Client) releaseStaging(b *Buf) {
	select {
	case c.staging <- b:
	default:
	}
}
