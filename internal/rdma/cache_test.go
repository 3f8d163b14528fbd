package rdma

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeConn is a connection as far as Cache cares: it can fail and be closed.
type fakeConn struct {
	id     int64
	failed atomic.Bool
	closed atomic.Int64
}

// cacheHarness counts what a cache of fakeConns dials and closes.
type cacheHarness struct {
	*Cache[string, *fakeConn]
	dials  atomic.Int64
	closes atomic.Int64
}

func newCacheHarness() *cacheHarness {
	h := &cacheHarness{}
	h.Cache = NewCache(
		func(_ string, c *fakeConn) bool { return !c.failed.Load() },
		func(c *fakeConn) {
			c.closed.Add(1)
			h.closes.Add(1)
		})
	return h
}

func (h *cacheHarness) dial(context.Context, string) (*fakeConn, error) {
	return &fakeConn{id: h.dials.Add(1)}, nil
}

// TestCacheConcurrentGetLeaksNothing: 32 goroutines asking for one cold key
// all end up with the same connection, every other connection dialled in
// the race has been closed exactly once, and the warm key dials no more.
func TestCacheConcurrentGetLeaksNothing(t *testing.T) {
	h := newCacheHarness()
	ctx := context.Background()
	const n = 32
	got := make([]*fakeConn, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			c, err := h.Get(ctx, "k", h.dial)
			if err != nil {
				t.Errorf("Get: %v", err)
			}
			got[i] = c
		}(i)
	}
	close(start)
	wg.Wait()
	for i, c := range got {
		if c != got[0] {
			t.Fatalf("goroutine %d got connection %d, goroutine 0 got %d", i, c.id, got[0].id)
		}
	}
	if got[0].closed.Load() != 0 {
		t.Error("the surviving connection was closed")
	}
	if d, c := h.dials.Load(), h.closes.Load(); d-c != 1 {
		t.Errorf("%d dials, %d closes: want exactly one connection left open", d, c)
	}

	dials := h.dials.Load()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c, err := h.Get(ctx, "k", h.dial); err != nil || c != got[0] {
				t.Errorf("warm Get = %v, %v; want the cached connection", c, err)
			}
		}()
	}
	wg.Wait()
	if h.dials.Load() != dials {
		t.Errorf("warm key dialled %d more times", h.dials.Load()-dials)
	}

	h.CloseAll()
	if d, c := h.dials.Load(), h.closes.Load(); d != c {
		t.Errorf("after CloseAll: %d dials, %d closes", d, c)
	}
}

// TestCacheReplacesUnhealthyAndDropsOnlyCurrent: a failed connection is
// closed and replaced by the next Get; Drop of that replaced connection is a
// no-op, Drop of the current one closes it; a failed dial caches nothing.
func TestCacheReplacesUnhealthyAndDropsOnlyCurrent(t *testing.T) {
	h := newCacheHarness()
	ctx := context.Background()
	first, _ := h.Get(ctx, "k", h.dial)
	first.failed.Store(true)
	second, err := h.Get(ctx, "k", h.dial)
	if err != nil || second == first {
		t.Fatalf("Get after failure = %v, %v; want a fresh connection", second, err)
	}
	if first.closed.Load() != 1 {
		t.Errorf("failed connection closed %d times, want 1", first.closed.Load())
	}

	h.Drop("k", first)
	if got, _ := h.Get(ctx, "k", h.dial); got != second || first.closed.Load() != 1 || second.closed.Load() != 0 {
		t.Errorf("Drop of a replaced connection touched the cache: got %d, closes %d/%d",
			got.id, first.closed.Load(), second.closed.Load())
	}
	h.Drop("other", second)
	if second.closed.Load() != 0 {
		t.Error("Drop under the wrong key closed the connection")
	}
	h.Drop("k", second)
	if second.closed.Load() != 1 {
		t.Errorf("dropped connection closed %d times, want 1", second.closed.Load())
	}

	boom := errors.New("boom")
	if _, err := h.Get(ctx, "k", func(context.Context, string) (*fakeConn, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("Get with a failing dial = %v, want the dial error", err)
	}
	third, err := h.Get(ctx, "k", h.dial)
	if err != nil || third == second || third == nil {
		t.Errorf("Get after a failed dial = %v, %v; want a fresh connection", third, err)
	}
}

// TestCacheCloseAllDuringDial: a dial that is still out when the cache
// closes must not leave its connection behind.
func TestCacheCloseAllDuringDial(t *testing.T) {
	h := newCacheHarness()
	dialling, release := make(chan struct{}), make(chan struct{})
	var late *fakeConn
	done := make(chan error, 1)
	go func() {
		_, err := h.Get(context.Background(), "k", func(ctx context.Context, k string) (*fakeConn, error) {
			close(dialling)
			<-release
			late, _ = h.dial(ctx, k)
			return late, nil
		})
		done <- err
	}()
	<-dialling
	h.CloseAll()
	close(release)
	if err := <-done; !errors.Is(err, ErrCacheClosed) {
		t.Errorf("Get across CloseAll = %v, want ErrCacheClosed", err)
	}
	if late.closed.Load() != 1 {
		t.Errorf("late arrival closed %d times, want 1", late.closed.Load())
	}
	if _, err := h.Get(context.Background(), "k", h.dial); !errors.Is(err, ErrCacheClosed) {
		t.Errorf("Get on a closed cache = %v, want ErrCacheClosed", err)
	}
}
