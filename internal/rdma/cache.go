package rdma

import (
	"context"
	"errors"
	"sync"
)

// ErrCacheClosed is what Cache.Get returns once CloseAll has run.
var ErrCacheClosed = errors.New("rdma: connection cache closed")

// Cache keeps at most one lazily dialled connection per key: the one
// implementation of "use the cached connection while it is healthy, dial a
// replacement when it is not, the loser of a dial race closes its own" for
// everything that wraps a queue pair — RPC connections, the client's
// one-sided server connections, its notification channels.
type Cache[K comparable, C comparable] struct {
	healthy func(K, C) bool
	close   func(C)

	mu     sync.Mutex
	closed bool
	conns  map[K]C
}

// NewCache returns an empty cache. healthy decides whether a cached
// connection may still be handed out (it runs under the cache's lock and
// must not call back into the cache); close releases a retired connection.
func NewCache[K comparable, C comparable](healthy func(K, C) bool, close func(C)) *Cache[K, C] {
	return &Cache[K, C]{healthy: healthy, close: close, conns: make(map[K]C)}
}

// Get returns the key's cached connection while it is healthy. Otherwise it
// retires that one and dials a replacement with no lock held; when two
// callers dial at once the second to finish closes its own connection and
// returns the first's.
func (c *Cache[K, C]) Get(ctx context.Context, key K, dial func(context.Context, K) (C, error)) (C, error) {
	var none C
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return none, ErrCacheClosed
	}
	stale, cached := c.conns[key]
	if cached && c.healthy(key, stale) {
		c.mu.Unlock()
		return stale, nil
	}
	delete(c.conns, key)
	c.mu.Unlock()
	if cached {
		c.close(stale)
	}

	fresh, err := dial(ctx, key)
	if err != nil {
		return none, err
	}
	c.mu.Lock()
	cur, raced := c.conns[key]
	if !c.closed && !raced {
		c.conns[key] = fresh
		c.mu.Unlock()
		return fresh, nil
	}
	closed := c.closed
	c.mu.Unlock()
	c.close(fresh)
	if closed {
		return none, ErrCacheClosed
	}
	return cur, nil
}

// Drop retires conn if it is still the key's cached connection. Dropping a
// connection the cache has already replaced (and closed) does nothing.
func (c *Cache[K, C]) Drop(key K, conn C) {
	c.mu.Lock()
	cur, ok := c.conns[key]
	if ok = ok && cur == conn; ok {
		delete(c.conns, key)
	}
	c.mu.Unlock()
	if ok {
		c.close(conn)
	}
}

// CloseAll closes every cached connection and the cache itself: later Gets
// fail with ErrCacheClosed, a dial still in flight closes what it brings.
func (c *Cache[K, C]) CloseAll() {
	c.mu.Lock()
	c.closed = true
	conns := c.conns
	c.conns = nil
	c.mu.Unlock()
	for _, conn := range conns {
		c.close(conn)
	}
}
