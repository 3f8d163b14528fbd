package kvstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"rstore/internal/client"
	"rstore/internal/core"
)

func startCluster(t *testing.T) *core.Cluster {
	t.Helper()
	c, err := core.Start(context.Background(), core.Config{
		Machines:          4,
		ServerCapacity:    32 << 20,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("core.Start: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func newStore(t *testing.T, c *core.Cluster, name string, opts Options) (*Store, *client.Client) {
	t.Helper()
	cli, err := c.NewClient(context.Background(), c.MemoryServerNodes()[0])
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	s, err := Create(context.Background(), cli, name, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return s, cli
}

func TestPutGetDelete(t *testing.T) {
	c := startCluster(t)
	s, _ := newStore(t, c, "kv", Options{})
	ctx := context.Background()

	if err := s.Put(ctx, []byte("name"), []byte("rstore")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, err := s.Get(ctx, []byte("name"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(v) != "rstore" {
		t.Errorf("Get = %q", v)
	}

	// Overwrite.
	if err := s.Put(ctx, []byte("name"), []byte("rstore-v2")); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	v, err = s.Get(ctx, []byte("name"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(v) != "rstore-v2" {
		t.Errorf("Get after overwrite = %q", v)
	}

	if err := s.Delete(ctx, []byte("name")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get(ctx, []byte("name")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete = %v", err)
	}
	if err := s.Delete(ctx, []byte("name")); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete = %v", err)
	}
}

func TestGetMissing(t *testing.T) {
	c := startCluster(t)
	s, _ := newStore(t, c, "kv", Options{})
	if _, err := s.Get(context.Background(), []byte("ghost")); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestManyKeys(t *testing.T) {
	c := startCluster(t)
	s, _ := newStore(t, c, "kv", Options{Slots: 2048})
	ctx := context.Background()
	const n = 500
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		v := []byte(fmt.Sprintf("value-%d", i*i))
		if err := s.Put(ctx, k, v); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		v, err := s.Get(ctx, k)
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if want := fmt.Sprintf("value-%d", i*i); string(v) != want {
			t.Fatalf("Get %d = %q, want %q", i, v, want)
		}
	}
}

func TestSharedAcrossClients(t *testing.T) {
	c := startCluster(t)
	s1, _ := newStore(t, c, "shared", Options{})
	ctx := context.Background()

	cli2, err := c.NewClient(ctx, c.MemoryServerNodes()[1])
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	s2, err := Open(ctx, cli2, "shared", Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	if err := s1.Put(ctx, []byte("from"), []byte("client-1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, err := s2.Get(ctx, []byte("from"))
	if err != nil {
		t.Fatalf("Get from second client: %v", err)
	}
	if string(v) != "client-1" {
		t.Errorf("cross-client value = %q", v)
	}
}

func TestEntryTooLarge(t *testing.T) {
	c := startCluster(t)
	s, _ := newStore(t, c, "kv", Options{SlotSize: 64})
	ctx := context.Background()
	if err := s.Put(ctx, []byte("k"), make([]byte, 64)); !errors.Is(err, ErrEntryTooLarge) {
		t.Errorf("oversize put = %v", err)
	}
	if err := s.Put(ctx, nil, []byte("v")); !errors.Is(err, ErrEntryTooLarge) {
		t.Errorf("empty key = %v", err)
	}
	// A rejected put leaves nothing behind: the same put fails the same way.
	if err := s.Put(ctx, []byte("k"), make([]byte, 64)); !errors.Is(err, ErrEntryTooLarge) {
		t.Errorf("repeated oversize put = %v", err)
	}
}

func TestTableFull(t *testing.T) {
	c := startCluster(t)
	s, _ := newStore(t, c, "tiny", Options{Slots: 8, MaxProbe: 8})
	ctx := context.Background()
	var err error
	for i := 0; i < 16; i++ {
		err = s.Put(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v"))
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrFull) {
		t.Errorf("filling 8-slot table: err = %v, want ErrFull", err)
	}
}

func TestBadGeometry(t *testing.T) {
	c := startCluster(t)
	cli, err := c.NewClient(context.Background(), 1)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if _, err := Create(context.Background(), cli, "g1", Options{SlotSize: 10}); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("slot 10 = %v", err)
	}
	if _, err := Create(context.Background(), cli, "g2", Options{SlotSize: 384, StripeUnit: 64 << 10}); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("misaligned stripe = %v", err)
	}
}

func TestConcurrentDisjointWriters(t *testing.T) {
	c := startCluster(t)
	_, _ = newStore(t, c, "conc", Options{Slots: 4096})
	ctx := context.Background()

	const (
		writers = 3
		keys    = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		cli, err := c.NewClient(ctx, c.MemoryServerNodes()[w%3])
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		s, err := Open(ctx, cli, "conc", Options{Slots: 4096})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		wg.Add(1)
		go func(w int, s *Store) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := []byte(fmt.Sprintf("w%d-k%d", w, i))
				if err := s.Put(ctx, k, []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Errorf("writer %d put: %v", w, err)
					return
				}
			}
		}(w, s)
	}
	wg.Wait()

	checker, err := c.NewClient(ctx, 1)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	s, err := Open(ctx, checker, "conc", Options{Slots: 4096})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < keys; i++ {
			k := []byte(fmt.Sprintf("w%d-k%d", w, i))
			v, err := s.Get(ctx, k)
			if err != nil {
				t.Fatalf("get %s: %v", k, err)
			}
			if want := fmt.Sprintf("v%d", i); string(v) != want {
				t.Fatalf("get %s = %q, want %q", k, v, want)
			}
		}
	}
}

func TestConcurrentSameKeyContention(t *testing.T) {
	// Several clients hammer the same key with distinct tagged values; a
	// concurrent reader must always observe a complete, untorn value.
	c := startCluster(t)
	_, _ = newStore(t, c, "hot", Options{})
	ctx := context.Background()

	openStore := func(node int) *Store {
		cli, err := c.NewClient(ctx, c.MemoryServerNodes()[node%3])
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		s, err := Open(ctx, cli, "hot", Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return s
	}

	key := []byte("contended")
	if err := openStore(0).Put(ctx, key, valueFor(0, 0)); err != nil {
		t.Fatalf("seed put: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		s := openStore(w)
		wg.Add(1)
		go func(w int, s *Store) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Put(ctx, key, valueFor(w, i)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w, s)
	}

	reader := openStore(2)
	for i := 0; i < 100; i++ {
		v, err := reader.Get(ctx, key)
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		if !validValue(v) {
			t.Fatalf("torn value observed: %q", v)
		}
	}
	close(stop)
	wg.Wait()
}

// valueFor builds a self-consistent value: a tag repeated, so tearing is
// detectable.
func valueFor(w, i int) []byte {
	tag := fmt.Sprintf("[w%d-i%d]", w, i)
	return bytes.Repeat([]byte(tag), 96/len(tag))
}

func validValue(v []byte) bool {
	if len(v) == 0 {
		return false
	}
	end := bytes.IndexByte(v[1:], '[')
	if end < 0 {
		return false
	}
	tag := v[:end+1]
	for off := 0; off+len(tag) <= len(v); off += len(tag) {
		if !bytes.Equal(v[off:off+len(tag)], tag) {
			return false
		}
	}
	return true
}

// Property: a random batch of distinct keys round-trips.
func TestPutGetProperty(t *testing.T) {
	c := startCluster(t)
	s, _ := newStore(t, c, "prop", Options{Slots: 8192})
	ctx := context.Background()
	seen := make(map[string]bool)
	fn := func(rawKey []byte, rawVal []byte, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		if len(rawKey) == 0 || len(rawKey) > 32 {
			rawKey = []byte(fmt.Sprintf("k%d", rng.Int63()))
		}
		if seen[string(rawKey)] {
			return true
		}
		seen[string(rawKey)] = true
		if len(rawVal) > 128 {
			rawVal = rawVal[:128]
		}
		if err := s.Put(ctx, rawKey, rawVal); err != nil {
			return false
		}
		got, err := s.Get(ctx, rawKey)
		if err != nil {
			return false
		}
		return bytes.Equal(got, rawVal)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestCapacityAndMaxEntry(t *testing.T) {
	c := startCluster(t)
	s, _ := newStore(t, c, "meta", Options{SlotSize: 128, Slots: 512, StripeUnit: 16 << 10})
	if s.Capacity() != 512 {
		t.Errorf("Capacity = %d", s.Capacity())
	}
	if s.MaxEntry() != 128-slotHeader {
		t.Errorf("MaxEntry = %d", s.MaxEntry())
	}
}

// Regression: an operation cancelled mid-retry must surface the caller's
// ctx.Err(), not a generic retry-exhausted error.
func TestCancelledContextSurfacesCtxErr(t *testing.T) {
	c := startCluster(t)
	s, _ := newStore(t, c, "cancel", Options{})
	ctx := context.Background()
	if err := s.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if err := s.Put(canceled, []byte("k"), []byte("v2")); !errors.Is(err, context.Canceled) {
		t.Errorf("Put on canceled ctx = %v, want context.Canceled", err)
	}
	if _, err := s.Get(canceled, []byte("k")); !errors.Is(err, context.Canceled) {
		t.Errorf("Get on canceled ctx = %v, want context.Canceled", err)
	}
	if err := s.Delete(canceled, []byte("k")); !errors.Is(err, context.Canceled) {
		t.Errorf("Delete on canceled ctx = %v, want context.Canceled", err)
	}
}
