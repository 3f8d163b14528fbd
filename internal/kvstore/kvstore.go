// Package kvstore builds a shared key-value store on RStore's memory-like
// API — the "data store" use the paper's title promises, assembled purely
// from the primitives the paper provides: a region of distributed DRAM,
// one-sided reads and writes, and RDMA compare-and-swap for coordination.
//
// The table is a fixed-capacity open-addressing hash table striped across
// the cluster's memory servers, carried on the internal/txn optimistic
// transaction layer: every slot is a txn cell whose leading word is a
// version/lock word, updates run as (usually single-cell) transactions
// whose CAS lock doubles as the old seqlock, and reads are the txn
// layer's validated lock-free reads. What the move buys over the previous
// hand-rolled seqlock: a writer that dies mid-update no longer wedges its
// slot (stale locks are broken through the transaction log), and probe
// chains are claimed under real read-set validation, so racing inserts of
// the same new key can never land in two slots. Multiple clients on
// different machines share one table with no server-side code at all.
package kvstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"rstore/internal/client"
	"rstore/internal/txn"
)

// Store-level errors.
var (
	ErrFull     = errors.New("kvstore: table full")
	ErrNotFound = errors.New("kvstore: key not found")
	// ErrEntryTooLarge reports a key/value pair that cannot fit a
	// store's slot (or ordered-index node) geometry, and empty keys.
	ErrEntryTooLarge = errors.New("kvstore: entry exceeds slot size")
	ErrBadGeometry   = errors.New("kvstore: bad table geometry")
	// ErrContention reports that a slot stayed locked (or kept changing)
	// through every retry; the operation can simply be retried.
	ErrContention = errors.New("kvstore: slot contention retries exhausted")
)

// Slot layout (a txn cell):
//
//	[0,8)    version/lock word (owned by the txn layer)
//	[8,10)   keyLen   uint16
//	[10,12)  valLen   uint16
//	[12,12+keyLen)          key bytes
//	[12+keyLen, ...)        value bytes
//
// A never-written cell (version 0) is empty; a written cell with
// keyLen 0 is a tombstone.
const slotHeader = 12

// entryHeader is the body-relative prefix (the txn layer owns the word).
const entryHeader = slotHeader - 8

// Options tunes table geometry.
type Options struct {
	// SlotSize is the fixed on-wire slot size; an entry (key+value+header)
	// must fit. Default 256.
	SlotSize int
	// Slots is the table capacity. Default 4096.
	Slots int
	// StripeUnit for the backing region. Default 64 KiB.
	StripeUnit uint64
	// MaxProbe bounds linear probing. Default 64.
	MaxProbe int
	// LockRetries bounds retries against a locked or churning slot — both
	// the read path's validated-read loop and the write path's commit
	// attempts. Default 64.
	LockRetries int
}

func (o Options) withDefaults() Options {
	if o.SlotSize <= 0 {
		o.SlotSize = 256
	}
	if o.Slots <= 0 {
		o.Slots = 4096
	}
	if o.StripeUnit == 0 {
		o.StripeUnit = 64 << 10
	}
	if o.MaxProbe <= 0 {
		o.MaxProbe = 64
	}
	if o.LockRetries <= 0 {
		o.LockRetries = 64
	}
	return o
}

// txnOptions maps table geometry onto the transaction layer: one cell per
// slot, and the old lock-retry budget split between the validated-read
// loop and the commit retry policy (whose backoff mirrors the historical
// 5µs-doubling-to-320µs discipline, now with jitter).
func (o Options) txnOptions() txn.Options {
	return txn.Options{
		Cells:       o.Slots,
		CellSize:    o.SlotSize,
		StripeUnit:  o.StripeUnit,
		ReadRetries: o.LockRetries,
		Retry: client.RetryPolicy{
			MaxAttempts: o.LockRetries,
			BaseDelay:   5 * time.Microsecond,
			MaxDelay:    320 * time.Microsecond,
			Multiplier:  2,
			Jitter:      0.2,
		},
	}
}

// Store is a handle to a shared table. Every client opens its own handle;
// handles on different machines see the same data. A handle is not safe
// for concurrent use.
type Store struct {
	sp   *txn.Space
	opts Options
}

func (o Options) check() error {
	if o.SlotSize <= slotHeader || o.SlotSize%8 != 0 {
		return fmt.Errorf("%w: slot size %d", ErrBadGeometry, o.SlotSize)
	}
	if o.StripeUnit%uint64(o.SlotSize) != 0 {
		return fmt.Errorf("%w: stripe %d not a multiple of slot %d", ErrBadGeometry, o.StripeUnit, o.SlotSize)
	}
	return nil
}

// Create allocates the backing region (and its transaction log) and opens
// a handle. The creating client owns the region name; other clients use
// Open.
func Create(ctx context.Context, cli *client.Client, name string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := opts.check(); err != nil {
		return nil, err
	}
	sp, err := txn.Create(ctx, cli, name, opts.txnOptions())
	if err != nil {
		return nil, fmt.Errorf("kvstore create: %w", err)
	}
	return &Store{sp: sp, opts: opts}, nil
}

// Open maps an existing table.
func Open(ctx context.Context, cli *client.Client, name string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := opts.check(); err != nil {
		return nil, err
	}
	sp, err := txn.Open(ctx, cli, name, opts.txnOptions())
	if err != nil {
		return nil, fmt.Errorf("kvstore open: %w", err)
	}
	return &Store{sp: sp, opts: opts}, nil
}

// Close unmaps the table (the region itself persists).
func (s *Store) Close(ctx context.Context) error {
	return s.sp.Close(ctx)
}

// Capacity returns the slot count.
func (s *Store) Capacity() int { return s.opts.Slots }

// MaxEntry returns the largest key+value an entry may hold.
func (s *Store) MaxEntry() int { return s.opts.SlotSize - slotHeader }

func hashKey(key []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(key)
	return h.Sum64()
}

// checkEntry validates sizes.
func (s *Store) checkEntry(key, value []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("%w: empty key", ErrEntryTooLarge)
	}
	if len(key) > 0xffff || len(value) > 0xffff || len(key)+len(value) > s.MaxEntry() {
		return fmt.Errorf("%w: key %d + value %d > %d", ErrEntryTooLarge, len(key), len(value), s.MaxEntry())
	}
	return nil
}

// encodeEntry renders a cell body. A nil key produces a tombstone.
func encodeEntry(key, value []byte) []byte {
	b := make([]byte, entryHeader+len(key)+len(value))
	binary.LittleEndian.PutUint16(b, uint16(len(key)))
	binary.LittleEndian.PutUint16(b[2:], uint16(len(value)))
	copy(b[entryHeader:], key)
	copy(b[entryHeader+len(key):], value)
	return b
}

// decodeEntry parses a cell body; key and val alias body.
func decodeEntry(body []byte, slotSize int) (key, val []byte, ok bool) {
	if len(body) < entryHeader {
		return nil, nil, false
	}
	keyLen := int(binary.LittleEndian.Uint16(body))
	valLen := int(binary.LittleEndian.Uint16(body[2:]))
	if entryHeader+keyLen+valLen > slotSize-8 {
		return nil, nil, false
	}
	return body[entryHeader : entryHeader+keyLen], body[entryHeader+keyLen : entryHeader+keyLen+valLen], true
}

// wrapErr maps transaction-layer verdicts onto the store's sentinels.
func wrapErr(op string, key []byte, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, txn.ErrContended) {
		return fmt.Errorf("%w: %s %q", ErrContention, op, key)
	}
	return err
}

// findSlot probes the table inside a transaction. It returns the key's
// slot (found=true), or the first never-written slot the key could claim
// (free >= 0), or neither (probe budget exhausted: the chain is full).
// Tombstones are probed past, never reused — in this fixed-capacity table
// a slot once used stays consumed, which keeps the concurrent protocol
// free of the duplicate-insert hazard tombstone reuse would introduce.
func (s *Store) findSlot(ctx context.Context, tx *txn.Tx, key []byte) (slot int, found bool, free int, err error) {
	h := hashKey(key)
	for probe := 0; probe < s.opts.MaxProbe; probe++ {
		slot := int((h + uint64(probe)) % uint64(s.opts.Slots))
		version, body, err := tx.ReadVersioned(ctx, slot)
		if err != nil {
			return 0, false, -1, err
		}
		if version == 0 {
			// End of the probe chain: the key is not in the table, and this
			// slot (now in our read set at version 0) is claimable.
			return 0, false, slot, nil
		}
		k, _, ok := decodeEntry(body, s.opts.SlotSize)
		if ok && len(k) > 0 && bytes.Equal(k, key) {
			return slot, true, -1, nil
		}
		// Tombstone or another key's slot: keep probing.
	}
	return 0, false, -1, nil
}

// Put inserts or replaces the value for key.
func (s *Store) Put(ctx context.Context, key, value []byte) error {
	if err := s.checkEntry(key, value); err != nil {
		return err
	}
	err := s.sp.RunTx(ctx, func(tx *txn.Tx) error {
		slot, found, free, err := s.findSlot(ctx, tx, key)
		if err != nil {
			return err
		}
		switch {
		case found:
		case free >= 0:
			slot = free
		default:
			return fmt.Errorf("%w: after %d probes", ErrFull, s.opts.MaxProbe)
		}
		return tx.Write(slot, encodeEntry(key, value))
	})
	return wrapErr("put", key, err)
}

// Get returns the value for key. The returned slice is owned by the
// caller. Reads are lock-free validated reads straight off the cells — no
// transaction, no locks, same as the historical seqlock read.
func (s *Store) Get(ctx context.Context, key []byte) ([]byte, error) {
	if err := s.checkEntry(key, nil); err != nil {
		return nil, err
	}
	h := hashKey(key)
	for probe := 0; probe < s.opts.MaxProbe; probe++ {
		slot := int((h + uint64(probe)) % uint64(s.opts.Slots))
		version, body, err := s.sp.ReadCell(ctx, slot)
		if err != nil {
			return nil, wrapErr("get", key, err)
		}
		if version == 0 {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		k, v, ok := decodeEntry(body, s.opts.SlotSize)
		if ok && len(k) > 0 && bytes.Equal(k, key) {
			return append([]byte(nil), v...), nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
}

// Delete removes key. Deleting an absent key returns ErrNotFound.
//
// Deleted slots become tombstones (occupied version with zero-length key)
// so probe chains stay intact.
func (s *Store) Delete(ctx context.Context, key []byte) error {
	if err := s.checkEntry(key, nil); err != nil {
		return err
	}
	err := s.sp.RunTx(ctx, func(tx *txn.Tx) error {
		slot, found, _, err := s.findSlot(ctx, tx, key)
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		return tx.Write(slot, encodeEntry(nil, nil))
	})
	return wrapErr("delete", key, err)
}
