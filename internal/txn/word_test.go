package txn

import (
	"context"
	"errors"
	"testing"
)

func TestLockWordRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		owner  int
		incarn uint64
		seq    uint64
	}{
		{0, 0, 0},
		{3, 1, 1},
		{255, 0xffff, 1<<lockSeqBits - 1},
		{17, 0x12345, 0x1234567890}, // incarn/seq above their truncation widths
	} {
		w := lockWord(tc.owner, tc.incarn, tc.seq)
		if !wordLocked(w) || wordSingle(w) {
			t.Errorf("lockWord(%v): locked=%v single=%v", tc, wordLocked(w), wordSingle(w))
		}
		if got := lockOwnerSlot(w); got != tc.owner&0xff {
			t.Errorf("owner = %d, want %d", got, tc.owner&0xff)
		}
		if got := lockIncarn(w); got != tc.incarn&0xffff {
			t.Errorf("incarn = %#x, want %#x", got, tc.incarn&0xffff)
		}
		if got := lockSeq(w); got != tc.seq&(1<<lockSeqBits-1) {
			t.Errorf("seq = %#x, want %#x", got, tc.seq&(1<<lockSeqBits-1))
		}
	}
}

func TestSingleLockWordRoundTrip(t *testing.T) {
	for _, prior := range []uint64{0, 2, 4, 1 << 40, 1<<54 - 2} {
		w := singleLockWord(9, prior)
		if !wordLocked(w) || !wordSingle(w) {
			t.Fatalf("singleLockWord(%d): locked=%v single=%v", prior, wordLocked(w), wordSingle(w))
		}
		if got := singlePrior(w); got != prior {
			t.Errorf("singlePrior = %d, want %d", got, prior)
		}
		if got := lockOwnerSlot(w); got != 9 {
			t.Errorf("owner = %d, want 9", got)
		}
	}
}

func TestVersionsStayUnlocked(t *testing.T) {
	v := uint64(0)
	for i := 0; i < 100; i++ {
		if wordLocked(v) {
			t.Fatalf("version %d reads as locked", v)
		}
		v = nextVersion(v)
	}
}

func TestStatusMatches(t *testing.T) {
	lock := lockWord(5, 7, 42)
	if !statusMatches(statusWord(statePending, 7, 42), lock) {
		t.Error("matching status rejected")
	}
	for _, s := range []uint64{
		statusWord(statePending, 8, 42),   // other incarnation
		statusWord(statePending, 7, 43),   // other transaction
		statusWord(stateCommitted, 6, 42), // other incarnation, committed
		statusWord(stateAborted, 7, 42+1), // successor transaction
	} {
		if statusMatches(s, lock) {
			t.Errorf("status %#x matches lock %#x", s, lock)
		}
	}
	// States differ, transaction identity matches: still the same txn.
	if !statusMatches(statusWord(stateCommitted, 7, 42), lock) {
		t.Error("committed status of the same txn rejected")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	entries := []entry{
		{cell: 3, expect: 40, body: []byte("hello")},
		{cell: 900, expect: 0, body: nil},
		{cell: 41, expect: 1 << 40, body: make([]byte, 56)},
	}
	buf := make([]byte, 4096)
	status := statusWord(statePending, 12, 99)
	n := encodeRecord(buf, status, entries)
	gotStatus, got, err := decodeRecord(buf[:n])
	if err != nil {
		t.Fatalf("decodeRecord: %v", err)
	}
	if gotStatus != status {
		t.Errorf("status = %#x, want %#x", gotStatus, status)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i].cell != entries[i].cell || got[i].expect != entries[i].expect ||
			string(got[i].body) != string(entries[i].body) {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], entries[i])
		}
	}
}

func TestRecordCapacity(t *testing.T) {
	if c := recordCapacity(4096, 64); c < 16 {
		t.Errorf("default geometry capacity = %d, want >= 16", c)
	}
	if c := recordCapacity(64, 4096); c >= 1 {
		t.Errorf("tiny slot capacity = %d, want 0", c)
	}
}

func TestBackoffRespectsContext(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	// Both the spin phase and the sleep phase must notice cancellation.
	if err := backoff(canceled, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("spin-phase backoff on canceled ctx: got %v", err)
	}
	if err := backoff(canceled, 20); !errors.Is(err, context.Canceled) {
		t.Fatalf("sleep-phase backoff on canceled ctx: got %v", err)
	}
	if err := backoff(context.Background(), 20); err != nil {
		t.Fatalf("backoff with live ctx: got %v", err)
	}
}
