package simnet

import (
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestChaosKillRestart(t *testing.T) {
	f := NewFabric(2, testParams())
	c := NewChaos(f, 1)
	if err := c.KillNode(1); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	if _, err := f.Transfer(0, 1, 10, 0); !errors.Is(err, ErrNodeDown) {
		t.Errorf("err = %v, want ErrNodeDown", err)
	}
	if err := c.RestartNode(1); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	if _, err := f.Transfer(0, 1, 10, 0); err != nil {
		t.Errorf("after restart: %v", err)
	}
}

func TestChaosPartitionHeal(t *testing.T) {
	f := NewFabric(3, testParams())
	c := NewChaos(f, 1)
	c.Partition(0, 1)
	if _, err := f.Transfer(0, 1, 10, 0); !errors.Is(err, ErrPartitioned) {
		t.Errorf("err = %v, want ErrPartitioned", err)
	}
	if _, err := f.Transfer(0, 2, 10, 0); err != nil {
		t.Errorf("bystander pair affected: %v", err)
	}
	c.Heal(0, 1)
	if _, err := f.Transfer(0, 1, 10, 0); err != nil {
		t.Errorf("after heal: %v", err)
	}
}

func TestChaosDropRateZeroAndOne(t *testing.T) {
	f := NewFabric(2, testParams())
	c := NewChaos(f, 7)
	c.SetDropRate(0)
	if _, err := f.Transfer(0, 1, 10, 0); err != nil {
		t.Errorf("rate 0 dropped: %v", err)
	}
	c.SetDropRate(1)
	if _, err := f.Transfer(0, 1, 10, 0); !errors.Is(err, ErrDropped) {
		t.Errorf("rate 1 err = %v, want ErrDropped", err)
	}
	if st := c.Stats(); st.Drops != 1 {
		t.Errorf("Drops = %d, want 1", st.Drops)
	}
}

func TestChaosDropDecisionsDeterministic(t *testing.T) {
	// The same seed and the same transfer identities must produce the same
	// drop pattern, run to run.
	pattern := func(seed int64) []bool {
		f := NewFabric(2, testParams())
		c := NewChaos(f, seed)
		c.SetDropRate(0.5)
		var out []bool
		for i := 0; i < 64; i++ {
			_, err := f.Transfer(0, 1, 100+i, VTime(i*1000))
			out = append(out, errors.Is(err, ErrDropped))
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop decisions diverged at transfer %d", i)
		}
	}
	// A different seed should (overwhelmingly) give a different pattern.
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical drop patterns")
	}
}

func TestChaosDropRateIsRoughlyHonored(t *testing.T) {
	f := NewFabric(2, testParams())
	c := NewChaos(f, 99)
	c.SetDropRate(0.3)
	drops := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := f.Transfer(0, 1, i, VTime(i*777)); errors.Is(err, ErrDropped) {
			drops++
		}
	}
	got := float64(drops) / n
	if got < 0.2 || got > 0.4 {
		t.Errorf("observed drop rate %.3f, want ~0.3", got)
	}
}

func TestChaosPairDropOverride(t *testing.T) {
	f := NewFabric(3, testParams())
	c := NewChaos(f, 5)
	c.SetPairDropRate(0, 1, 1)
	if _, err := f.Transfer(0, 1, 10, 0); !errors.Is(err, ErrDropped) {
		t.Errorf("pair 0-1 err = %v, want ErrDropped", err)
	}
	if _, err := f.Transfer(0, 2, 10, 0); err != nil {
		t.Errorf("pair 0-2 should be clean: %v", err)
	}
	c.SetPairDropRate(0, 1, -1) // remove override
	if _, err := f.Transfer(0, 1, 10, 0); err != nil {
		t.Errorf("after override removal: %v", err)
	}
}

func TestChaosLatencySpike(t *testing.T) {
	p := testParams()
	f := NewFabric(2, p)
	c := NewChaos(f, 11)
	const extra = 50 * time.Microsecond
	c.SetLatencySpike(extra, 1)
	end, err := f.Transfer(0, 1, 1000, 0)
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	want := VTime(0).Add(extra + p.SerializationTime(1000) + p.PropDelay)
	if end != want {
		t.Errorf("spiked end = %v, want %v", end, want)
	}
	if st := c.Stats(); st.Spikes != 1 {
		t.Errorf("Spikes = %d, want 1", st.Spikes)
	}
}

func TestChaosScriptedEventsFireOnVirtualTime(t *testing.T) {
	f := NewFabric(2, testParams())
	c := NewChaos(f, 3)
	c.At(5000, func(ch *Chaos) { _ = ch.KillNode(1) })

	// Before the frontier reaches 5000 the node is up.
	if _, err := f.Transfer(0, 1, 1000, 0); err != nil {
		t.Fatalf("early transfer: %v", err)
	}
	// This transfer completes past v=5000, advancing the frontier across the
	// event; the next transfer must observe the kill.
	if _, err := f.Transfer(0, 1, 4000, 2000); err != nil {
		t.Fatalf("crossing transfer: %v", err)
	}
	if f.NodeUp(1) {
		t.Fatal("scripted kill did not fire")
	}
	if _, err := f.Transfer(0, 1, 10, 6000); !errors.Is(err, ErrNodeDown) {
		t.Errorf("err = %v, want ErrNodeDown", err)
	}
}

func TestChaosAtInThePastFiresImmediately(t *testing.T) {
	f := NewFabric(2, testParams())
	c := NewChaos(f, 3)
	if _, err := f.Transfer(0, 1, 1000, 0); err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	fired := false
	c.At(1, func(*Chaos) { fired = true })
	if !fired {
		t.Error("event scheduled behind the frontier did not fire")
	}
}

func TestChaosEventChaining(t *testing.T) {
	// An event's callback may schedule further events, including ones
	// already due; all must fire in one frontier crossing.
	f := NewFabric(2, testParams())
	c := NewChaos(f, 3)
	var order []int
	c.At(100, func(ch *Chaos) {
		order = append(order, 1)
		ch.At(200, func(*Chaos) { order = append(order, 2) })
	})
	c.Fire(1000)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("order = %v, want [1 2]", order)
	}
	if st := c.Stats(); st.Events != 2 {
		t.Errorf("Events = %d, want 2", st.Events)
	}
}

func TestChaosDetach(t *testing.T) {
	f := NewFabric(2, testParams())
	c := NewChaos(f, 1)
	c.SetDropRate(1)
	if _, err := f.Transfer(0, 1, 10, 0); !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
	c.Detach()
	if _, err := f.Transfer(0, 1, 10, 0); err != nil {
		t.Errorf("after detach: %v", err)
	}
}

// Property: hashUnit stays in [0,1) for arbitrary inputs, and is a pure
// function of its arguments.
func TestHashUnitProperty(t *testing.T) {
	fn := func(seed, a, b, c uint64) bool {
		u := hashUnit(seed, a, b, c)
		return u >= 0 && u < 1 && u == hashUnit(seed, a, b, c)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestClamp01(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {2, 1},
	}
	for _, tt := range tests {
		if got := clamp01(tt.in); got != tt.want {
			t.Errorf("clamp01(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// TestChaosEventDueDuringFireIsNotStranded: an event that becomes due while
// another event's callback runs must fire in the same crossing. The nested
// Advance returns early (a Fire is already running), so the running Fire
// has to look at the frontier again instead of at the v it was called with —
// otherwise a scripted heal waits for some later *successful* transfer, and
// retries against a dead node never lift the frontier.
func TestChaosEventDueDuringFireIsNotStranded(t *testing.T) {
	f := NewFabric(2, testParams())
	c := NewChaos(f, 3)
	fired := false
	c.At(10, func(*Chaos) { f.WaitUntil(30) })
	c.At(20, func(*Chaos) { fired = true })
	f.WaitUntil(10)
	if f.VNow() != 30 {
		t.Fatalf("frontier = %v, want 30", f.VNow())
	}
	if !fired {
		t.Error("event at 20 did not fire although the frontier reached 30 while the event at 10 ran")
	}
}

// TestChaosEventDueDuringConcurrentFireIsNotStranded is the two-goroutine
// form: the frontier is lifted past the second event by another actor's
// Advance while the first event's callback is still running.
func TestChaosEventDueDuringConcurrentFireIsNotStranded(t *testing.T) {
	f := NewFabric(2, testParams())
	c := NewChaos(f, 3)
	running, lifted := make(chan struct{}), make(chan struct{})
	var fired atomic.Bool
	c.At(10, func(*Chaos) {
		close(running)
		<-lifted
	})
	c.At(20, func(*Chaos) { fired.Store(true) })
	go func() {
		<-running
		f.WaitUntil(30) // its Advance finds a Fire in progress and returns
		close(lifted)
	}()
	f.WaitUntil(10)
	if !fired.Load() {
		t.Error("event at 20 did not fire although another actor lifted the frontier to 30 during the Fire at 10")
	}
}
