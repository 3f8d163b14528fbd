package simnet

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Chaos is a scriptable fault controller for a fabric. It implements the
// Injector interface and drives four failure classes:
//
//   - node kill/restart (link down, every transfer fails with ErrNodeDown)
//   - pairwise partition/heal (ErrPartitioned)
//   - transient drops: each transfer is lost with a configured probability
//     and fails with ErrDropped (the retryable class)
//   - latency spikes: each transfer is delayed by a configured extra with a
//     configured probability
//
// All probabilistic decisions are pure functions of the seed and the
// transfer's identity (endpoints, size, virtual start time), not of any
// mutable counter. Two runs over the same virtual timeline therefore make
// identical drop/spike decisions regardless of goroutine interleaving —
// chaos runs are deterministic and seedable.
//
// Scripted events fire on virtual time: At(v, fn) runs fn once the
// fabric-wide frontier crosses v. Because virtual time only advances as
// modeled work completes, a scripted timeline is reproducible in a way a
// wall-clock timeline is not.
type Chaos struct {
	f    *Fabric
	seed uint64

	// pendingEvents counts scheduled events, letting Advance return without
	// locking on the (hot) no-event path.
	pendingEvents atomic.Int32

	mu         sync.Mutex
	dropRate   float64
	pairDrop   map[[2]NodeID]float64
	spikeProb  float64
	spikeExtra time.Duration
	events     []chaosEvent
	firing     bool
	stats      ChaosStats
}

// chaosEvent is one scripted action on the virtual timeline.
type chaosEvent struct {
	at VTime
	fn func(*Chaos)
}

// ChaosStats counts what the controller has injected.
type ChaosStats struct {
	Drops  int64
	Spikes int64
	Events int64
}

// NewChaos attaches a chaos controller to the fabric. The controller
// replaces any previously installed injector.
func NewChaos(f *Fabric, seed int64) *Chaos {
	c := &Chaos{
		f:        f,
		seed:     uint64(seed),
		pairDrop: make(map[[2]NodeID]float64),
	}
	f.SetInjector(c)
	return c
}

// Detach removes the controller from the fabric; traffic flows clean again.
func (c *Chaos) Detach() { c.f.SetInjector(nil) }

// Stats returns a snapshot of the injected-fault counters.
func (c *Chaos) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// KillNode downs a node immediately: transfers to or from it fail with
// ErrNodeDown until RestartNode.
func (c *Chaos) KillNode(id NodeID) error { return c.f.SetNodeUp(id, false) }

// RestartNode brings a killed node's link back.
func (c *Chaos) RestartNode(id NodeID) error { return c.f.SetNodeUp(id, true) }

// Partition blocks all traffic between a and b until Heal.
func (c *Chaos) Partition(a, b NodeID) { c.f.SetPartition(a, b, true) }

// Heal unblocks traffic between a and b.
func (c *Chaos) Heal(a, b NodeID) { c.f.SetPartition(a, b, false) }

// SetDropRate makes every transfer fail with ErrDropped with probability p
// (clamped to [0,1]). Per-pair overrides from SetPairDropRate win.
func (c *Chaos) SetDropRate(p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropRate = clamp01(p)
}

// SetPairDropRate overrides the drop probability for one node pair (both
// directions). A negative p removes the override.
func (c *Chaos) SetPairDropRate(a, b NodeID, p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p < 0 {
		delete(c.pairDrop, pairKey(a, b))
		return
	}
	c.pairDrop[pairKey(a, b)] = clamp01(p)
}

// SetLatencySpike delays each transfer by extra with probability p.
func (c *Chaos) SetLatencySpike(extra time.Duration, p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spikeExtra = extra
	c.spikeProb = clamp01(p)
}

// At schedules fn to run once the fabric's virtual frontier reaches v. The
// callback runs on whichever goroutine advances the frontier (or calls
// Fire), so it must not block; the Chaos and Fabric mutation methods above
// are all safe to call from it.
func (c *Chaos) At(v VTime, fn func(*Chaos)) {
	c.mu.Lock()
	c.events = append(c.events, chaosEvent{at: v, fn: fn})
	sort.SliceStable(c.events, func(i, j int) bool { return c.events[i].at < c.events[j].at })
	c.mu.Unlock()
	c.pendingEvents.Add(1)
	// The frontier may already be past v.
	c.Fire(c.f.VNow())
}

// Fire runs every scheduled event due at or before v. The fabric calls it
// implicitly as the frontier advances; tests may call it directly to run a
// script against an idle fabric.
func (c *Chaos) Fire(v VTime) {
	if c.pendingEvents.Load() == 0 {
		return
	}
	c.mu.Lock()
	if c.firing {
		// An event's callback, or another goroutine's transfer, advanced the
		// frontier; the running Fire picks up anything newly due.
		c.mu.Unlock()
		return
	}
	c.firing = true
	for {
		// Re-read the frontier on every pass: an Advance that returned early
		// above did so under c.mu after lifting it, so whatever became due
		// while callbacks ran is seen here before firing is cleared.
		v = maxV(v, c.f.VNow())
		var due []chaosEvent
		for len(c.events) > 0 && c.events[0].at <= v {
			due = append(due, c.events[0])
			c.events = c.events[1:]
		}
		if len(due) == 0 {
			break
		}
		c.stats.Events += int64(len(due))
		c.mu.Unlock()
		c.pendingEvents.Add(int32(-len(due)))
		for _, ev := range due {
			ev.fn(c)
		}
		c.mu.Lock()
	}
	c.firing = false
	c.mu.Unlock()
}

// Transfer implements Injector: it decides drops and spikes for one
// transfer. The decision hashes the transfer's identity with the seed, so
// it is deterministic across runs and goroutine schedules.
func (c *Chaos) Transfer(from, to NodeID, n int, start VTime) (time.Duration, error) {
	c.mu.Lock()
	rate, ok := c.pairDrop[pairKey(from, to)]
	if !ok {
		rate = c.dropRate
	}
	spikeProb, spikeExtra := c.spikeProb, c.spikeExtra
	c.mu.Unlock()

	if rate > 0 && hashUnit(c.seed, uint64(from), uint64(to), uint64(n), uint64(start), 0x1) < rate {
		c.mu.Lock()
		c.stats.Drops++
		c.mu.Unlock()
		return 0, ErrDropped
	}
	if spikeProb > 0 && hashUnit(c.seed, uint64(from), uint64(to), uint64(n), uint64(start), 0x2) < spikeProb {
		c.mu.Lock()
		c.stats.Spikes++
		c.mu.Unlock()
		return spikeExtra, nil
	}
	return 0, nil
}

// Advance implements Injector: scripted events fire as the frontier moves.
func (c *Chaos) Advance(v VTime) { c.Fire(v) }

func clamp01(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}

// hashUnit maps (seed, words...) to a uniform float64 in [0,1) with a
// splitmix64-style mix. Pure function: no state, no interleaving effects.
func hashUnit(seed uint64, words ...uint64) float64 {
	x := seed
	for _, w := range words {
		x ^= w + 0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	// 53 high bits → [0,1).
	return float64(x>>11) / float64(1<<53)
}
