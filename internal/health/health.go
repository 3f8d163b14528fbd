// Package health is RStore's cluster health engine: a declarative rule
// set evaluated over windowed telemetry and control-plane state, producing
// alerts with firing→resolved transitions stamped in virtual time and a
// bounded ring of health events.
//
// The engine runs on the primary master, which is the only vantage point
// that already aggregates everything a verdict needs: liveness state from
// heartbeats, repair-plane state from its own bookkeeping, and windowed
// telemetry piggybacked on every heartbeat (the window rings of a
// telemetry.Snapshot). Rules never read live system state — each
// evaluation receives an immutable Input assembled by the caller, so rules
// are trivially testable and an evaluation can never deadlock against the
// master's locks.
//
// Staleness model: a memory server that stops heartbeating also stops
// refreshing its windowed telemetry, so its counters silently freeze
// rather than report zero. Rules that must react to silence therefore key
// off the control plane's liveness verdict (ServerHealth.Alive, itself
// driven by heartbeat misses) instead of inferring death from a flat
// series — an absence rule, not a threshold rule.
package health

import (
	"fmt"
	"time"

	"rstore/internal/simnet"
	"rstore/internal/telemetry"
)

// Severity orders how loud an alert is.
type Severity uint8

const (
	SevInfo Severity = iota
	SevWarn
	SevCrit
)

// String renders the severity for dumps and the CLI.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	default:
		return "crit"
	}
}

// ServerHealth is the control plane's view of one memory server at
// evaluation time.
type ServerHealth struct {
	Node simnet.NodeID
	// Alive is the master's liveness verdict (false after the configured
	// number of missed heartbeats).
	Alive bool
	// HoldsData reports whether any region copy still references the
	// server. Repair clears it as extents are re-homed, which is what
	// resolves a server-silent alert without the server coming back.
	HoldsData bool
	// SilentFor is the wall-clock time since the last heartbeat (zero
	// while alive).
	SilentFor time.Duration
}

// ClusterView is the control-plane state one evaluation sees.
type ClusterView struct {
	Servers          []ServerHealth
	RepairQueueDepth int64
	// DegradedRegions counts regions currently below their replication
	// factor.
	DegradedRegions int
}

// Input is the complete, immutable fact set for one evaluation.
type Input struct {
	// Now is the virtual instant of the evaluation; alert transitions are
	// stamped with it.
	Now simnet.VTime
	// Cluster is the control plane's current view.
	Cluster ClusterView
	// Windows is the cluster-merged telemetry (the master's own snapshot
	// merged with every server's heartbeat-piggybacked one); rules read
	// its window rings.
	Windows telemetry.Snapshot
}

// Finding is one target a rule considers unhealthy right now. A rule
// reporting no findings for a target the engine saw firing resolves that
// target's alert.
type Finding struct {
	// Target distinguishes instances of one rule (e.g. "node-3");
	// cluster-wide rules leave it empty.
	Target string
	Msg    string
}

// Rule is one health predicate. Eval must be a pure function of its
// input except for rule-private trend state (see NotDraining); the engine
// serializes evaluations, and a Rule value must not be shared between
// engines.
type Rule struct {
	Name     string
	Kind     string // "threshold" | "trend" | "absence"
	Severity Severity
	Eval     func(in Input) []Finding
}

// Probe extracts one number from an evaluation input. ok=false means the
// underlying metric has no windowed data yet; rules stay quiet rather
// than fire on a phantom zero.
type Probe func(in Input) (float64, bool)

// WindowDelta probes the named counter's increments over its newest k
// windows (whole ring when k <= 0).
func WindowDelta(name string, k int) Probe {
	return func(in Input) (float64, bool) {
		if _, ok := in.Windows.CounterWindows[name]; !ok {
			return 0, false
		}
		return float64(in.Windows.CounterDelta(name, k)), true
	}
}

// GaugeWindow probes the named gauge's newest windowed value.
func GaugeWindow(name string) Probe {
	return func(in Input) (float64, bool) {
		v, ok := in.Windows.GaugeLast(name)
		return float64(v), ok
	}
}

// Sum adds probes; it reports ok when any input does.
func Sum(ps ...Probe) Probe {
	return func(in Input) (float64, bool) {
		var total float64
		any := false
		for _, p := range ps {
			if v, ok := p(in); ok {
				total += v
				any = true
			}
		}
		return total, any
	}
}

// Ratio probes num/den, reporting ok only when both sides have data and
// the denominator is at least minDen — a floor that keeps tiny samples
// (two ops, one aborted) from looking like a 50% failure rate.
func Ratio(num, den Probe, minDen float64) Probe {
	return func(in Input) (float64, bool) {
		n, okN := num(in)
		d, okD := den(in)
		if !okN || !okD || d < minDen || d == 0 {
			return 0, false
		}
		return n / d, true
	}
}

// Threshold builds a cluster-wide rule that fires while probe > above.
func Threshold(name string, sev Severity, probe Probe, above float64, describe func(v float64) string) Rule {
	return Rule{Name: name, Kind: "threshold", Severity: sev, Eval: func(in Input) []Finding {
		v, ok := probe(in)
		if !ok || v <= above {
			return nil
		}
		return []Finding{{Msg: describe(v)}}
	}}
}

// NotDraining builds a trend (rate-of-change) rule that fires when probe
// has stayed positive without decreasing for evals consecutive
// evaluations — a backlog that exists and is not shrinking. Any decrease
// or an empty backlog resets the streak (and resolves the alert). The
// returned rule carries private trend state: use it in exactly one engine.
func NotDraining(name string, sev Severity, probe Probe, evals int, describe func(v float64) string) Rule {
	var prev float64
	var streak int
	var havePrev bool
	return Rule{Name: name, Kind: "trend", Severity: sev, Eval: func(in Input) []Finding {
		v, ok := probe(in)
		if !ok {
			havePrev, streak = false, 0
			return nil
		}
		if v <= 0 {
			prev, havePrev, streak = v, true, 0
			return nil
		}
		if havePrev && v >= prev {
			streak++
		} else {
			streak = 0
		}
		prev, havePrev = v, true
		if streak < evals {
			return nil
		}
		return []Finding{{Msg: describe(v)}}
	}}
}

// Absence builds a rule from a raw finding function — the shape for
// staleness rules, which react to state that stopped arriving (a silent
// server) rather than to a value that crossed a line.
func Absence(name string, sev Severity, eval func(in Input) []Finding) Rule {
	return Rule{Name: name, Kind: "absence", Severity: sev, Eval: eval}
}

// nodeTarget names a per-server alert target.
func nodeTarget(n simnet.NodeID) string { return fmt.Sprintf("node-%d", n) }
