package client

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"rstore/internal/rdma"
	"rstore/internal/rpc"
	"rstore/internal/simnet"
)

// RetryPolicy governs control-plane retries: capped exponential backoff
// with bounded jitter. The data path never retries through this policy —
// per the paper's separation philosophy, failures there surface
// immediately as ErrIOFailed and recovery (re-dial, Remap) is a
// control-plane action.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included).
	// Default 5; values below 1 are treated as 1.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry. Default 2ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth. Default 250ms.
	MaxDelay time.Duration
	// Multiplier is the backoff growth factor. Default 2.
	Multiplier float64
	// Jitter is the fraction of the backoff randomized symmetrically around
	// it, in [0,1]: a delay d becomes uniform in [d(1-Jitter), d(1+Jitter)].
	// Default 0.2.
	Jitter float64
	// Seed makes the jitter sequence reproducible. Zero seeds from the
	// policy's defaults deterministically (chaos tests rely on this).
	Seed int64
}

// DefaultRetryPolicy returns the client's default control-plane policy.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    250 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
	}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts < 1 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.Multiplier < 1 {
		p.Multiplier = d.Multiplier
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Backoff returns the deterministic (jitter-free) delay before retry
// attempt. Attempt 0 is the first retry. The sequence is monotone
// non-decreasing and capped at MaxDelay.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	p = p.withDefaults()
	if attempt < 0 {
		attempt = 0
	}
	d := float64(p.BaseDelay)
	for i := 0; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			return p.MaxDelay
		}
	}
	if d > float64(p.MaxDelay) {
		return p.MaxDelay
	}
	return time.Duration(d)
}

// retrier executes operations under a policy with a seeded jitter stream.
type retrier struct {
	policy RetryPolicy
	// onRetry, when set, is invoked once per retry attempt (after the
	// backoff sleep, before the attempt itself) — the telemetry hook.
	onRetry func()

	mu  sync.Mutex
	rng *rand.Rand
}

func newRetrier(p RetryPolicy) *retrier {
	p = p.withDefaults()
	return &retrier{policy: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// Jittered returns Backoff(attempt) spread by the policy's jitter: u, a
// uniform draw in [0,1), picks the factor in [1-Jitter, 1+Jitter).
func (p RetryPolicy) Jittered(attempt int, u float64) time.Duration {
	p = p.withDefaults()
	return time.Duration(float64(p.Backoff(attempt)) * (1 + p.Jitter*(2*u-1)))
}

// Sleep waits d — the one place client-side code blocks on the clock
// between retries — and returns ctx.Err() the moment ctx is done. A
// non-positive d, or a ctx already done, returns without arming a timer.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 || ctx.Err() != nil {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jittered draws the next delay from the retrier's seeded stream.
func (r *retrier) jittered(attempt int) time.Duration {
	r.mu.Lock()
	u := r.rng.Float64()
	r.mu.Unlock()
	return r.policy.Jittered(attempt, u)
}

// permanentError marks an error that must not be retried even though its
// cause might otherwise look transient.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// permanent wraps err so the retrier stops immediately and surfaces it.
func permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// retryable reports whether a control-plane error class is worth another
// attempt: connection loss, fabric unreachability, transient drops, and
// per-attempt timeouts all are; remote business errors (already executed
// at the master) and typed client sentinels are not.
func retryable(err error) bool {
	var pe *permanentError
	if errors.As(err, &pe) {
		return false
	}
	var re *rpc.RemoteError
	if errors.As(err, &re) {
		return false
	}
	switch {
	case errors.Is(err, rpc.ErrConnClosed),
		errors.Is(err, simnet.ErrNodeDown),
		errors.Is(err, simnet.ErrPartitioned),
		errors.Is(err, simnet.ErrDropped),
		errors.Is(err, rdma.ErrQPState),
		errors.Is(err, rdma.ErrTimeout),
		errors.Is(err, context.DeadlineExceeded),
		// A pass of the master locator that found no serving primary is
		// worth repeating — the group may be mid-failover.
		errors.Is(err, ErrMasterUnavailable):
		return true
	default:
		return false
	}
}

// do runs op with retries. Each attempt receives the caller's context; the
// per-attempt deadline is applied by the RPC layer. Between attempts the
// retrier sleeps the jittered backoff, giving up early when the caller's
// context expires — total attempts always respect the context deadline.
func (r *retrier) do(ctx context.Context, op func(ctx context.Context) error) error {
	var err error
	for attempt := 0; attempt < r.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := Sleep(ctx, r.jittered(attempt-1)); err != nil {
				return err
			}
			if r.onRetry != nil {
				r.onRetry()
			}
		}
		err = op(ctx)
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return pe.err
		}
		if !retryable(err) {
			return err
		}
		if ctx.Err() != nil {
			// The caller's deadline expired during the attempt: stop, do not
			// burn further attempts against a dead clock.
			return err
		}
	}
	return err
}
