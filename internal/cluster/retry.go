package cluster

import (
	"errors"
	"math/rand"
	"time"
)

// RetryPolicy governs how RemoteNode retries idempotent control-plane
// operations (State, Release, Deflate) against a flaky controller: capped
// exponential backoff with jitter, and a per-attempt deadline replacing the
// old single flat client timeout. Non-idempotent operations (Launch) get
// the per-attempt deadline but never retry — a retried launch could
// double-place a VM.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 4; 1 disables retries).
	MaxAttempts int
	// BaseDelay scales the backoff ceiling for the first retry (default
	// 50ms); each further retry doubles the ceiling, capped at MaxDelay
	// (default 2s). The actual sleep uses full jitter: uniform over
	// (0, ceiling]. After a manager failover every node's client retries at
	// once, and ±fraction jitter around the same exponential ladder still
	// synchronizes the herd into narrow bands — full jitter spreads the
	// retry load across the whole window instead.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// OpTimeout bounds each attempt via a request context deadline
	// (default 5s).
	OpTimeout time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.OpTimeout == 0 {
		p.OpTimeout = 5 * time.Second
	}
	return p
}

// backoff returns the sleep before retry number retry (0-based): full
// jitter, drawn uniformly from (0, ceiling] where the ceiling is the capped
// exponential BaseDelay<<retry. Without an rng the raw ceiling is returned
// (deterministic callers).
func (p RetryPolicy) backoff(retry int, rng *rand.Rand) time.Duration {
	d := p.BaseDelay << uint(retry)
	if d > p.MaxDelay || d <= 0 { // d <= 0 guards shift overflow
		d = p.MaxDelay
	}
	if rng != nil {
		// (0, d], never zero: a zero sleep would turn retry storms into
		// busy loops against a server that just failed.
		d = 1 + time.Duration(rng.Int63n(int64(d)))
	}
	return d
}

// retryableError marks a failure as safe to retry: the request either never
// definitively reached the server (connection refused/dropped, timeout — a
// transport failure) or the server answered with a 5xx without committing a
// state change — or the operation carries an idempotency key making replays
// safe anyway. transport distinguishes the ambiguous "may have applied"
// failures, which delete-style callers use to accept a 404 on replay.
type retryableError struct {
	err       error
	transport bool
}

func (e retryableError) Error() string { return e.err.Error() }
func (e retryableError) Unwrap() error { return e.err }

// retryable wraps err for the retry loop (server answered, safe to retry).
func retryable(err error) error {
	if err == nil {
		return nil
	}
	return retryableError{err: err}
}

// transportFailure wraps a connection-level error (request may or may not
// have been applied).
func transportFailure(err error) error {
	if err == nil {
		return nil
	}
	return retryableError{err: err, transport: true}
}

// isRetryable reports whether the retry loop may try again.
func isRetryable(err error) bool {
	var r retryableError
	return errors.As(err, &r)
}

// isTransportFailure reports whether err was a connection-level failure.
func isTransportFailure(err error) bool {
	var r retryableError
	return errors.As(err, &r) && r.transport
}

// HeartbeatInterval draws the next agent-heartbeat sleep: full jitter over
// [base/2, 3·base/2), mean base. Agents started together (a rack reboot, a
// failover re-registration wave) would otherwise tick in lockstep forever
// and hit the manager in synchronized fan-in spikes; drawing every interval
// independently de-phases the fleet within a few beats and keeps it spread.
// Deterministic for a given rng stream; a nil rng returns base unchanged
// (callers that want fixed cadence).
func HeartbeatInterval(rng *rand.Rand, base time.Duration) time.Duration {
	if base <= 0 {
		base = time.Second
	}
	if rng == nil {
		return base
	}
	return base/2 + time.Duration(rng.Int63n(int64(base)))
}
