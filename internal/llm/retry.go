package llm

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// This file adds bounded, jittered retry around any Model. Real serving
// stacks fail transiently — connection resets, pod restarts — and a
// pipeline step that surfaces every blip as a hard error makes long
// benchmark runs flaky. WithRetry wraps a Model so that transient
// failures are retried with exponential backoff, while deterministic
// failures — a prompt that exceeds the context window, or the caller's
// own context being cancelled — are returned immediately.

// The retry policy: at most retryAttempts attempts per call (the first
// included), the backoff before the second retryBaseDelay, doubling per
// attempt up to retryMaxDelay.
const (
	retryAttempts  = 3
	retryBaseDelay = 50 * time.Millisecond
	retryMaxDelay  = 2 * time.Second
)

// RetryOptions configures WithRetry. Its only fields are test hooks: the
// policy itself is fixed (retryAttempts, retryBaseDelay, retryMaxDelay).
type RetryOptions struct {
	// sleep replaces the real backoff wait, jitter the randomised delay
	// spread.
	sleep  func(time.Duration)
	jitter func(time.Duration) time.Duration
}

// DefaultRetryOptions is the production configuration: three attempts,
// 50ms→2s jittered exponential backoff.
func DefaultRetryOptions() RetryOptions { return RetryOptions{} }

// delay computes the jittered backoff before attempt n+1 (n >= 1).
func (o RetryOptions) delay(n int) time.Duration {
	d := retryBaseDelay
	for i := 1; i < n && d < retryMaxDelay; i++ {
		d *= 2
	}
	d = min(d, retryMaxDelay)
	if o.jitter != nil {
		return o.jitter(d)
	}
	// Half fixed, half uniform random: spreads synchronized retries
	// without ever collapsing the wait to zero.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// RetryModel decorates an inner Model with the retry policy. Safe for
// concurrent use (the inner Model must be too).
type RetryModel struct {
	inner Model
	opts  RetryOptions

	mu      sync.Mutex
	retries int
	giveUps int
}

// WithRetry wraps model with bounded jittered retry for transient
// failures.
func WithRetry(model Model, opts RetryOptions) *RetryModel {
	return &RetryModel{inner: model, opts: opts}
}

// Unwrap exposes the decorated Model (AsSimLM looks through it).
func (m *RetryModel) Unwrap() Model { return m.inner }

// Name implements Model.
func (m *RetryModel) Name() string { return m.inner.Name() }

// ContextWindow implements Model.
func (m *RetryModel) ContextWindow() int { return m.inner.ContextWindow() }

// Stats returns the inner model's usage snapshot (when it keeps one) with
// the retry counters filled in.
func (m *RetryModel) Stats() Stats {
	var s Stats
	if sp, ok := m.inner.(interface{ Stats() Stats }); ok {
		s = sp.Stats()
	}
	m.mu.Lock()
	s.Retries = m.retries
	s.GiveUps = m.giveUps
	m.mu.Unlock()
	return s
}

// ResetStats zeroes the retry counters and the inner model's counters.
func (m *RetryModel) ResetStats() {
	if rp, ok := m.inner.(interface{ ResetStats() }); ok {
		rp.ResetStats()
	}
	m.mu.Lock()
	m.retries, m.giveUps = 0, 0
	m.mu.Unlock()
}

func (m *RetryModel) noteRetry() {
	m.mu.Lock()
	m.retries++
	m.mu.Unlock()
}

func (m *RetryModel) noteGiveUp() {
	m.mu.Lock()
	m.giveUps++
	m.mu.Unlock()
}

// retryable decides whether err from one attempt warrants another, given
// the caller's context: the caller cancelling always wins, and a prompt
// that exceeds the context window fails the same way every time. Every
// other failure is transient, since the deterministic ones are a known
// closed set.
func retryable(ctx context.Context, err error) bool {
	return ctx.Err() == nil && !errors.Is(err, ErrContextLength)
}

// backoff waits the jittered delay before the next attempt, honouring the
// caller's context. Reports false when the wait was cancelled.
func (m *RetryModel) backoff(ctx context.Context, attempt int) bool {
	d := m.opts.delay(attempt)
	if m.opts.sleep != nil {
		m.opts.sleep(d)
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Complete implements Model with the retry loop.
func (m *RetryModel) Complete(ctx context.Context, prompt string) (string, error) {
	for a := 1; ; a++ {
		out, err := m.inner.Complete(ctx, prompt)
		if err == nil {
			return out, nil
		}
		if !retryable(ctx, err) {
			return "", err
		}
		if a >= retryAttempts {
			m.noteGiveUp()
			return "", err
		}
		m.noteRetry()
		if !m.backoff(ctx, a) {
			return "", err
		}
	}
}

// CompleteBatch implements Model: the whole batch is issued once, then
// only the transiently-failed prompts are re-batched on each retry round,
// so one flaky item does not re-bill the whole batch.
func (m *RetryModel) CompleteBatch(ctx context.Context, prompts []string) ([]string, []error) {
	outs, errs := m.inner.CompleteBatch(ctx, prompts)
	if errs == nil {
		return outs, nil
	}
	for a := 1; a < retryAttempts; a++ {
		var retryIdx []int
		for i, err := range errs {
			if err != nil && retryable(ctx, err) {
				retryIdx = append(retryIdx, i)
			}
		}
		if len(retryIdx) == 0 {
			break
		}
		m.noteRetry()
		if !m.backoff(ctx, a) {
			break
		}
		sub := make([]string, len(retryIdx))
		for j, i := range retryIdx {
			sub[j] = prompts[i]
		}
		subOuts, subErrs := m.inner.CompleteBatch(ctx, sub)
		for j, i := range retryIdx {
			outs[i] = subOuts[j]
			if subErrs == nil {
				errs[i] = nil
			} else {
				errs[i] = subErrs[j]
			}
		}
	}
	// Anything still transiently failed after the final round is a give-up.
	clean := true
	for _, err := range errs {
		if err != nil {
			clean = false
			if retryable(ctx, err) {
				m.noteGiveUp()
			}
		}
	}
	if clean {
		return outs, nil
	}
	return outs, errs
}

// AsSimLM unwraps a Model to the underlying *SimLM, looking through
// decorators such as WithRetry. Returns nil when no SimLM is at the core.
func AsSimLM(m Model) *SimLM {
	for m != nil {
		if sim, ok := m.(*SimLM); ok {
			return sim
		}
		u, ok := m.(interface{ Unwrap() Model })
		if !ok {
			return nil
		}
		m = u.Unwrap()
	}
	return nil
}
