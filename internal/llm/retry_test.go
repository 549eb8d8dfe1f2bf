package llm

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// flakyModel fails the first failN calls of each kind with failErr, then
// succeeds.
type flakyModel struct {
	failN   int
	failErr error

	calls      int
	batchCalls int
}

func (f *flakyModel) Name() string       { return "flaky" }
func (f *flakyModel) ContextWindow() int { return 1 << 20 }

func (f *flakyModel) Complete(ctx context.Context, prompt string) (string, error) {
	f.calls++
	if f.calls <= f.failN {
		return "", f.failErr
	}
	return "ok:" + prompt, nil
}

func (f *flakyModel) CompleteBatch(ctx context.Context, prompts []string) ([]string, []error) {
	f.batchCalls++
	outs := make([]string, len(prompts))
	var errs []error
	for i, p := range prompts {
		if f.batchCalls <= f.failN && p == "bad" {
			if errs == nil {
				errs = make([]error, len(prompts))
			}
			errs[i] = f.failErr
			continue
		}
		outs[i] = "ok:" + p
	}
	return outs, errs
}

// noSleep removes real waiting from the retry loop and records the
// requested delays.
func noSleep(delays *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *delays = append(*delays, d) }
}

func TestRetryRecoversTransientFailure(t *testing.T) {
	var delays []time.Duration
	inner := &flakyModel{failN: 2, failErr: errors.New("conn reset")}
	m := WithRetry(inner, RetryOptions{sleep: noSleep(&delays), jitter: func(d time.Duration) time.Duration { return d }})
	out, err := m.Complete(context.Background(), "hello")
	if err != nil || out != "ok:hello" {
		t.Fatalf("Complete = %q, %v", out, err)
	}
	if inner.calls != 3 {
		t.Errorf("inner calls = %d, want 3", inner.calls)
	}
	if s := m.Stats(); s.Retries != 2 || s.GiveUps != 0 {
		t.Errorf("stats = %+v, want 2 retries, 0 give-ups", s)
	}
	// Exponential backoff: 50ms then 100ms (jitter disabled by the hook).
	if len(delays) != 2 || delays[0] != 50*time.Millisecond || delays[1] != 100*time.Millisecond {
		t.Errorf("delays = %v, want [50ms 100ms]", delays)
	}
}

func TestRetryGivesUpAfterBudget(t *testing.T) {
	var delays []time.Duration
	cause := errors.New("still down")
	inner := &flakyModel{failN: 99, failErr: cause}
	m := WithRetry(inner, RetryOptions{sleep: noSleep(&delays)})
	_, err := m.Complete(context.Background(), "x")
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want wrapped %v", err, cause)
	}
	if inner.calls != 3 {
		t.Errorf("inner calls = %d, want 3", inner.calls)
	}
	if s := m.Stats(); s.Retries != 2 || s.GiveUps != 1 {
		t.Errorf("stats = %+v, want 2 retries, 1 give-up", s)
	}
}

func TestRetryDoesNotRetryContextLength(t *testing.T) {
	inner := &flakyModel{failN: 99, failErr: ErrContextLength}
	m := WithRetry(inner, RetryOptions{sleep: func(time.Duration) {}})
	_, err := m.Complete(context.Background(), "x")
	if !errors.Is(err, ErrContextLength) {
		t.Fatalf("err = %v, want ErrContextLength", err)
	}
	if inner.calls != 1 {
		t.Errorf("inner calls = %d, want 1 (deterministic failure, no retry)", inner.calls)
	}
}

func TestRetryHonorsCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	inner := &flakyModel{failN: 99, failErr: errors.New("down")}
	m := WithRetry(inner, RetryOptions{sleep: func(time.Duration) { cancel() }})
	_, err := m.Complete(ctx, "x")
	if err == nil {
		t.Fatal("expected error after cancellation")
	}
	if inner.calls != 1 {
		t.Errorf("inner calls = %d, want 1 (cancelled during first backoff)", inner.calls)
	}
}

func TestRetryBatchRetriesOnlyFailedItems(t *testing.T) {
	inner := &flakyModel{failN: 1, failErr: errors.New("blip")}
	m := WithRetry(inner, RetryOptions{sleep: func(time.Duration) {}})
	outs, errs := m.CompleteBatch(context.Background(), []string{"a", "bad", "c"})
	if errs != nil {
		t.Fatalf("errs = %v, want all recovered", errs)
	}
	if outs[0] != "ok:a" || outs[1] != "ok:bad" || outs[2] != "ok:c" {
		t.Fatalf("outs = %v", outs)
	}
	if inner.batchCalls != 2 {
		t.Errorf("batch calls = %d, want 2 (initial + one retry of the failed item)", inner.batchCalls)
	}
	if s := m.Stats(); s.Retries != 1 {
		t.Errorf("stats = %+v, want 1 retry", s)
	}
}

func TestRetryBatchDoesNotRetryContextLength(t *testing.T) {
	inner := &flakyModel{failN: 99, failErr: ErrContextLength}
	m := WithRetry(inner, RetryOptions{sleep: func(time.Duration) {}})
	_, errs := m.CompleteBatch(context.Background(), []string{"a", "bad"})
	if errs == nil || !errors.Is(errs[1], ErrContextLength) {
		t.Fatalf("errs = %v, want ErrContextLength at index 1", errs)
	}
	if inner.batchCalls != 1 {
		t.Errorf("batch calls = %d, want 1", inner.batchCalls)
	}
}

// TestIsTransientClassification: retryable retries every failure but a
// context-window overflow, and nothing once the caller's context is done.
func TestIsTransientClassification(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		ctx  context.Context
		err  error
		want bool
	}{
		{context.Background(), ErrContextLength, false},
		{context.Background(), fmt.Errorf("batch item: %w", ErrContextLength), false},
		{context.Background(), errors.New("conn reset"), true},
		{context.Background(), context.DeadlineExceeded, true},
		{cancelled, errors.New("conn reset"), false},
		{cancelled, context.Canceled, false},
	}
	for _, c := range cases {
		if got := retryable(c.ctx, c.err); got != c.want {
			t.Errorf("retryable(ctx err %v, %v) = %v, want %v", c.ctx.Err(), c.err, got, c.want)
		}
	}
}

func TestAsSimLMUnwraps(t *testing.T) {
	if AsSimLM(&flakyModel{}) != nil {
		t.Error("AsSimLM on a non-SimLM model should be nil")
	}
	var m Model = WithRetry(&flakyModel{}, RetryOptions{})
	if AsSimLM(m) != nil {
		t.Error("AsSimLM through a wrapper over non-SimLM should be nil")
	}
}

func TestRetryPassesThroughSuccess(t *testing.T) {
	inner := &flakyModel{}
	m := WithRetry(inner, DefaultRetryOptions())
	if m.Name() != "flaky" || m.ContextWindow() != 1<<20 {
		t.Error("identity methods not delegated")
	}
	out, err := m.Complete(context.Background(), "p")
	if err != nil || out != "ok:p" {
		t.Fatalf("Complete = %q, %v", out, err)
	}
	if s := m.Stats(); s.Retries != 0 || s.GiveUps != 0 {
		t.Errorf("stats = %+v, want clean", s)
	}
}
