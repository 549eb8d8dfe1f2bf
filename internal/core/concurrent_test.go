package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tag/internal/llm"
	"tag/internal/sqldb"
)

// identicalTables reports whether two results have the same columns and
// Identical values, place by place: a Value has no ==, and
// reflect.DeepEqual would compare a TEXT by the address of its bytes.
func identicalTables(a, b *sqldb.Result) bool {
	return (a == nil) == (b == nil) && (a == nil || slices.Equal(a.Columns, b.Columns) &&
		slices.EqualFunc(a.Rows, b.Rows, func(x, y sqldb.Row) bool { return slices.EqualFunc(x, y, sqldb.Value.Identical) }))
}

// gateModel lets a test hold a request at a chosen prompt: before is called
// with every prompt on its way to the model (the first of a batch), and an
// error from it fails the call without reaching the model. Unwrap keeps
// llm.AsSimLM working for code that still looks for the SimLM underneath.
type gateModel struct {
	llm.Model
	before func(ctx context.Context, prompt string) error

	mu      sync.Mutex
	filters []string // the semantic-filter prompts sent through this gate
}

const synMark, filterMark = "-- Using valid SQLite", "Decide whether the claim is true."

func (g *gateModel) Unwrap() llm.Model { return g.Model }

func (g *gateModel) note(prompts ...string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range prompts {
		if strings.HasPrefix(p, filterMark) {
			g.filters = append(g.filters, p)
		}
	}
}

func (g *gateModel) Complete(ctx context.Context, prompt string) (string, error) {
	g.note(prompt)
	if err := g.before(ctx, prompt); err != nil {
		return "", err
	}
	return g.Model.Complete(ctx, prompt)
}

func (g *gateModel) CompleteBatch(ctx context.Context, prompts []string) ([]string, []error) {
	g.note(prompts...)
	if err := g.before(ctx, prompts[0]); err != nil {
		errs := make([]error, len(prompts))
		for i := range errs {
			errs[i] = err
		}
		return make([]string, len(prompts)), errs
	}
	return g.Model.CompleteBatch(ctx, prompts)
}

// await fails the test instead of hanging it when an expected event never
// comes (as on a build where requests do run under each other's state).
func await(t *testing.T, what string, chs ...<-chan struct{}) {
	t.Helper()
	timeout := time.After(20 * time.Second)
	for _, ch := range chs {
		select {
		case <-ch:
		case <-timeout:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

type runResult struct {
	res *Result
	err error
}

// TestConcurrentRunsKeepTheirOwnModelDialectAndContext runs three requests
// over one database: R1 and R2 share one model but not a dialect (R1's
// engine runs LM functions, R2's does not) and are interleaved at query
// synthesis; R1 and R3 both have LM functions inside exec, answered by
// different models, and R1's context is cancelled while both statements are
// mid-scan, waiting on their models. Each must synthesise in its own dialect;
// R1 must fail with its own cancellation and R3 must finish with the answer
// its own model gives it alone.
//
// Before LM functions were bound per statement, Run wrote the dialect onto
// the shared model and registered closures over the request's context in the
// database-wide registry, so whichever request came last set both for
// everybody: R1 here would synthesise in R2's dialect.
func TestConcurrentRunsKeepTheirOwnModelDialectAndContext(t *testing.T) {
	env := envsForTest(t)["codebase_community"]
	q1, q2 := queryByID(t, "CR-09").NL, queryByID(t, "CR-04").NL // comments … positive; posts … technical

	once := func(ch chan struct{}) func() { var o sync.Once; return func() { o.Do(func() { close(ch) }) } }
	r1AtSyn, r1SynGo, r1InExec := make(chan struct{}), make(chan struct{}), make(chan struct{})
	r2AtSyn, r2SynGo := make(chan struct{}), make(chan struct{})
	r3InExec, r3Go := make(chan struct{}), make(chan struct{})
	r1AtSynOnce, r1InExecOnce, r2AtSynOnce, r3InExecOnce := once(r1AtSyn), once(r1InExec), once(r2AtSyn), once(r3InExec)

	shared := llm.NewSimLM(env.World, llm.DefaultProfile(), llm.NewClock(), llm.DefaultCostModel())
	g1 := &gateModel{Model: shared, before: func(ctx context.Context, p string) error {
		switch {
		case strings.Contains(p, synMark):
			r1AtSynOnce()
			<-r1SynGo
		case strings.HasPrefix(p, filterMark):
			r1InExecOnce()
			<-ctx.Done() // the model call hangs until its request gives up
			return ctx.Err()
		}
		return nil
	}}
	g2 := &gateModel{Model: shared, before: func(_ context.Context, p string) error {
		if strings.Contains(p, synMark) {
			r2AtSynOnce()
			<-r2SynGo
		}
		return nil
	}}
	g3 := &gateModel{Model: oracleLM(), before: func(_ context.Context, p string) error {
		if strings.HasPrefix(p, filterMark) {
			r3InExecOnce()
			<-r3Go
		}
		return nil
	}}
	start := func(ctx context.Context, p *Pipeline, question string) <-chan runResult {
		done := make(chan runResult, 1)
		go func() {
			res, err := p.Run(ctx, env, question)
			done <- runResult{res, err}
		}()
		return done
	}
	finished := func(done <-chan runResult, what string) runResult {
		t.Helper()
		select {
		case r := <-done:
			return r
		case <-time.After(20 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
			return runResult{}
		}
	}
	sqlOf := func(r runResult) string {
		if r.res == nil {
			return ""
		}
		return r.res.SQL
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	done1 := start(ctx1, &Pipeline{Model: g1, UseLMUDFs: true}, q1)
	await(t, "R1 to reach query synthesis", r1AtSyn)
	done2 := start(context.Background(), &Pipeline{Model: g2, UseLMUDFs: false}, q2)
	await(t, "R2 to reach query synthesis", r2AtSyn)
	close(r1SynGo) // R1 synthesises after R2 has arrived with the other dialect
	close(r2SynGo)
	r2 := finished(done2, "R2")
	if r2.err != nil || strings.Contains(sqlOf(r2), "LLM_") {
		t.Errorf("R2 (no LM functions): err %v, SQL %q", r2.err, sqlOf(r2))
	}

	done3 := start(context.Background(), &Pipeline{Model: g3, UseLMUDFs: true}, q2)
	// R1 is in exec once its model has been asked; on a build where it
	// synthesised in the wrong dialect it never is, and simply finishes.
	r1Exec := make(chan struct{})
	var early *runResult
	go func() {
		select {
		case <-r1InExec:
		case r := <-done1:
			early = &r
		}
		close(r1Exec)
	}()
	await(t, "R1 and R3 to be mid-scan", r1Exec, r3InExec)
	cancel1()
	var r1 runResult
	if early != nil {
		r1 = *early
	} else {
		r1 = finished(done1, "R1")
	}
	if !strings.Contains(sqlOf(r1), "LLM_FILTER('positive'") {
		t.Errorf("R1 synthesised in another request's dialect: %q", sqlOf(r1))
	}
	if !errors.Is(r1.err, context.Canceled) {
		t.Errorf("R1, cancelled mid-scan: err = %v, want its own context.Canceled", r1.err)
	}
	close(r3Go)
	r3 := finished(done3, "R3")
	alone, err := (&Pipeline{Model: oracleLM(), UseLMUDFs: true}).Run(context.Background(), env, q2)
	if err != nil {
		t.Fatal(err)
	}
	if r3.err != nil || sqlOf(r3) != alone.SQL || r3.res.Answer != alone.Answer || !identicalTables(r3.res.Table, alone.Table) {
		t.Errorf("R3 beside a cancelled request: err %v, SQL %q, answer %q; alone: SQL %q, answer %q",
			r3.err, sqlOf(r3), r3.res.Answer, alone.SQL, alone.Answer)
	}
	for name, g := range map[string]*gateModel{"R1": g1, "R3": g3} {
		task := map[string]string{"R1": "is positive", "R3": "is technical"}[name]
		if len(g.filters) == 0 {
			t.Errorf("%s's model was never asked a filter claim", name)
		}
		for _, p := range g.filters {
			if !strings.Contains(p, task) {
				t.Errorf("%s's model was asked another request's claim: %q", name, p)
			}
		}
	}
	if len(g2.filters) != 0 {
		t.Errorf("R2's model was asked %d filter claims", len(g2.filters))
	}
	if n := env.DB.LiveSnapshots(); n != 0 {
		t.Errorf("LiveSnapshots = %d after the three requests, want 0", n)
	}
}
