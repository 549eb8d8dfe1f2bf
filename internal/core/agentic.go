package core

import (
	"context"
	"fmt"
	"strings"

	"tag/internal/llm"
	"tag/internal/nlq"
	"tag/internal/tagbench"
)

// AgenticTAG is the paper's stated future-work direction (§5): "future
// work may explore extending this in an agentic loop". It wraps the
// single-iteration TAG pipeline in a bounded repair loop:
//
//	hop 1: run syn → exec → gen as usual;
//	on execution failure: repair the synthesised SQL (drop the last
//	  WHERE conjunct — the usual culprit is an over-constrained
//	  knowledge clause) and re-execute;
//	on an empty/unparseable answer: fall back to the hand-written
//	  semantic-operator pipeline when the question parses.
//
// Each hop costs real (simulated) LM time, so the latency/accuracy trade
// of agentic retries is measurable (BenchmarkAblation_AgenticTAG).
type AgenticTAG struct {
	Model llm.Model
	// MaxHops bounds the repair loop (default 3).
	MaxHops int
	// UseLMUDFs is forwarded to the inner pipeline.
	UseLMUDFs bool
}

// Name implements Method.
func (m *AgenticTAG) Name() string { return "TAG (agentic)" }

// Trace records what each hop did — exposed for tests and the CLI.
type Trace struct {
	Hops []string
}

// Answer implements Method.
func (m *AgenticTAG) Answer(ctx context.Context, env *Env, q *tagbench.Query) (*Answer, error) {
	ans, _, err := m.AnswerTraced(ctx, env, q)
	return ans, err
}

// AnswerTraced is Answer plus the hop-by-hop trace.
func (m *AgenticTAG) AnswerTraced(ctx context.Context, env *Env, q *tagbench.Query) (*Answer, *Trace, error) {
	maxHops := m.MaxHops
	if maxHops <= 0 {
		maxHops = 3
	}
	trace := &Trace{}
	p := &Pipeline{Model: m.Model, UseLMUDFs: m.UseLMUDFs}

	res, err := p.Run(ctx, env, q.NL)
	trace.Hops = append(trace.Hops, "pipeline")
	hops := 1

	// Repair loop: execution failures get progressively weaker SQL.
	for err != nil && res != nil && res.SQL != "" && hops < maxHops {
		repaired, ok := dropLastConjunct(res.SQL)
		if !ok {
			break
		}
		trace.Hops = append(trace.Hops, "repair-sql")
		hops++
		table, qerr := env.DB.QueryContext(ctx, repaired)
		if qerr != nil {
			res = &Result{Question: q.NL, SQL: repaired}
			err = qerr
			continue
		}
		answer, gerr := p.generate(ctx, q.NL, table)
		res = &Result{Question: q.NL, SQL: repaired, Table: table, Answer: answer}
		err = gerr
	}

	if err == nil && res != nil {
		ans := toAnswer(q, res.Answer)
		if !answerLooksEmpty(q, ans) {
			return ans, trace, nil
		}
		err = fmt.Errorf("agentic: empty answer")
	}

	// Final hop: hand-written semantic-operator fallback.
	if hops < maxHops {
		if _, perr := nlq.Parse(q.NL); perr == nil {
			trace.Hops = append(trace.Hops, "handwritten-fallback")
			hw := &HandwrittenTAG{Model: m.Model}
			ans, herr := hw.Answer(ctx, env, q)
			if herr == nil {
				return ans, trace, nil
			}
		}
	}
	return nil, trace, err
}

// answerLooksEmpty reports whether the pipeline produced nothing useful.
func answerLooksEmpty(q *tagbench.Query, a *Answer) bool {
	if a == nil {
		return true
	}
	if q.Spec.Type == nlq.Aggregation {
		return strings.TrimSpace(a.Text) == "" ||
			strings.Contains(a.Text, "do not have enough information")
	}
	return len(a.Values) == 0
}

// dropLastConjunct removes the final AND-conjunct of the WHERE clause,
// or the whole clause when only one predicate remains.
func dropLastConjunct(sql string) (string, bool) {
	upper := strings.ToUpper(sql)
	wi := strings.Index(upper, " WHERE ")
	if wi < 0 {
		return "", false
	}
	// The WHERE clause runs until ORDER BY / LIMIT (or the end).
	rest := sql[wi+len(" WHERE "):]
	tailIdx := len(rest)
	for _, kw := range []string{" ORDER BY ", " LIMIT "} {
		if i := strings.Index(strings.ToUpper(rest), kw); i >= 0 && i < tailIdx {
			tailIdx = i
		}
	}
	clause, tail := rest[:tailIdx], rest[tailIdx:]
	if ai := strings.LastIndex(strings.ToUpper(clause), " AND "); ai >= 0 {
		return sql[:wi] + " WHERE " + strings.TrimSpace(clause[:ai]) + tail, true
	}
	// Single predicate: drop WHERE entirely.
	return sql[:wi] + tail, true
}
