package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"tag/internal/llm"
	"tag/internal/nlq"
	"tag/internal/tagbench"
	"tag/internal/world"
)

// Outcome is one (method, query) evaluation.
type Outcome struct {
	QueryID  string
	Method   string
	Type     nlq.QueryType
	Category nlq.Category
	Answer   *Answer
	Err      error
	Seconds  float64 // simulated LM seconds charged to this query
	Correct  bool    // exact match (non-aggregation only)
	Coverage float64 // fact coverage (aggregation only)
}

// Cell aggregates outcomes for one (method, slice) cell of a table.
type Cell struct {
	Exact   float64 // exact-match accuracy (NaN-free: -1 when N/A)
	Seconds float64 // mean execution time
	N       int
}

// Report is the full benchmark result set: enough to print Table 1,
// Table 2 and Figure 2.
type Report struct {
	Methods  []string
	Outcomes []Outcome
	// Usage holds each method's LM inference traffic for the run.
	Usage map[string]llm.Stats
}

// NewDefaultMethods constructs the paper's five methods, each with its own
// simulated model instance (same profile and seed — the same underlying
// "Llama" — but an independent clock, so per-method latency is isolated).
func NewDefaultMethods(profile llm.Profile) []Method {
	w := world.Default()
	newModel := func() *llm.SimLM {
		return llm.NewSimLM(w, profile, llm.NewClock(), llm.DefaultCostModel())
	}
	return []Method{
		&Text2SQL{Model: newModel()},
		&RAG{Model: newModel(), TopK: 10},
		&RetrievalLMRank{Model: newModel(), Candidates: 30, TopK: 10},
		&Text2SQLLM{Model: newModel()},
		&HandwrittenTAG{Model: newModel()},
	}
}

// NewAutomaticMethods constructs the two automatic TAG pipelines — syn
// written by the LM, without and with LM functions inside exec — as
// System.Ask runs them: behind the retry decorator. They are not rows of the
// paper's Table 1; cmd/tagbench prints them under it.
func NewAutomaticMethods(profile llm.Profile) []Method {
	var ms []Method
	for _, udfs := range []bool{false, true} {
		sim := llm.NewSimLM(world.Default(), profile, llm.NewClock(), llm.DefaultCostModel())
		ms = append(ms, &TAGPipelineMethod{Pipeline: Pipeline{Model: llm.WithRetry(sim, llm.DefaultRetryOptions()), UseLMUDFs: udfs}})
	}
	return ms
}

// modelOf extracts the method's simulated model (for clock access).
func modelOf(m Method) *llm.SimLM {
	switch t := m.(type) {
	case *Text2SQL:
		return t.Model.(*llm.SimLM)
	case *RAG:
		return t.Model.(*llm.SimLM)
	case *RetrievalLMRank:
		return t.Model.(*llm.SimLM)
	case *Text2SQLLM:
		return t.Model.(*llm.SimLM)
	case *HandwrittenTAG:
		return t.Model.(*llm.SimLM)
	case *TAGPipelineMethod:
		return llm.AsSimLM(t.Pipeline.Model) // under the retry decorator, as Ask runs it
	case *AgenticTAG:
		if sim, ok := t.Model.(*llm.SimLM); ok {
			return sim
		}
		return nil
	default:
		return nil
	}
}

// RunBenchmark evaluates the methods over the queries (nil = all 80) and
// scores them against ground truth.
func RunBenchmark(ctx context.Context, envs map[string]*Env, methods []Method, queries []*tagbench.Query) (*Report, error) {
	if queries == nil {
		queries = tagbench.Queries()
	}
	w := world.Default()
	rep := &Report{}
	for _, m := range methods {
		rep.Methods = append(rep.Methods, m.Name())
		if sim := modelOf(m); sim != nil {
			sim.ResetStats()
		}
	}
	for _, q := range queries {
		env, ok := envs[q.Spec.Domain]
		if !ok {
			return nil, fmt.Errorf("core: no environment for domain %s", q.Spec.Domain)
		}
		truth, err := tagbench.ComputeTruth(env.DB, w, q.Spec)
		if err != nil {
			return nil, fmt.Errorf("core: truth for %s: %w", q.ID, err)
		}
		for _, m := range methods {
			o := Outcome{
				QueryID: q.ID, Method: m.Name(),
				Type: q.Spec.Type, Category: q.Spec.Category,
			}
			var before float64
			model := modelOf(m)
			if model != nil {
				before = model.Clock().Now()
			}
			ans, err := m.Answer(ctx, env, q)
			if model != nil {
				o.Seconds = model.Clock().Now() - before
			}
			o.Answer = ans
			o.Err = err
			if err == nil && ans != nil {
				if q.Spec.Type == nlq.Aggregation {
					o.Coverage = tagbench.Coverage(ans.Text, truth.Facts)
				} else {
					o.Correct = tagbench.ExactMatch(ans.Values, truth.Values)
				}
			}
			rep.Outcomes = append(rep.Outcomes, o)
		}
	}
	rep.Usage = make(map[string]llm.Stats, len(methods))
	for _, m := range methods {
		if sim := modelOf(m); sim != nil {
			rep.Usage[m.Name()] = sim.Stats()
		}
	}
	return rep, nil
}

// CellFor aggregates outcomes for a method over a filter.
func (r *Report) CellFor(method string, keep func(Outcome) bool) Cell {
	var c Cell
	correct, scored := 0, 0
	var secs float64
	for _, o := range r.Outcomes {
		if o.Method != method || !keep(o) {
			continue
		}
		c.N++
		secs += o.Seconds
		if o.Type != nlq.Aggregation {
			scored++
			if o.Correct {
				correct++
			}
		}
	}
	if c.N > 0 {
		c.Seconds = secs / float64(c.N)
	}
	if scored > 0 {
		c.Exact = float64(correct) / float64(scored)
	} else {
		c.Exact = -1 // N/A (aggregation-only slice)
	}
	return c
}

// typeCell returns the Table 1 cell for (method, type).
func (r *Report) typeCell(method string, t nlq.QueryType) Cell {
	return r.CellFor(method, func(o Outcome) bool { return o.Type == t })
}

// Table1 renders the paper's Table 1: accuracy and execution time overall
// and per query type.
func (r *Report) Table1() string {
	var b strings.Builder
	b.WriteString("Table 1: Accuracy and execution time (ET) for TAG benchmark queries\n")
	fmt.Fprintf(&b, "%-22s %-16s %-16s %-16s %-16s %-16s\n",
		"Method", "Overall", "Match-based", "Comparison", "Ranking", "Aggregation")
	fmt.Fprintf(&b, "%-22s %-16s %-16s %-16s %-16s %-16s\n", "",
		"EM     ET(s)", "EM     ET(s)", "EM     ET(s)", "EM     ET(s)", "EM     ET(s)")
	b.WriteString(strings.Repeat("-", 105) + "\n")
	for _, m := range r.Methods {
		overall := r.CellFor(m, func(o Outcome) bool { return true })
		fmt.Fprintf(&b, "%-22s %-16s", m, cellString(overall))
		for _, t := range []nlq.QueryType{nlq.Match, nlq.Comparison, nlq.Ranking, nlq.Aggregation} {
			fmt.Fprintf(&b, " %-16s", cellString(r.typeCell(m, t)))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table2 renders the paper's Table 2: accuracy and ET by Knowledge vs
// Reasoning category.
func (r *Report) Table2() string {
	var b strings.Builder
	b.WriteString("Table 2: TAG benchmark results by Knowledge vs Reasoning queries\n")
	fmt.Fprintf(&b, "%-22s %-18s %-18s\n", "Method", "Knowledge", "Reasoning")
	fmt.Fprintf(&b, "%-22s %-18s %-18s\n", "", "EM     ET(s)", "EM     ET(s)")
	b.WriteString(strings.Repeat("-", 60) + "\n")
	for _, m := range r.Methods {
		k := r.CellFor(m, func(o Outcome) bool { return o.Category == nlq.Knowledge })
		re := r.CellFor(m, func(o Outcome) bool { return o.Category == nlq.Reasoning })
		fmt.Fprintf(&b, "%-22s %-18s %-18s\n", m, cellString(k), cellString(re))
	}
	return b.String()
}

// SpeedupLine reports hand-written TAG's latency advantage over the
// slowest baseline — the paper's "up to 3.1× lower execution time" claim.
func (r *Report) SpeedupLine() string {
	tag := r.CellFor("Hand-written TAG", func(Outcome) bool { return true })
	worstName, worst := "", 0.0
	for _, m := range r.Methods {
		if m == "Hand-written TAG" {
			continue
		}
		c := r.CellFor(m, func(Outcome) bool { return true })
		if c.Seconds > worst {
			worst, worstName = c.Seconds, m
		}
	}
	if tag.Seconds <= 0 || worst <= 0 {
		return ""
	}
	return fmt.Sprintf("Hand-written TAG mean ET %.2fs; %.1fx lower than %s (%.2fs)",
		tag.Seconds, worst/tag.Seconds, worstName, worst)
}

// CoverageSummary reports mean aggregation-answer fact coverage per method
// (this reproduction's quantitative extension for aggregation queries).
func (r *Report) CoverageSummary() string {
	var b strings.Builder
	b.WriteString("Aggregation fact coverage (extension; the paper scores aggregation qualitatively)\n")
	for _, m := range r.Methods {
		var sum float64
		n := 0
		for _, o := range r.Outcomes {
			if o.Method == m && o.Type == nlq.Aggregation {
				sum += o.Coverage
				n++
			}
		}
		if n > 0 {
			fmt.Fprintf(&b, "  %-22s %.2f\n", m, sum/float64(n))
		}
	}
	return b.String()
}

func cellString(c Cell) string {
	if c.N == 0 {
		return "-"
	}
	if c.Exact < 0 {
		return fmt.Sprintf("N/A    %5.2f", c.Seconds)
	}
	return fmt.Sprintf("%.2f   %5.2f", c.Exact, c.Seconds)
}

// Figure2 reproduces the paper's qualitative comparison: the answers of
// RAG, Text2SQL + LM and hand-written TAG on the Sepang aggregation query.
func Figure2(ctx context.Context, envs map[string]*Env, profile llm.Profile) (string, error) {
	var sepang *tagbench.Query
	for _, q := range tagbench.Queries() {
		if q.ID == "AK-01" {
			sepang = q
			break
		}
	}
	if sepang == nil {
		return "", fmt.Errorf("core: Sepang query (AK-01) missing from benchmark")
	}
	w := world.Default()
	newModel := func() *llm.SimLM {
		return llm.NewSimLM(w, profile, llm.NewClock(), llm.DefaultCostModel())
	}
	methods := []Method{
		&RAG{Model: newModel(), TopK: 10},
		&Text2SQLLM{Model: newModel()},
		&HandwrittenTAG{Model: newModel()},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — Query: %s\n\n", sepang.NL)
	for _, m := range methods {
		ans, err := m.Answer(ctx, envs[sepang.Spec.Domain], sepang)
		fmt.Fprintf(&b, "== %s ==\n", m.Name())
		switch {
		case err != nil:
			fmt.Fprintf(&b, "(failed: %v)\n\n", err)
		default:
			fmt.Fprintf(&b, "%s\n\n", ans.Text)
		}
	}
	return b.String(), nil
}

// UsageTable renders each method's LM inference traffic: single calls,
// batched calls, prompts served through batches, and token volumes. It
// makes §4.3's efficiency mechanism visible: TAG issues few batched calls
// with many prompts each; the baselines issue sequential single calls.
func (r *Report) UsageTable() string {
	var b strings.Builder
	b.WriteString("LM usage per method (full benchmark run)\n")
	fmt.Fprintf(&b, "%-22s %8s %8s %10s %12s %12s\n",
		"Method", "calls", "batches", "batched", "prompt_tok", "output_tok")
	b.WriteString(strings.Repeat("-", 78) + "\n")
	for _, m := range r.Methods {
		u, ok := r.Usage[m]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-22s %8d %8d %10d %12d %12d\n",
			m, u.Calls, u.BatchCalls, u.BatchedItems, u.PromptTokens, u.OutputTokens)
	}
	return b.String()
}

// SortOutcomes orders outcomes by query then method (stable output for
// golden tests and reports).
func (r *Report) SortOutcomes() {
	sort.SliceStable(r.Outcomes, func(i, j int) bool {
		if r.Outcomes[i].QueryID != r.Outcomes[j].QueryID {
			return r.Outcomes[i].QueryID < r.Outcomes[j].QueryID
		}
		return r.Outcomes[i].Method < r.Outcomes[j].Method
	})
}
