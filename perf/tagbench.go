package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tag/internal/core"
	"tag/internal/embed"
	"tag/internal/llm"
	"tag/internal/nlq"
	"tag/internal/sem"
	"tag/internal/sqldb"
	"tag/internal/tagbench"
	"tag/internal/tagbench/domains"
	"tag/internal/vector"
	"tag/internal/world"
)

// tagState is tagbench_methods after set-up: the five domain environments
// with their RAG indexes warm, ground truth for every question, and the
// answers of a reference round every timed round must reproduce.
type tagState struct {
	envs    map[string]*core.Env
	queries []*tagbench.Query
	truth   []*tagbench.Truth
	ref     [][]string // [method][question] answer fingerprints; nil while the reference round runs

	buildS, ragS float64
	rows         int
	stats0       sqldb.Stats // engine counters (five databases summed) when the timed loop starts

	// Where the model decorator hangs its spans: the Answer in progress.
	cur, req int32
	curEnv   *core.Env
	capture  bool
	captured []capturedSQL

	last roundFacts
}

// capturedSQL is one statement the LM synthesised, with the environment it
// ran against, kept for replay through sqldb.Parse and QueryContext.
type capturedSQL struct {
	env *core.Env
	sql string
}

// roundFacts are the counts of one round. The simulated LM is
// deterministic, so every round yields the same facts.
type roundFacts struct {
	exact   []float64 // per method: exact match over the scored (non-aggregation) questions
	simS    []float64 // per method: mean simulated LM seconds per question
	lm      llm.Stats // all methods summed
	simSum  float64
	answers int
}

func setupTagbench(cfg config) (state, error) {
	s := &tagState{envs: make(map[string]*core.Env)}
	for i, q := range tagbench.Queries() {
		if i%cfg.Size.QuestionStride == 0 {
			s.queries = append(s.queries, q)
		}
	}
	t0 := time.Now()
	for _, name := range domains.Names() {
		db, err := domains.Build(name)
		if err != nil {
			return nil, err
		}
		s.envs[name] = core.NewEnv(name, db)
	}
	s.buildS = time.Since(t0).Seconds()
	for _, env := range s.envs {
		for _, t := range env.DB.TableNames() {
			res, err := env.DB.Query("SELECT COUNT(*) FROM " + t)
			if err != nil {
				return nil, err
			}
			s.rows += int(res.Rows[0][0].AsInt())
		}
	}
	w := world.Default()
	for _, q := range s.queries {
		truth, err := tagbench.ComputeTruth(s.envs[q.Spec.Domain].DB, w, q.Spec)
		if err != nil {
			return nil, fmt.Errorf("truth for %s: %w", q.ID, err)
		}
		s.truth = append(s.truth, truth)
	}
	// The first retrieval in each domain embeds every row; pay that here.
	t0 = time.Now()
	rag := &core.RAG{Model: newSim(), TopK: 10}
	for _, q := range s.queries {
		if _, err := rag.Answer(context.Background(), s.envs[q.Spec.Domain], q); err != nil {
			return nil, fmt.Errorf("warming RAG index: %w", err)
		}
	}
	s.ragS = time.Since(t0).Seconds()

	ref := make([][]string, len(methodKeys))
	for i := range ref {
		ref[i] = make([]string, len(s.queries))
	}
	s.runRound(nil, ref)
	s.ref = ref
	s.stats0 = s.engineStats()
	return s, nil
}

// engineStats sums the counters of the five domain databases.
func (s *tagState) engineStats() sqldb.Stats {
	var sum sqldb.Stats
	for _, env := range s.envs {
		sum = statsCombine(sum, env.DB.Stats(), 1)
	}
	return sum
}

func newSim() *llm.SimLM {
	return llm.NewSimLM(world.Default(), llm.DefaultProfile(), llm.NewClock(), llm.DefaultCostModel())
}

// newMethods builds the seven methods with fresh models. The two pipeline
// methods get the retry decorator System.Ask puts on its model.
func newMethods() []core.Method {
	ms := core.NewDefaultMethods(llm.DefaultProfile())
	for _, udfs := range []bool{false, true} {
		model := llm.WithRetry(newSim(), llm.DefaultRetryOptions())
		ms = append(ms, &core.TAGPipelineMethod{Pipeline: core.Pipeline{Model: model, UseLMUDFs: udfs}})
	}
	return ms
}

// modelSlot points at the method's Model field so a decorator can be put
// in front of it.
func modelSlot(m core.Method) *llm.Model {
	switch t := m.(type) {
	case *core.Text2SQL:
		return &t.Model
	case *core.RAG:
		return &t.Model
	case *core.RetrievalLMRank:
		return &t.Model
	case *core.Text2SQLLM:
		return &t.Model
	case *core.HandwrittenTAG:
		return &t.Model
	case *core.TAGPipelineMethod:
		return &t.Pipeline.Model
	}
	panic(fmt.Sprintf("perf: no model slot for %T", m))
}

// tracedModel times every call into the model from outside. Unwrap keeps
// llm.AsSimLM working, which Pipeline.Run needs to reach the SimLM.
type tracedModel struct {
	llm.Model
	s   *tagState
	rec *recorder
}

func (t *tracedModel) Unwrap() llm.Model { return t.Model }

func (t *tracedModel) Complete(ctx context.Context, prompt string) (string, error) {
	id := t.rec.begin("llm.complete", t.s.cur, t.s.req)
	out, err := t.Model.Complete(ctx, prompt)
	t.rec.end(id)
	if t.s.capture && strings.HasPrefix(out, "SELECT ") {
		t.s.captured = append(t.s.captured, capturedSQL{t.s.curEnv, out})
	}
	return out, err
}

func (t *tracedModel) CompleteBatch(ctx context.Context, prompts []string) ([]string, []error) {
	id := t.rec.begin("llm.batch", t.s.cur, t.s.req)
	outs, errs := t.Model.CompleteBatch(ctx, prompts)
	t.rec.end(id)
	return outs, errs
}

// fingerprint renders an answer (or its error) so two rounds can be
// compared byte for byte.
func fingerprint(a *core.Answer, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return strings.Join(a.Values, "\x1f") + "\x1e" + a.Text
}

func (s *tagState) round(_ int, rec *recorder, n int) (int, int) {
	s.capture = rec != nil && n == 1
	return s.runRound(rec, nil)
}

// runRound answers every question with every method. With collect set it
// fills the reference fingerprints; otherwise an answer that differs from
// the reference is a failed op.
func (s *tagState) runRound(rec *recorder, collect [][]string) (ops, failed int) {
	ctx := context.Background()
	facts := roundFacts{exact: make([]float64, len(methodKeys)), simS: make([]float64, len(methodKeys))}
	scored := 0
	for _, q := range s.queries {
		if q.Spec.Type != nlq.Aggregation {
			scored++
		}
	}
	for mi, m := range newMethods() {
		slot := modelSlot(m)
		inner := *slot
		if rec != nil {
			*slot = &tracedModel{Model: inner, s: s, rec: rec}
		}
		spanName := "core." + methodKeys[mi] + ".answer"
		correct := 0
		for qi, q := range s.queries {
			s.curEnv = s.envs[q.Spec.Domain]
			s.req = int32(ops)
			s.cur = rec.begin(spanName, noSpan, s.req)
			ans, err := m.Answer(ctx, s.curEnv, q)
			rec.end(s.cur)
			ops++
			fp := fingerprint(ans, err)
			if collect != nil {
				collect[mi][qi] = fp
			} else if fp != s.ref[mi][qi] {
				failed++
			}
			if err == nil && q.Spec.Type != nlq.Aggregation && tagbench.ExactMatch(ans.Values, s.truth[qi].Values) {
				correct++
			}
		}
		sim := llm.AsSimLM(inner)
		st := sim.Stats()
		if r, ok := inner.(*llm.RetryModel); ok {
			st.Retries = r.Stats().Retries
		}
		facts.lm = lmAdd(facts.lm, st)
		facts.simSum += sim.Clock().Now()
		facts.simS[mi] = sim.Clock().Now() / float64(len(s.queries))
		facts.exact[mi] = ratio(float64(correct), float64(scored))
	}
	facts.answers = ops
	s.last = facts
	return ops, failed
}

func lmAdd(a, b llm.Stats) llm.Stats {
	a.Calls += b.Calls
	a.BatchCalls += b.BatchCalls
	a.BatchedItems += b.BatchedItems
	a.PromptTokens += b.PromptTokens
	a.OutputTokens += b.OutputTokens
	a.Retries += b.Retries
	return a
}

func (s *tagState) finish(cfg config, out *layerOut) (int, int, error) {
	m, f := out.m, s.last
	answers := float64(f.answers)
	var exactSum float64
	for mi, key := range methodKeys {
		m["core."+key+".exact_match"] = f.exact[mi]
		m["core."+key+".sim_et_s"] = f.simS[mi]
		exactSum += f.exact[mi]
	}
	m["exact_match_mean"] = exactSum / float64(len(methodKeys))
	m["lm_tokens_per_answer"] = float64(f.lm.PromptTokens+f.lm.OutputTokens) / answers
	if !cfg.Trace {
		return 0, 0, nil
	}

	m["domains.build_s"] = s.buildS
	m["domains.bulk_rows_per_s"] = float64(s.rows) / s.buildS
	m["core.rag_index_build_s"] = s.ragS
	m["llm.calls_per_answer"] = float64(f.lm.Calls) / answers
	m["llm.batch_calls_per_answer"] = float64(f.lm.BatchCalls) / answers
	m["llm.items_per_batch"] = ratio(float64(f.lm.BatchedItems), float64(f.lm.BatchCalls))
	m["llm.prompt_tokens_per_answer"] = float64(f.lm.PromptTokens) / answers
	m["llm.output_tokens_per_answer"] = float64(f.lm.OutputTokens) / answers
	m["llm.retries"] = float64(f.lm.Retries)
	m["llm.sim_s_per_call"] = ratio(f.simSum, float64(f.lm.Calls+f.lm.BatchCalls))

	isLLM := func(n string) bool { return strings.HasPrefix(n, "llm.") }
	isAnswer := func(n string) bool { return strings.HasSuffix(n, ".answer") }
	for _, key := range methodKeys {
		out.spans.p50p99(m, out.tails, "core."+key+".answer", "core."+key+".answer")
	}
	m["llm.complete_us"] = median(append(out.spans.durations("llm.complete"), out.spans.durations("llm.batch")...))
	answerUS := out.spans.total(isAnswer)
	m["llm.wall_share"] = ratio(out.spans.total(isLLM), answerUS)

	s.probeLayers(out)

	// Replay the SQL the LM wrote in the first traced round: exec cannot
	// be timed from outside inside Answer, so it is timed here, alone.
	// Statements with LM UDFs are left out; they would call the model.
	ctx := context.Background()
	var execUS float64
	for _, c := range s.captured {
		if strings.Contains(c.sql, "LLM_") {
			continue
		}
		var runs []float64
		for i := 0; i < 3; i++ {
			// LM-written SQL may be invalid; the time to reject it counts too.
			timeSpan(out.probe, "sqldb.parse", func() { _, _ = sqldb.Parse(c.sql) })
			d := timeSpan(out.probe, "sqldb.exec.tag_sql", func() { _, _ = c.env.DB.QueryContext(ctx, c.sql) })
			runs = append(runs, float64(d)/1e3)
		}
		execUS += median(runs)
	}
	m["sqldb.parse_us"] = out.spans.p50("sqldb.parse")
	m["sqldb.exec.tag_sql_p50_us"] = out.spans.p50("sqldb.exec.tag_sql")
	// One traced round's Answer time against one replay of its SQL.
	tracedRounds := float64(len(out.spans.durations("core."+methodKeys[0]+".answer"))) / float64(len(s.queries))
	m["core.self_share"] = 1 - m["llm.wall_share"] - ratio(execUS, answerUS/tracedRounds)

	engineMetrics(m, statsCombine(s.engineStats(), s.stats0, -1), out.wall)
	return 0, 0, nil
}

// probeLayers calls nlq, llm prompt building, embed, vector and sem
// directly, the way the methods call them, and records one span per call.
func (s *tagState) probeLayers(out *layerOut) {
	ctx := context.Background()
	p := out.probe
	schools := s.envs["california_schools"]
	embedder := embed.New(0)
	idx := vector.NewFlat(embedder.Dim(), vector.Cosine)
	if res, err := schools.DB.Query("SELECT * FROM schools"); err == nil {
		for i, row := range res.Rows {
			var text strings.Builder
			for ci, v := range row {
				text.WriteString("- " + res.Columns[ci] + ": " + v.AsText() + "\n")
			}
			// Add fails only on a dimension mismatch, which Dim() rules out.
			_ = idx.Add(i, embedder.Embed(text.String()))
		}
	}
	for _, q := range s.queries {
		timeSpan(p, "nlq.parse", func() { _, _ = nlq.Parse(q.NL) })
		schema := s.envs[q.Spec.Domain].Schema
		timeSpan(p, "llm.prompt_build", func() { _ = llm.Text2SQLPrompt(schema, q.NL) })
		var vec []float32
		timeSpan(p, "embed.embed", func() { vec = embedder.Embed(q.NL) })
		timeSpan(p, "vector.search", func() { _, _ = idx.Search(vec, 10) })
	}
	m := out.m
	m["nlq.parse_us"] = out.spans.p50("nlq.parse")
	m["llm.prompt_build_us"] = out.spans.p50("llm.prompt_build")
	m["embed.embed_us"] = out.spans.p50("embed.embed")
	m["vector.search_us"] = out.spans.p50("vector.search")

	cities, err1 := sem.FromTable(schools.DB, "schools")
	comments, err2 := sem.FromTable(s.envs["codebase_community"].DB, "comments")
	if err1 != nil || err2 != nil {
		return
	}
	comments = comments.Head(50)
	for i := 0; i < 5; i++ {
		model := newSim()
		timeSpan(p, "sem.filter", func() {
			_, _ = cities.SemFilter(ctx, model, "{City} is a city in the Silicon Valley region")
		})
		timeSpan(p, "sem.topk", func() { _, _ = comments.SemTopK(ctx, model, "more sarcastic", "Text", 5) })
		timeSpan(p, "sem.agg", func() { _, _ = comments.SemAgg(ctx, model, "Summarize the comments", "Text") })
	}
	m["sem.filter_us_per_row"] = out.spans.p50("sem.filter") / float64(cities.Len())
	m["sem.topk_us"] = out.spans.p50("sem.topk")
	m["sem.agg_us"] = out.spans.p50("sem.agg")
}

func (s *tagState) close() {}
