package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tag/internal/llm"
	"tag/internal/nlq"
	"tag/internal/tagbench"
)

// ---------------------------------------------------------------------------
// Text2SQL

// Text2SQL is the vanilla baseline: the LM generates SQL from the BIRD-
// style schema prompt, and the executed result is taken verbatim as the
// answer (§4.2). Reasoning clauses are inexpressible, and knowledge
// clauses depend on the model's parametric beliefs.
type Text2SQL struct {
	Model llm.Model
}

// Name implements Method.
func (m *Text2SQL) Name() string { return "Text2SQL" }

// Answer implements Method.
func (m *Text2SQL) Answer(ctx context.Context, env *Env, q *tagbench.Query) (*Answer, error) {
	sql, err := m.Model.Complete(ctx, llm.Text2SQLPrompt(env.Schema, q.NL))
	if err != nil {
		return nil, err
	}
	res, err := env.DB.QueryContext(ctx, sql)
	if err != nil {
		return nil, fmt.Errorf("text2sql: generated SQL failed: %w", err)
	}
	return resultToAnswer(res), nil
}

// ---------------------------------------------------------------------------
// RAG

// RAG is the retrieval-augmented baseline: row-level embeddings into a
// flat vector index, top-K retrieval, one LM generation call with the rows
// in context (§4.2).
type RAG struct {
	Model llm.Model
	// TopK rows fed to the model (the paper uses 10).
	TopK int
}

// Name implements Method.
func (m *RAG) Name() string { return "RAG" }

// Answer implements Method.
func (m *RAG) Answer(ctx context.Context, env *Env, q *tagbench.Query) (*Answer, error) {
	k := m.TopK
	if k <= 0 {
		k = 10
	}
	points, err := env.retrieve(q.NL, k)
	if err != nil {
		return nil, err
	}
	return generateFromPoints(ctx, m.Model, points, q)
}

// generateFromPoints runs the answer-generation step shared by the
// retrieval baselines: the aggregation prompt for aggregation queries, the
// list-format prompt otherwise.
func generateFromPoints(ctx context.Context, model llm.Model, points []llm.DataPoint, q *tagbench.Query) (*Answer, error) {
	if q.Spec.Type == nlq.Aggregation {
		out, err := model.Complete(ctx, llm.AggAnswerPrompt(points, q.NL))
		if err != nil {
			return nil, err
		}
		return &Answer{Text: out}, nil
	}
	out, err := model.Complete(ctx, llm.AnswerPrompt(points, q.NL))
	if err != nil {
		return nil, err
	}
	return parseListAnswer(out), nil
}

// ---------------------------------------------------------------------------
// Retrieval + LM Rank

// RetrievalLMRank extends RAG with an LM reranking pass (after STaRK): a
// wider retrieval whose rows the LM scores in [0,1]; the top-K survivors
// go in context.
type RetrievalLMRank struct {
	Model llm.Model
	// Candidates retrieved before reranking (default 30).
	Candidates int
	// TopK rows kept after reranking (default 10).
	TopK int
}

// Name implements Method.
func (m *RetrievalLMRank) Name() string { return "Retrieval + LM Rank" }

// Answer implements Method.
func (m *RetrievalLMRank) Answer(ctx context.Context, env *Env, q *tagbench.Query) (*Answer, error) {
	cand := m.Candidates
	if cand <= 0 {
		cand = 30
	}
	k := m.TopK
	if k <= 0 {
		k = 10
	}
	points, err := env.retrieve(q.NL, cand)
	if err != nil {
		return nil, err
	}
	prompts := make([]string, len(points))
	for i, p := range points {
		prompts[i] = llm.RerankPrompt(p, q.NL)
	}
	outs, errs := m.Model.CompleteBatch(ctx, prompts)
	type scored struct {
		p llm.DataPoint
		s float64
	}
	ranked := make([]scored, 0, len(points))
	for i, out := range outs {
		if errs != nil && errs[i] != nil {
			continue
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(out), 64)
		if err != nil {
			s = 0
		}
		ranked = append(ranked, scored{p: points[i], s: s})
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].s > ranked[j].s })
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	kept := make([]llm.DataPoint, len(ranked))
	for i, r := range ranked {
		kept[i] = r.p
	}
	return generateFromPoints(ctx, m.Model, kept, q)
}

// ---------------------------------------------------------------------------
// Text2SQL + LM

// Text2SQLLM is the stronger baseline: the LM first writes *retrieval* SQL
// for relevant rows, then answers from those rows in context (§4.2). Large
// retrievals overflow the context window — the failure the paper reports
// on match-based and comparison queries.
type Text2SQLLM struct {
	Model llm.Model
}

// Name implements Method.
func (m *Text2SQLLM) Name() string { return "Text2SQL + LM" }

// Answer implements Method.
func (m *Text2SQLLM) Answer(ctx context.Context, env *Env, q *tagbench.Query) (*Answer, error) {
	sql, err := m.Model.Complete(ctx, llm.Text2SQLRetrievalPrompt(env.Schema, q.NL))
	if err != nil {
		return nil, err
	}
	res, err := env.DB.QueryContext(ctx, sql)
	if err != nil {
		return nil, fmt.Errorf("text2sql+lm: retrieval SQL failed: %w", err)
	}
	a, err := generateFromPoints(ctx, m.Model, dataPoints(res, true), q)
	if err != nil {
		// Context-length failures degrade to a parametric-knowledge-only
		// answer for aggregation queries (Figure 2's middle panel); for
		// exact-match queries they are simply wrong.
		if q.Spec.Type == nlq.Aggregation {
			out, ferr := m.Model.Complete(ctx, q.NL)
			if ferr != nil {
				return nil, err
			}
			return &Answer{Text: out}, nil
		}
		return nil, err
	}
	return a, nil
}
