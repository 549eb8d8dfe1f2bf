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
	points, err := env.retrieve(q.NL, positiveOr(m.TopK, 10))
	if err != nil {
		return nil, err
	}
	return generateFromPoints(ctx, m.Model, llm.DataPoints(points), q)
}

// generateFromPoints runs the answer-generation step shared by the
// baselines that answer from rows in context.
func generateFromPoints(ctx context.Context, model llm.Model, points llm.Points, q *tagbench.Query) (*Answer, error) {
	out, err := genAnswer(ctx, model, points, q.NL, q.Spec.Type == nlq.Aggregation)
	if err != nil {
		return nil, err
	}
	return toAnswer(q, out), nil
}

// positiveOr is n, or def where n is not positive: a method's default size.
func positiveOr(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

// genAnswer is gen(R, T): the aggregation prompt for an aggregation
// question, the list-format prompt otherwise, over the points in context.
func genAnswer(ctx context.Context, model llm.Model, points llm.Points, question string, agg bool) (string, error) {
	prompt := llm.AnswerPrompt
	if agg {
		prompt = llm.AggAnswerPrompt
	}
	return model.Complete(ctx, prompt(points, question))
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
	points, err := env.retrieve(q.NL, positiveOr(m.Candidates, 30))
	if err != nil {
		return nil, err
	}
	prompts := make([]string, len(points))
	for i := range points {
		prompts[i] = llm.RerankPrompt(&points[i], q.NL)
	}
	outs, errs := m.Model.CompleteBatch(ctx, prompts)
	ranked, scores := make([]int, 0, len(points)), make([]float64, len(points))
	for i, out := range outs {
		if errs != nil && errs[i] != nil {
			continue // a failed call drops the row
		}
		if s, err := strconv.ParseFloat(strings.TrimSpace(out), 64); err == nil {
			scores[i] = s // an unreadable score stays 0
		}
		ranked = append(ranked, i)
	}
	sort.SliceStable(ranked, func(a, b int) bool { return scores[ranked[a]] > scores[ranked[b]] })
	kept := make(llm.DataPoints, min(len(ranked), positiveOr(m.TopK, 10)))
	for i := range kept {
		kept[i] = points[ranked[i]]
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
	a, err := generateFromPoints(ctx, m.Model, newResultPoints(res, true), q)
	if err != nil && q.Spec.Type == nlq.Aggregation {
		// Context-length failures degrade to a parametric-knowledge-only
		// answer for aggregation queries (Figure 2's middle panel); for
		// exact-match queries they are simply wrong.
		if out, ferr := m.Model.Complete(ctx, q.NL); ferr == nil {
			return &Answer{Text: out}, nil
		}
	}
	return a, err
}
