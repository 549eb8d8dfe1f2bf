package core

import (
	"context"
	"fmt"
	"strings"

	"tag/internal/llm"
	"tag/internal/nlq"
	"tag/internal/sqldb"
	"tag/internal/tagbench"
)

// Pipeline is the general TAG system of §2: syn → exec → gen. Unlike the
// hand-written method it synthesises the database query automatically with
// the LM, and — when UseLMUDFs is set — lets exec run LM user-defined
// functions inside SQL (the §2.1 design point illustrated by Figure 1's
// "classic movie" predicate).
//
//	Query Synthesis : syn(R)    -> Q   (LM, BIRD-style schema prompt)
//	Query Execution : exec(Q)   -> T   (sqldb engine, optional LM UDFs)
//	Answer Generation: gen(R, T) -> A  (LM over the computed table)
type Pipeline struct {
	Model llm.Model
	// UseLMUDFs registers LLM_FILTER/LLM_SCORE with the database so that
	// synthesised SQL can call the model per row.
	UseLMUDFs bool
}

// Result carries the intermediate artefacts of a pipeline run, so callers
// (and the examples) can inspect each TAG step.
type Result struct {
	Question string
	SQL      string        // Q  — synthesised query
	Table    *sqldb.Result // T  — executed result
	Answer   string        // A  — generated natural-language answer
}

// Run executes one TAG iteration over the environment.
func (p *Pipeline) Run(ctx context.Context, env *Env, question string) (*Result, error) {
	// syn(R) -> Q. AsSimLM looks through decorators (llm.WithRetry), so
	// capability flags reach the simulated model even when wrapped.
	sim := llm.AsSimLM(p.Model)
	if sim != nil {
		sim.SQLCapabilities.LMUDFs = p.UseLMUDFs
	}
	sql, err := p.Model.Complete(ctx, llm.Text2SQLPrompt(env.Schema, question))
	if err != nil {
		return nil, fmt.Errorf("tag: query synthesis: %w", err)
	}
	// exec(Q) -> T. The caller's context flows into the engine, so a
	// cancelled request stops the scan mid-flight.
	if p.UseLMUDFs {
		RegisterLMUDFs(ctx, env.DB, p.Model)
	}
	table, err := env.DB.QueryContext(ctx, sql)
	if err != nil {
		return &Result{Question: question, SQL: sql},
			fmt.Errorf("tag: query execution: %w", err)
	}
	// gen(R, T) -> A
	answer, err := p.generate(ctx, question, table)
	if err != nil {
		return &Result{Question: question, SQL: sql, Table: table}, err
	}
	return &Result{Question: question, SQL: sql, Table: table, Answer: answer}, nil
}

// generate runs the answer-generation step over the computed table.
func (p *Pipeline) generate(ctx context.Context, question string, table *sqldb.Result) (string, error) {
	points := dataPoints(table, false)
	spec, err := nlq.Parse(question)
	if err == nil && spec.Type == nlq.Aggregation {
		return p.Model.Complete(ctx, llm.AggAnswerPrompt(points, question))
	}
	return p.Model.Complete(ctx, llm.AnswerPrompt(points, question))
}

// RegisterLMUDFs installs the LM user-defined functions on a database:
//
//	LLM_FILTER('task', value) -> BOOLEAN  per-row semantic predicate
//	LLM_SCORE('task', value)  -> REAL     per-row semantic score
//	LLM_MAP('task', value)    -> TEXT     per-row transformation
//
// They let exec() evaluate semantic predicates inside SQL, turning the
// engine into the LM-aware database API of §2.1.
func RegisterLMUDFs(ctx context.Context, db *sqldb.Database, model llm.Model) {
	db.Funcs().Register("LLM_FILTER", func(args []sqldb.Value) (sqldb.Value, error) {
		if len(args) != 2 {
			return sqldb.Null, fmt.Errorf("LLM_FILTER(task, value) takes 2 arguments")
		}
		claim := udfClaim(args[0].AsText(), args[1].AsText())
		out, err := model.Complete(ctx, llm.SemFilterPrompt(claim))
		if err != nil {
			return sqldb.Null, err
		}
		return sqldb.Bool(strings.EqualFold(strings.TrimSpace(out), "true")), nil
	})
	db.Funcs().Register("LLM_SCORE", func(args []sqldb.Value) (sqldb.Value, error) {
		if len(args) != 2 {
			return sqldb.Null, fmt.Errorf("LLM_SCORE(task, value) takes 2 arguments")
		}
		// Scores route through the comparison head's trait channel by
		// asking for a map-style transformation and falling back to a
		// filter verdict: 1.0 for true, 0.0 for false.
		claim := udfClaim(args[0].AsText(), args[1].AsText())
		out, err := model.Complete(ctx, llm.SemFilterPrompt(claim))
		if err != nil {
			return sqldb.Null, err
		}
		if strings.EqualFold(strings.TrimSpace(out), "true") {
			return sqldb.Float(1), nil
		}
		return sqldb.Float(0), nil
	})
	db.Funcs().Register("LLM_MAP", func(args []sqldb.Value) (sqldb.Value, error) {
		if len(args) != 2 {
			return sqldb.Null, fmt.Errorf("LLM_MAP(task, value) takes 2 arguments")
		}
		out, err := model.Complete(ctx, llm.SemMapPrompt(args[0].AsText(), args[1].AsText()))
		if err != nil {
			return sqldb.Null, err
		}
		return sqldb.Text(out), nil
	})
}

// udfClaim renders an LM UDF task name into the claim grammar of
// internal/llm/semantic.go.
func udfClaim(task, value string) string {
	switch strings.ToLower(strings.TrimSpace(task)) {
	case "classic movie", "classic":
		return value + " is a movie widely considered a classic"
	case "positive":
		return "the following text is positive: " + value
	case "negative":
		return "the following text is negative: " + value
	case "sarcastic":
		return "the following text is sarcastic: " + value
	case "technical":
		return "the following text is technical: " + value
	case "named after a person":
		return value + " is a school named after a person"
	case "premium":
		return value + " sounds like a premium product"
	default:
		return value + " satisfies: " + task
	}
}

// TAGPipelineMethod adapts Pipeline to the benchmark Method interface —
// the "automatic syn" variant of TAG, used by the ablation bench to
// compare against expert pipelines.
type TAGPipelineMethod struct {
	Pipeline Pipeline
}

// Name implements Method.
func (m *TAGPipelineMethod) Name() string { return "TAG (auto-syn)" }

// Answer implements Method.
func (m *TAGPipelineMethod) Answer(ctx context.Context, env *Env, q *tagbench.Query) (*Answer, error) {
	res, err := m.Pipeline.Run(ctx, env, q.NL)
	if err != nil {
		return nil, err
	}
	if q.Spec.Type == nlq.Aggregation {
		return &Answer{Text: res.Answer}, nil
	}
	return parseListAnswer(res.Answer), nil
}
