package core

import (
	"context"
	"fmt"

	"tag/internal/llm"
	"tag/internal/nlq"
	"tag/internal/sem"
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
	// UseLMUDFs lets synthesised SQL call LLM_FILTER/LLM_SCORE/LLM_MAP,
	// answered by Model.
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
	// What this request's engine can do travels with the request, on its
	// context: the dialect syn may write in, and the functions — bound to
	// this pipeline's model — its statements may call. Nothing is written
	// to the shared model or registered on the shared database, so requests
	// running side by side keep their own model, dialect and cancellation.
	if p.UseLMUDFs {
		ctx = llm.WithSQLCapabilities(ctx, llm.SQLCapabilities{LMUDFs: true})
		ctx = sqldb.WithFuncs(ctx, LMFuncs(p.Model))
	}
	// syn(R) -> Q
	sql, err := p.Model.Complete(ctx, llm.Text2SQLPrompt(env.Schema, question))
	if err != nil {
		return nil, fmt.Errorf("tag: query synthesis: %w", err)
	}
	// exec(Q) -> T. The caller's context flows into the engine — and from
	// there into every LM call a statement makes — so a cancelled request
	// stops its scan mid-flight.
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
	spec, err := nlq.Parse(question)
	return genAnswer(ctx, p.Model, newResultPoints(table, false), question, err == nil && spec.Type == nlq.Aggregation)
}

// LMFuncs is the LM user-defined functions over a model, as the set a
// request binds to its context (sqldb.WithFuncs) or a database is opened
// with (RegisterLMUDFs):
//
//	LLM_FILTER('task', value) -> BOOLEAN  semantic predicate
//	LLM_SCORE('task', value)  -> REAL     semantic score
//	LLM_MAP('task', value)    -> TEXT     transformation
//
// They let exec() evaluate semantic predicates inside SQL, turning the
// engine into the LM-aware database API of §2.1. Each exists in batch form
// only: the engine hands over the distinct (task, value) pairs of a window
// of rows, and they go to the model through the sem kernels the
// hand-written pipelines call, under the calling statement's context.
func LMFuncs(model llm.Model) sqldb.FuncSet {
	batch := func(fn sqldb.BatchFunc) sqldb.Func { return sqldb.Func{MinArgs: 2, MaxArgs: 2, Batch: fn} }
	return lmFuncs{
		"LLM_FILTER": batch(judge(model, sqldb.Bool(true), sqldb.Bool(false))),
		// LLM_SCORE routes through the filter head: 1.0 for a true verdict,
		// 0.0 for a false one.
		"LLM_SCORE": batch(judge(model, sqldb.Float(1), sqldb.Float(0))),
		"LLM_MAP":   batch(transform(model)),
	}
}

type lmFuncs map[string]sqldb.Func

// LookupFunc implements sqldb.FuncSet.
func (f lmFuncs) LookupFunc(name string) (sqldb.Func, bool) {
	fn, ok := f[name]
	return fn, ok
}

// RegisterLMUDFs installs the LM functions on a database, for whoever
// opens one whose every statement should find them (the shell, a System).
// A Pipeline needs no registration: Run binds its own.
func RegisterLMUDFs(db *sqldb.Database, model llm.Model) { db.SetFuncs(LMFuncs(model)) }

// judge asks the model whether each (task, value) claim holds.
func judge(model llm.Model, yes, no sqldb.Value) sqldb.BatchFunc {
	return func(ctx context.Context, args [][]sqldb.Value) ([]sqldb.Value, []error) {
		claims := make([]string, len(args))
		for i, a := range args {
			claims[i] = llm.TaskClaim(a[0].AsText()).About(a[1].AsText(), "")
		}
		verdicts, errs := sem.Filter(ctx, model, claims)
		vals := make([]sqldb.Value, len(verdicts))
		for i, v := range verdicts {
			vals[i] = no
			if v {
				vals[i] = yes
			}
		}
		return vals, errs
	}
}

// transform applies each tuple's task to its value: one sem.Map per run of
// tuples with the same task (one, where the task is a literal).
func transform(model llm.Model) sqldb.BatchFunc {
	return func(ctx context.Context, args [][]sqldb.Value) ([]sqldb.Value, []error) {
		vals := make([]sqldb.Value, len(args))
		var errs []error
		for lo, hi := 0, 0; lo < len(args); lo = hi {
			task := args[lo][0].AsText()
			var items []string
			for ; hi < len(args) && args[hi][0].AsText() == task; hi++ {
				items = append(items, args[hi][1].AsText())
			}
			outs, runErrs := sem.Map(ctx, model, task, items)
			for i, out := range outs {
				vals[lo+i] = sqldb.Text(out)
			}
			if runErrs != nil {
				if errs == nil {
					errs = make([]error, len(args))
				}
				copy(errs[lo:], runErrs)
			}
		}
		return vals, errs
	}
}

// TAGPipelineMethod adapts Pipeline to the benchmark Method interface —
// the "automatic syn" variant of TAG, used by the ablation bench to
// compare against expert pipelines.
type TAGPipelineMethod struct {
	Pipeline Pipeline
}

// Name implements Method.
func (m *TAGPipelineMethod) Name() string {
	if m.Pipeline.UseLMUDFs {
		return "TAG (auto-syn, UDFs)"
	}
	return "TAG (auto-syn)"
}

// Answer implements Method.
func (m *TAGPipelineMethod) Answer(ctx context.Context, env *Env, q *tagbench.Query) (*Answer, error) {
	res, err := m.Pipeline.Run(ctx, env, q.NL)
	if err != nil {
		return nil, err
	}
	return toAnswer(q, res.Answer), nil
}
