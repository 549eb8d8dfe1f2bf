package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"tag/internal/llm"
	"tag/internal/nlq"
	"tag/internal/sem"
	"tag/internal/tagbench"
)

// HandwrittenTAG runs the paper's strongest method: expert-written TAG
// pipelines over the LOTUS-style semantic-operator runtime (§4.2,
// Appendix C). Exact computation (filters, joins, ordering, counting)
// stays in the database; the LM is invoked only for scoped
// semantic work (region membership claims, trait ranking, summarisation),
// always through batched operators.
//
// The paper writes one pipeline per query by hand; here the expert
// knowledge is captured once, as a compiler from the query's formal spec
// to the same operator sequence a human would write. Run the pipeline of
// any individual query with PipelineFor to see the exact operator chain.
type HandwrittenTAG struct {
	Model llm.Model
}

// Name implements Method.
func (m *HandwrittenTAG) Name() string { return "Hand-written TAG" }

// Answer implements Method.
func (m *HandwrittenTAG) Answer(ctx context.Context, env *Env, q *tagbench.Query) (*Answer, error) {
	return m.run(ctx, env, q.Spec)
}

// step is one operator of an expert pipeline. pipelineSteps writes a
// spec's steps once; run executes them and PipelineFor prints them, so what
// is shown is what ran.
type step struct {
	op   stepOp
	text string   // the SQL, instruction or criterion; the person a lookup asks about
	cols []string // the columns the operator reads
	n    int      // rows kept by head / sem_topk; columns kept by a sem_agg_rows that names none
}

type stepOp int

const (
	opLookup            stepOp = iota // ask the model one fact; it binds the SQL's parameter
	opSQL                             // the relational stage, on the engine
	opSemFilter                       // one claim per row
	opSemFilterDistinct               // one claim per distinct value, semi-joined back
	opHead
	opSemTopK
	opCount      // answer: the row count
	opValues     // answer: a column
	opSemAgg     // answer: a summary of a column
	opSemAggRows // answer: a summary of rows projected to cols, or to columns [1, 1+n)
)

// pipelineSteps compiles a spec to the operator sequence an expert would
// write: exact computation (filters, joins, ordering, thresholds) in the
// SQL, the LM for scoped semantic work only.
func pipelineSteps(spec *nlq.Spec) []step {
	var steps []step
	rel, claim := spec, ""
	pushDown := func(f nlq.Filter) {
		rel = spec.Clone()
		rel.Filters = append(rel.Filters, f)
	}
	if a := spec.Aug; a != nil {
		switch a.Kind {
		case nlq.AugCircuitInfo:
			// Relational in disguise: the circuit name is stored in the
			// database, so it is pushed down as a filter and the LM keeps
			// the summary only.
			pushDown(nlq.Filter{Column: a.Column, Op: "=", Value: a.Arg})
		case nlq.AugTallerThan:
			// One fact lookup, then exact filtering on the engine — cheaper
			// and more reliable than per-row height claims. The unquoted
			// "?" is the statement's parameter.
			steps = append(steps, step{op: opLookup, text: a.Arg})
			pushDown(nlq.Filter{Column: a.Column, Op: ">", Value: "?", Num: true})
		default:
			if c, ok := llm.ClaimFor(a.Kind); ok {
				claim = c.About("{__aug}", a.Arg)
			}
		}
	}
	// Salient columns come back under reserved aliases (__target, __aug)
	// alongside the full primary row.
	sql := tagbench.RelationalSQL(rel, true)
	extra := ""
	if spec.Aug != nil && spec.Aug.Column != "" {
		extra += ", " + spec.Aug.Column + " AS __aug"
	}
	if spec.Target != "" {
		extra += ", " + spec.Target + " AS __target"
	}
	steps = append(steps, step{op: opSQL, text: strings.Replace(sql, " FROM ", extra+" FROM ", 1)})

	// Knowledge / reasoning filters run as semantic operators. For
	// entity-valued augments the expert dedupes first — exactly the
	// paper's Appendix C pipeline (`unique_cities = df["City"].unique();
	// sv = unique_cities.sem_filter(...)`): one LM claim per distinct
	// entity instead of one per row, then a relational semi-join back.
	switch {
	case claim == "":
	case dedupableAug(spec.Aug.Kind):
		steps = append(steps, step{op: opSemFilterDistinct, text: claim, cols: []string{"__aug"}})
	default:
		steps = append(steps, step{op: opSemFilter, text: claim})
	}

	target := []string{"__target"}
	switch spec.Type {
	case nlq.Comparison:
		return append(steps, step{op: opCount})
	case nlq.Match:
		return append(steps, step{op: opHead, n: max(spec.Limit, 1)}, step{op: opValues, cols: target})
	case nlq.Ranking:
		if spec.Aug == nil || !isTraitKind(spec.Aug.Kind) {
			return append(steps, step{op: opHead, n: spec.Limit}, step{op: opValues, cols: target})
		}
		// Optional relational pre-selection, then semantic top-k.
		if spec.OrderBy != "" && spec.Limit > 0 {
			steps = append(steps, step{op: opHead, n: spec.Limit})
		}
		k := spec.Aug.K
		if k <= 0 {
			k = spec.Limit
		}
		return append(steps,
			step{op: opSemTopK, text: "more " + llm.TaskFor(spec.Aug.Kind), cols: []string{"__aug"}, n: k},
			step{op: opValues, cols: target})
	case nlq.Aggregation:
		switch {
		case spec.Aug != nil && spec.Aug.Kind == nlq.AugCircuitInfo:
			// The expert projects to the fields the summary needs — less
			// prompt, same answer.
			return append(steps, step{op: opSemAggRows, text: "Summarize the races held on " + spec.Aug.Arg,
				cols: []string{"year", "round", "name", "date"}})
		case spec.Target != "":
			return append(steps, step{op: opSemAgg, text: "Summarize the " + bareName(spec.Target), cols: target})
		}
		// Provide-information frames: summarise a handful of identifying
		// columns (the ones after the synthetic key) rather than full rows.
		return append(steps, step{op: opSemAggRows, text: "Summarize the rows", n: 4})
	}
	return steps
}

// run executes the expert pipeline for a spec.
func (m *HandwrittenTAG) run(ctx context.Context, env *Env, spec *nlq.Spec) (*Answer, error) {
	var (
		df     *sem.DataFrame
		params []any
		err    error
	)
	for _, s := range pipelineSteps(spec) {
		switch s.op {
		case opLookup:
			out, lerr := m.Model.Complete(ctx, llm.HeightPrompt(s.text))
			if lerr != nil {
				return nil, lerr
			}
			threshold, perr := strconv.ParseFloat(strings.TrimSpace(out), 64)
			if perr != nil {
				return nil, fmt.Errorf("handwritten: height lookup returned %q", out)
			}
			params = append(params, threshold)
		case opSQL:
			rows, qerr := env.DB.QueryRows(ctx, s.text, params...)
			if qerr != nil {
				return nil, qerr
			}
			df, err = sem.FromRows(rows)
		case opSemFilter:
			df, err = df.SemFilter(ctx, m.Model, s.text)
		case opSemFilterDistinct:
			df, err = df.SemFilterDistinct(ctx, m.Model, s.text, s.cols[0])
		case opHead:
			df = df.Head(s.n)
		case opSemTopK:
			df, err = df.SemTopK(ctx, m.Model, s.text, s.cols[0], s.n)
		case opCount:
			// Exact computation stays in the data system.
			return countAnswer(df.Len()), nil
		case opValues:
			return valuesAnswer(df, s.cols[0])
		case opSemAgg:
			return textAnswer(df.SemAgg(ctx, m.Model, s.text, s.cols[0]))
		case opSemAggRows:
			cols := s.cols
			if cols == nil {
				all := df.Columns()
				cols = all[min(1, len(all)):min(1+s.n, len(all))]
			}
			return textAnswer(df.SemAggRows(ctx, m.Model, s.text, cols...))
		}
		if err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("handwritten: unsupported query type %v", spec.Type)
}

// PipelineFor describes, in LOTUS-like pseudocode, the expert pipeline the
// hand-written method executes for a spec — useful for docs and the CLI's
// -explain flag.
func PipelineFor(spec *nlq.Spec) string {
	var b strings.Builder
	bound := ""
	for _, s := range pipelineSteps(spec) {
		switch s.op {
		case opLookup:
			fmt.Fprintf(&b, "height = lm_lookup(%q)\n", llm.HeightPrompt(s.text))
			bound = ", height"
		case opSQL:
			fmt.Fprintf(&b, "df = sql(%q%s)\n", s.text, bound)
		case opSemFilter:
			fmt.Fprintf(&b, "df = df.sem_filter(%q)\n", s.text)
		case opSemFilterDistinct:
			fmt.Fprintf(&b, "df = df.sem_filter_distinct(%q, %q)\n", s.text, s.cols[0])
		case opHead:
			fmt.Fprintf(&b, "df = df.head(%d)\n", s.n)
		case opSemTopK:
			fmt.Fprintf(&b, "df = df.sem_topk(%q, %q, %d)\n", s.text, s.cols[0], s.n)
		case opCount:
			b.WriteString("answer = len(df)\n")
		case opValues:
			fmt.Fprintf(&b, "answer = df[%q]\n", s.cols[0])
		case opSemAgg:
			fmt.Fprintf(&b, "answer = df.sem_agg(%q, %q)\n", s.text, s.cols[0])
		case opSemAggRows:
			if s.cols != nil {
				fmt.Fprintf(&b, "answer = df[[\"%s\"]].sem_agg(%q)\n", strings.Join(s.cols, `", "`), s.text)
			} else {
				fmt.Fprintf(&b, "answer = df[df.columns[1:%d]].sem_agg(%q)\n", 1+s.n, s.text)
			}
		}
	}
	return b.String()
}

func textAnswer(text string, err error) (*Answer, error) {
	if err != nil {
		return nil, err
	}
	return &Answer{Text: text}, nil
}

func valuesAnswer(df *sem.DataFrame, col string) (*Answer, error) {
	vals, err := df.Strings(col)
	if err != nil {
		return nil, err
	}
	quoted := make([]bool, len(vals))
	for i := range quoted {
		quoted[i] = true
	}
	return &Answer{Values: vals, Text: llm.FormatAnswerList(vals, quoted)}, nil
}

// dedupableAug reports whether the augment judges an entity value (city,
// county, country, title) rather than a unique free-text field — those are
// the augments worth deduplicating before the semantic filter.
func dedupableAug(k nlq.AugKind) bool {
	switch k {
	case nlq.AugCityRegion, nlq.AugCountyRegion, nlq.AugEUCountry, nlq.AugClassic:
		return true
	default:
		return false
	}
}

func isTraitKind(k nlq.AugKind) bool {
	return k == nlq.AugTopSarcastic || k == nlq.AugTopTechnical || k == nlq.AugTopPositive
}

func bareName(qcol string) string {
	if i := strings.IndexByte(qcol, '.'); i >= 0 {
		return qcol[i+1:]
	}
	return qcol
}
