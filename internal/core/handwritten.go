package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"tag/internal/llm"
	"tag/internal/nlq"
	"tag/internal/sem"
	"tag/internal/sqldb"
	"tag/internal/tagbench"
)

// HandwrittenTAG runs the paper's strongest method: expert-written TAG
// pipelines over the LOTUS-style semantic-operator runtime (§4.2,
// Appendix C). Exact computation (filters, joins, ordering, counting)
// stays in the database/DataFrame; the LM is invoked only for scoped
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

// run executes the expert pipeline for a spec.
func (m *HandwrittenTAG) run(ctx context.Context, env *Env, spec *nlq.Spec) (*Answer, error) {
	// The circuit-info augment is relational in disguise: the circuit name
	// is stored in the database, so the expert pushes it down as a filter
	// and keeps the LM for the summary only.
	if spec.Aug != nil && spec.Aug.Kind == nlq.AugCircuitInfo {
		spec = spec.Clone()
		spec.Filters = append(spec.Filters, nlq.Filter{
			Column: spec.Aug.Column, Op: "=", Value: spec.Aug.Arg,
		})
	}
	df, err := m.load(ctx, env, spec)
	if err != nil {
		return nil, err
	}

	// Knowledge / reasoning filters run as semantic operators. For
	// entity-valued augments the expert dedupes first — exactly the
	// paper's Appendix C pipeline (`unique_cities = df["City"].unique();
	// sv = unique_cities.sem_filter(...)`): one LM claim per distinct
	// entity instead of one per row, then a relational semi-join back.
	if spec.Aug != nil && spec.Aug.Kind == nlq.AugTallerThan {
		// One fact lookup, then exact relational filtering — cheaper and
		// more reliable than per-row height claims.
		out, herr := m.Model.Complete(ctx, llm.HeightPrompt(spec.Aug.Arg))
		if herr != nil {
			return nil, herr
		}
		threshold, perr := strconv.ParseFloat(strings.TrimSpace(out), 64)
		if perr != nil {
			return nil, fmt.Errorf("handwritten: height lookup returned %q", out)
		}
		df = df.Filter(func(get func(string) sqldb.Value) bool {
			v := get("__aug")
			return !v.IsNull() && v.AsFloat() > threshold
		})
	} else if claim := filterClaim(spec); claim != "" {
		if dedupableAug(spec.Aug.Kind) {
			df, err = df.SemFilterDistinct(ctx, m.Model, claim, "__aug")
		} else {
			df, err = df.SemFilter(ctx, m.Model, claim)
		}
		if err != nil {
			return nil, err
		}
	}

	switch spec.Type {
	case nlq.Comparison:
		// Exact computation stays in the data system.
		return countAnswer(df.Len()), nil

	case nlq.Match:
		limit := spec.Limit
		if limit <= 0 {
			limit = 1
		}
		return valuesAnswer(df.Head(limit), "__target")

	case nlq.Ranking:
		if spec.Aug != nil && isTraitKind(spec.Aug.Kind) {
			// Optional relational pre-selection, then semantic top-k.
			if spec.OrderBy != "" && spec.Limit > 0 {
				df = df.Head(spec.Limit)
			}
			k := spec.Aug.K
			if k <= 0 {
				k = spec.Limit
			}
			df, err = df.SemTopK(ctx, m.Model, "more "+traitWord(spec.Aug.Kind), "__aug", k)
			if err != nil {
				return nil, err
			}
			return valuesAnswer(df, "__target")
		}
		return valuesAnswer(df.Head(spec.Limit), "__target")

	case nlq.Aggregation:
		if spec.Aug != nil && spec.Aug.Kind == nlq.AugCircuitInfo {
			// The expert projects to the fields the summary needs — less
			// prompt, same answer.
			slim, perr := df.Select("year", "round", "name", "date")
			if perr == nil {
				df = slim
			}
			text, err := df.SemAggRows(ctx, m.Model, "Summarize the races held on "+spec.Aug.Arg)
			if err != nil {
				return nil, err
			}
			return &Answer{Text: text}, nil
		}
		if spec.Target != "" {
			text, err := df.SemAgg(ctx, m.Model, "Summarize the "+bareName(spec.Target), "__target")
			if err != nil {
				return nil, err
			}
			return &Answer{Text: text}, nil
		}
		// Provide-information frames: summarise a handful of identifying
		// columns rather than full rows.
		cols := df.Columns()
		keep := cols
		if len(keep) > 4 {
			keep = keep[1:5] // skip the synthetic key column, keep names
		}
		if slim, perr := df.Select(keep...); perr == nil {
			df = slim
		}
		text, err := df.SemAggRows(ctx, m.Model, "Summarize the rows")
		if err != nil {
			return nil, err
		}
		return &Answer{Text: text}, nil

	default:
		return nil, fmt.Errorf("handwritten: unsupported query type %v", spec.Type)
	}
}

// load runs the relational stage: filters, join and ordering execute on
// the SQL engine; salient columns come back under reserved aliases
// (__target, __aug) alongside the full primary row.
func (m *HandwrittenTAG) load(ctx context.Context, env *Env, spec *nlq.Spec) (*sem.DataFrame, error) {
	sql := tagbench.RelationalSQL(spec, true)
	extra := ""
	if spec.Aug != nil && spec.Aug.Column != "" {
		extra += ", " + spec.Aug.Column + " AS __aug"
	}
	if spec.Target != "" {
		extra += ", " + spec.Target + " AS __target"
	}
	if extra != "" {
		sql = strings.Replace(sql, " FROM ", extra+" FROM ", 1)
	}
	rows, err := env.DB.QueryRows(ctx, sql)
	if err != nil {
		return nil, err
	}
	return sem.FromRows(rows)
}

// filterClaim renders the LOTUS-style instruction template for filter
// augments ("" when the augment is not a per-row filter). The claim shapes
// match the instruction contract in internal/llm/semantic.go.
func filterClaim(spec *nlq.Spec) string {
	a := spec.Aug
	if a == nil {
		return ""
	}
	switch a.Kind {
	case nlq.AugCityRegion:
		return "{__aug} is a city in the " + a.Arg + " region"
	case nlq.AugCountyRegion:
		return "{__aug} is a county in the Bay Area"
	case nlq.AugEUCountry:
		return "{__aug} is a country that is a member of the European Union"
	case nlq.AugTallerThan:
		return "height {__aug} is greater than the height of " + a.Arg + " in centimeters"
	case nlq.AugClassic:
		return "{__aug} is a movie widely considered a classic"
	case nlq.AugNamedAfterPerson:
		return "{__aug} is a school named after a person"
	case nlq.AugPremium:
		return "{__aug} sounds like a premium product"
	case nlq.AugPositive:
		return "the following text is positive: {__aug}"
	case nlq.AugNegative:
		return "the following text is negative: {__aug}"
	case nlq.AugSarcastic:
		return "the following text is sarcastic: {__aug}"
	case nlq.AugTechnical:
		return "the following text is technical: {__aug}"
	case nlq.AugCircuitInfo:
		// Relational, not semantic: the circuit name is in the database.
		return ""
	default:
		return ""
	}
}

// PipelineFor describes, in LOTUS-like pseudocode, the expert pipeline the
// hand-written method executes for a spec — useful for docs and the CLI's
// -explain flag.
func PipelineFor(spec *nlq.Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "df = sql(%q)\n", tagbench.RelationalSQL(spec, false))
	if claim := filterClaim(spec); claim != "" {
		fmt.Fprintf(&b, "df = df.sem_filter(%q)\n", claim)
	}
	switch spec.Type {
	case nlq.Comparison:
		b.WriteString("answer = len(df)\n")
	case nlq.Match:
		b.WriteString("answer = df.head(1)[target]\n")
	case nlq.Ranking:
		if spec.Aug != nil && isTraitKind(spec.Aug.Kind) {
			if spec.OrderBy != "" && spec.Limit > 0 {
				fmt.Fprintf(&b, "df = df.head(%d)\n", spec.Limit)
			}
			fmt.Fprintf(&b, "df = df.sem_topk(%q, %d)\n", "more "+traitWord(spec.Aug.Kind), spec.Aug.K)
		} else {
			fmt.Fprintf(&b, "df = df.head(%d)\n", spec.Limit)
		}
		b.WriteString("answer = df[target]\n")
	case nlq.Aggregation:
		b.WriteString("answer = df.sem_agg(\"Summarize ...\")\n")
	}
	return b.String()
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
	case nlq.AugCityRegion, nlq.AugCountyRegion, nlq.AugEUCountry, nlq.AugClassic, nlq.AugTallerThan:
		return true
	default:
		return false
	}
}

func isTraitKind(k nlq.AugKind) bool {
	return k == nlq.AugTopSarcastic || k == nlq.AugTopTechnical || k == nlq.AugTopPositive
}

func traitWord(k nlq.AugKind) string {
	switch k {
	case nlq.AugTopSarcastic:
		return "sarcastic"
	case nlq.AugTopTechnical:
		return "technical"
	default:
		return "positive"
	}
}

func bareName(qcol string) string {
	if i := strings.IndexByte(qcol, '.'); i >= 0 {
		return qcol[i+1:]
	}
	return qcol
}
