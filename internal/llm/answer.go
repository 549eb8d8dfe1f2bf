package llm

import (
	"sort"
	"strconv"
	"strings"

	"tag/internal/nlq"
)

// This file implements SimLM's in-context question answering head — the
// generation step of the RAG and Text2SQL + LM baselines. The model gets
// serialized rows plus the natural-language question and must do all
// knowledge application and exact computation itself. Its weaknesses are
// the paper's: it only sees the rows it was given (retrieval gaps are
// fatal), and its arithmetic over many rows slips with probability growing
// in the row count.

// answerList handles the list-format prompt (match/comparison/ranking).
func (m *SimLM) answerList(prompt string) (string, error) {
	points, question, ok := parseAnswerPrompt(prompt)
	if !ok {
		return "[]", nil
	}
	spec, err := nlq.Parse(question)
	if err != nil {
		return "[]", nil
	}
	rows := m.applyInContext(spec, points)

	switch spec.Type {
	case nlq.Comparison:
		// When the provided table is already an aggregate (a single
		// COUNT(*) row — the TAG pipeline's exec output), read the value
		// instead of counting data points. With several COUNT columns the
		// first in rendering order is the one read.
		if len(points) == 1 {
			for _, k := range points[0].Cols {
				if strings.Contains(strings.ToUpper(k), "COUNT") {
					v, _ := points[0].get(k)
					if _, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
						return "[" + strings.TrimSpace(v) + "]", nil
					}
				}
			}
		}
		n := len(rows)
		if m.profile.arithmeticSlips("count:"+question, len(points)) {
			// Miscount: magnitude grows with how much data was in context.
			delta := 1 + len(points)/12
			if m.profile.noise("countdir", question) < 0.5 {
				n -= delta
			} else {
				n += delta
			}
			if n < 0 {
				n = 0
			}
		}
		return "[" + strconv.Itoa(n) + "]", nil

	case nlq.Match:
		rows = m.orderRows(spec, rows)
		if len(rows) == 0 {
			return "[]", nil
		}
		limit := spec.Limit
		if limit <= 0 {
			limit = 1
		}
		if limit > len(rows) {
			limit = len(rows)
		}
		return m.renderTargets(spec, rows[:limit], question)

	case nlq.Ranking:
		rows = m.orderRows(spec, rows)
		k := spec.Limit
		if k <= 0 || k > len(rows) {
			k = len(rows)
		}
		rows = rows[:k]
		if spec.Aug != nil {
			if trait := traitChannel(spec.Aug.Kind); trait != "" {
				rows = m.sortByTrait(spec, rows, trait)
				if spec.Aug.K > 0 && spec.Aug.K < len(rows) {
					rows = rows[:spec.Aug.K]
				}
			}
		}
		return m.renderTargets(spec, rows, question)

	default:
		return "[]", nil
	}
}

// answerAggregation handles the free-form aggregation prompt.
func (m *SimLM) answerAggregation(prompt string) (string, error) {
	points, question, ok := parseAnswerPrompt(prompt)
	if !ok {
		return "I cannot answer from the provided data.", nil
	}
	spec, err := nlq.Parse(question)
	if err != nil {
		return m.freeform(prompt)
	}
	rows := m.applyInContext(spec, points)
	if len(rows) == 0 {
		return m.freeform(prompt)
	}
	if spec.Aug != nil && spec.Aug.Kind == nlq.AugCircuitInfo {
		return m.summarizeRaces(spec.Aug.Arg, dataPointStrings(rows)), nil
	}
	col := columnNamed(bareCol(spec.Target))
	var items []string
	for _, r := range rows {
		if v, ok := col.of(r); ok {
			items = append(items, v)
		} else {
			items = append(items, flattenPoint(r))
		}
	}
	return m.composeSummary("the provided data points", items), nil
}

// applyInContext filters the provided points by the spec's relational
// filters (where the needed columns are visible) and its augment, using
// the model's noisy knowledge and trait estimation. This is "the LM doing
// the database's job", so relational predicates are also subject to slips
// on large inputs.
func (m *SimLM) applyInContext(spec *nlq.Spec, points []DataPoint) []DataPoint {
	var out []DataPoint
	filterCols := make([]column, len(spec.Filters))
	for i, f := range spec.Filters {
		filterCols[i] = columnNamed(bareCol(f.Column))
	}
	var augCol column
	if spec.Aug != nil {
		augCol = columnNamed(bareCol(spec.Aug.Column))
	}
	for _, p := range points {
		keep := true
		for i, f := range spec.Filters {
			v, ok := filterCols[i].of(p)
			if !ok {
				// The column is not in context; the model cannot verify the
				// predicate and optimistically keeps the row.
				continue
			}
			if !evalFilterString(v, f) {
				keep = false
				break
			}
		}
		if keep && spec.Aug != nil {
			// A column that is not in context cannot be checked either.
			if val, ok := augCol.of(p); ok && !m.augMatches(spec.Aug, val) {
				keep = false
			}
		}
		if keep {
			out = append(out, p)
		}
	}
	return out
}

// augMatches applies a filter-style augment to a data point's value of
// the augment column. Ranking augments (trait top-k) pass everything here;
// ordering happens later.
func (m *SimLM) augMatches(a *nlq.Augment, val string) bool {
	switch a.Kind {
	case nlq.AugCityRegion:
		return m.view.InRegion(val, a.Arg)
	case nlq.AugCountyRegion:
		return m.view.CountyInBayArea(val)
	case nlq.AugEUCountry:
		return m.view.IsEUCountry(val)
	case nlq.AugTallerThan:
		h, okH := m.view.AthleteHeightCM(a.Arg)
		if !okH {
			h = 165 + float64(int(m.profile.noise("height_guess", a.Arg)*25))
		}
		f, err := strconv.ParseFloat(val, 64)
		return err == nil && f > h
	case nlq.AugClassic:
		return m.view.IsClassicMovie(val)
	case nlq.AugNamedAfterPerson:
		return m.view.IsNamedAfterPerson(val)
	case nlq.AugPremium:
		return m.view.IsPremiumProduct(val)
	case nlq.AugPositive:
		return m.view.Traits(val).Sentiment > 0.5
	case nlq.AugNegative:
		return m.view.Traits(val).Sentiment < 0.5
	case nlq.AugSarcastic:
		return m.view.Traits(val).Sarcasm > 0.5
	case nlq.AugTechnical:
		return m.view.Traits(val).Technicality > 0.5
	default:
		return true
	}
}

// orderRows sorts points by the spec's relational order column when it is
// visible in the data.
func (m *SimLM) orderRows(spec *nlq.Spec, rows []DataPoint) []DataPoint {
	if spec.OrderBy == "" {
		return rows
	}
	col := columnNamed(bareCol(spec.OrderBy))
	if len(rows) == 0 {
		return rows
	}
	if _, ok := col.of(rows[0]); !ok {
		return rows
	}
	sorted := append([]DataPoint(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, _ := col.of(sorted[i])
		b, _ := col.of(sorted[j])
		fa, ea := strconv.ParseFloat(a, 64)
		fb, eb := strconv.ParseFloat(b, 64)
		var less bool
		if ea == nil && eb == nil {
			less = fa < fb
		} else {
			less = a < b
		}
		if spec.OrderDesc {
			return !less
		}
		return less
	})
	return sorted
}

// sortByTrait re-ranks points by the model's (noisy) trait estimate of the
// augment column, descending.
func (m *SimLM) sortByTrait(spec *nlq.Spec, rows []DataPoint, trait string) []DataPoint {
	col := columnNamed(bareCol(spec.Aug.Column))
	sorted := append([]DataPoint(nil), rows...)
	score := func(p DataPoint) float64 {
		text, _ := col.of(p)
		t := m.view.Traits(text)
		switch trait {
		case "sarcasm":
			return t.Sarcasm
		case "technicality":
			return t.Technicality
		default:
			return t.Sentiment
		}
	}
	sort.SliceStable(sorted, func(i, j int) bool { return score(sorted[i]) > score(sorted[j]) })
	return sorted
}

// traitChannel maps ranking augments to a trait name ("" = not a trait
// ranking).
func traitChannel(k nlq.AugKind) string {
	switch k {
	case nlq.AugTopSarcastic:
		return "sarcasm"
	case nlq.AugTopTechnical:
		return "technicality"
	case nlq.AugTopPositive:
		return "sentiment"
	default:
		return ""
	}
}

// renderTargets formats the target column of the rows as the paper's
// answer list, applying the list-manipulation slip channel.
func (m *SimLM) renderTargets(spec *nlq.Spec, rows []DataPoint, question string) (string, error) {
	col := columnNamed(bareCol(spec.Target))
	var values []string
	var quoted []bool
	for _, r := range rows {
		v, ok := col.of(r)
		if !ok {
			continue
		}
		_, err := strconv.ParseFloat(v, 64)
		values = append(values, v)
		quoted = append(quoted, err != nil)
	}
	if len(values) > 1 && m.profile.arithmeticSlips("list:"+question, len(rows)) {
		// The model garbles a long list: swaps two adjacent entries.
		i := int(m.profile.noise("swap", question) * float64(len(values)-1))
		values[i], values[i+1] = values[i+1], values[i]
		quoted[i], quoted[i+1] = quoted[i+1], quoted[i]
	}
	return FormatAnswerList(values, quoted), nil
}

// rerank scores one data point's relevance to the question in [0, 1].
func (m *SimLM) rerank(prompt string) (string, error) {
	points, question, ok := parseAnswerPrompt(prompt)
	if !ok || len(points) == 0 {
		return "0.5", nil
	}
	p := points[0]
	flat := flattenPoint(p)
	score := 0.2 // base prior
	spec, err := nlq.Parse(question)
	if err == nil {
		matched, checked := 0, 0
		for _, f := range spec.Filters {
			v, okc := p.get(bareCol(f.Column))
			if !okc {
				continue
			}
			checked++
			if evalFilterString(v, f) {
				matched++
			}
		}
		if checked > 0 {
			score = 0.15 + 0.7*float64(matched)/float64(checked)
		}
		if spec.Aug != nil {
			// An augment column that is not in context counts as matched.
			if val, okc := p.get(bareCol(spec.Aug.Column)); !okc || m.augMatches(spec.Aug, val) {
				score += 0.15
			}
		}
	} else {
		// Lexical overlap fallback.
		score = lexicalOverlap(question, flat)
	}
	score += m.profile.signedNoise("rerank", question, flat) * m.profile.ScoreNoise
	if score < 0 {
		score = 0
	}
	if score > 1 {
		score = 1
	}
	return strconv.FormatFloat(score, 'f', 2, 64), nil
}

// evalFilterString applies a relational predicate to a string cell the way
// an LM eyeballs it: numeric when both sides parse, else lexicographic.
func evalFilterString(v string, f nlq.Filter) bool {
	if f.Num {
		fv, err1 := strconv.ParseFloat(strings.TrimSpace(v), 64)
		fw, err2 := strconv.ParseFloat(f.Value, 64)
		if err1 == nil && err2 == nil {
			switch f.Op {
			case ">":
				return fv > fw
			case "<":
				return fv < fw
			case ">=":
				return fv >= fw
			case "<=":
				return fv <= fw
			case "!=":
				return fv != fw
			default:
				return fv == fw
			}
		}
	}
	switch f.Op {
	case "!=":
		return v != f.Value
	case "=":
		return v == f.Value
	case ">":
		return v > f.Value
	case "<":
		return v < f.Value
	case ">=":
		return v >= f.Value
	case "<=":
		return v <= f.Value
	default:
		return false
	}
}

// bareCol strips the table qualifier from "table.column".
func bareCol(qcol string) string {
	if i := strings.IndexByte(qcol, '.'); i >= 0 {
		return qcol[i+1:]
	}
	return qcol
}

// flattenPoint renders a data point on one line for hashing and overlap:
// "col=val; " per distinct column name in sorted name order.
func flattenPoint(p DataPoint) string {
	cols, vals := p.Cols, p.Vals
	for i := 1; i < len(cols); i++ {
		if cols[i-1] >= cols[i] {
			cols, vals = sortedDistinct(p)
			break
		}
	}
	n := len("=; ") * len(cols)
	for i, c := range cols {
		n += len(c) + len(vals[i])
	}
	var b strings.Builder
	b.Grow(n)
	for i, c := range cols {
		b.WriteString(c)
		b.WriteByte('=')
		b.WriteString(vals[i])
		b.WriteString("; ")
	}
	return b.String()
}

// sortedDistinct reorders a point's fields by column name, keeping of a
// repeated name its last occurrence.
func sortedDistinct(p DataPoint) (cols, vals []string) {
	idx := make([]int, len(p.Cols))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return p.Cols[idx[a]] < p.Cols[idx[b]] })
	cols, vals = make([]string, 0, len(idx)), make([]string, 0, len(idx))
	for k, i := range idx {
		if k+1 < len(idx) && p.Cols[idx[k+1]] == p.Cols[i] {
			continue
		}
		cols, vals = append(cols, p.Cols[i]), append(vals, p.Vals[i])
	}
	return cols, vals
}

// dataPointStrings flattens points for the summariser.
func dataPointStrings(points []DataPoint) []string {
	out := make([]string, len(points))
	for i, p := range points {
		out[i] = flattenPoint(p)
	}
	return out
}

// lexicalOverlap is a crude Jaccard similarity over lower-cased words.
func lexicalOverlap(a, b string) float64 {
	aw := strings.Fields(strings.ToLower(a))
	bw := strings.Fields(strings.ToLower(b))
	if len(aw) == 0 || len(bw) == 0 {
		return 0
	}
	set := make(map[string]bool, len(aw))
	for _, w := range aw {
		set[w] = true
	}
	inter := 0
	for _, w := range bw {
		if set[w] {
			inter++
		}
	}
	union := len(aw) + len(bw) - inter
	return float64(inter) / float64(union)
}
