package llm

import (
	"fmt"
	"strings"

	"tag/internal/nlq"
)

// This file implements SimLM's query-synthesis head. Given a BIRD-style
// Text2SQL prompt it parses the question (language understanding), then
// compiles the parsed spec to SQL. The compilation is where the paper's
// Text2SQL failure modes live:
//
//   - world-knowledge clauses become IN-lists drawn from the model's noisy
//     parametric knowledge (missing and hallucinated members included);
//   - semantic-reasoning clauses are *inexpressible* in plain SQL, so the
//     model drops them or substitutes a crude lexical proxy — unless the
//     request says its engine runs LM UDFs (SQLCapabilities.LMUDFs), in
//     which case it emits LLM_FILTER / LLM_SCORE calls (§2.1's movie
//     example);
//   - with probability Profile.SQLSkillError the relational skeleton
//     itself is subtly wrong (dropped filter or flipped sort).

// markText2SQLRetrieve distinguishes the retrieval-SQL variant used by the
// Text2SQL + LM baseline: fetch relevant rows broadly, let the LM finish.
const markText2SQLRetrieve = "-- Using valid SQLite, write a query that retrieves all rows relevant to the question; the rows will be given to a model to answer it."

// Text2SQLRetrievalPrompt renders the Text2SQL + LM baseline's synthesis
// prompt: same schema framing, but asking for relevant rows rather than a
// final answer.
func Text2SQLRetrievalPrompt(schemaSQL, question string) string {
	var b strings.Builder
	b.WriteString(schemaSQL)
	b.WriteString("\n-- External Knowledge: None\n")
	b.WriteString(markText2SQLRetrieve)
	b.WriteString("\n-- ")
	b.WriteString(question)
	b.WriteString("\nSELECT")
	return b.String()
}

func (m *SimLM) text2SQL(prompt string, caps SQLCapabilities) (string, error) {
	retrieval := strings.Contains(prompt, markText2SQLRetrieve)
	var question string
	var ok bool
	if retrieval {
		i := strings.Index(prompt, markText2SQLRetrieve)
		rest := strings.TrimPrefix(prompt[i+len(markText2SQLRetrieve):], "\n-- ")
		question, _, ok = strings.Cut(rest, "\nSELECT")
		question = strings.TrimSpace(question)
	} else {
		question, ok = questionFromText2SQL(prompt)
	}
	if !ok {
		return "SELECT 1", nil
	}
	spec, err := nlq.Parse(question)
	if err != nil {
		// The model hallucinates a query against a table it imagines.
		return "SELECT * FROM answers WHERE question = '" +
			strings.ReplaceAll(question, "'", "''") + "'", nil
	}
	if retrieval {
		return m.compileRetrievalSQL(spec), nil
	}
	return m.compileAnswerSQL(spec, question, caps), nil
}

// compileAnswerSQL produces SQL whose result *is* the answer (the vanilla
// Text2SQL baseline contract).
func (m *SimLM) compileAnswerSQL(spec *nlq.Spec, question string, caps SQLCapabilities) string {
	var sel, orderBy string
	limit := spec.Limit
	desc := spec.OrderDesc

	where := m.filterClauses(spec)
	augSQL, augOrder := m.compileAugment(spec, caps)
	if augSQL != "" {
		where = append(where, augSQL)
	}

	switch spec.Type {
	case nlq.Comparison:
		sel = "COUNT(*)"
		limit = 0
	case nlq.Aggregation:
		sel = spec.Table + ".*"
		if spec.Target != "" && tableOfQ(spec.Target) != spec.Table {
			sel += ", " + spec.Target
		}
		limit = 0
	default:
		sel = spec.Target
	}
	if spec.OrderBy != "" {
		orderBy = spec.OrderBy
	}
	if augOrder != "" {
		// Semantic ordering replaces (re-ranks) the relational ordering for
		// trait top-k questions; plain SQL can only approximate it.
		orderBy = augOrder
		desc = true
	}

	// Relational-skill noise: a subtly wrong skeleton.
	if m.profile.noise("sqlskill", question) < m.profile.SQLSkillError {
		switch int(m.profile.noise("sqlskill2", question) * 3) {
		case 0:
			if len(where) > 0 {
				where = where[:len(where)-1] // forgot a predicate
			}
		case 1:
			desc = !desc // flipped sort direction
		default:
			if limit > 0 {
				limit++ // off-by-one LIMIT
			} else if len(where) > 0 {
				where = where[:len(where)-1]
			}
		}
	}

	return buildSelect(sel, spec, where, orderBy, desc, limit)
}

// compileRetrievalSQL produces broad row-retrieval SQL: relational filters
// only; knowledge, reasoning and computation are left to the generation
// step.
func (m *SimLM) compileRetrievalSQL(spec *nlq.Spec) string {
	sel := spec.Table + ".*"
	if spec.Join != nil {
		sel += ", " + spec.Join.Table + ".*"
	}
	where := m.filterClauses(spec)
	orderBy := ""
	// Retrieval keeps the relational ordering so the generator sees the
	// most relevant rows first, but does not LIMIT (the LM should see all
	// candidates) — this is exactly what overflows the context window on
	// large tables.
	if spec.OrderBy != "" {
		orderBy = spec.OrderBy
	}
	return buildSelect(sel, spec, where, orderBy, spec.OrderDesc, 0)
}

// filterClauses compiles the spec's relational filters.
func (m *SimLM) filterClauses(spec *nlq.Spec) []string {
	var out []string
	for _, f := range spec.Filters {
		out = append(out, f.Column+" "+f.Op+" "+sqlLiteral(f.Value, f.Num))
	}
	return out
}

// compileAugment translates the augment into SQL. It returns a WHERE
// clause and/or an ORDER BY expression ("" when not applicable).
func (m *SimLM) compileAugment(spec *nlq.Spec, caps SQLCapabilities) (whereSQL, orderSQL string) {
	a := spec.Aug
	if a == nil {
		return "", ""
	}
	switch a.Kind {
	case nlq.AugCityRegion:
		return inList(a.Column, m.view.RegionCitiesBelieved(a.Arg)), ""
	case nlq.AugCountyRegion:
		return inList(a.Column, m.view.BayAreaCountiesBelieved()), ""
	case nlq.AugEUCountry:
		return inList(a.Column, m.view.EUCountriesBelieved()), ""
	case nlq.AugTallerThan:
		return fmt.Sprintf("%s > %g", a.Column, m.heightCM(a.Arg)), ""
	case nlq.AugClassic:
		var believed []string
		for _, t := range m.view.World().Entities("classic_movie") {
			if m.view.IsClassicMovie(t) {
				believed = append(believed, t)
			}
		}
		if caps.LMUDFs {
			return "LLM_FILTER('" + TaskFor(a.Kind) + "', " + a.Column + ")", ""
		}
		return inListFold(a.Column, believed), ""
	case nlq.AugPositive, nlq.AugNegative, nlq.AugSarcastic, nlq.AugTechnical,
		nlq.AugNamedAfterPerson, nlq.AugPremium:
		if caps.LMUDFs {
			return "LLM_FILTER('" + TaskFor(a.Kind) + "', " + a.Column + ")", ""
		}
		// Inexpressible in plain SQL: the model silently drops the clause.
		return "", ""
	case nlq.AugTopSarcastic, nlq.AugTopTechnical, nlq.AugTopPositive:
		if caps.LMUDFs {
			return "", "LLM_SCORE('" + TaskFor(a.Kind) + "', " + a.Column + ")"
		}
		// Crude lexical proxy: longer text ~ more content. Usually wrong,
		// which is the point (10% ranking accuracy in Table 1).
		return "", "LENGTH(" + a.Column + ")"
	default:
		return "", ""
	}
}

// TaskFor names the LM task for an augment kind: the name of the claim that
// judges it, a ranking augment's being its filter's.
func TaskFor(k nlq.AugKind) string {
	switch k {
	case nlq.AugTopPositive:
		k = nlq.AugPositive
	case nlq.AugTopSarcastic:
		k = nlq.AugSarcastic
	case nlq.AugTopTechnical:
		k = nlq.AugTechnical
	}
	c, _ := ClaimFor(k)
	return c.Name
}

// buildSelect assembles the final statement.
func buildSelect(sel string, spec *nlq.Spec, where []string, orderBy string, desc bool, limit int) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(sel)
	b.WriteString(" FROM ")
	b.WriteString(spec.Table)
	if spec.Join != nil {
		b.WriteString(" JOIN " + spec.Join.Table + " ON " + spec.Join.Left + " = " + spec.Join.Right)
	}
	if len(where) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(where, " AND "))
	}
	if orderBy != "" {
		b.WriteString(" ORDER BY " + orderBy)
		if desc {
			b.WriteString(" DESC")
		} else {
			b.WriteString(" ASC")
		}
	}
	if limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", limit)
	}
	return b.String()
}

func sqlLiteral(v string, num bool) string {
	if num {
		return v
	}
	return "'" + strings.ReplaceAll(v, "'", "''") + "'"
}

// inList renders `col IN ('a', 'b', ...)`; an empty belief set degrades to
// a clause that matches nothing (the model knows the concept but no
// members).
func inList(col string, values []string) string {
	if len(values) == 0 {
		return col + " IN ('')"
	}
	quoted := make([]string, len(values))
	for i, v := range values {
		quoted[i] = sqlLiteral(v, false)
	}
	return col + " IN (" + strings.Join(quoted, ", ") + ")"
}

// inListFold is inList with case-folded matching via LOWER(col).
func inListFold(col string, values []string) string {
	if len(values) == 0 {
		return col + " IN ('')"
	}
	quoted := make([]string, len(values))
	for i, v := range values {
		quoted[i] = sqlLiteral(strings.ToLower(v), false)
	}
	return "LOWER(" + col + ") IN (" + strings.Join(quoted, ", ") + ")"
}

func tableOfQ(qcol string) string {
	if i := strings.IndexByte(qcol, '.'); i >= 0 {
		return qcol[:i]
	}
	return qcol
}
