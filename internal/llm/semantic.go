package llm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file implements SimLM's semantic-operator heads: the per-row claim
// judgements (over the grammar in claims.go), pairwise comparisons and
// hierarchical summaries that the sem package's kernels issue.

func (m *SimLM) semFilter(prompt string) (string, error) {
	claim, ok := strings.CutPrefix(strings.TrimPrefix(prompt, markSemFilter), "\nClaim: ")
	if !ok {
		return "False", nil
	}
	verdict, recognised := m.judgeClaim(strings.TrimSpace(claim))
	if !recognised {
		// Unintelligible claim: the model guesses, deterministically.
		verdict = m.profile.noise("claimguess", claim) < 0.5
	}
	if verdict {
		return "True", nil
	}
	return "False", nil
}

// semCompare answers "which item satisfies the criterion more" for the
// pairwise ranking operator.
func (m *SimLM) semCompare(prompt string) (string, error) {
	body := strings.TrimPrefix(prompt, markSemCompare)
	crit, rest, ok := strings.Cut(strings.TrimPrefix(body, "\nCriterion: "), "\nItem A: ")
	if !ok {
		return "A", nil
	}
	a, b, ok := strings.Cut(rest, "\nItem B: ")
	if !ok {
		return "A", nil
	}
	sa, sb := m.criterionScore(crit, a), m.criterionScore(crit, b)
	if sa >= sb {
		return "A", nil
	}
	return "B", nil
}

// criterionScore maps a ranking criterion to the trait estimate of an item.
func (m *SimLM) criterionScore(criterion, item string) float64 {
	t := m.view.Traits(item)
	low := strings.ToLower(criterion)
	switch {
	case strings.Contains(low, "sarcas"):
		return t.Sarcasm
	case strings.Contains(low, "technical"):
		return t.Technicality
	case strings.Contains(low, "positive"):
		return t.Sentiment
	case strings.Contains(low, "negative"):
		return 1 - t.Sentiment
	default:
		// Unknown criterion: lexical relevance to the criterion words.
		return lexicalOverlap(criterion, item)
	}
}

// semAggregate produces a deterministic template summary of items. When
// the instruction mentions races, the Formula 1 summariser is used (this
// backs Figure 2's hand-written TAG panel).
func (m *SimLM) semAggregate(prompt string) (string, error) {
	body := strings.TrimPrefix(prompt, markSemAgg)
	instr, itemsBlock, ok := strings.Cut(strings.TrimPrefix(body, "\nInstruction: "), "\nItems:\n")
	if !ok {
		return "Nothing to summarize.", nil
	}
	var items []string
	for _, line := range strings.Split(itemsBlock, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "- ") {
			items = append(items, line[2:])
		}
	}
	if len(items) == 0 {
		return "Nothing to summarize.", nil
	}
	low := strings.ToLower(instr)
	if strings.Contains(low, "race") {
		if i := strings.Index(instr, "held on "); i >= 0 {
			return m.summarizeRaces(strings.TrimSuffix(instr[i+len("held on "):], "."), items), nil
		}
		return m.summarizeRaces("", items), nil
	}
	subject := "the items"
	if i := strings.Index(low, "summarize "); i >= 0 {
		subject = strings.TrimSuffix(instr[i+len("summarize "):], ".")
	}
	return m.composeSummary(subject, items), nil
}

// composeSummary writes a generic extractive summary: counts, overall
// sentiment when the items look like free text, and leading excerpts.
func (m *SimLM) composeSummary(subject string, items []string) string {
	var sentSum float64
	for _, it := range items {
		sentSum += m.view.Traits(it).Sentiment
	}
	mean := sentSum / float64(len(items))
	tone := "mixed"
	switch {
	case mean > 0.62:
		tone = "largely positive"
	case mean < 0.38:
		tone = "largely negative"
	}
	show := len(items)
	if show > 3 {
		show = 3
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Across %d entries, %s are %s in tone. ", len(items), subject, tone)
	b.WriteString("Key points include: ")
	for i := 0; i < show; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString("\"" + clip(items[i], 90) + "\"")
	}
	if len(items) > show {
		fmt.Fprintf(&b, "; and %d more.", len(items)-show)
	} else {
		b.WriteString(".")
	}
	return b.String()
}

// raceRecord is one parsed race row inside the summariser.
type raceRecord struct {
	year  int
	date  string
	round string
	name  string
}

// summarizeRaces composes the Figure-2-style aggregation answer: world
// knowledge about the circuit blended with the per-row dates from the
// database.
func (m *SimLM) summarizeRaces(circuitName string, items []string) string {
	var races []raceRecord
	for _, it := range items {
		r := raceRecord{}
		for _, kv := range strings.Split(it, "; ") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				k, v, ok = strings.Cut(kv, ": ")
				if !ok {
					continue
				}
			}
			switch strings.ToLower(strings.TrimSpace(k)) {
			case "year":
				r.year, _ = strconv.Atoi(strings.TrimSpace(v))
			case "date":
				r.date = strings.TrimSpace(v)
			case "round":
				r.round = strings.TrimSpace(v)
			case "name", "race name":
				r.name = strings.TrimSpace(v)
			}
		}
		if r.year > 0 || r.date != "" {
			races = append(races, r)
		}
	}
	sort.Slice(races, func(i, j int) bool { return races[i].year < races[j].year })

	var b strings.Builder
	if fact, ok := m.view.Circuit(circuitName); ok {
		fmt.Fprintf(&b, "The %s in %s, %s, hosted the %s from %d to %d. ",
			circuitName, fact.City, fact.Country, raceNameOr(races, "Grand Prix"), fact.FirstGPYear, fact.LastGPYear)
	} else if circuitName != "" {
		fmt.Fprintf(&b, "The %s hosted the following races. ", circuitName)
	}
	if len(races) == 0 {
		b.WriteString("No race records were provided.")
		return b.String()
	}
	b.WriteString("The races were held on the following dates: ")
	writeRace := func(r raceRecord) {
		switch {
		case r.date != "" && r.round != "":
			fmt.Fprintf(&b, "%d: %s (round %s)", r.year, r.date, r.round)
		case r.date != "":
			fmt.Fprintf(&b, "%d: %s", r.year, r.date)
		default:
			fmt.Fprintf(&b, "%d", r.year)
		}
	}
	// Long histories elide the middle, as in the paper's Figure 2 panel
	// ("2005: March 20 (2nd round), ..., 2016: October 2").
	show := races
	var tail []raceRecord
	if len(races) > 24 {
		show = races[:6]
		tail = races[len(races)-2:]
	}
	for i, r := range show {
		if i > 0 {
			b.WriteString(", ")
		}
		writeRace(r)
	}
	if tail != nil {
		b.WriteString(", ...")
		for _, r := range tail {
			b.WriteString(", ")
			writeRace(r)
		}
	}
	b.WriteString(".")
	return b.String()
}

func raceNameOr(races []raceRecord, fallback string) string {
	for _, r := range races {
		if r.name != "" {
			return r.name
		}
	}
	return fallback
}

// semMap applies a per-row transformation instruction.
func (m *SimLM) semMap(prompt string) (string, error) {
	body := strings.TrimPrefix(prompt, markSemMap)
	instr, item, ok := strings.Cut(strings.TrimPrefix(body, "\nInstruction: "), "\nItem: ")
	if !ok {
		return "", nil
	}
	low := strings.ToLower(instr)
	t := m.view.Traits(item)
	switch {
	case strings.Contains(low, "sentiment"):
		if t.Sentiment > 0.5 {
			return "positive", nil
		}
		return "negative", nil
	case strings.Contains(low, "sarcas"):
		if t.Sarcasm > 0.5 {
			return "sarcastic", nil
		}
		return "sincere", nil
	case strings.Contains(low, "technical"):
		if t.Technicality > 0.5 {
			return "technical", nil
		}
		return "casual", nil
	case strings.Contains(low, "one sentence"), strings.Contains(low, "shorten"):
		return clip(item, 80), nil
	default:
		return item, nil
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
