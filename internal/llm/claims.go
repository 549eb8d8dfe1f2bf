package llm

import (
	"strconv"
	"strings"

	"tag/internal/nlq"
)

// Claim is one sentence of the claim grammar: what a semantic filter asks
// the model about a value, and what SimLM's judgement head recognises. The
// sentence is Before + value + After, and for the two claims that take an
// argument (a region, a person) + arg + Tail. Claims arrive at the model
// with the value already substituted, as LOTUS renders {Column}
// placeholders into per-row prompts.
type Claim struct {
	Name                string      // what TaskClaim, and so LLM_FILTER's task argument, calls it
	Aug                 nlq.AugKind // the question augment it answers
	Before, After, Tail string
}

// Claims is the grammar, written once: the hand-written pipelines
// (ClaimFor), the SQL functions (TaskClaim) and SimLM (judgeClaim) all read
// it. A claim outside it is one SimLM can only guess at.
var Claims = []Claim{
	{Name: "city in region", Aug: nlq.AugCityRegion, After: " is a city in the ", Tail: " region"},
	{Name: "bay area county", Aug: nlq.AugCountyRegion, After: " is a county in the Bay Area"},
	{Name: "eu country", Aug: nlq.AugEUCountry, After: " is a country that is a member of the European Union"},
	{Name: "classic movie", Aug: nlq.AugClassic, After: " is a movie widely considered a classic"},
	{Name: "named after a person", Aug: nlq.AugNamedAfterPerson, After: " is a school named after a person"},
	{Name: "premium", Aug: nlq.AugPremium, After: " sounds like a premium product"},
	{Name: "taller than", Aug: nlq.AugTallerThan, Before: "height ", After: " is greater than the height of ", Tail: " in centimeters"},
	{Name: "positive", Aug: nlq.AugPositive, Before: "the following text is positive: "},
	{Name: "negative", Aug: nlq.AugNegative, Before: "the following text is negative: "},
	{Name: "sarcastic", Aug: nlq.AugSarcastic, Before: "the following text is sarcastic: "},
	{Name: "technical", Aug: nlq.AugTechnical, Before: "the following text is technical: "},
}

// ClaimFor finds the claim that answers a question augment.
func ClaimFor(aug nlq.AugKind) (Claim, bool) {
	for _, c := range Claims {
		if c.Aug == aug {
			return c, true
		}
	}
	return Claim{}, false
}

// TaskClaim is the claim LLM_FILTER('task', value) makes: the grammar's
// claim of that name (case and surrounding space aside), else the task
// itself as a free-form condition on the value.
func TaskClaim(task string) Claim {
	name := strings.TrimSpace(task)
	for _, c := range Claims {
		if strings.EqualFold(c.Name, name) {
			return c
		}
	}
	return Claim{After: " satisfies: " + task}
}

// About writes the claim's sentence about a value — or, about a column's
// "{col}" placeholder, the instruction DataFrame.SemFilter fills per row.
// arg is the region or person of a claim that takes one, and is ignored by
// the others.
func (c Claim) About(value, arg string) string {
	if c.Tail == "" {
		return c.Before + value + c.After
	}
	return c.Before + value + c.After + arg + c.Tail
}

// cut reads a sentence of this claim back into its value and argument.
// Suffix claims may end in a period; the argument comes back as written,
// Tail and any quoting included.
func (c Claim) cut(sentence string) (value, arg string, ok bool) {
	body, ok := strings.CutPrefix(sentence, c.Before)
	switch {
	case !ok:
		return "", "", false
	case c.Tail != "":
		value, arg, _ = strings.Cut(body, c.After)
		return value, arg, strings.Contains(sentence, c.After)
	case c.After != "":
		value, ok = cutSuffix(body, c.After)
		return value, "", ok
	default:
		return body, "", true
	}
}

// judgeClaim finds the claim a sentence makes and answers it from the
// model's noisy knowledge or trait estimation.
func (m *SimLM) judgeClaim(sentence string) (verdict, recognised bool) {
	for _, c := range Claims {
		if value, arg, ok := c.cut(sentence); ok {
			return m.holds(c, value, arg), true
		}
	}
	return false, false
}

func (m *SimLM) holds(c Claim, value, arg string) bool {
	switch c.Aug {
	case nlq.AugCityRegion:
		const quotes = "'\""
		region := strings.TrimSuffix(strings.Trim(arg, quotes), c.Tail)
		return m.view.InRegion(value, strings.Trim(region, quotes))
	case nlq.AugCountyRegion:
		return m.view.CountyInBayArea(value)
	case nlq.AugEUCountry:
		return m.view.IsEUCountry(value)
	case nlq.AugClassic:
		return m.view.IsClassicMovie(value)
	case nlq.AugNamedAfterPerson:
		return m.view.IsNamedAfterPerson(value)
	case nlq.AugPremium:
		return m.view.IsPremiumProduct(value)
	case nlq.AugTallerThan:
		h, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		if err != nil {
			return false
		}
		return h > m.heightCM(strings.TrimSuffix(arg, c.Tail))
	case nlq.AugPositive:
		return m.view.Traits(unq(value)).Sentiment > 0.5
	case nlq.AugNegative:
		return m.view.Traits(unq(value)).Sentiment < 0.5
	case nlq.AugSarcastic:
		return m.view.Traits(unq(value)).Sarcasm > 0.5
	default: // nlq.AugTechnical
		return m.view.Traits(unq(value)).Technicality > 0.5
	}
}

// cutSuffix cuts suffix (a claim's After, none of which ends in a period)
// off s, allowing s a trailing period.
func cutSuffix(s, suffix string) (string, bool) {
	rest, ok := strings.CutSuffix(strings.TrimSuffix(s, "."), suffix)
	if !ok {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

func unq(s string) string { return strings.Trim(strings.TrimSpace(s), "'\"") }
