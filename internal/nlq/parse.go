package nlq

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse recovers the Spec from an English question rendered by Render.
// It is the simulated LM's language-understanding head: pattern-directed,
// lexicon-backed, and deliberately limited to the controlled grammar the
// benchmark and examples use. Parse never consults world knowledge — the
// augment it returns still has to be *resolved* (by the LM's noisy
// knowledge view or by semantic operators), which is where the paper's
// failure modes live.
func Parse(q string) (*Spec, error) {
	q = strings.TrimSpace(q)
	switch {
	case strings.HasPrefix(q, "What is the "):
		return parseMatch(q)
	case strings.HasPrefix(q, "Among the "):
		return parseComparison(q)
	case strings.HasPrefix(q, "List the "):
		return parseRankingList(q)
	case strings.HasPrefix(q, "Of the "):
		return parseRankingRerank(q)
	case strings.HasPrefix(q, "Summarize the "):
		return parseSummarize(q)
	case strings.HasPrefix(q, "Provide information about the "):
		return parseProvideInfo(q)
	default:
		return nil, fmt.Errorf("nlq: unrecognised question form: %q", q)
	}
}

// augMarkers are the surface cues that introduce an augment clause, shared
// by every frame. Order matters only for scanning; all markers are
// mutually exclusive prefixes.
var augMarkers = []string{
	" located in a city that is part of the '",
	" located in a county that is part of the '",
	" located in a country that is a member of the European Union",
	" who are taller than ",
	" that are considered a 'classic'",
	" that are named after a person",
	" that are positive in sentiment",
	" that are negative in sentiment",
	" that are sarcastic in tone",
	" that are technical in nature",
	" whose description sounds premium",
}

// splitAug finds the augment clause in the tail of a sentence, returning
// the text before it and the parsed augment (nil if none present).
func splitAug(domain, table, s string) (string, *Augment, error) {
	for _, m := range augMarkers {
		i := strings.Index(s, m)
		if i < 0 {
			continue
		}
		rest := s[i+len(m):]
		var a Augment
		switch m {
		case " located in a city that is part of the '":
			arg, _, ok := strings.Cut(rest, "' region")
			if !ok {
				return "", nil, fmt.Errorf("nlq: malformed region clause in %q", s)
			}
			a = Augment{Kind: AugCityRegion, Arg: arg}
		case " located in a county that is part of the '":
			arg, _, ok := strings.Cut(rest, "' region")
			if !ok {
				return "", nil, fmt.Errorf("nlq: malformed region clause in %q", s)
			}
			a = Augment{Kind: AugCountyRegion, Arg: arg}
		case " located in a country that is a member of the European Union":
			a = Augment{Kind: AugEUCountry}
		case " who are taller than ":
			a = Augment{Kind: AugTallerThan, Arg: strings.TrimRight(rest, "?.")}
		case " that are considered a 'classic'":
			a = Augment{Kind: AugClassic}
		case " that are named after a person":
			a = Augment{Kind: AugNamedAfterPerson}
		case " that are positive in sentiment":
			a = Augment{Kind: AugPositive}
		case " that are negative in sentiment":
			a = Augment{Kind: AugNegative}
		case " that are sarcastic in tone":
			a = Augment{Kind: AugSarcastic}
		case " that are technical in nature":
			a = Augment{Kind: AugTechnical}
		case " whose description sounds premium":
			a = Augment{Kind: AugPremium}
		}
		a.Column = augDefaultColumn(domain, table, a.Kind)
		return s[:i], &a, nil
	}
	return s, nil, nil
}

// augDefaultColumn resolves which column an augment applies to — schema
// knowledge the LM derives from the prompt's CREATE TABLE block.
func augDefaultColumn(domain, table string, k AugKind) string {
	find := func(label string) string {
		if c, ok := columnForLabel(domain, label); ok {
			return c
		}
		return ""
	}
	switch k {
	case AugCityRegion:
		return find("city")
	case AugCountyRegion:
		return find("county")
	case AugEUCountry:
		return find("country")
	case AugTallerThan:
		return find("height")
	case AugClassic:
		return find("title")
	case AugNamedAfterPerson:
		return find("school name")
	case AugPremium:
		return find("description")
	case AugPositive, AugNegative, AugSarcastic, AugTechnical,
		AugTopSarcastic, AugTopTechnical, AugTopPositive, AugSummarize:
		// Trait augments apply to the table's free-text column.
		return textColumnFor(domain, table)
	default:
		return ""
	}
}

// textColumnFor names the free-text column of a table (the one semantic
// reasoning operates on).
func textColumnFor(domain, table string) string {
	switch domain + "/" + table {
	case "codebase_community/comments":
		return "comments.Text"
	case "codebase_community/posts":
		return "posts.Title"
	case "movies/reviews":
		return "reviews.body"
	case "movies/movies":
		return "movies.title"
	case "debit_card_specializing/products":
		return "products.Description"
	default:
		return ""
	}
}

// parseFilters parses the filter clause produced by renderFilters.
// The clause may be empty.
func parseFilters(domain, table, s string) ([]Filter, error) {
	s = strings.TrimSpace(s)
	var out []Filter
	for s != "" {
		s = strings.TrimPrefix(s, "and ")
		if !strings.HasPrefix(s, "whose ") {
			return nil, fmt.Errorf("nlq: expected filter clause, found %q", s)
		}
		s = s[len("whose "):]
		// Longest-label match at the head; labels are unique per domain,
		// so the label alone identifies the (possibly joined) column.
		var label, col string
		for _, l := range domainLabels(domain) {
			if strings.HasPrefix(s, l) && strings.HasPrefix(s[len(l):], " is ") {
				col, _ = columnForLabel(domain, l)
				label = l
				break
			}
		}
		if label == "" {
			return nil, fmt.Errorf("nlq: no column label recognised at %q", s)
		}
		s = s[len(label)+len(" is "):]
		f := Filter{Column: col}
		switch {
		case strings.HasPrefix(s, "over "):
			f.Op, f.Num, s = ">", true, s[len("over "):]
		case strings.HasPrefix(s, "under "):
			f.Op, f.Num, s = "<", true, s[len("under "):]
		case strings.HasPrefix(s, "at least "):
			f.Op, f.Num, s = ">=", true, s[len("at least "):]
		case strings.HasPrefix(s, "at most "):
			f.Op, f.Num, s = "<=", true, s[len("at most "):]
		case strings.HasPrefix(s, "exactly "):
			f.Op, f.Num, s = "=", true, s[len("exactly "):]
		case strings.HasPrefix(s, "not '"):
			f.Op, s = "!=", s[len("not "):]
		default:
			f.Op = "="
		}
		if strings.HasPrefix(s, "'") {
			end := strings.Index(s[1:], "'")
			if end < 0 {
				return nil, fmt.Errorf("nlq: unterminated quoted value in filter")
			}
			f.Value = s[1 : 1+end]
			s = s[2+end:]
		} else {
			// Numeric value: read to the next space or end.
			j := strings.IndexByte(s, ' ')
			if j < 0 {
				f.Value = s
				s = ""
			} else {
				f.Value = s[:j]
				s = s[j:]
			}
			f.Num = true
		}
		out = append(out, f)
		s = strings.TrimSpace(s)
	}
	return out, nil
}

// resolveJoins fills in Spec.Join when any referenced column lives outside
// the primary table.
func resolveJoins(s *Spec) error {
	check := func(qcol string) error {
		if qcol == "" || tableOf(qcol) == s.Table {
			return nil
		}
		j, ok := JoinFor(s.Domain, s.Table, qcol)
		if !ok {
			return fmt.Errorf("nlq: no foreign key from %s to %s in %s", s.Table, tableOf(qcol), s.Domain)
		}
		if j != nil && s.Join == nil {
			s.Join = j
		}
		return nil
	}
	if err := check(s.Target); err != nil {
		return err
	}
	if err := check(s.OrderBy); err != nil {
		return err
	}
	for _, f := range s.Filters {
		if err := check(f.Column); err != nil {
			return err
		}
	}
	if s.Aug != nil {
		if err := check(s.Aug.Column); err != nil {
			return err
		}
	}
	return nil
}

// finishSpec derives Category and resolves joins.
func finishSpec(s *Spec) (*Spec, error) {
	if s.Aug != nil {
		if s.Aug.Kind.IsKnowledge() {
			s.Category = Knowledge
		} else {
			s.Category = Reasoning
		}
	}
	if err := resolveJoins(s); err != nil {
		return nil, err
	}
	return s, nil
}

func parseMatch(q string) (*Spec, error) {
	body := strings.TrimSuffix(strings.TrimPrefix(q, "What is the "), "?")
	target, rest, ok := strings.Cut(body, " of the ")
	if !ok {
		return nil, fmt.Errorf("nlq: match frame missing ' of the ': %q", q)
	}
	// Entity noun is the longest known singular noun prefix of rest.
	domain, table, tail, err := cutNoun(rest)
	if err != nil {
		return nil, err
	}
	s := &Spec{Domain: domain, Type: Match, Table: table, Limit: 1}
	if c, ok := columnForLabel(domain, target); ok {
		s.Target = c
	} else {
		return nil, fmt.Errorf("nlq: unknown target label %q", target)
	}
	tail, aug, err := splitAug(domain, table, tail)
	if err != nil {
		return nil, err
	}
	s.Aug = aug
	tail = strings.TrimSpace(tail)
	if strings.HasPrefix(tail, "with the highest ") || strings.HasPrefix(tail, "with the lowest ") {
		s.OrderDesc = strings.HasPrefix(tail, "with the highest ")
		tail = strings.TrimPrefix(strings.TrimPrefix(tail, "with the highest "), "with the lowest ")
		// The order label runs until the filter clause (or end).
		label, filterPart := cutLabel(domain, tail)
		if label == "" {
			return nil, fmt.Errorf("nlq: unknown order label at %q", tail)
		}
		col, _ := columnForLabel(domain, label)
		s.OrderBy = col
		tail = filterPart
	}
	fs, err := parseFilters(domain, table, tail)
	if err != nil {
		return nil, err
	}
	s.Filters = fs
	return finishSpec(s)
}

func parseComparison(q string) (*Spec, error) {
	body := strings.TrimSuffix(strings.TrimPrefix(q, "Among the "), "?")
	head, pred, ok := strings.Cut(body, ", how many of them ")
	if !ok {
		return nil, fmt.Errorf("nlq: comparison frame missing count clause: %q", q)
	}
	domain, table, tail, err := cutNoun(head)
	if err != nil {
		return nil, err
	}
	s := &Spec{Domain: domain, Type: Comparison, Table: table}
	fs, err := parseFilters(domain, table, tail)
	if err != nil {
		return nil, err
	}
	s.Filters = fs
	aug, err := parsePredicate(domain, table, pred)
	if err != nil {
		return nil, err
	}
	s.Aug = aug
	return finishSpec(s)
}

// parsePredicate maps a comparison verb phrase back to an augment.
func parsePredicate(domain, table, pred string) (*Augment, error) {
	pred = strings.TrimSpace(pred)
	var a Augment
	switch {
	case strings.HasPrefix(pred, "are located in a city that is part of the '"):
		arg, _, _ := strings.Cut(pred[len("are located in a city that is part of the '"):], "' region")
		a = Augment{Kind: AugCityRegion, Arg: arg}
	case strings.HasPrefix(pred, "are located in a county that is part of the '"):
		arg, _, _ := strings.Cut(pred[len("are located in a county that is part of the '"):], "' region")
		a = Augment{Kind: AugCountyRegion, Arg: arg}
	case pred == "are located in a country that is a member of the European Union":
		a = Augment{Kind: AugEUCountry}
	case strings.HasPrefix(pred, "are taller than "):
		a = Augment{Kind: AugTallerThan, Arg: strings.TrimPrefix(pred, "are taller than ")}
	case pred == "are considered a 'classic'":
		a = Augment{Kind: AugClassic}
	case pred == "are named after a person":
		a = Augment{Kind: AugNamedAfterPerson}
	case pred == "are positive in sentiment":
		a = Augment{Kind: AugPositive}
	case pred == "are negative in sentiment":
		a = Augment{Kind: AugNegative}
	case pred == "are sarcastic in tone":
		a = Augment{Kind: AugSarcastic}
	case pred == "are technical in nature":
		a = Augment{Kind: AugTechnical}
	case pred == "have a description that sounds premium":
		a = Augment{Kind: AugPremium}
	default:
		return nil, fmt.Errorf("nlq: unknown comparison predicate %q", pred)
	}
	a.Column = augDefaultColumn(domain, table, a.Kind)
	return &a, nil
}

func parseRankingList(q string) (*Spec, error) {
	body := strings.TrimSuffix(strings.TrimPrefix(q, "List the "), ".")
	target, rest, ok := strings.Cut(body, " of the ")
	if !ok {
		return nil, fmt.Errorf("nlq: ranking frame missing ' of the ': %q", q)
	}
	// rest = "{K} most {trait} {plural}{filters}"  or
	//        "{K} {plural} with the highest {order}{filters}{aug}"
	kStr, rest2, ok := strings.Cut(rest, " ")
	if !ok {
		return nil, fmt.Errorf("nlq: ranking frame missing K: %q", q)
	}
	k, err := strconv.Atoi(kStr)
	if err != nil {
		return nil, fmt.Errorf("nlq: ranking K %q is not a number", kStr)
	}
	if strings.HasPrefix(rest2, "most ") {
		// Direct trait top-K.
		rest2 = rest2[len("most "):]
		trait, rest3, ok := strings.Cut(rest2, " ")
		if !ok {
			return nil, fmt.Errorf("nlq: trait ranking missing entity: %q", q)
		}
		kind, ok := traitKindFor(trait)
		if !ok {
			return nil, fmt.Errorf("nlq: unknown trait %q", trait)
		}
		domain, table, tail, err := cutNoun(rest3)
		if err != nil {
			return nil, err
		}
		s := &Spec{Domain: domain, Type: Ranking, Table: table, Limit: k}
		if c, ok := columnForLabel(domain, target); ok {
			s.Target = c
		} else {
			return nil, fmt.Errorf("nlq: unknown target label %q", target)
		}
		fs, err := parseFilters(domain, table, tail)
		if err != nil {
			return nil, err
		}
		s.Filters = fs
		s.Aug = &Augment{Kind: kind, Column: augDefaultColumn(domain, table, kind), K: k}
		return finishSpec(s)
	}
	// Knowledge ranking.
	domain, table, tail, err := cutNoun(rest2)
	if err != nil {
		return nil, err
	}
	s := &Spec{Domain: domain, Type: Ranking, Table: table, Limit: k}
	if c, ok := columnForLabel(domain, target); ok {
		s.Target = c
	} else {
		return nil, fmt.Errorf("nlq: unknown target label %q", target)
	}
	tail = strings.TrimSpace(tail)
	if strings.HasPrefix(tail, "with the highest ") || strings.HasPrefix(tail, "with the lowest ") {
		s.OrderDesc = strings.HasPrefix(tail, "with the highest ")
		tail = strings.TrimPrefix(strings.TrimPrefix(tail, "with the highest "), "with the lowest ")
		label, rest := cutLabel(domain, tail)
		if label == "" {
			return nil, fmt.Errorf("nlq: unknown order label at %q", tail)
		}
		col, _ := columnForLabel(domain, label)
		s.OrderBy = col
		tail = rest
	}
	tail, aug, err := splitAug(domain, table, tail)
	if err != nil {
		return nil, err
	}
	s.Aug = aug
	fs, err := parseFilters(domain, table, tail)
	if err != nil {
		return nil, err
	}
	s.Filters = fs
	return finishSpec(s)
}

func parseRankingRerank(q string) (*Spec, error) {
	body := strings.TrimSuffix(strings.TrimPrefix(q, "Of the "), ".")
	head, listPart, ok := strings.Cut(body, ", list their ")
	if !ok {
		return nil, fmt.Errorf("nlq: rerank frame missing ', list their ': %q", q)
	}
	kStr, rest, ok := strings.Cut(head, " ")
	if !ok {
		return nil, fmt.Errorf("nlq: rerank frame missing K: %q", q)
	}
	k, err := strconv.Atoi(kStr)
	if err != nil {
		return nil, fmt.Errorf("nlq: rerank K %q is not a number", kStr)
	}
	domain, table, tail, err := cutNoun(rest)
	if err != nil {
		return nil, err
	}
	s := &Spec{Domain: domain, Type: Ranking, Table: table, Limit: k}
	tail = strings.TrimSpace(tail)
	if strings.HasPrefix(tail, "with the highest ") || strings.HasPrefix(tail, "with the lowest ") {
		s.OrderDesc = strings.HasPrefix(tail, "with the highest ")
		tail = strings.TrimPrefix(strings.TrimPrefix(tail, "with the highest "), "with the lowest ")
		label, rest := cutLabel(domain, tail)
		if label == "" {
			return nil, fmt.Errorf("nlq: unknown order label at %q", tail)
		}
		col, _ := columnForLabel(domain, label)
		s.OrderBy = col
		tail = rest
	}
	fs, err := parseFilters(domain, table, tail)
	if err != nil {
		return nil, err
	}
	s.Filters = fs
	// listPart = "{target} in order of most {trait} to least {trait}"
	target, traitPart, ok := strings.Cut(listPart, " in order of most ")
	if !ok {
		return nil, fmt.Errorf("nlq: rerank frame missing trait ordering: %q", q)
	}
	if c, ok := columnForLabel(domain, target); ok {
		s.Target = c
	} else {
		return nil, fmt.Errorf("nlq: unknown target label %q", target)
	}
	trait, _, _ := strings.Cut(traitPart, " to least ")
	kind, ok := traitKindFor(trait)
	if !ok {
		return nil, fmt.Errorf("nlq: unknown trait %q", trait)
	}
	s.Aug = &Augment{Kind: kind, Column: augDefaultColumn(domain, table, kind), K: k}
	return finishSpec(s)
}

func parseSummarize(q string) (*Spec, error) {
	body := strings.TrimSuffix(strings.TrimPrefix(q, "Summarize the "), ".")
	target, rest, ok := strings.Cut(body, " of the ")
	if !ok {
		return nil, fmt.Errorf("nlq: summarize frame missing ' of the ': %q", q)
	}
	domain, table, tail, err := cutNoun(rest)
	if err != nil {
		return nil, err
	}
	s := &Spec{Domain: domain, Type: Aggregation, Table: table}
	if c, ok := columnForLabel(domain, target); ok {
		s.Target = c
	} else {
		return nil, fmt.Errorf("nlq: unknown target label %q", target)
	}
	fs, err := parseFilters(domain, table, tail)
	if err != nil {
		return nil, err
	}
	s.Filters = fs
	s.Aug = &Augment{Kind: AugSummarize, Column: s.Target}
	return finishSpec(s)
}

func parseProvideInfo(q string) (*Spec, error) {
	body := strings.TrimSuffix(strings.TrimPrefix(q, "Provide information about the "), ".")
	if strings.HasPrefix(body, "races held on ") {
		arg := strings.TrimPrefix(body, "races held on ")
		s := &Spec{
			Domain: "formula_1", Type: Aggregation, Table: "races",
			Aug: &Augment{Kind: AugCircuitInfo, Column: "circuits.name", Arg: arg},
		}
		return finishSpec(s)
	}
	domain, table, tail, err := cutNoun(body)
	if err != nil {
		return nil, err
	}
	s := &Spec{Domain: domain, Type: Aggregation, Table: table}
	tail, aug, err := splitAug(domain, table, tail)
	if err != nil {
		return nil, err
	}
	s.Aug = aug
	fs, err := parseFilters(domain, table, tail)
	if err != nil {
		return nil, err
	}
	s.Filters = fs
	return finishSpec(s)
}

// cutNoun matches the longest entity noun at the head of s and returns its
// (domain, table) with the remaining text.
func cutNoun(s string) (domain, table, rest string, err error) {
	best := ""
	for _, e := range entityNouns {
		for _, n := range []string{e.plural, e.singular} {
			if strings.HasPrefix(s, n) && len(n) > len(best) {
				if len(s) == len(n) || s[len(n)] == ' ' || s[len(n)] == ',' {
					best = n
					domain, table = e.domain, e.table
				}
			}
		}
	}
	if best == "" {
		return "", "", "", fmt.Errorf("nlq: no entity noun at %q", s)
	}
	return domain, table, s[len(best):], nil
}

// cutLabel matches the longest column label of the domain at the head of s
// and returns the label and the remainder.
func cutLabel(domain, s string) (label, rest string) {
	for _, l := range domainLabels(domain) {
		if strings.HasPrefix(s, l) {
			if len(s) == len(l) || s[len(l)] == ' ' || s[len(l)] == ',' {
				return l, s[len(l):]
			}
		}
	}
	return "", s
}
