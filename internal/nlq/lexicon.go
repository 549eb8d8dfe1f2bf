package nlq

import (
	"sort"
	"strings"
)

// This file is the shared English lexicon: entity nouns, column labels,
// filter phrase overrides and foreign-key hints. Render and Parse both read
// these tables, which is what guarantees round-tripping.

// entityNoun maps (domain, table) to singular/plural English nouns.
type entityNoun struct {
	domain, table    string
	singular, plural string
}

var entityNouns = []entityNoun{
	{"california_schools", "schools", "school", "schools"},
	{"california_schools", "satscores", "SAT score record", "SAT score records"},
	{"european_football_2", "Player", "player", "players"},
	{"european_football_2", "Team", "team", "teams"},
	{"codebase_community", "posts", "post", "posts"},
	{"codebase_community", "comments", "comment", "comments"},
	{"codebase_community", "users", "user", "users"},
	{"debit_card_specializing", "gasstations", "gas station", "gas stations"},
	{"debit_card_specializing", "transactions_1k", "transaction", "transactions"},
	{"debit_card_specializing", "products", "product", "products"},
	{"debit_card_specializing", "customers", "customer", "customers"},
	{"formula_1", "races", "race", "races"},
	{"formula_1", "drivers", "driver", "drivers"},
	{"formula_1", "circuits", "circuit", "circuits"},
	// The movies domain backs Figure 1 and the examples.
	{"movies", "movies", "movie", "movies"},
	{"movies", "reviews", "review", "reviews"},
}

// nounFor returns the nouns for a (domain, table).
func nounFor(domain, table string) (string, string) {
	for _, e := range entityNouns {
		if e.domain == domain && e.table == table {
			return e.singular, e.plural
		}
	}
	return table, table
}

// colLabels maps "domain/table.column" to the English noun phrase used in
// questions. Labels must be unique within a domain (Parse relies on it).
var colLabels = map[string]string{
	// california_schools
	"california_schools/schools.School":        "school name",
	"california_schools/schools.District":      "district",
	"california_schools/schools.City":          "city",
	"california_schools/schools.County":        "county",
	"california_schools/schools.Longitude":     "longitude",
	"california_schools/schools.Latitude":      "latitude",
	"california_schools/schools.GSoffered":     "grade span offered",
	"california_schools/schools.Charter":       "charter status",
	"california_schools/satscores.AvgScrMath":  "average math score in the SAT test",
	"california_schools/satscores.AvgScrRead":  "average reading score in the SAT test",
	"california_schools/satscores.AvgScrWrite": "average writing score in the SAT test",
	"california_schools/satscores.NumTstTakr":  "number of test takers",
	"california_schools/frpm.Enrollment":       "enrollment",
	"california_schools/frpm.FRPMCount":        "free or reduced price meal count",

	// european_football_2
	"european_football_2/Player.player_name":    "name",
	"european_football_2/Player.height":         "height",
	"european_football_2/Player.weight":         "weight",
	"european_football_2/Player.birthday":       "birthday",
	"european_football_2/Player.overall_rating": "overall rating",
	"european_football_2/Player.volleys":        "volley score",
	"european_football_2/Player.dribbling":      "dribbling score",
	"european_football_2/Player.finishing":      "finishing score",
	"european_football_2/Team.team_long_name":   "team name",
	"european_football_2/Team.country":          "country",

	// codebase_community
	"codebase_community/posts.Title":       "title",
	"codebase_community/posts.Body":        "body",
	"codebase_community/posts.ViewCount":   "view count",
	"codebase_community/posts.Score":       "score",
	"codebase_community/comments.Text":     "text",
	"codebase_community/comments.Score":    "comment score",
	"codebase_community/users.DisplayName": "display name",
	"codebase_community/users.Reputation":  "reputation",

	// debit_card_specializing
	"debit_card_specializing/gasstations.Country":    "country",
	"debit_card_specializing/gasstations.Segment":    "segment",
	"debit_card_specializing/gasstations.ChainID":    "chain id",
	"debit_card_specializing/transactions_1k.Amount": "amount",
	"debit_card_specializing/transactions_1k.Price":  "price",
	"debit_card_specializing/transactions_1k.Date":   "date",
	"debit_card_specializing/products.Description":   "description",
	"debit_card_specializing/products.ProductID":     "product id",
	"debit_card_specializing/customers.Segment":      "customer segment",
	"debit_card_specializing/customers.Currency":     "currency",

	// formula_1
	"formula_1/races.name":          "race name",
	"formula_1/races.year":          "year",
	"formula_1/races.round":         "round",
	"formula_1/races.date":          "date",
	"formula_1/circuits.name":       "circuit name",
	"formula_1/circuits.location":   "location",
	"formula_1/circuits.country":    "country",
	"formula_1/drivers.surname":     "surname",
	"formula_1/drivers.forename":    "forename",
	"formula_1/drivers.nationality": "nationality",
	"formula_1/results.position":    "finishing position",
	"formula_1/results.points":      "points",

	// movies (examples / Figure 1)
	"movies/movies.title":   "title",
	"movies/movies.genre":   "genre",
	"movies/movies.revenue": "revenue",
	"movies/movies.year":    "release year",
	"movies/reviews.body":   "review",
	"movies/reviews.stars":  "star rating",
}

// labelFor returns the English label of a qualified column in a domain.
func labelFor(domain, qcol string) string {
	if l, ok := colLabels[domain+"/"+qcol]; ok {
		return l
	}
	// Fall back to the bare column name.
	if i := strings.IndexByte(qcol, '.'); i >= 0 {
		return qcol[i+1:]
	}
	return qcol
}

// columnForLabel resolves an English label back to a qualified column
// within a domain. The search prefers the longest label match (labels are
// unique per domain so ties cannot occur).
func columnForLabel(domain, label string) (string, bool) {
	want := strings.TrimSpace(strings.ToLower(label))
	prefix := domain + "/"
	for key, l := range colLabels {
		if strings.HasPrefix(key, prefix) && strings.ToLower(l) == want {
			return strings.TrimPrefix(key, prefix), true
		}
	}
	return "", false
}

// domainLabels returns the labels of a domain sorted longest-first, used by
// Parse to find the longest label occurring at a position.
func domainLabels(domain string) []string { return labelsByDomain[domain] }

// labelsByDomain is colLabels regrouped once: Parse asks for a domain's
// list at every filter and target it reads.
var labelsByDomain = func() map[string][]string {
	byDomain := make(map[string][]string)
	for key, l := range colLabels {
		domain, _, _ := strings.Cut(key, "/")
		byDomain[domain] = append(byDomain[domain], l)
	}
	for _, out := range byDomain {
		sort.Slice(out, func(i, j int) bool {
			if len(out[i]) != len(out[j]) {
				return len(out[i]) > len(out[j])
			}
			return out[i] < out[j]
		})
	}
	return byDomain
}()

// foreignKeys lists the joins the schema makes available per domain. The
// simulated LM consults this when a parsed question references columns from
// two tables — exactly the "schema understanding" a Text2SQL prompt conveys.
var foreignKeys = map[string][]Join{
	"california_schools": {
		{Table: "satscores", Left: "schools.CDSCode", Right: "satscores.cds"},
		{Table: "frpm", Left: "schools.CDSCode", Right: "frpm.CDSCode"},
	},
	"codebase_community": {
		{Table: "posts", Left: "comments.PostId", Right: "posts.Id"},
		{Table: "users", Left: "comments.UserId", Right: "users.Id"},
	},
	"debit_card_specializing": {
		{Table: "gasstations", Left: "transactions_1k.GasStationID", Right: "gasstations.GasStationID"},
		{Table: "products", Left: "transactions_1k.ProductID", Right: "products.ProductID"},
		{Table: "customers", Left: "transactions_1k.CustomerID", Right: "customers.CustomerID"},
	},
	"formula_1": {
		{Table: "circuits", Left: "races.circuitId", Right: "circuits.circuitId"},
		{Table: "results", Left: "races.raceId", Right: "results.raceId"},
		{Table: "drivers", Left: "results.driverId", Right: "drivers.driverId"},
	},
	"movies": {
		{Table: "reviews", Left: "movies.id", Right: "reviews.movie_id"},
		{Table: "movies", Left: "reviews.movie_id", Right: "movies.id"},
	},
	"european_football_2": nil,
}

// JoinFor returns the join connecting the primary table to the table owning
// qcol, or nil when qcol lives in the primary table. ok=false means no
// foreign key connects them.
func JoinFor(domain, primary, qcol string) (*Join, bool) {
	tbl := qcol
	if i := strings.IndexByte(qcol, '.'); i >= 0 {
		tbl = qcol[:i]
	}
	if tbl == primary {
		return nil, true
	}
	for _, j := range foreignKeys[domain] {
		if j.Table == tbl && strings.HasPrefix(j.Left, primary+".") {
			jj := j
			return &jj, true
		}
		// Reverse orientation: FK declared from the secondary side.
		if strings.HasPrefix(j.Left, tbl+".") && j.Table == tbl {
			jj := j
			return &jj, true
		}
	}
	// Search FKs declared with the secondary table as origin.
	for _, j := range foreignKeys[domain] {
		if strings.HasPrefix(j.Left, primary+".") && j.Table == tbl {
			jj := j
			return &jj, true
		}
	}
	return nil, false
}

// tableOf extracts the table part of a qualified column.
func tableOf(qcol string) string {
	if i := strings.IndexByte(qcol, '.'); i >= 0 {
		return qcol[:i]
	}
	return qcol
}
