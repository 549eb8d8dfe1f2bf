package llm

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"tag/internal/world"
)

// Additional task-head tests: retrieval-SQL synthesis, ranking and
// aggregation answers, fact lookups, and failure-mode injection.

func TestText2SQLRetrievalVariant(t *testing.T) {
	m := newTestLM(OracleProfile())
	q := "Among the players whose height is over 180, how many of them are taller than Stephen Curry?"
	sql, err := m.Complete(context.Background(), Text2SQLRetrievalPrompt("", q))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sql, "COUNT(") {
		t.Errorf("retrieval SQL must fetch rows, not aggregate:\n%s", sql)
	}
	if !strings.Contains(sql, "Player.height > 180") {
		t.Errorf("retrieval SQL should keep relational filters:\n%s", sql)
	}
	if strings.Contains(sql, "Curry") || strings.Contains(sql, "188") {
		t.Errorf("retrieval SQL must not resolve the knowledge clause:\n%s", sql)
	}
}

func TestAnswerHeadRanking(t *testing.T) {
	m := newTestLM(OracleProfile())
	points := []DataPoint{
		pt("Title", "which laptop should I buy for studying", "ViewCount", "500"),
		pt("Title", "eigenvalue decomposition of the covariance matrix", "ViewCount", "400"),
		pt("Title", "what music do you listen to while working", "ViewCount", "300"),
	}
	q := "Of the 3 posts with the highest view count, list their title in order of most technical to least technical."
	out, err := m.Complete(context.Background(), AnswerPrompt(DataPoints(points), q))
	if err != nil {
		t.Fatal(err)
	}
	vals := ParseAnswerList(out)
	if len(vals) != 3 || !strings.Contains(vals[0], "eigenvalue") {
		t.Errorf("ranking answer = %v", vals)
	}
}

func TestAnswerHeadAggregationSummary(t *testing.T) {
	m := newTestLM(OracleProfile())
	points := []DataPoint{
		pt("Text", "an absolute masterpiece from start to finish"),
		pt("Text", "still the best thing I have ever watched"),
	}
	q := "Summarize the text of the comments whose comment score is over 0."
	out, err := m.Complete(context.Background(), AggAnswerPrompt(DataPoints(points), q))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "largely positive") {
		t.Errorf("aggregation answer = %q", out)
	}
}

func TestFactHeightHead(t *testing.T) {
	m := newTestLM(OracleProfile())
	out, err := m.Complete(context.Background(), HeightPrompt("Stephen Curry"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := strconv.ParseFloat(out, 64)
	if err != nil || h != 188 {
		t.Errorf("Curry height = %q", out)
	}
	// Unknown athletes get a plausible hallucination, never an error.
	out, err = m.Complete(context.Background(), HeightPrompt("Totally Unknown Person"))
	if err != nil {
		t.Fatal(err)
	}
	h, err = strconv.ParseFloat(out, 64)
	if err != nil || h < 150 || h > 210 {
		t.Errorf("hallucinated height = %q; want plausible number", out)
	}
}

func TestArithmeticSlipsGrowWithRows(t *testing.T) {
	p := DefaultProfile()
	slipSmall, slipLarge := 0, 0
	const trials = 400
	for i := 0; i < trials; i++ {
		task := "count:q" + strconv.Itoa(i)
		if p.arithmeticSlips(task, 3) {
			slipSmall++
		}
		if p.arithmeticSlips(task, 60) {
			slipLarge++
		}
	}
	if slipLarge <= slipSmall {
		t.Errorf("slips over 60 rows (%d) should exceed slips over 3 rows (%d)", slipLarge, slipSmall)
	}
}

func TestCountSlipChangesAnswer(t *testing.T) {
	// With maximal arithmetic error, counting must be wrong on large
	// inputs — the failure RAG inherits by doing computation in-context.
	p := OracleProfile()
	p.ArithBase = 1 // always slip
	m := newTestLM(p)
	var points []DataPoint
	for i := 0; i < 30; i++ {
		points = append(points, pt("height", "190", "player_name", "P"+strconv.Itoa(i)))
	}
	q := "Among the players whose height is over 180, how many of them are taller than Stephen Curry?"
	out, err := m.Complete(context.Background(), AnswerPrompt(DataPoints(points), q))
	if err != nil {
		t.Fatal(err)
	}
	if out == "[30]" {
		t.Errorf("forced slip still produced the exact count %s", out)
	}
}

func TestRankingSlipSwapsEntries(t *testing.T) {
	p := OracleProfile()
	p.ArithBase = 1
	m := newTestLM(p)
	points := []DataPoint{
		pt("Longitude", "-120", "School", "A"),
		pt("Longitude", "-121", "School", "B"),
		pt("Longitude", "-122", "School", "C"),
	}
	q := "List the school name of the 3 schools with the highest longitude located in a city that is part of the 'Bay Area' region?"
	// The grammar needs a period for List frames; keep the question as the
	// paper's style by using the match list form directly.
	q = strings.TrimSuffix(q, "?") + "."
	out, err := m.Complete(context.Background(), AnswerPrompt(DataPoints(points), q))
	if err != nil {
		t.Fatal(err)
	}
	vals := ParseAnswerList(out)
	if len(vals) == 3 && vals[0] == "A" && vals[1] == "B" && vals[2] == "C" {
		t.Errorf("forced list slip still produced the exact order %v", vals)
	}
}

func TestSemFilterUnrecognisedClaimGuesses(t *testing.T) {
	m := newTestLM(DefaultProfile())
	out1, err := m.Complete(context.Background(), SemFilterPrompt("the moon is made of structured data"))
	if err != nil {
		t.Fatal(err)
	}
	out2, _ := m.Complete(context.Background(), SemFilterPrompt("the moon is made of structured data"))
	if out1 != out2 {
		t.Error("guesses must be deterministic")
	}
	if out1 != "True" && out1 != "False" {
		t.Errorf("guess = %q", out1)
	}
}

func TestSemMapHeads(t *testing.T) {
	m := newTestLM(OracleProfile())
	cases := []struct {
		instr, item, want string
	}{
		{"label the sentiment", "astonishingly bad on every level", "negative"},
		{"is it sarcastic?", "slow clap for this revolutionary discovery", "sarcastic"},
		{"rate how technical", "eigenvalue decomposition of the covariance matrix", "technical"},
	}
	for _, c := range cases {
		out, err := m.Complete(context.Background(), SemMapPrompt(c.instr, c.item))
		if err != nil || out != c.want {
			t.Errorf("SemMap(%q, %q) = %q, want %q", c.instr, c.item, out, c.want)
		}
	}
}

func TestSummarizeRacesElidesLongHistories(t *testing.T) {
	m := newTestLM(OracleProfile())
	var items []string
	for y := 1980; y <= 2017; y++ { // 38 races > 24 threshold
		items = append(items, "year="+strconv.Itoa(y)+"; date="+strconv.Itoa(y)+"-05-01; round=3; name=Test Grand Prix")
	}
	out, err := m.Complete(context.Background(), SemAggPrompt("Summarize the races held on Silverstone Circuit", items))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, ", ...,") && !strings.Contains(out, ", ...") {
		t.Errorf("long history should elide the middle: %s", out)
	}
	if !strings.Contains(out, "1980") || !strings.Contains(out, "2017") {
		t.Errorf("elision must keep the endpoints: %s", out)
	}
}

func TestProfilesDiffer(t *testing.T) {
	// Different seeds produce different belief sets.
	p1 := DefaultProfile()
	p2 := DefaultProfile()
	p2.Seed = 999
	v1 := NewView(world.Default(), p1)
	v2 := NewView(world.Default(), p2)
	same := 0
	for _, c := range world.CACities {
		if v1.InRegion(c, "Silicon Valley") == v2.InRegion(c, "Silicon Valley") {
			same++
		}
	}
	if same == len(world.CACities) {
		t.Error("different seeds should believe different things somewhere")
	}
}

func TestTruncateLongOutput(t *testing.T) {
	p := OracleProfile()
	p.MaxOutputTokens = 10
	m := newTestLM(p)
	var items []string
	for i := 0; i < 20; i++ {
		items = append(items, "solid and dependable, worth your time")
	}
	out, err := m.Complete(context.Background(), SemAggPrompt("Summarize the reviews", items))
	if err != nil {
		t.Fatal(err)
	}
	if CountTokens(out) > 10 {
		t.Errorf("output %d tokens exceeds MaxOutputTokens", CountTokens(out))
	}
}
