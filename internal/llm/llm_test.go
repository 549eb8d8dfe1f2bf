package llm

import (
	"context"
	"errors"
	"strings"
	"testing"

	"tag/internal/world"
)

func TestCountTokens(t *testing.T) {
	cases := []struct {
		s    string
		want int
	}{
		{"", 0},
		{"word", 1},
		{"two words", 3},            // "two"=1, "words"=2 pieces
		{"a, b", 3},                 // two words + comma
		{"internationalization", 5}, // 20 chars -> 5 pieces
	}
	for _, c := range cases {
		if got := CountTokens(c.s); got != c.want {
			t.Errorf("CountTokens(%q) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestCountTokensMonotone(t *testing.T) {
	base := "some text about databases"
	if CountTokens(base) >= CountTokens(base+" and language models") {
		t.Error("adding text must not reduce token count")
	}
}

func TestTruncateToTokens(t *testing.T) {
	s := strings.Repeat("word ", 100)
	out := TruncateToTokens(s, 10)
	if CountTokens(out) > 10 {
		t.Errorf("truncated text has %d tokens", CountTokens(out))
	}
	if TruncateToTokens("short", 100) != "short" {
		t.Error("under-budget text must be unchanged")
	}
}

func TestClock(t *testing.T) {
	c := NewClock()
	c.Advance(1.5)
	c.Advance(-3) // ignored
	c.Advance(0.5)
	if got := c.Now(); got != 2.0 {
		t.Errorf("clock = %v, want 2.0", got)
	}
}

func TestCostModelBatchAmortisation(t *testing.T) {
	m := DefaultCostModel()
	// 50 prompts of 40 tokens each, 2-token outputs.
	prompts := make([]int, 50)
	outs := make([]int, 50)
	for i := range prompts {
		prompts[i] = 40
		outs[i] = 2
	}
	batched := m.BatchSeconds(prompts, outs)
	sequential := 0.0
	for i := range prompts {
		sequential += m.CallSeconds(prompts[i], outs[i])
	}
	if batched*3 > sequential {
		t.Errorf("batching should be >3x cheaper: batched=%.2f sequential=%.2f", batched, sequential)
	}
	if m.BatchSeconds(nil, nil) != 0 {
		t.Error("empty batch should cost nothing")
	}
}

func newTestLM(p Profile) *SimLM {
	return NewSimLM(world.Default(), p, NewClock(), DefaultCostModel())
}

func TestViewDeterminism(t *testing.T) {
	v1 := NewView(world.Default(), DefaultProfile())
	v2 := NewView(world.Default(), DefaultProfile())
	for _, c := range world.CACities {
		if v1.InRegion(c, "Bay Area") != v2.InRegion(c, "Bay Area") {
			t.Fatalf("view must be deterministic (city %s)", c)
		}
	}
}

func TestViewCoverage(t *testing.T) {
	v := NewView(world.Default(), DefaultProfile())
	w := world.Default()
	// Recognition: asking "is this city in the Bay Area?" is mostly right.
	var truePos, trueTotal, falsePos, falseTotal int
	for _, c := range world.CACities {
		truth := w.InRegion(c, "Bay Area")
		belief := v.InRegion(c, "Bay Area")
		if truth {
			trueTotal++
			if belief {
				truePos++
			}
		} else {
			falseTotal++
			if belief {
				falsePos++
			}
		}
	}
	if recall := float64(truePos) / float64(trueTotal); recall < 0.8 {
		t.Errorf("recognition recall = %.2f; want high", recall)
	}
	if falseTotal > 0 && float64(falsePos)/float64(falseTotal) > 0.3 {
		t.Errorf("false positive rate too high: %d/%d", falsePos, falseTotal)
	}
	// Enumeration: listing the members misses a substantial fraction —
	// the recognition/recall asymmetry that separates Text2SQL from TAG.
	believed := v.RegionCitiesBelieved("Bay Area")
	truthCount := 0
	for _, c := range world.CACities {
		if w.InRegion(c, "Bay Area") {
			truthCount++
		}
	}
	if len(believed) >= truthCount {
		t.Errorf("enumerated %d cities of %d true; enumeration must be lossy", len(believed), truthCount)
	}
	if len(believed) < truthCount/5 {
		t.Errorf("enumerated only %d of %d; too lossy", len(believed), truthCount)
	}
}

func TestViewOracleIsPerfect(t *testing.T) {
	v := NewView(world.Default(), OracleProfile())
	w := world.Default()
	for _, c := range world.CACities {
		if v.InRegion(c, "Silicon Valley") != w.InRegion(c, "Silicon Valley") {
			t.Fatalf("oracle view must match world (city %s)", c)
		}
	}
	h, ok := v.AthleteHeightCM("Stephen Curry")
	if !ok || h != 188 {
		t.Errorf("oracle height = %v ok=%v", h, ok)
	}
}

func TestViewTraitsNoiseBounded(t *testing.T) {
	p := DefaultProfile()
	v := NewView(world.Default(), p)
	for _, ph := range world.Phrases {
		got := v.Traits(ph.Text)
		if diff := got.Sentiment - ph.Traits.Sentiment; diff > p.ScoreNoise+1e-9 || diff < -p.ScoreNoise-1e-9 {
			t.Fatalf("sentiment noise out of bounds for %q: %v vs %v", ph.Text, got.Sentiment, ph.Traits.Sentiment)
		}
		if got.Sarcasm < 0 || got.Sarcasm > 1 {
			t.Fatalf("trait out of [0,1]")
		}
	}
}

func TestAnswerPromptRoundTrip(t *testing.T) {
	points := []DataPoint{
		pt("School", "Gunn High", "AvgScrMath", "610"),
		pt("School", "Fresno High", "AvgScrMath", "520"),
	}
	prompt := AnswerPrompt(DataPoints(points), "How many schools?")
	got, q, ok := parseAnswerPrompt(prompt)
	if !ok || q != "How many schools?" || len(got) != 2 {
		t.Fatalf("round trip: ok=%v q=%q n=%d", ok, q, len(got))
	}
	if got[0].Vals[0] != "Gunn High" || got[1].Vals[1] != "520" {
		t.Errorf("points = %+v", got)
	}
}

func TestAnswerListFormat(t *testing.T) {
	s := FormatAnswerList([]string{"12", "K-12", "x \"y\""}, []bool{false, true, true})
	if s != `[12, "K-12", "x "y""]` {
		t.Errorf("format = %s", s)
	}
	vals := ParseAnswerList(`[12, "K-12"]`)
	if len(vals) != 2 || vals[0] != "12" || vals[1] != "K-12" {
		t.Errorf("parse = %v", vals)
	}
	if ParseAnswerList("nonsense") != nil {
		t.Error("non-list should parse to nil")
	}
	if got := ParseAnswerList("[]"); got == nil || len(got) != 0 {
		t.Errorf("empty list should parse to empty slice, got %v", got)
	}
}

func TestContextWindowEnforced(t *testing.T) {
	p := DefaultProfile()
	p.ContextWindow = 50
	m := newTestLM(p)
	_, err := m.Complete(context.Background(), strings.Repeat("lots of words here ", 100))
	if !errors.Is(err, ErrContextLength) {
		t.Fatalf("want ErrContextLength, got %v", err)
	}
}

func TestText2SQLHeadKnowledgeClause(t *testing.T) {
	m := newTestLM(OracleProfile())
	schema := "CREATE TABLE schools (City TEXT, GSoffered TEXT, Longitude REAL);"
	q := "What is the grade span offered of the school with the highest longitude located in a city that is part of the 'Silicon Valley' region?"
	sql, err := m.Complete(context.Background(), Text2SQLPrompt(schema, q))
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"SELECT schools.GSoffered", "schools.City IN (", "'Palo Alto'", "ORDER BY schools.Longitude DESC", "LIMIT 1"} {
		if !strings.Contains(sql, frag) {
			t.Errorf("SQL missing %q:\n%s", frag, sql)
		}
	}
}

func TestText2SQLHeadDropsReasoningClause(t *testing.T) {
	m := newTestLM(OracleProfile())
	schema := "CREATE TABLE comments (Text TEXT); CREATE TABLE posts (Id INTEGER, Title TEXT);"
	q := "Among the comments whose title is 'Choosing k in k means without overfitting', how many of them are sarcastic in tone?"
	sql, err := m.Complete(context.Background(), Text2SQLPrompt(schema, q))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.ToLower(sql), "sarcas") {
		t.Errorf("plain SQL must not pretend to filter sarcasm:\n%s", sql)
	}
	if !strings.Contains(sql, "COUNT(*)") {
		t.Errorf("comparison should count:\n%s", sql)
	}
}

func TestText2SQLHeadEmitsUDFsWhenCapable(t *testing.T) {
	m := newTestLM(OracleProfile())
	ctx := WithSQLCapabilities(context.Background(), SQLCapabilities{LMUDFs: true})
	q := "Among the comments whose title is 'Choosing k in k means without overfitting', how many of them are sarcastic in tone?"
	sql, err := m.Complete(ctx, Text2SQLPrompt("", q))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "LLM_FILTER('sarcastic', comments.Text)") {
		t.Errorf("UDF-capable synthesis should call LLM_FILTER:\n%s", sql)
	}
}

func TestAnswerHeadCounting(t *testing.T) {
	m := newTestLM(OracleProfile())
	points := []DataPoint{
		pt("height", "190", "player_name", "A", "volleys", "80"),
		pt("height", "185", "player_name", "B", "volleys", "75"),
		pt("height", "200", "player_name", "C", "volleys", "60"),
		pt("height", "170", "player_name", "D", "volleys", "90"),
	}
	q := "Among the players whose height is over 180 and whose volley score is over 70, how many of them are taller than Stephen Curry?"
	out, err := m.Complete(context.Background(), AnswerPrompt(DataPoints(points), q))
	if err != nil {
		t.Fatal(err)
	}
	// Players over 180 with volleys > 70: A (190), B (185). Taller than
	// Curry (188): A only.
	if out != "[1]" {
		t.Errorf("count = %s, want [1]", out)
	}
}

func TestAnswerHeadMatch(t *testing.T) {
	m := newTestLM(OracleProfile())
	points := []DataPoint{
		pt("City", "Fresno", "GSoffered", "9-12", "Longitude", "-119.8", "School", "Fresno High"),
		pt("City", "Palo Alto", "GSoffered", "K-12", "Longitude", "-122.1", "School", "Gunn High"),
	}
	q := "What is the grade span offered of the school with the highest longitude located in a city that is part of the 'Silicon Valley' region?"
	out, err := m.Complete(context.Background(), AnswerPrompt(DataPoints(points), q))
	if err != nil {
		t.Fatal(err)
	}
	if out != `["K-12"]` {
		t.Errorf("match answer = %s", out)
	}
}

func TestSemFilterHead(t *testing.T) {
	m := newTestLM(OracleProfile())
	out, err := m.Complete(context.Background(), SemFilterPrompt("Palo Alto is a city in the Silicon Valley region"))
	if err != nil || out != "True" {
		t.Errorf("Palo Alto claim = %q err=%v", out, err)
	}
	out, _ = m.Complete(context.Background(), SemFilterPrompt("Fresno is a city in the Silicon Valley region"))
	if out != "False" {
		t.Errorf("Fresno claim = %q", out)
	}
	out, _ = m.Complete(context.Background(), SemFilterPrompt("Titanic is a movie widely considered a classic"))
	if out != "True" {
		t.Errorf("Titanic claim = %q", out)
	}
	out, _ = m.Complete(context.Background(), SemFilterPrompt("height 190 is greater than the height of Stephen Curry in centimeters"))
	if out != "True" {
		t.Errorf("height claim = %q", out)
	}
	out, _ = m.Complete(context.Background(), SemFilterPrompt("the following text is positive: an absolute masterpiece from start to finish"))
	if out != "True" {
		t.Errorf("sentiment claim = %q", out)
	}
	// The claim table round-trips: every sentence of the grammar, written
	// about a sample value, is one the head recognises as that sentence —
	// by its name, by its augment, with or without an argument.
	if len(Claims) != 11 {
		t.Errorf("%d claims in the grammar, want 11", len(Claims))
	}
	for _, c := range Claims {
		if byAug, ok := ClaimFor(c.Aug); !ok || byAug != c || TaskClaim(" "+strings.ToUpper(c.Name)+" ") != c {
			t.Errorf("claim %q is not found by its name and augment", c.Name)
		}
		for _, arg := range []string{"", "Bay Area"} {
			sentence := c.About("181.5", arg)
			if _, recognised := m.judgeClaim(sentence); !recognised {
				t.Errorf("claim %q: %q is not recognised", c.Name, sentence)
			}
			for _, other := range Claims {
				if _, _, ok := other.cut(sentence); ok {
					if other != c {
						t.Errorf("%q reads as claim %q before %q", sentence, other.Name, c.Name)
					}
					break
				}
			}
		}
	}
	if _, recognised := m.judgeClaim(TaskClaim("rhymes with orange").About("door hinge", "")); recognised {
		t.Error("a task outside the grammar is recognised")
	}
}

func TestSemCompareHead(t *testing.T) {
	m := newTestLM(OracleProfile())
	tech := "the gradient boosting residuals are reweighted per iteration"
	casual := "what music do you listen to while working"
	out, err := m.Complete(context.Background(), SemComparePrompt("more technical", tech, casual))
	if err != nil || out != "A" {
		t.Errorf("compare = %q err=%v", out, err)
	}
	out, _ = m.Complete(context.Background(), SemComparePrompt("more technical", casual, tech))
	if out != "B" {
		t.Errorf("compare flipped = %q", out)
	}
}

func TestSemAggregateRaces(t *testing.T) {
	m := newTestLM(OracleProfile())
	items := []string{
		"year=1999; date=1999-10-17; round=15; name=Malaysian Grand Prix",
		"year=2000; date=2000-10-22; round=2; name=Malaysian Grand Prix",
		"year=2017; date=2017-10-01; round=15; name=Malaysian Grand Prix",
	}
	out, err := m.Complete(context.Background(), SemAggPrompt("Summarize the races held on Sepang International Circuit", items))
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Kuala Lumpur", "Malaysia", "1999: 1999-10-17", "2017: 2017-10-01", "Malaysian Grand Prix"} {
		if !strings.Contains(out, frag) {
			t.Errorf("race summary missing %q:\n%s", frag, out)
		}
	}
}

func TestSemAggregateGeneric(t *testing.T) {
	m := newTestLM(OracleProfile())
	items := []string{
		"an absolute masterpiece from start to finish",
		"still the best thing I have ever watched",
		"a triumph that rewards repeat viewing",
		"flawless pacing and unforgettable characters",
	}
	out, err := m.Complete(context.Background(), SemAggPrompt("Summarize the reviews", items))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "largely positive") || !strings.Contains(out, "4 entries") {
		t.Errorf("summary = %s", out)
	}
}

func TestStatsAndClockCharge(t *testing.T) {
	m := newTestLM(OracleProfile())
	before := m.Clock().Now()
	if _, err := m.Complete(context.Background(), SemFilterPrompt("Oakland is a city in the Bay Area region")); err != nil {
		t.Fatal(err)
	}
	if m.Clock().Now() <= before {
		t.Error("Complete must advance the clock")
	}
	st := m.Stats()
	if st.Calls != 1 || st.PromptTokens == 0 {
		t.Errorf("stats = %+v", st)
	}
	m.ResetStats()
	if m.Stats().Calls != 0 {
		t.Error("ResetStats")
	}
}

func TestCompleteBatchAlignsAndCharges(t *testing.T) {
	m := newTestLM(OracleProfile())
	prompts := []string{
		SemFilterPrompt("Palo Alto is a city in the Silicon Valley region"),
		SemFilterPrompt("Fresno is a city in the Silicon Valley region"),
		SemFilterPrompt("Cupertino is a city in the Silicon Valley region"),
	}
	outs, errs := m.CompleteBatch(context.Background(), prompts)
	if errs != nil {
		t.Fatalf("errs = %v", errs)
	}
	want := []string{"True", "False", "True"}
	for i := range want {
		if outs[i] != want[i] {
			t.Errorf("batch[%d] = %q, want %q", i, outs[i], want[i])
		}
	}
	if m.Stats().BatchCalls != 1 || m.Stats().BatchedItems != 3 {
		t.Errorf("batch stats = %+v", m.Stats())
	}
}

func TestBatchFasterThanSequential(t *testing.T) {
	mBatch := newTestLM(OracleProfile())
	mSeq := newTestLM(OracleProfile())
	var prompts []string
	for _, c := range world.CACities {
		prompts = append(prompts, SemFilterPrompt(c+" is a city in the Bay Area region"))
	}
	mBatch.CompleteBatch(context.Background(), prompts)
	for _, p := range prompts {
		if _, err := mSeq.Complete(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	if mBatch.Clock().Now()*2 > mSeq.Clock().Now() {
		t.Errorf("batched should be >2x faster: batch=%.2fs seq=%.2fs",
			mBatch.Clock().Now(), mSeq.Clock().Now())
	}
}

func TestFreeformSepangFallback(t *testing.T) {
	m := newTestLM(OracleProfile())
	out, err := m.Complete(context.Background(), "Tell me about the races held on Sepang International Circuit")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "general knowledge") || !strings.Contains(out, "Kuala Lumpur") {
		t.Errorf("freeform Sepang = %s", out)
	}
}

func TestRerankHeadScoresRelevantHigher(t *testing.T) {
	m := newTestLM(OracleProfile())
	q := "Among the players whose height is over 180, how many of them are taller than Stephen Curry?"
	a, b := pt("height", "195", "player_name", "A"), pt("height", "160", "player_name", "B")
	relevant, irrelevant := RerankPrompt(&a, q), RerankPrompt(&b, q)
	r1, _ := m.Complete(context.Background(), relevant)
	r2, _ := m.Complete(context.Background(), irrelevant)
	if r1 <= r2 {
		t.Errorf("relevant %s should outscore irrelevant %s", r1, r2)
	}
}
