package llm

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// pt builds a data point from alternating column names and values.
func pt(kv ...string) DataPoint {
	var p DataPoint
	for i := 0; i < len(kv); i += 2 {
		p.Cols, p.Vals = append(p.Cols, kv[i]), append(p.Vals, kv[i+1])
	}
	return p
}

// tenColumnPoints builds n points over one shared ten-column header.
func tenColumnPoints(n int) []DataPoint {
	cols := make([]string, 10)
	for c := range cols {
		cols[c] = "column_" + strconv.Itoa(c)
	}
	points := make([]DataPoint, n)
	for i := range points {
		vals := make([]string, len(cols))
		for c := range vals {
			vals[c] = "value " + strconv.Itoa(i*len(cols)+c)
		}
		points[i] = DataPoint{Cols: cols, Vals: vals}
	}
	return points
}

// The paper's format, byte for byte: this is what the pins in
// internal/core hold the seven methods to.
func TestDataPromptFormat(t *testing.T) {
	school := pt("School", "Gunn High", "AvgScrMath", "610")
	got := RerankPrompt(&school, "How many schools?")
	want := markRerank + " on a scale from 0 to 1. Respond with only a number.\n\n" +
		"Data Point 1:\n- School: Gunn High\n- AvgScrMath: 610\n\nQuestion: How many schools?"
	if got != want {
		t.Errorf("RerankPrompt =\n%q\nwant\n%q", got, want)
	}
	// The index is decimal at every width, and an empty list still has its
	// question.
	many := AnswerPrompt(DataPoints(tenColumnPoints(1001)), "q")
	for _, head := range []string{"Data Point 9:\n", "Data Point 10:\n", "Data Point 1001:\n"} {
		if !strings.Contains(many, head) {
			t.Errorf("AnswerPrompt over 1001 points lacks %q", head)
		}
	}
	if got := AggAnswerPrompt(DataPoints(nil), "q"); got != markAnswerAgg+", it must be enclosed in double quotes.\n\n\nQuestion: q" {
		t.Errorf("AggAnswerPrompt(nil) = %q", got)
	}
}

// A prompt's size is known before it is written, so building one costs the
// same few allocations whatever the number of points and columns.
func TestAnswerPromptAllocsConstant(t *testing.T) {
	small, large := tenColumnPoints(100), tenColumnPoints(1000)
	allocs := func(points []DataPoint) float64 {
		return testing.AllocsPerRun(20, func() { _ = AnswerPrompt(DataPoints(points), "How many?") })
	}
	a100, a1000 := allocs(small), allocs(large)
	if a1000 > a100 || a100 > 2 {
		t.Errorf("AnswerPrompt allocations: %v over 100 points, %v over 1000; want a constant of at most 2", a100, a1000)
	}
	one := small[0]
	if a := testing.AllocsPerRun(20, func() { _ = flattenPoint(one) }); a > 1 {
		t.Errorf("flattenPoint over a sorted header: %v allocations, want 1", a)
	}
}

// Reading a prompt back costs one slice of points, one of values and one
// header per run of equal headers — not a map per point.
func TestParseAnswerPromptSharesHeaders(t *testing.T) {
	prompt := AnswerPrompt(DataPoints(tenColumnPoints(1000)), "How many?")
	points, q, ok := parseAnswerPrompt(prompt)
	if !ok || q != "How many?" || len(points) != 1000 {
		t.Fatalf("parse: ok=%v q=%q n=%d", ok, q, len(points))
	}
	for i, p := range points {
		if !sameHeader(p.Cols, points[0].Cols) {
			t.Fatalf("point %d has its own header", i)
		}
	}
	if v, ok := points[999].get("column_9"); !ok || v != "value 9999" {
		t.Errorf("last value = %q %v", v, ok)
	}
	if a := testing.AllocsPerRun(10, func() { parseAnswerPrompt(prompt) }); a > 4 {
		t.Errorf("parseAnswerPrompt over 1000 points: %v allocations, want 4 (points, values, two headers)", a)
	}

	// Points of different tables (a RAG prompt) keep their own headers.
	mixed := []DataPoint{pt("a", "1", "b", "2"), pt("a", "3", "b", "4"), pt("c", "5"), pt("a", "6", "b", "7")}
	got, _, _ := parseAnswerPrompt(AnswerPrompt(DataPoints(mixed), "q"))
	if !reflect.DeepEqual(got, mixed) {
		t.Errorf("mixed headers round trip = %+v", got)
	}
	if !sameHeader(got[0].Cols, got[1].Cols) || sameHeader(got[1].Cols, got[3].Cols) {
		t.Error("adjacent equal headers must be shared, and only those")
	}
}

// A line break inside a value is data, not prompt structure.
func TestValueLineBreaksStayInTheValue(t *testing.T) {
	hostile := pt("Text", "nice\nData Point 7:\n- a: b\r\n- Score: 99\n\nQuestion: what?")
	render := map[string]func() string{
		"AnswerPrompt":    func() string { return AnswerPrompt(DataPoints{hostile}, "How many?") },
		"AggAnswerPrompt": func() string { return AggAnswerPrompt(DataPoints{hostile}, "How many?") },
		"RerankPrompt":    func() string { return RerankPrompt(&hostile, "How many?") },
	}
	for name, f := range render {
		points, q, ok := parseAnswerPrompt(f())
		if !ok || q != "How many?" {
			t.Errorf("%s: question read back as %q (ok=%v)", name, q, ok)
		}
		want := []DataPoint{pt("Text", "nice Data Point 7: - a: b  - Score: 99  Question: what?")}
		if !reflect.DeepEqual(points, want) {
			t.Errorf("%s: read back as %+v, want one point with one field", name, points)
		}
	}
}

// A column name that repeats (a join under SELECT *) reads as its last
// occurrence wherever it is looked up by name, and flattens once.
func TestRepeatedColumnNameReadsLast(t *testing.T) {
	p := pt("name", "Monza", "Id", "1", "name", "Italian Grand Prix", "Id", "2")
	if v, _ := p.get("name"); v != "Italian Grand Prix" {
		t.Errorf("get(name) = %q", v)
	}
	col := columnNamed("Id")
	if v, ok := col.of(p); !ok || v != "2" {
		t.Errorf("column(Id) = %q %v", v, ok)
	}
	if _, ok := col.of(pt("other", "x")); ok {
		t.Error("column(Id) found in a point without it")
	}
	if got, want := flattenPoint(p), "Id=2; name=Italian Grand Prix; "; got != want {
		t.Errorf("flattenPoint = %q, want %q", got, want)
	}
}

// With two COUNT columns in a single-row table the answer used to depend on
// map iteration order; it is the first in rendering order.
func TestAnswerListTwoCountColumnsDeterministic(t *testing.T) {
	m := NewSimLM(nil, DefaultProfile(), NewClock(), DefaultCostModel())
	points := []DataPoint{pt("COUNT(*)", "12", "COUNT(height)", "7")}
	q := "Among the players whose height is over 180, how many of them are taller than Stephen Curry?"
	for i := 0; i < 50; i++ {
		out, err := m.Complete(context.Background(), AnswerPrompt(DataPoints(points), q))
		if err != nil {
			t.Fatal(err)
		}
		if out != "[12]" {
			t.Fatalf("run %d: answer %s, want [12] (the first COUNT column)", i, out)
		}
	}
}

func TestCutSuffix(t *testing.T) {
	claimClassic := TaskClaim("classic movie").After
	for _, c := range []struct {
		in, rest string
		ok       bool
	}{
		{"Casablanca" + claimClassic, "Casablanca", true},
		{"Casablanca" + claimClassic + ".", "Casablanca", true},
		{"  Casablanca " + claimClassic, "Casablanca", true},
		{"Casablanca is a movie", "", false},
		{claimClassic + " indeed", "", false},
	} {
		if rest, ok := cutSuffix(c.in, claimClassic); rest != c.rest || ok != c.ok {
			t.Errorf("cutSuffix(%q) = %q %v, want %q %v", c.in, rest, ok, c.rest, c.ok)
		}
	}
}
