package core

import (
	"reflect"
	"strings"
	"testing"

	"tag/internal/llm"
	"tag/internal/sqldb"
)

// The two renderings of a result whose columns repeat a name (a join under
// SELECT *): the wart the prompt pins hold in place, stated on its own.
func TestDataPointsRepeatedColumnNames(t *testing.T) {
	res := &sqldb.Result{
		Columns: []string{"name", "Id", "lat", "name", "Id"},
		Rows: []sqldb.Row{
			{sqldb.Text("Monza"), sqldb.Int(1), sqldb.Float(45.5), sqldb.Text("Italian GP"), sqldb.Int(70)},
			{sqldb.Text("Spa"), sqldb.Int(2), sqldb.Null, sqldb.Text("Belgian GP"), sqldb.Bool(true)},
		},
	}
	// Baselines: each distinct name once, sorted, the last occurrence's value.
	sorted := dataPoints(res, true)
	want := []llm.DataPoint{
		{Cols: []string{"Id", "lat", "name"}, Vals: []string{"70", "45.5", "Italian GP"}},
		{Cols: []string{"Id", "lat", "name"}, Vals: []string{"true", "", "Belgian GP"}},
	}
	if !reflect.DeepEqual(sorted, want) {
		t.Errorf("sorted rendering = %+v\nwant %+v", sorted, want)
	}
	// gen over exec's table: every occurrence, in result order, each showing
	// the last occurrence's value.
	inOrder := dataPoints(res, false)
	want = []llm.DataPoint{
		{Cols: res.Columns, Vals: []string{"Italian GP", "70", "45.5", "Italian GP", "70"}},
		{Cols: res.Columns, Vals: []string{"Belgian GP", "true", "", "Belgian GP", "true"}},
	}
	if !reflect.DeepEqual(inOrder, want) {
		t.Errorf("result-order rendering = %+v\nwant %+v", inOrder, want)
	}
	if &sorted[0].Cols[0] != &sorted[1].Cols[0] {
		t.Error("the points of one result must share one header")
	}
	if got := dataPoints(&sqldb.Result{Columns: []string{"a"}}, true); len(got) != 0 {
		t.Errorf("empty result gave %d points", len(got))
	}
}

// Row → points costs a fixed number of allocations per result (header,
// source map, points, values, arena), not one per row or per cell.
func TestDataPointsAllocsPerResult(t *testing.T) {
	build := func(rows int) *sqldb.Result {
		res := &sqldb.Result{Columns: []string{"id", "School", "score", "ratio", "charter", "note"}}
		for i := 0; i < rows; i++ {
			res.Rows = append(res.Rows, sqldb.Row{sqldb.Int(int64(1000 + i)), sqldb.Text(strings.Repeat("s", 40)),
				sqldb.Float(float64(i) + 0.5), sqldb.Float(float64(i)), sqldb.Bool(i%2 == 0), sqldb.Null})
		}
		return res
	}
	for _, sorted := range []bool{true, false} {
		small, large := build(100), build(1000)
		a100 := testing.AllocsPerRun(20, func() { _ = dataPoints(small, sorted) })
		a1000 := testing.AllocsPerRun(20, func() { _ = dataPoints(large, sorted) })
		if a1000 > a100 || a100 > 6 {
			t.Errorf("sorted=%v: %v allocations for 100 rows, %v for 1000; want the same handful", sorted, a100, a1000)
		}
	}
}

// The prompt rendered from a result in place is the prompt rendered from
// the points dataPoints builds of it, byte for byte, in both renderings and
// both answer formats, over the shapes a result comes in.
func TestResultPointsMatchDataPoints(t *testing.T) {
	results := map[string]*sqldb.Result{
		"repeated names": {
			Columns: []string{"name", "Id", "lat", "name", "Id"},
			Rows: []sqldb.Row{
				{sqldb.Text("Monza"), sqldb.Int(1), sqldb.Float(45.5), sqldb.Text("Italian GP"), sqldb.Int(70)},
				{sqldb.Text("Spa"), sqldb.Int(2), sqldb.Null, sqldb.Text("Belgian GP"), sqldb.Bool(true)},
			},
		},
		"line breaks": {
			Columns: []string{"body", "n"},
			Rows: []sqldb.Row{
				{sqldb.Text("two\nlines"), sqldb.Int(-3)},
				{sqldb.Text("cr\r\nlf\r"), sqldb.Null},
				{sqldb.Text(""), sqldb.Int(1 << 40)},
			},
		},
		"floats and bools": {
			Columns: []string{"f", "ok", "g"},
			Rows: []sqldb.Row{
				{sqldb.Float(3), sqldb.Bool(false), sqldb.Float(0.1 + 0.2)},
				{sqldb.Float(-1e21), sqldb.Bool(true), sqldb.Float(1.0 / 3)},
				{sqldb.Null, sqldb.Null, sqldb.Float(2.5e-9)},
			},
		},
		"empty": {Columns: []string{"a", "b"}},
	}
	for name, res := range results {
		for _, sorted := range []bool{true, false} {
			points := llm.DataPoints(dataPoints(res, sorted))
			for format, render := range map[string]func(llm.Points, string) string{
				"AnswerPrompt": llm.AnswerPrompt, "AggAnswerPrompt": llm.AggAnswerPrompt,
			} {
				if got, want := render(newResultPoints(res, sorted), "q?"), render(points, "q?"); got != want {
					t.Errorf("%s, sorted=%v, %s:\n got %q\nwant %q", name, sorted, format, got, want)
				}
			}
		}
	}
}

// Rendering a result in place builds no point: a 1,000-row prompt costs the
// allocations a 100-row one does — the header and source map, the view, the
// prompt.
func TestResultPointsAllocsConstant(t *testing.T) {
	build := func(rows int) *sqldb.Result {
		res := &sqldb.Result{Columns: []string{"id", "School", "score", "ratio", "charter", "note"}}
		for i := 0; i < rows; i++ {
			res.Rows = append(res.Rows, sqldb.Row{sqldb.Int(int64(1000 + i)), sqldb.Text(strings.Repeat("s", 40)),
				sqldb.Float(float64(i) + 0.5), sqldb.Float(float64(i)), sqldb.Bool(i%2 == 0), sqldb.Null})
		}
		return res
	}
	small, large := build(100), build(1000)
	for _, sorted := range []bool{true, false} {
		a100 := testing.AllocsPerRun(20, func() { _ = llm.AnswerPrompt(newResultPoints(small, sorted), "How many?") })
		a1000 := testing.AllocsPerRun(20, func() { _ = llm.AnswerPrompt(newResultPoints(large, sorted), "How many?") })
		if a1000 != a100 || a100 > 4 {
			t.Errorf("sorted=%v: %v allocations for 100 rows, %v for 1000; want the same handful", sorted, a100, a1000)
		}
	}
}
