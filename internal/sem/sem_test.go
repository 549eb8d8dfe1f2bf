package sem

import (
	"context"
	"strings"
	"testing"

	"tag/internal/llm"
	"tag/internal/sqldb"
	"tag/internal/world"
)

func oracle() *llm.SimLM {
	return llm.NewSimLM(world.Default(), llm.OracleProfile(), llm.NewClock(), llm.DefaultCostModel())
}

func schoolsFrame(t *testing.T) *DataFrame {
	t.Helper()
	d, err := New(
		[]string{"School", "City", "Longitude", "GSoffered"},
		[]sqldb.Row{
			{sqldb.Text("Gunn High"), sqldb.Text("Palo Alto"), sqldb.Float(-122.1), sqldb.Text("9-12")},
			{sqldb.Text("Fresno High"), sqldb.Text("Fresno"), sqldb.Float(-119.8), sqldb.Text("9-12")},
			{sqldb.Text("Homestead High"), sqldb.Text("Cupertino"), sqldb.Float(-122.0), sqldb.Text("K-12")},
			{sqldb.Text("Oakland Tech"), sqldb.Text("Oakland"), sqldb.Float(-122.2), sqldb.Text("9-12")},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDataFrameBasics(t *testing.T) {
	d := schoolsFrame(t)
	if d.Len() != 4 || len(d.Columns()) != 4 {
		t.Fatalf("shape = %d x %d", d.Len(), len(d.Columns()))
	}
	if d.Value(0, "city").AsText() != "Palo Alto" {
		t.Error("case-insensitive column access failed")
	}
	if !d.Value(99, "City").IsNull() {
		t.Error("out-of-range must be NULL")
	}
	head := d.Head(2)
	if head.Len() != 2 || head.Value(1, "School").AsText() != "Fresno High" {
		t.Error("Head")
	}
	// The receiver is unchanged.
	if d.Len() != 4 || d.Value(0, "School").AsText() != "Gunn High" {
		t.Error("Head mutated the receiver")
	}
	if d.Head(-1).Len() != 0 || d.Head(100).Len() != 4 {
		t.Error("Head bounds")
	}
}

// TestDataFrameFilterSelectDistinct: what is left on the frame of filter,
// projection and distinct is their semantic forms — a claim per row, the
// column list a row summary is projected to, a claim per distinct value.
func TestDataFrameFilterSelectDistinct(t *testing.T) {
	d := schoolsFrame(t)
	ctx := context.Background()
	m := &promptLog{Model: oracle()}
	nine12, err := d.SemFilter(ctx, m, "{GSoffered} satisfies: spans grades 9 to 12")
	if err != nil || len(m.batches) != 1 || len(m.batches[0]) != d.Len() || nine12.Len() > d.Len() {
		t.Errorf("SemFilter: %d rows, batches %v, err %v", nine12.Len(), m.batches, err)
	}
	m.batches = nil
	out, err := d.SemAggRows(ctx, m, "Summarize the rows", "school", "City")
	if err != nil || len(m.batches) != 1 {
		t.Fatalf("SemAggRows: %q, err %v", out, err)
	}
	if p := m.batches[0][0]; !strings.Contains(p, "- School=Gunn High; City=Palo Alto\n") || strings.Contains(p, "Longitude") {
		t.Errorf("SemAggRows over two columns sent %q", p)
	}
	if _, err := d.SemAggRows(ctx, m, "Summarize the rows", "School", "nosuch"); err == nil {
		t.Error("SemAggRows over an unknown column should fail")
	}
	m.batches = nil
	if _, err := d.SemFilterDistinct(ctx, m, "{GSoffered} satisfies: spans grades 9 to 12", "GSoffered"); err != nil || len(m.batches[0]) != 2 {
		t.Fatalf("SemFilterDistinct over 2 distinct values: batches %v, err %v", m.batches, err)
	}
}

// TestDataFrameJoin: a join is SQL. The frame carries its result, repeated
// column names included: a name reads its first occurrence (what the
// hand-written pipelines' `races.*, circuits.*` frames rely on), and a row
// summary over no named columns prints every column by position.
func TestDataFrameJoin(t *testing.T) {
	db := sqldb.NewDatabase()
	db.MustExec("CREATE TABLE schools (School TEXT, City TEXT)")
	db.MustExec("CREATE TABLE cities (City TEXT, County TEXT)")
	db.MustExec("INSERT INTO schools VALUES ('Gunn High', 'Palo Alto'), ('Fresno High', 'Fresno'), ('Oakland Tech', 'Oakland')")
	db.MustExec("INSERT INTO cities VALUES ('PALO ALTO', 'Santa Clara'), ('OAKLAND', 'Alameda')")
	rows, err := db.QueryRows(context.Background(),
		"SELECT schools.*, cities.* FROM schools JOIN cities ON UPPER(schools.City) = cities.City ORDER BY School")
	if err != nil {
		t.Fatal(err)
	}
	j, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 || len(j.Columns()) != 4 {
		t.Fatalf("join frame = %d x %v", j.Len(), j.Columns())
	}
	if j.Value(0, "County").AsText() != "Santa Clara" || j.Value(0, "city").AsText() != "Palo Alto" {
		t.Errorf("joined row = %s", j.RowString(0))
	}
	if rs := j.RowString(1); rs != "School=Oakland Tech; City=Oakland; City=OAKLAND; County=Alameda" {
		t.Errorf("RowString = %s", rs)
	}
}

func TestDataFrameFromTable(t *testing.T) {
	db := sqldb.NewDatabase()
	db.MustExec("CREATE TABLE t (a INTEGER, b TEXT)")
	db.MustExec("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	d, err := FromTable(db, "t")
	if err != nil || d.Len() != 2 {
		t.Fatalf("FromTable: %v", err)
	}
	if _, err := FromTable(db, "missing"); err == nil {
		t.Error("missing table should error")
	}
}

func TestSemFilterRegion(t *testing.T) {
	d := schoolsFrame(t)
	m := oracle()
	got, err := d.SemFilter(context.Background(), m, "{City} is a city in the Silicon Valley region")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("SemFilter kept %d rows, want 2 (Palo Alto, Cupertino)", got.Len())
	}
	cities, _ := got.Strings("City")
	if cities[0] != "Palo Alto" || cities[1] != "Cupertino" {
		t.Errorf("cities = %v", cities)
	}
	// Operator batched: one batch call, not N singles.
	if m.Stats().BatchCalls != 1 || m.Stats().Calls != 0 {
		t.Errorf("stats = %+v", m.Stats())
	}
}

func TestSemTopKTechnical(t *testing.T) {
	rows := []sqldb.Row{
		{sqldb.Text("which laptop should I buy for studying")},
		{sqldb.Text("the gradient boosting residuals are reweighted per iteration")},
		{sqldb.Text("what music do you listen to while working")},
		{sqldb.Text("eigenvalue decomposition of the covariance matrix")},
		{sqldb.Text("favorite statistics jokes to share with students")},
	}
	d, _ := New([]string{"Title"}, rows)
	m := oracle()
	top, err := d.SemTopK(context.Background(), m, "more technical", "Title", 2)
	if err != nil {
		t.Fatal(err)
	}
	titles, _ := top.Strings("Title")
	if len(titles) != 2 {
		t.Fatalf("topk = %v", titles)
	}
	for _, ti := range titles {
		if !strings.Contains(ti, "gradient") && !strings.Contains(ti, "eigenvalue") {
			t.Errorf("non-technical title in top-2: %q", ti)
		}
	}
}

func TestSemTopKBounds(t *testing.T) {
	d, _ := New([]string{"T"}, []sqldb.Row{{sqldb.Text("a")}})
	m := oracle()
	if got, err := d.SemTopK(context.Background(), m, "more positive", "T", 0); err != nil || got.Len() != 0 {
		t.Errorf("k=0: %v %d", err, got.Len())
	}
	got, err := d.SemTopK(context.Background(), m, "more positive", "T", 5)
	if err != nil || got.Len() != 1 {
		t.Errorf("k>n: %v %d", err, got.Len())
	}
	if _, err := d.SemTopK(context.Background(), m, "x", "nosuch", 1); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestSemAggSummarises(t *testing.T) {
	rows := []sqldb.Row{
		{sqldb.Text("an absolute masterpiece from start to finish")},
		{sqldb.Text("still the best thing I have ever watched")},
		{sqldb.Text("flawless pacing and unforgettable characters")},
	}
	d, _ := New([]string{"body"}, rows)
	m := oracle()
	out, err := d.SemAgg(context.Background(), m, "Summarize the reviews", "body")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "largely positive") {
		t.Errorf("summary = %s", out)
	}
}

func TestSemAggHierarchicalFold(t *testing.T) {
	// Force multi-level folding with a small context window.
	p := llm.OracleProfile()
	p.ContextWindow = 300
	p.MaxOutputTokens = 200
	m := llm.NewSimLM(world.Default(), p, llm.NewClock(), llm.DefaultCostModel())
	var rows []sqldb.Row
	for i := 0; i < 60; i++ {
		rows = append(rows, sqldb.Row{sqldb.Text("solid and dependable, worth your time")})
	}
	d, _ := New([]string{"body"}, rows)
	out, err := d.SemAgg(context.Background(), m, "Summarize the reviews", "body")
	if err != nil {
		t.Fatal(err)
	}
	if out == "" || strings.Contains(out, "Nothing to summarize") {
		t.Errorf("fold output = %q", out)
	}
	if m.Stats().BatchCalls < 2 {
		t.Errorf("expected hierarchical fold (>=2 batch calls), got %+v", m.Stats())
	}
}

func TestSemAggEmpty(t *testing.T) {
	d, _ := New([]string{"body"}, nil)
	out, err := d.SemAgg(context.Background(), oracle(), "Summarize", "body")
	if err != nil || !strings.Contains(out, "Nothing") {
		t.Errorf("empty agg = %q err=%v", out, err)
	}
}

func TestSemMapSentiment(t *testing.T) {
	items := []string{"an absolute masterpiece from start to finish", "astonishingly bad on every level"}
	m := oracle()
	outs, errs := Map(context.Background(), m, "label the sentiment", items)
	if errs != nil {
		t.Fatal(errs)
	}
	if outs[0] != "positive" || outs[1] != "negative" {
		t.Errorf("map = %v", outs)
	}
	if m.Stats().BatchCalls != 1 || m.Stats().Calls != 0 {
		t.Errorf("stats = %+v", m.Stats())
	}
}

// TestSemJoin: a semantic join is a SemFilter over the SQL cross product,
// its instruction naming columns of both sides.
func TestSemJoin(t *testing.T) {
	db := sqldb.NewDatabase()
	db.MustExec("CREATE TABLE l (City TEXT)")
	db.MustExec("CREATE TABLE r (Region TEXT)")
	db.MustExec("INSERT INTO l VALUES ('Palo Alto'), ('Fresno')")
	db.MustExec("INSERT INTO r VALUES ('Silicon Valley'), ('Bay Area')")
	rows, err := db.QueryRows(context.Background(), "SELECT City, Region FROM l CROSS JOIN r")
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := FromRows(rows)
	if err != nil || pairs.Len() != 4 {
		t.Fatalf("cross product: %v", err)
	}
	got, err := pairs.SemFilter(context.Background(), oracle(), "{City} is a city in the {Region} region")
	if err != nil {
		t.Fatal(err)
	}
	// Palo Alto matches both regions; Fresno matches neither.
	if got.Len() != 2 {
		t.Fatalf("semjoin rows = %d, want 2", got.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.Value(i, "City").AsText() != "Palo Alto" {
			t.Errorf("unexpected joined city %s", got.Value(i, "City").AsText())
		}
	}
}

func TestRowStringAndSubstitute(t *testing.T) {
	d := schoolsFrame(t)
	rs := d.RowString(0)
	if !strings.Contains(rs, "School=Gunn High") || !strings.Contains(rs, "City=Palo Alto") {
		t.Errorf("RowString = %s", rs)
	}
	sub := d.substitute("{School} is in {City}", 0)
	if sub != "Gunn High is in Palo Alto" {
		t.Errorf("substitute = %s", sub)
	}
	if d.RowString(-1) != "" {
		t.Error("RowString out of range")
	}
}

func TestNewValidatesShape(t *testing.T) {
	_, err := New([]string{"a"}, []sqldb.Row{{sqldb.Int(1), sqldb.Int(2)}})
	if err == nil {
		t.Error("mismatched row width should fail")
	}
}
