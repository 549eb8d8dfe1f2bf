package sem

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tag/internal/llm"
	"tag/internal/sqldb"
	"tag/internal/world"
)

// Property tests over the semantic operators' invariants.

func randomFrame(r *rand.Rand, n int) *DataFrame {
	rows := make([]sqldb.Row, n)
	for i := range rows {
		rows[i] = sqldb.Row{
			sqldb.Int(int64(r.Intn(20))),
			sqldb.Text(fmt.Sprintf("item-%d", r.Intn(8))),
			sqldb.Float(r.Float64() * 100),
		}
	}
	d, _ := New([]string{"k", "name", "score"}, rows)
	return d
}

// phraseFrame is n rows of world phrases, repeats included.
func phraseFrame(r *rand.Rand, n int) *DataFrame {
	rows := make([]sqldb.Row, n)
	for i := range rows {
		rows[i] = sqldb.Row{sqldb.Int(int64(i)), sqldb.Text(world.Phrases[r.Intn(24)].Text)}
	}
	d, _ := New([]string{"i", "t"}, rows)
	return d
}

// identicalRows reports whether a and b hold Identical values, place by
// place: a Value has no ==, and reflect.DeepEqual would compare a TEXT by
// the address of its bytes.
func identicalRows(a, b []sqldb.Row) bool {
	return slices.EqualFunc(a, b, func(x, y sqldb.Row) bool { return slices.EqualFunc(x, y, sqldb.Value.Identical) })
}

func TestFilterConjunctionCommutes(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	m := oracle()
	ctx := context.Background()
	const p1, p2 = "the following text is positive: {t}", "the following text is technical: {t}"
	for trial := 0; trial < 20; trial++ {
		d := phraseFrame(r, 50)
		a, err := d.SemFilter(ctx, m, p1)
		if err == nil {
			a, err = a.SemFilter(ctx, m, p2)
		}
		b, err2 := d.SemFilter(ctx, m, p2)
		if err2 == nil {
			b, err2 = b.SemFilter(ctx, m, p1)
		}
		if err != nil || err2 != nil {
			t.Fatal(err, err2)
		}
		if !identicalRows(a.rows, b.rows) {
			t.Fatalf("filter order changed the rows kept: %d vs %d", a.Len(), b.Len())
		}
	}
}

func TestHeadOfHead(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	d := randomFrame(r, 40)
	if got := d.Head(10).Head(5).Len(); got != 5 {
		t.Errorf("Head(10).Head(5) = %d rows", got)
	}
	if got := d.Head(5).Head(10).Len(); got != 5 {
		t.Errorf("Head(5).Head(10) = %d rows", got)
	}
}

// TestSortIsPermutation: SemTopK with k = n is a sort under the model's
// comparator — every row once, best first.
func TestSortIsPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	d := phraseFrame(r, 40)
	sorted, err := d.SemTopK(context.Background(), oracle(), "more positive", "t", d.Len())
	if err != nil {
		t.Fatal(err)
	}
	if sorted.Len() != d.Len() {
		t.Fatal("sort changed cardinality")
	}
	seen := map[int64]bool{}
	for i := 0; i < sorted.Len(); i++ {
		seen[sorted.Value(i, "i").AsInt()] = true
		if i > 0 && world.TextTraits(sorted.Value(i, "t").AsText()).Sentiment > world.TextTraits(sorted.Value(i-1, "t").AsText()).Sentiment {
			t.Fatalf("position %d outranks position %d", i, i-1)
		}
	}
	if len(seen) != d.Len() {
		t.Fatalf("sort lost or duplicated rows: %d distinct of %d", len(seen), d.Len())
	}
}

// TestDistinctThenFilterVsFilterThenDistinct: for a claim about one
// column, judging the distinct values and semi-joining back keeps the rows
// judging every row keeps, for fewer claims.
func TestDistinctThenFilterVsFilterThenDistinct(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	ctx := context.Background()
	const claim = "the following text is positive: {t}"
	for trial := 0; trial < 20; trial++ {
		d := phraseFrame(r, 40)
		perRow, perValue := &promptLog{Model: oracle()}, &promptLog{Model: oracle()}
		a, err := d.SemFilter(ctx, perRow, claim)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.SemFilterDistinct(ctx, perValue, claim, "t")
		if err != nil {
			t.Fatal(err)
		}
		if !identicalRows(a.rows, b.rows) {
			t.Fatalf("per-value filter kept %d rows, per-row %d", b.Len(), a.Len())
		}
		if len(perValue.batches[0]) >= len(perRow.batches[0]) {
			t.Fatalf("%d claims for distinct values, %d for rows", len(perValue.batches[0]), len(perRow.batches[0]))
		}
	}
}

func TestSemTopKOrderConsistentWithOracleScores(t *testing.T) {
	// With the oracle model, SemTopK's order must equal the exact latent
	// trait order for any k.
	var rows []sqldb.Row
	for _, p := range world.Phrases[:16] {
		rows = append(rows, sqldb.Row{sqldb.Text(p.Text)})
	}
	d, _ := New([]string{"t"}, rows)
	m := llm.NewSimLM(world.Default(), llm.OracleProfile(), llm.NewClock(), llm.DefaultCostModel())
	ctx := context.Background()
	for _, k := range []int{1, 3, 7, 16} {
		top, err := d.SemTopK(ctx, m, "more positive", "t", k)
		if err != nil {
			t.Fatal(err)
		}
		if top.Len() != k {
			t.Fatalf("k=%d returned %d rows", k, top.Len())
		}
		for i := 1; i < top.Len(); i++ {
			prev := world.TextTraits(top.Value(i-1, "t").AsText()).Sentiment
			cur := world.TextTraits(top.Value(i, "t").AsText()).Sentiment
			if cur > prev {
				t.Fatalf("k=%d: position %d (%.4f) outranks position %d (%.4f)", k, i, cur, i-1, prev)
			}
		}
	}
}

func TestSemTopKPrefixConsistency(t *testing.T) {
	// The top-3 must be a prefix of the top-8 (same criterion, same data).
	var rows []sqldb.Row
	for _, p := range world.Phrases[20:36] {
		rows = append(rows, sqldb.Row{sqldb.Text(p.Text)})
	}
	d, _ := New([]string{"t"}, rows)
	m := llm.NewSimLM(world.Default(), llm.OracleProfile(), llm.NewClock(), llm.DefaultCostModel())
	ctx := context.Background()
	top3, err := d.SemTopK(ctx, m, "more technical", "t", 3)
	if err != nil {
		t.Fatal(err)
	}
	top8, err := d.SemTopK(ctx, m, "more technical", "t", 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if top3.Value(i, "t").AsText() != top8.Value(i, "t").AsText() {
			t.Fatalf("top-3 not a prefix of top-8 at position %d", i)
		}
	}
}

func TestSemFilterSubsetAndOrderPreserving(t *testing.T) {
	var rows []sqldb.Row
	for _, c := range world.CACities {
		rows = append(rows, sqldb.Row{sqldb.Text(c)})
	}
	d, _ := New([]string{"City"}, rows)
	m := llm.NewSimLM(world.Default(), llm.OracleProfile(), llm.NewClock(), llm.DefaultCostModel())
	got, err := d.SemFilter(context.Background(), m, "{City} is a city in the Bay Area region")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 || got.Len() >= d.Len() {
		t.Fatalf("filter kept %d of %d", got.Len(), d.Len())
	}
	// Kept rows appear in original relative order.
	pos := map[string]int{}
	for i, c := range world.CACities {
		pos[c] = i
	}
	last := -1
	for i := 0; i < got.Len(); i++ {
		p := pos[got.Value(i, "City").AsText()]
		if p < last {
			t.Fatal("SemFilter reordered rows")
		}
		last = p
	}
}

// failingModel errors on every call, for error-propagation tests.
type failingModel struct{}

func (failingModel) Name() string       { return "failing" }
func (failingModel) ContextWindow() int { return 1 << 20 }
func (failingModel) Complete(context.Context, string) (string, error) {
	return "", fmt.Errorf("model down")
}
func (failingModel) CompleteBatch(_ context.Context, prompts []string) ([]string, []error) {
	outs := make([]string, len(prompts))
	errs := make([]error, len(prompts))
	for i := range errs {
		errs[i] = fmt.Errorf("model down")
	}
	return outs, errs
}

func TestSemOpsPropagateModelErrors(t *testing.T) {
	d, _ := New([]string{"t"}, []sqldb.Row{{sqldb.Text("a")}, {sqldb.Text("b")}})
	ctx := context.Background()
	m := failingModel{}
	if _, err := d.SemFilter(ctx, m, "{t} is fine"); err == nil {
		t.Error("SemFilter should propagate model errors")
	}
	if _, err := d.SemTopK(ctx, m, "more positive", "t", 2); err == nil {
		t.Error("SemTopK should propagate model errors")
	}
	if _, err := d.SemAgg(ctx, m, "Summarize", "t"); err == nil {
		t.Error("SemAgg should propagate model errors")
	}
	if _, err := d.SemFilterDistinct(ctx, m, "{t} is fine", "t"); err == nil {
		t.Error("SemFilterDistinct should propagate model errors")
	}
	if _, err := d.SemAggRows(ctx, m, "Summarize"); err == nil {
		t.Error("SemAggRows should propagate model errors")
	}
	if _, errs := Map(ctx, m, "label the sentiment", []string{"a", "b"}); errs == nil || errs[1] == nil {
		t.Error("Map should propagate model errors")
	}
}

func TestChunkByTokensCoversAllItems(t *testing.T) {
	items := make([]string, 100)
	for i := range items {
		items[i] = fmt.Sprintf("item number %d with some words attached", i)
	}
	chunks := chunkByTokens("Summarize", items, 120)
	total := 0
	for _, ch := range chunks {
		if len(ch) == 0 {
			t.Fatal("empty chunk")
		}
		total += len(ch)
	}
	if total != len(items) {
		t.Fatalf("chunks cover %d of %d items", total, len(items))
	}
	if len(chunks) < 2 {
		t.Fatal("small budget should force multiple chunks")
	}
}

// mixedFrame generates a frame whose key column mixes every kind, with the
// values Compare calls equal across kinds (5, 5.0, true/1), NULLs, NaN, and
// texts that merely look like numbers.
func mixedFrame(r *rand.Rand, n int) *DataFrame {
	pool := []sqldb.Value{
		sqldb.Null, sqldb.Int(5), sqldb.Float(5), sqldb.Float(5.5), sqldb.Int(1), sqldb.Bool(true), sqldb.Bool(false),
		sqldb.Int(0), sqldb.Text("5"), sqldb.Text("5.0"), sqldb.Text(""), sqldb.Text("Palo Alto"), sqldb.Text("palo alto"),
		sqldb.Float(math.NaN()), sqldb.Int(1 << 60), sqldb.Float(1 << 60), sqldb.Int(1<<60 + 1),
	}
	rows := make([]sqldb.Row, n)
	for i := range rows {
		rows[i] = sqldb.Row{pool[r.Intn(len(pool))], sqldb.Int(int64(i))}
	}
	d, _ := New([]string{"k", "i"}, rows)
	return d
}

// TestDistinctKeysOnTheValue: SemFilterDistinct asks one claim per distinct
// value, distinct as Compare tells values apart (a NaN, which Compare calls
// equal to every number, only from what is not a NaN), about the first row's
// rendering of it.
func TestDistinctKeysOnTheValue(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for trial := 0; trial < 200; trial++ {
		d := mixedFrame(r, 1+r.Intn(60))
		m := &promptLog{Model: oracle()}
		if _, err := d.SemFilterDistinct(context.Background(), m, "{k} satisfies: is small", "k"); err != nil {
			t.Fatal(err)
		}
		isNaN := func(v sqldb.Value) bool { return v.Kind() == sqldb.KindFloat && math.IsNaN(v.AsFloat()) }
		var seen []sqldb.Value
		var want []string
		for _, row := range d.rows {
			if !slices.ContainsFunc(seen, func(v sqldb.Value) bool {
				return isNaN(v) == isNaN(row[0]) && v.Equal(row[0])
			}) {
				seen = append(seen, row[0])
				want = append(want, llm.SemFilterPrompt(row[0].AsText()+" satisfies: is small"))
			}
		}
		if len(m.batches) != 1 || !reflect.DeepEqual(m.batches[0], want) {
			t.Fatalf("trial %d: SemFilterDistinct asked %q, the Compare classes are %q", trial, m.batches, want)
		}
	}
}

// promptLog records the prompts a model is sent, batch by batch.
type promptLog struct {
	llm.Model
	batches [][]string
}

func (p *promptLog) CompleteBatch(ctx context.Context, prompts []string) ([]string, []error) {
	p.batches = append(p.batches, append([]string(nil), prompts...))
	return p.Model.CompleteBatch(ctx, prompts)
}

// TestSemFilterDistinctIsUniqueFilterSemiJoin: SemFilterDistinct sends the
// prompts, in the order, of the sequence it replaced in the hand-written
// pipelines — the distinct values, SemFilter over them, a set of the kept
// values, a filter back — and keeps the same rows.
func TestSemFilterDistinctIsUniqueFilterSemiJoin(t *testing.T) {
	d := schoolsFrame(t)
	const claim = "{City} is a city in the Silicon Valley region"
	newLog := func() *promptLog { return &promptLog{Model: oracle()} }
	ctx := context.Background()

	old := newLog()
	seen := make(map[string]bool)
	var first []sqldb.Row
	for _, row := range d.rows {
		if c := row[1].AsText(); !seen[c] {
			seen[c] = true
			first = append(first, row)
		}
	}
	uniq, _ := New(d.cols, first)
	kept, err := uniq.SemFilter(ctx, old, claim)
	if err != nil {
		t.Fatal(err)
	}
	allowed := make(map[string]bool)
	for i := 0; i < kept.Len(); i++ {
		allowed[kept.Value(i, "City").AsText()] = true
	}
	var want []sqldb.Row
	for _, row := range d.rows {
		if allowed[row[1].AsText()] {
			want = append(want, row)
		}
	}

	now := newLog()
	got, err := d.SemFilterDistinct(ctx, now, claim, "city")
	if err != nil {
		t.Fatal(err)
	}
	if !identicalRows(got.rows, want) || got.Len() == 0 || got.Len() == d.Len() {
		t.Errorf("SemFilterDistinct kept %d of %d rows, the old sequence %d", got.Len(), d.Len(), len(want))
	}
	if !reflect.DeepEqual(now.batches, old.batches) || len(now.batches) != 1 || len(now.batches[0]) != uniq.Len() {
		t.Errorf("prompts differ from the old sequence's: %d batches, %d unique values", len(now.batches), uniq.Len())
	}
	if _, err := d.SemFilterDistinct(ctx, now, claim, "nope"); err == nil {
		t.Error("no error for a missing column")
	}
}
