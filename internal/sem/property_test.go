package sem

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tag/internal/llm"
	"tag/internal/sqldb"
	"tag/internal/world"
)

// Property tests over the DataFrame's relational-algebra laws and the
// semantic operators' invariants.

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

func TestFilterConjunctionCommutes(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		d := randomFrame(r, 50)
		p1 := func(get func(string) sqldb.Value) bool { return get("k").AsInt() > 5 }
		p2 := func(get func(string) sqldb.Value) bool { return get("score").AsFloat() < 60 }
		a := d.Filter(p1).Filter(p2)
		b := d.Filter(p2).Filter(p1)
		if a.Len() != b.Len() {
			t.Fatalf("filter order changed cardinality: %d vs %d", a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if a.Value(i, "name").AsText() != b.Value(i, "name").AsText() {
				t.Fatal("filter order changed row order")
			}
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

func TestSortIsPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	d := randomFrame(r, 60)
	sorted, err := d.Sort("score", true)
	if err != nil {
		t.Fatal(err)
	}
	if sorted.Len() != d.Len() {
		t.Fatal("sort changed cardinality")
	}
	// Multiset of names preserved.
	counts := map[string]int{}
	for i := 0; i < d.Len(); i++ {
		counts[d.Value(i, "name").AsText()]++
	}
	for i := 0; i < sorted.Len(); i++ {
		counts[sorted.Value(i, "name").AsText()]--
	}
	for k, v := range counts {
		if v != 0 {
			t.Fatalf("sort lost/duplicated rows for %q", k)
		}
	}
	// Non-increasing scores.
	for i := 1; i < sorted.Len(); i++ {
		if sorted.Value(i, "score").AsFloat() > sorted.Value(i-1, "score").AsFloat() {
			t.Fatal("descending sort violated")
		}
	}
}

func TestDistinctThenFilterVsFilterThenDistinct(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for trial := 0; trial < 50; trial++ {
		d := randomFrame(r, 40)
		pred := func(get func(string) sqldb.Value) bool { return get("k").AsInt()%2 == 0 }
		a, _ := d.Filter(pred).Distinct("name")
		b, _ := d.Distinct("name")
		b = b.Filter(pred)
		// Filter-then-distinct can keep more names (a name whose first
		// occurrence fails the filter may still survive via another row),
		// so only the subset relation holds. Check it.
		namesB := map[string]bool{}
		for i := 0; i < b.Len(); i++ {
			namesB[b.Value(i, "name").AsText()] = true
		}
		for i := 0; i < a.Len(); i++ {
			_ = namesB // b ⊆ a as name sets
		}
		namesA := map[string]bool{}
		for i := 0; i < a.Len(); i++ {
			namesA[a.Value(i, "name").AsText()] = true
		}
		for n := range namesB {
			if !namesA[n] {
				t.Fatalf("distinct-then-filter produced name %q missing from filter-then-distinct", n)
			}
		}
	}
}

func TestJoinWithSelfOnKey(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	d := randomFrame(r, 30)
	j, err := d.Join(d, "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	// Self equi-join row count equals sum over keys of count^2.
	counts := map[int64]int{}
	for i := 0; i < d.Len(); i++ {
		counts[d.Value(i, "k").AsInt()]++
	}
	want := 0
	for _, c := range counts {
		want += c * c
	}
	if j.Len() != want {
		t.Fatalf("self join rows = %d, want %d", j.Len(), want)
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
	if _, err := d.SemMap(ctx, m, "label the sentiment", "t"); err == nil {
		t.Error("SemMap should propagate model errors")
	}
	if _, err := d.SemJoin(ctx, m, d, "{t} matches {right:t}"); err == nil {
		t.Error("SemJoin should propagate model errors")
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

// TestDistinctKeysOnTheValue: Distinct, keyed on the value itself, keeps
// exactly the rows the Value.Key()-string version it replaced kept.
func TestDistinctKeysOnTheValue(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for trial := 0; trial < 200; trial++ {
		d := mixedFrame(r, 1+r.Intn(60))
		got, err := d.Distinct("k")
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		var want []sqldb.Row
		for _, row := range d.rows {
			if k := row[0].Key(); !seen[k] {
				seen[k] = true
				want = append(want, row)
			}
		}
		if !reflect.DeepEqual(got.rows, want) {
			t.Fatalf("trial %d: Distinct kept %v, the Key() version %v", trial, got.rows, want)
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
// pipelines — Distinct, SemFilter over the unique rows, a set of the kept
// values, Filter back — and keeps the same rows.
func TestSemFilterDistinctIsUniqueFilterSemiJoin(t *testing.T) {
	d := schoolsFrame(t)
	const claim = "{City} is a city in the Silicon Valley region"
	newLog := func() *promptLog { return &promptLog{Model: oracle()} }
	ctx := context.Background()

	old := newLog()
	uniq, err := d.Distinct("City")
	if err != nil {
		t.Fatal(err)
	}
	kept, err := uniq.SemFilter(ctx, old, claim)
	if err != nil {
		t.Fatal(err)
	}
	allowed := make(map[string]bool)
	for i := 0; i < kept.Len(); i++ {
		allowed[kept.Value(i, "City").AsText()] = true
	}
	want := d.Filter(func(get func(string) sqldb.Value) bool { return allowed[get("City").AsText()] })

	now := newLog()
	got, err := d.SemFilterDistinct(ctx, now, claim, "city")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.rows, want.rows) || got.Len() == 0 || got.Len() == d.Len() {
		t.Errorf("SemFilterDistinct kept %d of %d rows, the old sequence %d", got.Len(), d.Len(), want.Len())
	}
	if !reflect.DeepEqual(now.batches, old.batches) || len(now.batches) != 1 || len(now.batches[0]) != uniq.Len() {
		t.Errorf("prompts differ from the old sequence's: %d batches, %d unique values", len(now.batches), uniq.Len())
	}
	if _, err := d.SemFilterDistinct(ctx, now, claim, "nope"); err == nil {
		t.Error("no error for a missing column")
	}
}
