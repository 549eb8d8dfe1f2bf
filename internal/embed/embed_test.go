package embed

import (
	"context"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unicode"

	"tag/internal/tagbench/domains"
)

// refFeature is one feature of refFeatures: its text (a token, or
// tok_next for a bigram) and its count.
type refFeature struct {
	text string
	n    int
}

// refFeatures is the embedder's feature extraction written plainly: a
// strings.Builder tokenizer, joined bigram strings, and the features
// listed in first-seen order.
func refFeatures(text string) []refFeature {
	var toks []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			if w := b.String(); !stopwords[w] {
				toks = append(toks, w)
			}
			b.Reset()
		}
	}
	for _, r := range strings.ToLower(text) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	var out []refFeature
	pos := map[string]int{}
	add := func(f string) {
		if i, ok := pos[f]; ok {
			out[i].n++
			return
		}
		pos[f] = len(out)
		out = append(out, refFeature{f, 1})
	}
	for i, t := range toks {
		add(t)
		if i+1 < len(toks) {
			add(t + "_" + toks[i+1])
		}
	}
	return out
}

// refTerm is a feature's dimension and signed weight, hashed by hash/fnv.
func refTerm(dim int, f refFeature) (int, float32) {
	h := fnv.New64a()
	h.Write([]byte(f.text))
	v := h.Sum64()
	w := float32(1 + math.Log(float64(f.n)))
	if strings.Contains(f.text, "_") {
		w *= 1.5
	}
	if v>>63 == 1 {
		w = -w
	}
	return int(v % uint64(dim)), w
}

// refEmbed is the reference embedder: refFeatures summed in first-seen
// order, then normalised.
func refEmbed(dim int, text string) []float32 {
	vec := make([]float32, dim)
	for _, f := range refFeatures(text) {
		idx, w := refTerm(dim, f)
		vec[idx] += w
	}
	normalize(vec)
	return vec
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestEmbedDeterministic(t *testing.T) {
	e := New(0)
	a := e.Embed("comments on gradient boosting")
	b := e.Embed("comments on gradient boosting")
	if !sameBits(a, b) {
		t.Fatal("embedding must be deterministic")
	}
	if e.Dim() != DefaultDim || len(a) != DefaultDim {
		t.Errorf("dim = %d", len(a))
	}

	// Three features of this text land on dimension 6 with weights -1,
	// 2.54 and 1.5, and their float32 sum depends on the order they are
	// added in; an embedder that adds in map order gives varying bits.
	const text = "w69 w69 w69 a28 d33 w69 d33 d33 w69"
	var ws []float32
	for _, f := range refFeatures(text) {
		if idx, w := refTerm(DefaultDim, f); idx == 6 {
			ws = append(ws, w)
		}
	}
	if len(ws) != 3 || ws[0] == ws[1] || ws[1] == ws[2] || ws[0] == ws[2] ||
		(ws[0]+ws[1])+ws[2] == (ws[1]+ws[2])+ws[0] {
		t.Fatalf("dimension 6 weights %v: want three unequal weights whose sum depends on order", ws)
	}
	first := e.Embed(text)
	for i := 0; i < 50; i++ {
		if v := e.Embed(text); !sameBits(v, first) {
			t.Fatalf("call %d: dim 6 = %#08x, first call %#08x", i,
				math.Float32bits(v[6]), math.Float32bits(first[6]))
		}
	}
	if !sameBits(first, refEmbed(DefaultDim, text)) {
		t.Error("features must be added in first-seen order")
	}
}

func TestFNVFeatureMatchesHashFNV(t *testing.T) {
	want := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		return h.Sum64()
	}
	if err := quick.Check(func(tok, next string) bool {
		joined := tok
		if next != "" {
			joined += "_" + next
		}
		return fnvFeature(tok, next) == want(joined)
	}, nil); err != nil {
		t.Error(err)
	}
	if fnvFeature("", "") != want("") || fnvFeature("palo", "alto") != want("palo_alto") {
		t.Error("inline FNV-1a differs from hash/fnv")
	}
}

func TestEmbedMatchesReference(t *testing.T) {
	e := New(64)
	for _, s := range []string{
		"", "the of and", "School: Gunn High, City: Palo Alto",
		"ÉCOLE École ÉCOLE über straße", "bad \xff\xfe utf8 \xffword",
		"repeat repeat repeat repeat_repeat a1 B2 a1 b2",
	} {
		if !sameBits(e.Embed(s), refEmbed(64, s)) {
			t.Errorf("Embed(%q) differs from the reference", s)
		}
	}
	if err := quick.Check(func(s string) bool {
		return sameBits(e.Embed(s), refEmbed(64, s))
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestEmbedRAGRowsPinned embeds every row of the five benchmark domains,
// serialised as the RAG baseline serialises it ("- col: val" lines), and
// holds each vector to the reference embedder bit for bit.
func TestEmbedRAGRowsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the five benchmark domains")
	}
	e := New(0)
	rows := 0
	var text []byte
	for _, name := range domains.Names() {
		db, err := domains.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, table := range db.TableNames() {
			res, err := db.QueryContext(context.Background(), "SELECT * FROM "+table)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range res.Rows {
				text = text[:0]
				for ci, col := range res.Columns {
					text = append(append(append(text, "- "...), col...), ": "...)
					text = append(row[ci].AppendText(text), '\n')
				}
				if !sameBits(e.Embed(string(text)), refEmbed(DefaultDim, string(text))) {
					t.Fatalf("%s.%s row %q: vector differs from the reference", name, table, text)
				}
				rows++
			}
		}
	}
	if rows != 5877 {
		t.Errorf("embedded %d rows, want the benchmark's 5877", rows)
	}
}

// TestEmbedConcurrent: goroutines sharing the pooled feature counts each
// get their own text's vector.
func TestEmbedConcurrent(t *testing.T) {
	e := New(0)
	texts := []string{"palo alto high school", "gas station 44 amount 30", "formula one driver lap times", "posts about gradient boosting"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := texts[(g+i)%len(texts)]
				if !sameBits(e.Embed(s), refEmbed(DefaultDim, s)) {
					t.Errorf("goroutine %d: Embed(%q) differs from the reference", g, s)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestEmbedAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("under the race detector sync.Pool drops a share of its Puts, so the feature counts are rebuilt")
	}
	e := New(0)
	q := "How many schools in Palo Alto have an average math score above 600?"
	e.Embed(q) // fill the pooled feature counts
	// The vector and strings.ToLower's copy of the text.
	if n := testing.AllocsPerRun(100, func() { e.Embed(q) }); n > 2 {
		t.Errorf("Embed made %v allocations, want at most 2", n)
	}
}

func TestEmbedUnitNorm(t *testing.T) {
	e := New(128)
	if err := quick.Check(func(s string) bool {
		v := e.Embed(s)
		var sum float64
		for _, x := range v {
			sum += float64(x) * float64(x)
		}
		// Zero vector (no tokens) or unit norm.
		return sum == 0 || math.Abs(sum-1) < 1e-4
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestEmbedSimilarityOrdering(t *testing.T) {
	e := New(0)
	q := e.Embed("schools with high math scores in Palo Alto")
	close1 := e.Embed("School: Gunn High, City: Palo Alto, AvgScrMath: 620")
	far := e.Embed("TransactionID: 9, GasStationID: 44, Amount: 30, Price: 21.5")
	if Cosine(q, close1) <= Cosine(q, far) {
		t.Errorf("related row should be closer: close=%v far=%v", Cosine(q, close1), Cosine(q, far))
	}
}

func TestEmbedStopwordsIgnored(t *testing.T) {
	e := New(0)
	a := e.Embed("the school of the city")
	b := e.Embed("school city")
	if Cosine(a, b) < 0.99 {
		t.Errorf("stopwords should not change the embedding much: %v", Cosine(a, b))
	}
}

func TestEmbedEmpty(t *testing.T) {
	e := New(0)
	v := e.Embed("")
	for _, x := range v {
		if x != 0 {
			t.Fatal("empty text must embed to zero vector")
		}
	}
	if Cosine(v, v) != 0 {
		t.Error("cosine of zero vectors is 0 by convention")
	}
}

func TestEmbedBatch(t *testing.T) {
	e := New(64)
	vs := e.EmbedBatch([]string{"a b", "c d"})
	if len(vs) != 2 || len(vs[0]) != 64 {
		t.Fatalf("batch shape wrong")
	}
}

func TestCosineBounds(t *testing.T) {
	e := New(0)
	if err := quick.Check(func(s1, s2 string) bool {
		c := Cosine(e.Embed(s1), e.Embed(s2))
		return c >= -1.0001 && c <= 1.0001
	}, nil); err != nil {
		t.Error(err)
	}
	v := e.Embed("identical text here")
	if Cosine(v, v) < 0.999 {
		t.Error("self-similarity should be 1")
	}
}
