package vector

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"tag/internal/embed"
)

// denseScore is the reference scorer: the similarity computed over every
// coordinate of two dense vectors, in coordinate order.
func denseScore(m Metric, a, b []float32) float32 {
	switch m {
	case L2:
		var d float64
		for i := range a {
			diff := float64(a[i]) - float64(b[i])
			d += diff * diff
		}
		return float32(-d)
	default:
		var dot float64
		for i := range a {
			dot += float64(a[i]) * float64(b[i])
		}
		if m == Dot {
			return float32(dot)
		}
		var na, nb float64
		for i := range a {
			na += float64(a[i]) * float64(a[i])
			nb += float64(b[i]) * float64(b[i])
		}
		if na == 0 || nb == 0 {
			return 0
		}
		return float32(dot / math.Sqrt(na*nb))
	}
}

// denseRanking scores q against every vector (id = position) with
// denseScore and sorts best first, ties by id.
func denseRanking(m Metric, q []float32, vecs [][]float32) []Hit {
	out := make([]Hit, len(vecs))
	for i, v := range vecs {
		out[i] = Hit{ID: i, Score: denseScore(m, q, v)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// sameHits reports whether two hit lists have the same ids and
// bit-identical scores.
func sameHits(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float32bits(a[i].Score) != math.Float32bits(b[i].Score) {
			return false
		}
	}
	return true
}

// sparseVecs draws n vectors of dim coordinates, each coordinate zero with
// probability zeros and otherwise normal (so about half are negative),
// half of those scaled by 2^-30 to 2^30 so that the float64 sums cancel
// and round differently in another order; vector 0 is all zero.
func sparseVecs(r *rand.Rand, n, dim int, zeros float64) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for j := range v {
			if i > 0 && r.Float64() >= zeros {
				x := r.NormFloat64()
				if r.Intn(2) == 0 {
					x = math.Ldexp(x, r.Intn(61)-30)
				}
				v[j] = float32(x)
			}
		}
		out[i] = v
	}
	return out
}

func randomVecs(r *rand.Rand, n, dim int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		out[i] = v
	}
	return out
}

func TestFlatExactTopK(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	dim := 16
	vecs := randomVecs(r, 200, dim)
	idx := NewFlat(dim, Cosine)
	for i, v := range vecs {
		if err := idx.Add(i*7, v); err != nil { // non-dense ids
			t.Fatal(err)
		}
	}
	if idx.Len() != 200 {
		t.Fatalf("len = %d", idx.Len())
	}
	q := randomVecs(r, 1, dim)[0]
	hits, err := idx.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 10 {
		t.Fatalf("k hits = %d", len(hits))
	}
	// Brute-force verification.
	type pair struct {
		id int
		s  float32
	}
	var all []pair
	for i, v := range vecs {
		all = append(all, pair{id: i * 7, s: denseScore(Cosine, q, v)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s > all[j].s
		}
		return all[i].id < all[j].id
	})
	for i := range hits {
		if hits[i].ID != all[i].id {
			t.Fatalf("hit %d = id %d, want %d", i, hits[i].ID, all[i].id)
		}
	}
	// Scores must be non-increasing.
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatal("hits not sorted by score")
		}
	}
}

func TestFlatMetrics(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	c := []float32{2, 0}
	for _, m := range []Metric{Cosine, Dot, L2} {
		idx := NewFlat(2, m)
		idx.Add(1, b)
		idx.Add(2, c)
		hits, err := idx.Search(a, 1)
		if err != nil || len(hits) != 1 {
			t.Fatalf("metric %v: %v", m, err)
		}
		if hits[0].ID != 2 {
			t.Errorf("metric %v: nearest to (1,0) should be (2,0), got id %d", m, hits[0].ID)
		}
	}
}

func TestFlatErrors(t *testing.T) {
	idx := NewFlat(4, Cosine)
	if err := idx.Add(1, []float32{1, 2}); err == nil {
		t.Error("dimension mismatch on Add should fail")
	}
	if _, err := idx.Search([]float32{1}, 3); err == nil {
		t.Error("dimension mismatch on Search should fail")
	}
	hits, err := idx.Search(make([]float32, 4), 0)
	if err != nil || hits != nil {
		t.Error("k=0 should return nothing")
	}
}

func TestFlatKLargerThanIndex(t *testing.T) {
	idx := NewFlat(2, Cosine)
	idx.Add(1, []float32{1, 0})
	hits, err := idx.Search([]float32{1, 0}, 10)
	if err != nil || len(hits) != 1 {
		t.Fatalf("hits = %v err = %v", hits, err)
	}
}

func TestIVFRecall(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	dim := 24
	vecs := randomVecs(r, 1000, dim)
	flat := NewFlat(dim, Cosine)
	ivf := NewIVF(dim, Cosine, 16, 8)
	if err := ivf.Train(vecs[:400]); err != nil {
		t.Fatal(err)
	}
	for i, v := range vecs {
		flat.Add(i, v)
		if err := ivf.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	// Probing half the lists should recover most of the true top-10.
	totalRecall := 0.0
	queries := randomVecs(r, 20, dim)
	for _, q := range queries {
		exact, _ := flat.Search(q, 10)
		approx, _ := ivf.Search(q, 10)
		exactIDs := make(map[int]bool)
		for _, h := range exact {
			exactIDs[h.ID] = true
		}
		found := 0
		for _, h := range approx {
			if exactIDs[h.ID] {
				found++
			}
		}
		totalRecall += float64(found) / 10
	}
	if avg := totalRecall / 20; avg < 0.5 {
		t.Errorf("IVF recall@10 = %.2f, want >= 0.5 with nprobe=nlist/2", avg)
	}
}

func TestIVFUntrained(t *testing.T) {
	ivf := NewIVF(8, Cosine, 4, 2)
	if err := ivf.Add(1, make([]float32, 8)); err == nil {
		t.Error("Add before Train should fail")
	}
	if _, err := ivf.Search(make([]float32, 8), 1); err == nil {
		t.Error("Search before Train should fail")
	}
	if err := ivf.Train(nil); err == nil {
		t.Error("empty training sample should fail")
	}
}

func TestIVFArguments(t *testing.T) {
	ivf := NewIVF(2, L2, 0, 5) // nlist 0 means 1, nprobe is capped at nlist
	if ivf.nlist != 1 || ivf.nprobe != 1 || NewIVF(2, L2, 3, 0).nprobe != 1 {
		t.Fatalf("nlist %d nprobe %d", ivf.nlist, ivf.nprobe)
	}
	if err := ivf.Train([][]float32{{1}}); err == nil {
		t.Error("training sample of the wrong dimension should fail")
	}
	big := NewIVF(2, L2, 8, 8) // more lists than sample vectors
	if err := big.Train([][]float32{{0, 1}, {1, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := big.Add(1, []float32{1}); err == nil {
		t.Error("dimension mismatch on Add should fail")
	}
	big.Add(1, []float32{0, 2})
	big.Add(2, []float32{3, 0})
	if big.Len() != 2 {
		t.Errorf("len = %d", big.Len())
	}
	if _, err := big.Search([]float32{1}, 1); err == nil {
		t.Error("dimension mismatch on Search should fail")
	}
	if hits, err := big.Search([]float32{1, 0}, 0); err != nil || hits != nil {
		t.Error("k=0 should return nothing")
	}
	if hits, _ := big.Search([]float32{2, 0}, 1); len(hits) != 1 || hits[0].ID != 2 {
		t.Errorf("hits = %v", hits)
	}
}

func TestIVFFullProbeMatchesFlat(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	dim := 8
	vecs := randomVecs(r, 300, dim)
	flat := NewFlat(dim, Dot)
	ivf := NewIVF(dim, Dot, 10, 10) // probe everything = exact
	if err := ivf.Train(vecs); err != nil {
		t.Fatal(err)
	}
	for i, v := range vecs {
		flat.Add(i, v)
		ivf.Add(i, v)
	}
	for qi := 0; qi < 10; qi++ {
		q := randomVecs(r, 1, dim)[0]
		a, _ := flat.Search(q, 5)
		b, _ := ivf.Search(q, 5)
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("full-probe IVF must equal flat: %v vs %v", a, b)
			}
		}
	}
}

// TestStoredScoresBitIdentical holds the nonzero store's kernel to the
// dense reference: every metric, dims 1-300, vectors from all zeros to
// fully dense with negative values, through Flat and a full-probe IVF.
func TestStoredScoresBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	const n = 24
	for dim := 1; dim <= 300; dim++ {
		zeros := []float64{0, 0.5, 0.9, 1}[dim%4]
		vecs := sparseVecs(r, n, dim, zeros)
		queries := append(sparseVecs(r, 2, dim, zeros), sparseVecs(r, 2, dim, 0.3)...)
		if dim >= 3 {
			// q·v is 2^60 - 2^60 + 1 in coordinate order, and 0 in any order
			// that adds the 1 before the large terms cancel.
			v, q := make([]float32, dim), make([]float32, dim)
			v[0], v[1], v[dim-1] = 1<<30, -(1 << 30), 1
			q[0], q[1], q[dim-1] = 1<<30, 1<<30, 1
			vecs[1] = v
			queries = append(queries, q)
		}
		for _, m := range []Metric{Cosine, Dot, L2} {
			flat := NewFlat(dim, m)
			ivf := NewIVF(dim, m, 4, 4)
			if err := ivf.Train(vecs); err != nil {
				t.Fatal(err)
			}
			for i, v := range vecs {
				if err := flat.Add(i, v); err != nil {
					t.Fatal(err)
				}
				if err := ivf.Add(i, v); err != nil {
					t.Fatal(err)
				}
			}
			for qi, q := range queries {
				want := denseRanking(m, q, vecs)
				for name, idx := range map[string]Index{"flat": flat, "ivf": ivf} {
					got, err := idx.Search(q, n)
					if err != nil {
						t.Fatal(err)
					}
					if !sameHits(got, want) {
						t.Fatalf("dim %d metric %d query %d %s:\n got %v\nwant %v", dim, m, qi, name, got, want)
					}
				}
			}
		}
	}
}

// refTopK is the top-k selection the package used before: container/heap
// on score alone, then a sort by score descending and id ascending.
type refHeap []Hit

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].Score < h[j].Score }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(Hit)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

func refTopK(scores []float32, k int) []Hit {
	h := make(refHeap, 0, k)
	for id, s := range scores {
		if len(h) < k {
			heap.Push(&h, Hit{ID: id, Score: s})
		} else if s > h[0].Score {
			h[0] = Hit{ID: id, Score: s}
			heap.Fix(&h, 0)
		}
	}
	sort.Slice(h, func(i, j int) bool {
		if h[i].Score != h[j].Score {
			return h[i].Score > h[j].Score
		}
		return h[i].ID < h[j].ID
	})
	return h
}

// TestTopKMatchesContainerHeap: with scores drawn from a few values, so
// that many tie at the k-th place, the sift-down helper keeps exactly the
// hits the container/heap version kept.
func TestTopKMatchesContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		scores := make([]float32, 1+r.Intn(60))
		for i := range scores {
			scores[i] = float32(r.Intn(1 + trial%7))
		}
		k := 1 + r.Intn(len(scores)+3)
		got := make(topK, 0, k)
		for id, s := range scores {
			got.offer(id, s)
		}
		if want := refTopK(scores, k); !sameHits(got.sorted(), want) {
			t.Fatalf("scores %v k %d: got %v, want %v", scores, k, got, want)
		}
	}
}

func TestSearchAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	vecs := sparseVecs(r, 2000, 64, 0.8)
	flat := NewFlat(64, Cosine)
	ivf := NewIVF(64, Cosine, 8, 8)
	if err := ivf.Train(vecs); err != nil {
		t.Fatal(err)
	}
	for i, v := range vecs {
		flat.Add(i, v)
		ivf.Add(i, v)
	}
	q := vecs[1]
	for _, k := range []int{10, 30} {
		// The returned hits; IVF adds its centroid ranking.
		if n := testing.AllocsPerRun(50, func() { flat.Search(q, k) }); n > 1 {
			t.Errorf("Flat.Search k=%d: %v allocations, want 1", k, n)
		}
		if n := testing.AllocsPerRun(50, func() { ivf.Search(q, k) }); n > 2 {
			t.Errorf("IVF.Search k=%d: %v allocations, want 2", k, n)
		}
	}
}

// TestFlatHeapPerNonzero: a stored embedding costs its nonzeros, not its
// dimension. 5,000 embedded rows must hold at most 12 B per nonzero plus
// 48 B per vector of heap; dense float32 storage would be 1 KB a vector.
func TestFlatHeapPerNonzero(t *testing.T) {
	e := embed.New(0)
	const rows = 5000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	idx := NewFlat(e.Dim(), Cosine)
	nonzeros := 0
	for i := 0; i < rows; i++ {
		v := e.Embed(fmt.Sprintf("- School: School %d\n- City: City %d\n- County: County %d\n- AvgScrMath: %d\n- Enrollment: %d\n",
			i, i%97, i%13, 400+i%300, i*7%5000))
		for _, x := range v {
			if x != 0 {
				nonzeros++
			}
		}
		if err := idx.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(idx)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	limit := int64(12*nonzeros + 48*rows)
	t.Logf("%d rows, %d nonzeros: %d B held, %.1f B per nonzero", rows, nonzeros, held, float64(held)/float64(nonzeros))
	if held > limit {
		t.Errorf("index holds %d B for %d rows with %d nonzeros, want at most %d", held, rows, nonzeros, limit)
	}
}

// TestAddCopies: changing a slice after Add changes no hit.
func TestAddCopies(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	vecs := sparseVecs(r, 50, 16, 0.5)
	flat := NewFlat(16, Dot)
	ivf := NewIVF(16, Dot, 4, 4)
	if err := ivf.Train(vecs); err != nil {
		t.Fatal(err)
	}
	buf := make([]float32, 16)
	for i, v := range vecs {
		copy(buf, v)
		flat.Add(i, buf)
		ivf.Add(i, buf)
	}
	for i := range buf {
		buf[i] = 1e6
	}
	q := sparseVecs(r, 2, 16, 0)[1]
	want := denseRanking(Dot, q, vecs)
	for name, idx := range map[string]Index{"flat": flat, "ivf": ivf} {
		if got, _ := idx.Search(q, len(vecs)); !sameHits(got, want) {
			t.Errorf("%s: hits changed with the caller's slice:\n got %v\nwant %v", name, got, want)
		}
	}
}
