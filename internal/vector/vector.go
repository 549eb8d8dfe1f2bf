// Package vector implements the vector store that stands in for FAISS in
// the TAG paper's RAG baseline: an exact flat index and an IVF-style
// partitioned approximate index, with cosine, dot-product or Euclidean
// metrics. Queries are dense float32 vectors; a stored vector is kept as
// its nonzeros only (ascending coordinates and their values in one arena
// per index, with its squared norm), about a quarter of the dense size
// for the RAG baseline's hashed text embeddings. For a finite query,
// scores equal the dense computation's bit for bit: a skipped
// coordinate's product is ±0 and leaves the float64 sum unchanged.
package vector

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Metric selects the similarity function.
type Metric uint8

// Metrics. Higher is better for Cosine and Dot; lower is better for L2
// (scores are negated internally so "higher wins" uniformly).
const (
	Cosine Metric = iota
	Dot
	L2
)

// ErrDimension is returned when a vector's length does not match the
// index dimension.
var ErrDimension = errors.New("vector: dimension mismatch")

// Hit is one search result: the stored id and its similarity score
// (higher is more similar, for every metric).
type Hit struct {
	ID    int
	Score float32
}

// Index is the common interface of the flat and IVF indexes.
type Index interface {
	// Add stores a copy of vec under id, so the caller may reuse vec.
	// Ids need not be dense or ordered.
	Add(id int, vec []float32) error
	// Search returns the k nearest stored vectors, best first.
	Search(query []float32, k int) ([]Hit, error)
	// Len reports the number of stored vectors.
	Len() int
}

// ---------------------------------------------------------------------------
// Nonzero store and its scoring kernel

// store holds vectors as their nonzeros in one arena: vector i's
// coordinates, ascending, are coords[offs[i]:offs[i+1]], their values are
// vals at the same positions, and its squared norm is norms[i].
type store struct {
	offs   []int // one more entry than vectors; offs[0] == 0
	coords []uint32
	vals   []float32
	norms  []float64
}

// add appends a copy of vec's nonzeros.
func (s *store) add(vec []float32) {
	if len(s.offs) == 0 {
		s.offs = append(s.offs, 0)
	}
	var norm float64
	for c, x := range vec {
		if x != 0 {
			s.coords = append(s.coords, uint32(c))
			s.vals = append(s.vals, x)
			norm += float64(x) * float64(x)
		}
	}
	s.offs = append(s.offs, len(s.coords))
	s.norms = append(s.norms, norm)
}

func (s *store) len() int { return len(s.norms) }

// sqNorm is a dense vector's squared norm, summed in coordinate order.
func sqNorm(v []float32) float64 {
	var n float64
	for _, x := range v {
		n += float64(x) * float64(x)
	}
	return n
}

// score is the (higher-is-better) similarity under m of the dense query q,
// whose squared norm is qn, to stored vector i. Cosine and Dot sum the
// products over i's nonzeros in ascending coordinate order; L2 walks every
// dimension, reading 0 where i has no coordinate.
func (s *store) score(m Metric, q []float32, qn float64, i int) float32 {
	lo, hi := s.offs[i], s.offs[i+1]
	coords, vals := s.coords[lo:hi], s.vals[lo:hi]
	if m == L2 {
		var d float64
		j := 0
		for c, x := range q {
			var y float32
			if j < len(coords) && int(coords[j]) == c {
				y = vals[j]
				j++
			}
			diff := float64(x) - float64(y)
			d += diff * diff
		}
		return float32(-d)
	}
	var dot float64
	for j, c := range coords {
		dot += float64(q[c]) * float64(vals[j])
	}
	if m == Dot {
		return float32(dot)
	}
	if qn == 0 || s.norms[i] == 0 {
		return 0
	}
	return float32(dot / math.Sqrt(qn*s.norms[i]))
}

// ---------------------------------------------------------------------------
// Top-k selection

// topK keeps the best cap(h) hits offered to it in a min-heap on score.
// Of several hits tied at the k-th score it must keep the ones
// container/heap kept (TestTopKMatchesContainerHeap), so it orders by
// score alone, sifts exactly as heap.Push and heap.Fix do, and admits a
// hit only when it beats the worst kept.
type topK []Hit

func (h *topK) offer(id int, s float32) {
	t := *h
	if len(t) < cap(t) {
		t = append(t, Hit{ID: id, Score: s})
		for j := len(t) - 1; j > 0; {
			p := (j - 1) / 2
			if !(t[j].Score < t[p].Score) {
				break
			}
			t[p], t[j] = t[j], t[p]
			j = p
		}
		*h = t
		return
	}
	if !(s > t[0].Score) {
		return
	}
	t[0] = Hit{ID: id, Score: s}
	for i := 0; ; {
		j := 2*i + 1
		if j >= len(t) {
			break
		}
		if j+1 < len(t) && t[j+1].Score < t[j].Score {
			j++
		}
		if !(t[j].Score < t[i].Score) {
			break
		}
		t[i], t[j] = t[j], t[i]
		i = j
	}
}

// sorted orders the kept hits by score descending, then id ascending.
func (h topK) sorted() []Hit {
	slices.SortFunc(h, func(a, b Hit) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return h
}

// ---------------------------------------------------------------------------
// Flat (exact) index

// Flat is an exact brute-force index — the behavioural equivalent of
// faiss.IndexFlat, which is what the paper's RAG baseline uses.
type Flat struct {
	dim    int
	metric Metric
	ids    []int
	rows   store
}

// NewFlat creates an exact index of the given dimension.
func NewFlat(dim int, metric Metric) *Flat {
	return &Flat{dim: dim, metric: metric}
}

// Add implements Index: it copies vec's nonzeros, so the caller may reuse
// vec.
func (f *Flat) Add(id int, vec []float32) error {
	if len(vec) != f.dim {
		return fmt.Errorf("%w: got %d, index dim %d", ErrDimension, len(vec), f.dim)
	}
	f.ids = append(f.ids, id)
	f.rows.add(vec)
	return nil
}

// Len implements Index.
func (f *Flat) Len() int { return len(f.ids) }

// scan offers every stored vector's score against q to t.
func (f *Flat) scan(q []float32, qn float64, t *topK) {
	for i, id := range f.ids {
		t.offer(id, f.rows.score(f.metric, q, qn, i))
	}
}

// Search implements Index.
func (f *Flat) Search(query []float32, k int) ([]Hit, error) {
	if len(query) != f.dim {
		return nil, fmt.Errorf("%w: query %d, index dim %d", ErrDimension, len(query), f.dim)
	}
	if k <= 0 {
		return nil, nil
	}
	t := make(topK, 0, k)
	f.scan(query, sqNorm(query), &t)
	return t.sorted(), nil
}

// ---------------------------------------------------------------------------
// IVF (inverted file) index

// IVF partitions vectors into nlist clusters by k-means and searches only
// the nprobe closest clusters — the classic FAISS IVF design. It trades
// recall for speed; the benchmark uses Flat, IVF backs the ablation bench.
// Each cluster's vectors are a Flat index; the centroids are one more store.
type IVF struct {
	dim    int
	metric Metric
	nlist  int
	nprobe int
	cents  store
	lists  []Flat // one per centroid; nil until trained
}

// NewIVF creates an IVF index with nlist partitions, probing nprobe of
// them per query.
func NewIVF(dim int, metric Metric, nlist, nprobe int) *IVF {
	if nlist < 1 {
		nlist = 1
	}
	if nprobe < 1 {
		nprobe = 1
	}
	if nprobe > nlist {
		nprobe = nlist
	}
	return &IVF{dim: dim, metric: metric, nlist: nlist, nprobe: nprobe}
}

// Train runs a few rounds of k-means over the sample to position the
// cluster centroids. Must be called before Add.
func (ivf *IVF) Train(sample [][]float32) error {
	for _, v := range sample {
		if len(v) != ivf.dim {
			return ErrDimension
		}
	}
	if len(sample) == 0 {
		return errors.New("vector: IVF training needs a non-empty sample")
	}
	n := ivf.nlist
	if n > len(sample) {
		n = len(sample)
	}
	// Deterministic init: evenly strided picks. cents is the dense working
	// copy k-means updates; packed is what assignment scores against,
	// repacked after every round.
	cents := make([][]float32, n)
	stride := len(sample) / n // n <= len(sample), so stride >= 1
	for i := 0; i < n; i++ {
		src := sample[(i*stride)%len(sample)]
		cents[i] = append([]float32(nil), src...)
	}
	pack := func() store {
		var s store
		for _, c := range cents {
			s.add(c)
		}
		return s
	}
	packed := pack()
	assign := make([]int, len(sample))
	for iter := 0; iter < 8; iter++ {
		for i, v := range sample {
			assign[i] = nearest(ivf.metric, &packed, v)
		}
		sums := make([][]float64, n)
		counts := make([]int, n)
		for i := range sums {
			sums[i] = make([]float64, ivf.dim)
		}
		for i, v := range sample {
			c := assign[i]
			counts[c]++
			for j, x := range v {
				sums[c][j] += float64(x)
			}
		}
		for c := 0; c < n; c++ {
			if counts[c] == 0 {
				continue
			}
			for j := range cents[c] {
				cents[c][j] = float32(sums[c][j] / float64(counts[c]))
			}
		}
		packed = pack()
	}
	ivf.cents = packed
	ivf.lists = make([]Flat, n)
	for i := range ivf.lists {
		ivf.lists[i] = Flat{dim: ivf.dim, metric: ivf.metric}
	}
	return nil
}

// nearest is the position of the stored vector in s most similar to v.
func nearest(m Metric, s *store, v []float32) int {
	qn := sqNorm(v)
	best, bestScore := 0, float32(math.Inf(-1))
	for i := 0; i < s.len(); i++ {
		if sc := s.score(m, v, qn, i); sc > bestScore {
			best, bestScore = i, sc
		}
	}
	return best
}

// Add implements Index: it copies vec's nonzeros into the list of its
// nearest centroid. The index must be trained first.
func (ivf *IVF) Add(id int, vec []float32) error {
	if ivf.lists == nil {
		return errors.New("vector: IVF index is untrained")
	}
	if len(vec) != ivf.dim {
		return ErrDimension
	}
	l := &ivf.lists[nearest(ivf.metric, &ivf.cents, vec)]
	l.ids = append(l.ids, id)
	l.rows.add(vec)
	return nil
}

// Len implements Index.
func (ivf *IVF) Len() int {
	n := 0
	for _, l := range ivf.lists {
		n += l.Len()
	}
	return n
}

// Search implements Index: probe the nprobe nearest clusters, nearest
// first. Clusters are ranked like hits, by the same top-k.
func (ivf *IVF) Search(query []float32, k int) ([]Hit, error) {
	if ivf.lists == nil {
		return nil, errors.New("vector: IVF index is untrained")
	}
	if len(query) != ivf.dim {
		return nil, ErrDimension
	}
	if k <= 0 {
		return nil, nil
	}
	qn := sqNorm(query)
	probe := make(topK, 0, ivf.nprobe)
	for c := 0; c < ivf.cents.len(); c++ {
		probe.offer(c, ivf.cents.score(ivf.metric, query, qn, c))
	}
	t := make(topK, 0, k)
	for _, c := range probe.sorted() {
		ivf.lists[c.ID].scan(query, qn, &t)
	}
	return t.sorted(), nil
}
