// Package vector implements the vector store that stands in for FAISS in
// the TAG paper's RAG baseline: an exact flat index ranked by cosine
// similarity. Queries are dense float32 vectors; a stored vector is kept as
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

// Metric selects the similarity function. Cosine is the one there is.
type Metric uint8

// Cosine ranks by cosine similarity, higher is better.
const Cosine Metric = 0

// ErrDimension is returned when a vector's length does not match the
// index dimension.
var ErrDimension = errors.New("vector: dimension mismatch")

// Hit is one search result: the stored id and its similarity score
// (higher is more similar).
type Hit struct {
	ID    int
	Score float32
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

// sqNorm is a dense vector's squared norm, summed in coordinate order.
func sqNorm(v []float32) float64 {
	var n float64
	for _, x := range v {
		n += float64(x) * float64(x)
	}
	return n
}

// score is the cosine similarity of the dense query q, whose squared norm
// is qn, to stored vector i: the products over i's nonzeros are summed in
// ascending coordinate order.
func (s *store) score(q []float32, qn float64, i int) float32 {
	lo, hi := s.offs[i], s.offs[i+1]
	coords, vals := s.coords[lo:hi], s.vals[lo:hi]
	var dot float64
	for j, c := range coords {
		dot += float64(q[c]) * float64(vals[j])
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
	dim  int
	ids  []int
	rows store
}

// NewFlat creates an exact index of the given dimension, ranked by metric,
// which is Cosine.
func NewFlat(dim int, metric Metric) *Flat {
	return &Flat{dim: dim}
}

// Add stores a copy of vec's nonzeros under id, so the caller may reuse
// vec. Ids need not be dense or ordered.
func (f *Flat) Add(id int, vec []float32) error {
	if len(vec) != f.dim {
		return fmt.Errorf("%w: got %d, index dim %d", ErrDimension, len(vec), f.dim)
	}
	f.ids = append(f.ids, id)
	f.rows.add(vec)
	return nil
}

// Len reports the number of stored vectors.
func (f *Flat) Len() int { return len(f.ids) }

// Search returns the k stored vectors most similar to query, best first.
func (f *Flat) Search(query []float32, k int) ([]Hit, error) {
	if len(query) != f.dim {
		return nil, fmt.Errorf("%w: query %d, index dim %d", ErrDimension, len(query), f.dim)
	}
	if k <= 0 {
		return nil, nil
	}
	t, qn := make(topK, 0, k), sqNorm(query)
	for i, id := range f.ids {
		t.offer(id, f.rows.score(query, qn, i))
	}
	return t.sorted(), nil
}
