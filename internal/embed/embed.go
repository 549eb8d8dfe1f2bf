// Package embed provides the deterministic text-embedding model that
// stands in for the E5-base encoder in the TAG paper's RAG baseline.
//
// The embedder hashes unigram and bigram features into a fixed-dimension
// vector with sublinear term weighting and L2 normalisation. Like a real
// sentence encoder, it maps lexically/thematically similar strings to
// nearby vectors; unlike one, it is exactly reproducible and dependency-
// free. The RAG baseline only needs "retrieves rows sharing salient terms
// with the query", which this preserves.
package embed

import (
	"math"
	"strings"
	"sync"
	"unicode"
)

// DefaultDim is the embedding dimensionality (E5-base uses 768; 256 keeps
// the flat index fast at benchmark scale with the same behaviour).
const DefaultDim = 256

// Embedder converts text to fixed-dimension unit vectors.
type Embedder struct {
	dim int
}

// New returns an embedder with the given dimension (<=0 selects
// DefaultDim).
func New(dim int) *Embedder {
	if dim <= 0 {
		dim = DefaultDim
	}
	return &Embedder{dim: dim}
}

// Dim reports the embedding dimension.
func (e *Embedder) Dim() int { return e.dim }

// stopwords are excluded from features; they carry no retrieval signal.
var stopwords = map[string]bool{
	"the": true, "a": true, "an": true, "of": true, "in": true, "on": true,
	"is": true, "are": true, "and": true, "or": true, "to": true, "it": true,
	"that": true, "this": true, "with": true, "for": true, "at": true,
	"be": true, "by": true, "as": true, "was": true, "were": true,
}

// tokens calls fn on each alphanumeric, non-stopword token of the
// lower-cased text, in order. A token is a substring of the lower-cased
// text, so tokenizing allocates nothing beyond strings.ToLower's copy.
func tokens(text string, fn func(tok string)) {
	s := strings.ToLower(text)
	start := -1
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 && !stopwords[s[start:i]] {
			fn(s[start:i])
		}
		start = -1
	}
	if start >= 0 && !stopwords[s[start:]] {
		fn(s[start:])
	}
}

// FNV-1a 64-bit parameters (hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvFeature is FNV-1a over a feature's text: the token, or for a bigram
// tok+"_"+next, read in place without building the joined string.
func fnvFeature(tok, next string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(tok); i++ {
		h = (h ^ uint64(tok[i])) * fnvPrime64
	}
	if next != "" {
		h = (h ^ '_') * fnvPrime64
		for i := 0; i < len(next); i++ {
			h = (h ^ uint64(next[i])) * fnvPrime64
		}
	}
	return h
}

// featKey is one feature: a unigram (next == "") or the bigram tok_next.
// Tokens hold no '_', so the two kinds never share a text.
type featKey struct{ tok, next string }

// featureCounts counts a text's features in first-seen order; pos finds
// a feature's place in list. One is reused across Embed calls.
type featureCounts struct {
	pos  map[featKey]int
	list []featureCount
}

type featureCount struct {
	featKey
	n int
}

func (fc *featureCounts) add(k featKey) {
	if i, ok := fc.pos[k]; ok {
		fc.list[i].n++
		return
	}
	fc.pos[k] = len(fc.list)
	fc.list = append(fc.list, featureCount{featKey: k, n: 1})
}

var countsPool = sync.Pool{New: func() any {
	return &featureCounts{pos: make(map[featKey]int)}
}}

// Embed returns the L2-normalised embedding of the text. Empty or
// stopword-only text embeds to the zero vector. Features are added in the
// order they first appear, so the float32 sums, and the result, are the
// same bits on every call.
func (e *Embedder) Embed(text string) []float32 {
	fc := countsPool.Get().(*featureCounts)
	prev := ""
	tokens(text, func(t string) {
		if prev != "" {
			fc.add(featKey{prev, t})
		}
		fc.add(featKey{t, ""})
		prev = t
	})
	vec := make([]float32, e.dim)
	for _, f := range fc.list {
		h := fnvFeature(f.tok, f.next)
		sign := float32(1)
		if h>>63 == 1 {
			sign = -1
		}
		// Sublinear TF; bigrams get extra weight (they are more specific).
		w := float32(1 + math.Log(float64(f.n)))
		if f.next != "" {
			w *= 1.5
		}
		vec[h%uint64(e.dim)] += sign * w
	}
	clear(fc.pos)
	clear(fc.list) // drop the tokens' references to text
	fc.list = fc.list[:0]
	countsPool.Put(fc)
	normalize(vec)
	return vec
}

// EmbedBatch embeds many texts.
func (e *Embedder) EmbedBatch(texts []string) [][]float32 {
	out := make([][]float32, len(texts))
	for i, t := range texts {
		out[i] = e.Embed(t)
	}
	return out
}

// normalize scales a vector to unit L2 norm in place (zero vectors are
// left as-is).
func normalize(v []float32) {
	var sum float64
	for _, x := range v {
		sum += float64(x) * float64(x)
	}
	if sum == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(sum))
	for i := range v {
		v[i] *= inv
	}
}

// Cosine computes cosine similarity between two vectors of equal length.
// For unit vectors this equals the dot product.
func Cosine(a, b []float32) float32 {
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return float32(dot / math.Sqrt(na*nb))
}
