package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// Req; Parent is the span that caused this one (-1 at the top). Times are
// nanoseconds since the recorder was created.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing switched off: begin and end do nothing. Each client owns one
// recorder; the mutex is for LM spans, which the Model contract allows
// from any goroutine.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder(t0 time.Time) *recorder { return &recorder{t0: t0} }

const noSpan = int32(-1)

func (r *recorder) begin(name string, parent, req int32) int32 {
	if r == nil {
		return noSpan
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// spanSet is every recorder of a run, one per client.
type spanSet []*recorder

// durations returns the length in microseconds of every span with the
// given name.
func (s spanSet) durations(name string) []float64 {
	var out []float64
	for _, r := range s {
		for i := range r.spans {
			if r.spans[i].Name == name {
				out = append(out, float64(r.spans[i].End-r.spans[i].Start)/1e3)
			}
		}
	}
	return out
}

// p50 is the median length in microseconds of the spans with the given
// name.
func (s spanSet) p50(name string) float64 { return median(s.durations(name)) }

// total sums the length in microseconds of the spans keep accepts.
func (s spanSet) total(keep func(name string) bool) float64 {
	var sum float64
	for _, r := range s {
		for i := range r.spans {
			if keep(r.spans[i].Name) {
				sum += float64(r.spans[i].End-r.spans[i].Start) / 1e3
			}
		}
	}
	return sum
}

// p50p99 writes <prefix>_p50_us and <prefix>_p99_us for a span name and
// notes which percentile the tail really is.
func (s spanSet) p50p99(m measured, tails map[string]tailNote, spanName, prefix string) {
	d := s.durations(spanName)
	pct := tailPct(len(d))
	m[prefix+"_p50_us"] = median(d)
	m[prefix+"_p99_us"] = percentile(d, pct)
	tails[prefix+"_p99_us"] = tailNote{Percentile: pct, Samples: len(d)}
}

// tailNote states, for a "_p99" metric, the percentile actually reported
// and the sample count behind it.
type tailNote struct {
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

// traceFile is what perf/out/trace-<workload>.json holds. A layer's self
// time is its span's length minus its children's (spans naming it as
// Parent); SelfUS has that sum per span name.
type traceFile struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Tails    map[string]tailNote `json:"tails"`
	SelfUS   map[string]float64  `json:"self_us_by_name"`
	Clients  [][]span            `json:"spans_by_client"`
}

func (s spanSet) selfTimes() map[string]float64 {
	self := make(map[string]float64)
	for _, r := range s {
		child := make([]int64, len(r.spans))
		for i := range r.spans {
			if p := r.spans[i].Parent; p >= 0 {
				child[p] += r.spans[i].End - r.spans[i].Start
			}
		}
		for i := range r.spans {
			self[r.spans[i].Name] += float64(r.spans[i].End-r.spans[i].Start-child[i]) / 1e3
		}
	}
	return self
}

func (s spanSet) write(dir, workload string, seed int64, tails map[string]tailNote) error {
	tf := traceFile{Workload: workload, Seed: seed, Tails: tails, SelfUS: s.selfTimes()}
	for _, r := range s {
		tf.Clients = append(tf.Clients, r.spans)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
