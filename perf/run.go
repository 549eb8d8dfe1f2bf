package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"time"

	"tag/internal/sqldb"
)

// sizes are the table sizes and round lengths of one run. fullSize is what
// BENCHMARK.json measures; the smoke test runs toySize, which keeps every
// table above the engine's 4,096-row parallel/vector/seal gates.
type sizes struct {
	Items          int // analytics_scan items rows (cats = Items/10)
	Acct           int // oltp_durable acct rows
	WireItems      int // wire_serving items rows
	FetchRows      int // rows per wire range fetch
	QuestionStride int // tagbench_methods runs every n-th of the 80 questions
	RoundOps       int // ops per client round in the two mixed workloads
}

var (
	fullSize = sizes{Items: 262144, Acct: 20000, WireItems: 20000, FetchRows: 1000, QuestionStride: 1, RoundOps: 100}
	toySize  = sizes{Items: 8192, Acct: 8192, WireItems: 8192, FetchRows: 100, QuestionStride: 16, RoundOps: 20}
)

// config is one run's settings.
type config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Set-up is repeated at least Setups times and until SetupSeconds have
	// gone into it; setup_s is the median. The quick set-ups (60 ms for
	// oltp_durable) jitter by a quarter from one repetition to the next,
	// so they need many.
	Setups       int
	SetupSeconds float64
	Emit         []metricClass
	OutDir       string // trace files and the oltp data directory live here
	Size         sizes
}

// workloadDef names a workload, why it exists, and how many closed-loop
// clients drive it.
type workloadDef struct {
	Name    string
	Why     string
	Clients int
	setup   func(cfg config) (state, error)
}

// state is a workload after set-up.
type state interface {
	// round runs round n for one client, every op checked against its
	// oracle, and returns ops attempted and ops failed. rec is nil when
	// the round is untraced.
	round(client int, rec *recorder, n int) (ops, failed int)
	// finish checks the end state (ops attempted and failed there are
	// returned) and, on a traced run, adds the per-layer metrics.
	finish(cfg config, out *layerOut) (attempted, failed int, err error)
	close()
}

// layerOut is where finish puts per-layer results.
type layerOut struct {
	m     measured
	spans spanSet
	tails map[string]tailNote
	// probe records spans for work finish does after the timed loop
	// (replays, paired wire/in-process passes, direct layer calls).
	probe *recorder
	wall  time.Duration // length of the timed loop
}

var workloads = []workloadDef{
	{"tagbench_methods", "the paper's workload: 7 methods x 80 TAG-Bench questions; llm, nlq, core, embed/vector and sem do the work and every table is below the engine's size gates", 1, setupTagbench},
	{"analytics_scan", "8 scan/filter/group/join/sort statements over 262,144 sealed rows at the default worker pool; sqldb.exec does all the work and llm none", 1, setupScan},
	{"oltp_durable", "2 clients mixing point reads, range counts, updates, inserts, deletes and transactions on a durable database with fsync per commit; then close, reopen, verify", 2, setupOLTP},
	{"wire_serving", "2 connections to an in-process pgwire server mixing simple and extended lookups, replayed TAG SQL, 1,000-row fetches and write transactions; framing and session handling dominate", 2, setupWire},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

type roundSample struct {
	wall   time.Duration
	ops    int
	failed int
	traced bool
}

// runWorkload sets a workload up, drives it for cfg.Seconds of whole
// rounds and returns its result with the metrics of the classes cfg.Emit
// names. On a traced run odd rounds record spans and even rounds do not, so
// both rates come from one run and their difference is the tracing
// overhead; ops_per_s and p50_ms always come from the untraced rounds.
func runWorkload(w workloadDef, cfg config) (*result, error) {
	if w.Clients > runtime.NumCPU() {
		return nil, fmt.Errorf("%s drives %d clients but the host has %d CPUs", w.Name, w.Clients, runtime.NumCPU())
	}
	var st state
	var setupS []float64
	for spent := 0.0; len(setupS) < cfg.Setups || spent < cfg.SetupSeconds; spent += setupS[len(setupS)-1] {
		if st != nil {
			// Drop the previous state now, so that collecting it is not
			// charged to the next set-up.
			st.close()
			st = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if st, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer st.close()

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)

	minRounds := 1
	if cfg.Trace {
		minRounds = 2
	}
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.Seconds * float64(time.Second)))
	spans := make(spanSet, w.Clients)
	samples := make([][]roundSample, w.Clients)
	var wg sync.WaitGroup
	for c := 0; c < w.Clients; c++ {
		spans[c] = newRecorder(start)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < minRounds || time.Now().Before(deadline); n++ {
				var rec *recorder
				if cfg.Trace && n%2 == 1 {
					rec = spans[c]
				}
				t0 := time.Now()
				ops, failed := st.round(c, rec, n)
				samples[c] = append(samples[c], roundSample{time.Since(t0), ops, failed, rec != nil})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)

	m := measured{}
	var ops, failed int
	var perOpMS []float64
	var rate [2]struct{ ops, secs float64 } // [untraced, traced]
	for _, cs := range samples {
		for _, s := range cs {
			ops += s.ops
			failed += s.failed
			k := 0
			if s.traced {
				k = 1
			} else {
				perOpMS = append(perOpMS, s.wall.Seconds()*1e3/float64(s.ops))
			}
			rate[k].ops += float64(s.ops)
			rate[k].secs += s.wall.Seconds()
		}
	}
	m["setup_s"] = median(setupS)
	m["allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
	m["bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ops)
	m["live_heap_mb"] = float64(ms0.HeapAlloc) / (1 << 20)
	// Each client is busy for the whole of its rounds, so the clients'
	// rates add up.
	m["ops_per_s"] = float64(w.Clients) * rate[0].ops / rate[0].secs
	m["p50_ms"] = median(perOpMS)
	if cfg.Trace {
		m["trace_overhead_share"] = 1 - ratio(rate[1].ops/rate[1].secs, rate[0].ops/rate[0].secs)
	}

	out := &layerOut{m: m, spans: spans, tails: map[string]tailNote{}, wall: wall}
	if cfg.Trace {
		out.probe = newRecorder(start)
		out.spans = append(out.spans, out.probe)
	}
	endOps, endFailed, err := st.finish(cfg, out)
	if err != nil {
		return nil, fmt.Errorf("%s verification: %w", w.Name, err)
	}
	attempted := ops + endOps
	failed += endFailed
	m["failed_ops_share"] = float64(failed) / float64(attempted)

	if cfg.Trace {
		if err := out.spans.write(cfg.OutDir, w.Name, cfg.Seed, out.tails); err != nil {
			return nil, err
		}
	}
	metrics, bad := m.emit(cfg.Emit...)
	if len(bad) > 0 {
		return nil, fmt.Errorf("%s: metrics missing or not finite: %v", w.Name, bad)
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// timeSpan runs f under a top-level span and returns how long it took.
func timeSpan(rec *recorder, name string, f func()) time.Duration {
	id := rec.begin(name, noSpan, noSpan)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	rec.end(id)
	return d
}

// mixOrder lays out one round of a mix: each class appears
// share*roundOps/100 times.
func mixOrder(classes []opClass, roundOps int) []int {
	var order []int
	for ci, c := range classes {
		for i := 0; i < c.Share*roundOps/100; i++ {
			order = append(order, ci)
		}
	}
	return order
}

// mixRound runs round n of a mix for one client: the ops of order in a
// fresh shuffle, each under a span named after its class. op reports
// whether the op passed its oracle.
func mixRound(rng *rand.Rand, order []int, classes []opClass, spanPrefix string, rec *recorder, n int, op func(ci int, span, req int32) bool) (ops, failed int) {
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for i, ci := range order {
		req, name := int32(n*len(order)+i), ""
		if rec != nil { // no string built per op with tracing off
			name = spanPrefix + classes[ci].Name
		}
		id := rec.begin(name, noSpan, req)
		ok := op(ci, id, req)
		rec.end(id)
		ops++
		if !ok {
			failed++
		}
	}
	return ops, failed
}

// statsCombine returns a + sign*b over every counter of sqldb.Stats.
func statsCombine(a, b sqldb.Stats, sign int) sqldb.Stats {
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		switch av.Field(i).Kind() {
		case reflect.Uint64:
			av.Field(i).SetUint(av.Field(i).Uint() + uint64(sign)*bv.Field(i).Uint())
		case reflect.Int64:
			av.Field(i).SetInt(av.Field(i).Int() + int64(sign)*bv.Field(i).Int())
		}
	}
	return a
}

// engineMetrics derives the sqldb counters every workload shares from a
// Stats delta over the timed loop.
func engineMetrics(m measured, d sqldb.Stats, wall time.Duration) {
	f := func(u uint64) float64 { return float64(u) }
	m["sqldb.rows_scanned_per_s"] = f(d.RowsScanned) / wall.Seconds()
	m["sqldb.rows_scanned_per_row_emitted"] = ratio(f(d.RowsScanned), f(d.RowsEmitted))
	m["sqldb.full_scan_share"] = ratio(f(d.FullScans), f(d.FullScans+d.IndexScans+d.IndexRangeScans))
	m["sqldb.tombstones_per_row_scanned"] = ratio(f(d.TombstonesSkipped), f(d.RowsScanned))
	m["sqldb.plan_cache_hit_ratio"] = ratio(f(d.PlanCacheHits), f(d.PlanCacheHits+d.PlanCacheMisses))
	m["sqldb.vacuum.runs"] = f(d.VacuumRuns)
	m["sqldb.vacuum.reclaimed_per_write"] = ratio(f(d.VersionsReclaimed), f(d.Execs))
	m["sqldb.ordidx.maintains_per_write"] = ratio(f(d.OrdMaintains), f(d.Execs))
	m["sqldb.wal.bytes_per_commit"] = ratio(f(d.WALBytes), f(d.WALAppends))
	m["sqldb.wal.group_commit_share"] = ratio(f(d.WALGroupCommits), f(d.WALAppends))
	m["sqldb.wal.checkpoints"] = f(d.Checkpoints)
}
