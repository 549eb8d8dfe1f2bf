package main

import (
	"math"
	"slices"
	"sort"
)

// metricDef declares one metric: the name and unit it is printed under,
// which direction is better, and the share of the base value by which it
// may worsen before -compare calls it a regression (negative = reported,
// never gated). BENCHMARK.json lists the same names and units; the smoke
// test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Class  metricClass
}

// metricClass says when a metric is measured. BENCHMARK.json knows two
// kinds: end_to_end is classE2E, per_layer is classUser and classLayer
// together.
type metricClass int

const (
	// classE2E: gated by the benchmark driver; measured with tracing off,
	// defined the same way on every workload, never 0.
	classE2E metricClass = iota
	// classUser: a number a user sees that cannot be classE2E (one
	// workload only, or a wall time this host cannot hold steady). Measured
	// the same way whether tracing is on or off.
	classUser
	// classLayer: needs spans or probes; traced runs only.
	classLayer
)

const ungated = -1

// methodKeys name the seven tagbench_methods methods in run order: the
// five Table 1 methods, then the auto-syn pipeline without and with LM
// UDFs.
var methodKeys = []string{
	"text2sql", "rag", "retrieval_lm_rank", "text2sql_lm",
	"handwritten_tag", "tag_auto", "tag_udf",
}

// scanStmtKeys name the eight analytics_scan statements in pass order.
var scanStmtKeys = []string{
	"scan_project", "filter_count", "global_agg", "groupby_low",
	"groupby_high", "join_agg_topk", "orderby_limit", "case_fallback",
}

// oltpClasses and wireClasses name the op classes of the two mixed
// workloads; the bool marks classes that write.
var oltpClasses = []opClass{
	{"read_lit", false, 40}, {"read_param", false, 10}, {"range", false, 10},
	{"update", true, 20}, {"insert", true, 10}, {"delete", true, 5}, {"txn2", true, 5},
}

var wireClasses = []opClass{
	{"simple_lookup", false, 40}, {"ext_lookup", false, 15}, {"tag_sql", false, 15},
	{"fetch1k", false, 10}, {"txn_write", true, 20},
}

// opClass is one op kind of a mix with its share in percent; a round of
// 100 ops holds exactly Share ops of the class, so the mix never drifts
// with the seed.
type opClass struct {
	Name  string
	Write bool
	Share int
}

// metricDefs is every metric the benchmark prints. A metric of a layer a
// workload never enters reads 0 there.
var metricDefs = buildMetricDefs()

func buildMetricDefs() []metricDef {
	defs := []metricDef{
		{"setup_s", "s", "lower", 0.25, classE2E},
		{"allocs_per_op", "count", "lower", 0.06, classE2E},
		{"bytes_per_op", "B", "lower", 0.03, classE2E},
		{"live_heap_mb", "MB", "lower", 0.05, classE2E},
	}
	class := classUser
	add := func(name, unit, better string, bound float64) {
		defs = append(defs, metricDef{name, unit, better, bound, class})
	}
	lower := func(unit string, names ...string) {
		for _, n := range names {
			add(n, unit, "lower", ungated)
		}
	}
	higher := func(unit string, names ...string) {
		for _, n := range names {
			add(n, unit, "higher", ungated)
		}
	}

	// Wall times are not gated: between identical runs on the shared
	// two-core sizing host they moved by 9 to 40 % (README.md has the table).
	add("ops_per_s", "1/s", "higher", ungated)
	add("p50_ms", "ms", "lower", ungated)
	add("recovery_s", "s", "lower", ungated)
	// The exact ones (bound 0) are counts the simulated LM and the fixed 80
	// questions make identical on every run.
	add("failed_ops_share", "1", "lower", 0)
	add("exact_match_mean", "1", "higher", 0)
	add("lm_tokens_per_answer", "count", "lower", 0)
	add("space_amp", "1", "lower", 0.05)
	for _, m := range methodKeys {
		add("core."+m+".exact_match", "1", "higher", 0)
		add("core."+m+".sim_et_s", "s", "lower", 0)
	}

	class = classLayer
	add("read_p50_ms", "ms", "lower", ungated)
	add("write_p50_ms", "ms", "lower", ungated)
	add("trace_overhead_share", "1", "lower", ungated)
	lower("s", "domains.build_s")
	higher("1/s", "domains.bulk_rows_per_s")
	lower("us", "nlq.parse_us", "llm.complete_us", "llm.prompt_build_us")
	lower("1", "llm.wall_share")
	lower("count", "llm.calls_per_answer", "llm.batch_calls_per_answer")
	higher("count", "llm.items_per_batch")
	lower("count", "llm.prompt_tokens_per_answer", "llm.output_tokens_per_answer", "llm.retries")
	lower("s", "llm.sim_s_per_call")
	lower("us", "embed.embed_us", "vector.search_us")
	lower("s", "core.rag_index_build_s")
	lower("us", "sem.filter_us_per_row", "sem.topk_us", "sem.agg_us")
	for _, m := range methodKeys {
		lower("us", "core."+m+".answer_p50_us", "core."+m+".answer_p99_us")
	}
	lower("1", "core.self_share")

	lower("us", "sqldb.parse_us")
	higher("1", "sqldb.plan_cache_hit_ratio")
	lower("us", "sqldb.exec.tag_sql_p50_us")
	for _, s := range scanStmtKeys {
		lower("ms", "sqldb.exec."+s+"_p50_ms")
	}
	lower("ms", "sqldb.exec.pass_ms_default", "sqldb.exec.pass_ms_workers1")
	higher("1", "sqldb.parallel_speedup")
	higher("1/s", "sqldb.rows_scanned_per_s")
	lower("1", "sqldb.rows_scanned_per_row_emitted", "sqldb.full_scan_share")
	higher("count", "sqldb.vector_batches_per_pass")
	lower("count", "sqldb.row_fallbacks_per_pass", "sqldb.decoded_blocks_per_pass")
	higher("count", "sqldb.segment_scans_per_pass")
	lower("1", "sqldb.tombstones_per_row_scanned")

	for _, c := range oltpClasses {
		lower("us", "sqldb.oltp."+c.Name+"_p50_us", "sqldb.oltp."+c.Name+"_p99_us")
	}
	lower("us", "sqldb.wal.commit_p50_us", "sqldb.wal.commit_p99_us")
	lower("B", "sqldb.wal.bytes_per_commit")
	higher("1", "sqldb.wal.group_commit_share")
	lower("count", "sqldb.wal.checkpoints")
	lower("s", "sqldb.wal.checkpoint_s", "sqldb.recovery.s_per_mb")
	lower("count", "sqldb.recovery.txns_replayed")
	lower("s", "sqldb.seal.s")
	higher("count", "sqldb.seal.segments")
	lower("count", "sqldb.vacuum.runs")
	higher("count", "sqldb.vacuum.reclaimed_per_write")
	lower("s", "sqldb.vacuum.explicit_s")
	lower("count", "sqldb.ordidx.maintains_per_write")

	for _, c := range wireClasses {
		lower("us", "pgwire."+c.Name+"_p50_us", "pgwire."+c.Name+"_p99_us")
	}
	lower("us", "pgwire.tax_lookup_us", "pgwire.tax_tag_sql_us", "pgwire.tax_fetch1k_us")
	higher("1/s", "pgwire.fetch_rows_per_s")
	lower("us", "pgwire.conn_setup_us")
	lower("count", "pgwire.leaked_sessions", "pgwire.live_snapshots_after")
	return defs
}

func metricByName(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload prints, in the shape the
// benchmark contract fixes.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measured collects raw values by metric name during a run; emit filters
// them down to the declared set.
type measured map[string]float64

// emit renders the declared metrics of the given classes. A metric whose
// layer the workload never entered reads 0; an end-to-end metric that is
// missing, or any value that is not a finite number, is a harness bug and
// is reported as one.
func (m measured) emit(classes ...metricClass) (map[string]metric, []string) {
	out := make(map[string]metric)
	var bad []string
	for _, d := range metricDefs {
		if !slices.Contains(classes, d.Class) {
			continue
		}
		v, ok := m[d.Name]
		if (!ok && d.Class == classE2E) || math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, d.Name)
			continue
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, bad
}

// ratio is a/b, or 0 when the base is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the p-quantile (0..1) of xs by nearest rank; xs is
// sorted in place. An empty sample reads 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailPct is the percentile a "_p99" metric really reports for n samples:
// p99, or the highest percentile that still has ten samples beyond it.
func tailPct(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}
