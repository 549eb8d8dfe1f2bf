package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// toyConfig is a run at toy size that emits what the benchmark contract
// asks of a run with that -trace value.
func toyConfig(t *testing.T, trace bool) config {
	cfg := config{Seed: 3, Seconds: 0.02, Trace: trace, Setups: 1, OutDir: t.TempDir(), Size: toySize, Emit: []metricClass{classE2E}}
	if trace {
		cfg.Emit = []metricClass{classUser, classLayer}
	}
	return cfg
}

// TestSmoke runs all four workloads at toy size, untraced and traced, and
// checks that each prints exactly the declared metrics, finite and in
// their declared units, with no failed op. It calls every engine entry
// point the benchmark uses, so a change to that surface breaks the
// benchmark here, at compile time, and not silently.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w, toyConfig(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := 0
			for _, d := range metricDefs {
				if (d.Class == classE2E) == trace {
					continue
				}
				want++
				got, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s not emitted", w.Name, trace, d.Name)
					continue
				}
				if got.Unit != d.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v %q, want a finite value in %q", w.Name, trace, d.Name, got.Value, got.Unit, d.Unit)
				}
				if d.Class == classE2E && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, got.Value)
				}
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), want)
			}
			if trace {
				if v := res.Metrics["failed_ops_share"].Value; v != 0 {
					t.Errorf("%s: failed_ops_share = %v", w.Name, v)
				}
				checkLayerFacts(t, w.Name, res.Metrics)
			}
		}
	}
}

// checkLayerFacts pins the per-layer numbers that are counts, not times.
func checkLayerFacts(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	switch workload {
	case "analytics_scan":
		// One client: every pass must count the same, so per-pass means are whole.
		for _, name := range []string{"sqldb.decoded_blocks_per_pass", "sqldb.segment_scans_per_pass", "sqldb.vector_batches_per_pass", "sqldb.row_fallbacks_per_pass"} {
			if v := m[name].Value; v != math.Trunc(v) {
				t.Errorf("%s = %v: passes counted differently", name, v)
			}
		}
		if m["sqldb.segment_scans_per_pass"].Value == 0 {
			t.Error("analytics_scan read no sealed segment: the table is below the seal gate")
		}
	case "wire_serving":
		if m["pgwire.leaked_sessions"].Value != 0 || m["pgwire.live_snapshots_after"].Value != 0 {
			t.Errorf("server kept %v sessions, %v snapshots", m["pgwire.leaked_sessions"].Value, m["pgwire.live_snapshots_after"].Value)
		}
	case "oltp_durable":
		if m["sqldb.wal.bytes_per_commit"].Value == 0 || m["space_amp"].Value < 1 {
			t.Errorf("bytes_per_commit = %v, space_amp = %v", m["sqldb.wal.bytes_per_commit"].Value, m["space_amp"].Value)
		}
	}
}

// TestTable1 runs one full round of tagbench_methods and checks the five
// Table 1 rows against BENCH_6.json.
func TestTable1(t *testing.T) {
	cfg := toyConfig(t, false)
	cfg.Size.QuestionStride = 1
	st, err := setupTagbench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := st.(*tagState).last
	want := []struct{ exact, simS float64 }{{0.1667, 1.907}, {0.0167, 1.616}, {0.0333, 3.392}, {0.1167, 4.375}, {0.5833, 2.599}}
	for i, w := range want {
		if math.Abs(f.exact[i]-w.exact) > 5e-5 || math.Abs(f.simS[i]-w.simS) > 5e-4 {
			t.Errorf("%s: exact_match %.4f sim_et_s %.3f, want %.4f %.3f", methodKeys[i], f.exact[i], f.simS[i], w.exact, w.simS)
		}
	}
}

// TestOraclesCanFail hands each workload's oracle one wrong expectation
// and checks the op is counted failed, all the way into the result.
func TestOraclesCanFail(t *testing.T) {
	tamper := map[string]func(state){
		"tagbench_methods": func(st state) { st.(*tagState).ref[0][0] += "x" },
		"analytics_scan": func(st state) {
			s := st.(*scanState)
			s.data.cents[0] += 12345 // the oracles now expect a row the table does not hold
			s.stmts = s.data.statements()
		},
		"oltp_durable": func(st state) {
			for _, c := range st.(*oltpState).clients {
				for id := range c.bal {
					c.bal[id]++ // the ledger now claims a write the database never saw
				}
			}
		},
		"wire_serving": func(st state) {
			s := st.(*wireState)
			for i := range s.simple {
				s.simple[i].want = s.fetch[0].want
			}
		},
	}
	for _, w := range workloads {
		inner := w.setup
		w.setup = func(cfg config) (state, error) {
			st, err := inner(cfg)
			if err == nil {
				tamper[w.Name](st)
			}
			return st, err
		}
		res, err := runWorkload(w, toyConfig(t, true))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Correct || res.Failed == 0 || res.Metrics["failed_ops_share"].Value <= 0 {
			t.Errorf("%s: a wrong expectation went unnoticed: correct=%v failed=%d share=%v",
				w.Name, res.Correct, res.Failed, res.Metrics["failed_ops_share"].Value)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric table in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []decl   `json:"workloads"`
		EndToEnd   []decl   `json:"end_to_end"`
		PerLayer   []decl   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"perf"}) || !reflect.DeepEqual(bj.Command, []string{"go", "run", "./perf"}) {
		t.Errorf("command %v, paths %v", bj.Command, bj.Paths)
	}
	var names []string
	for i, w := range bj.Workloads {
		names = append(names, w.Name)
		if i < len(workloads) && w.Why != workloads[i].Why {
			t.Errorf("workload %s: why differs from the runner's", w.Name)
		}
	}
	var wantNames []string
	for _, w := range workloads {
		wantNames = append(wantNames, w.Name)
	}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("workloads %v, want %v", names, wantNames)
	}
	var e2e, layer []metricDef
	for _, d := range metricDefs {
		if d.Class == classE2E {
			e2e = append(e2e, d)
		} else {
			layer = append(layer, d)
		}
	}
	if len(layer) > 128 {
		t.Errorf("%d per-layer metrics; the contract allows 128", len(layer))
	}
	check := func(kind string, got []decl, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared in BENCHMARK.json, %d in the table", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: %+v, want %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if d.Class == classE2E && (g.Bound == nil || *g.Bound != d.Bound) {
				t.Errorf("%s: bound differs from the table's %v", d.Name, d.Bound)
			}
			if d.Class != classE2E && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2e)
	check("per_layer", bj.PerLayer, layer)
}
