package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDocs(t *testing.T, name string, docs ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(strings.Join(docs, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// doc renders a one-workload document from name=value pairs.
func doc(workload string, metrics map[string]float64) string {
	res := &result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}
	for name, v := range metrics {
		res.Metrics[name] = metric{Value: v, Unit: "x"}
	}
	b, err := json.Marshal(document{Workloads: map[string]*result{workload: res}})
	if err != nil {
		panic(err)
	}
	return string(b)
}

func TestCompare(t *testing.T) {
	base := map[string]float64{"allocs_per_op": 100, "live_heap_mb": 10, "core.rag.exact_match": 0.5, "p50_ms": 8}
	with := func(name string, v float64) map[string]float64 {
		m := map[string]float64{}
		for k, b := range base {
			m[k] = b
		}
		m[name] = v
		return m
	}
	without := func(name string) map[string]float64 {
		m := with(name, 0)
		delete(m, name)
		return m
	}
	docs := func(ms ...map[string]float64) []string {
		var out []string
		for _, m := range ms {
			out = append(out, doc("w", m))
		}
		return out
	}
	cases := []struct {
		name      string
		base, cur []string
		regressed bool
		wantRow   string
	}{
		{"same", docs(base), docs(base), false, "ok: bound 0.06"},
		{"worse but within its bound", docs(base), docs(with("allocs_per_op", 105)), false, "1.0500  ok: bound 0.06"},
		{"lower-is-better past its bound", docs(base), docs(with("allocs_per_op", 107)), true, "1.0700  REGRESSION: bound 0.06"},
		{"higher-is-better exact count moved down", docs(base), docs(with("core.rag.exact_match", 0.49)), true, "REGRESSION: bound 0.00"},
		{"better is never a regression", docs(base), docs(with("core.rag.exact_match", 0.6)), false, "1.2000  ok: bound 0.00"},
		{"an ungated metric may move freely", docs(base), docs(with("p50_ms", 80)), false, "10.0000  ungated"},
		{"gated metric missing from the new side", docs(base), docs(without("live_heap_mb")), true, "REGRESSION: missing on one side"},
		{"gated metric missing from the base side", docs(without("live_heap_mb")), docs(base), true, "REGRESSION: missing on one side"},
		{"ungated metric missing from one side", docs(without("p50_ms")), docs(base), false, "-  missing on one side"},
		{"zero on both sides is not a row", docs(with("space_amp", 0)), docs(with("space_amp", 0)), false, "ok: bound 0.06"},
		{"medians over a set of runs", docs(base, base, base),
			docs(with("allocs_per_op", 100), with("allocs_per_op", 300), with("allocs_per_op", 103)), false, "1.0300  ok"},
	}
	for _, c := range cases {
		var out strings.Builder
		regressed, err := compareFiles(&out, writeDocs(t, "base.json", c.base...), writeDocs(t, "new.json", c.cur...))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if regressed != c.regressed || !strings.Contains(out.String(), c.wantRow) || strings.Contains(out.String(), "space_amp") {
			t.Errorf("%s: regressed=%v, want %v and a row with %q:\n%s", c.name, regressed, c.regressed, c.wantRow, out.String())
		}
	}
	if _, err := compareFiles(&strings.Builder{}, writeDocs(t, "empty.json"), writeDocs(t, "new.json", doc("w", base))); err == nil {
		t.Error("an empty file compared without error")
	}
}
