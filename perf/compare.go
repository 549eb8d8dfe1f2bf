package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// readDocuments reads a file holding one or more documents, one after the
// other (append a document per run to build a set of runs), and returns
// every value by workload and metric.
func readDocuments(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	vals := make(map[string]map[string][]float64)
	dec := json.NewDecoder(f)
	for n := 0; ; n++ {
		var doc document
		if err := dec.Decode(&doc); errors.Is(err, io.EOF) && n > 0 {
			return vals, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: document %d: %w", path, n+1, err)
		}
		for w, res := range doc.Workloads {
			if vals[w] == nil {
				vals[w] = make(map[string][]float64)
			}
			for name, v := range res.Metrics {
				vals[w][name] = append(vals[w][name], v.Value)
			}
		}
	}
}

// compareFiles prints one row per (workload, metric) found on either side
// and not 0 on both — the median of each side and new/base — and reports
// whether any gated metric got worse by more than its bound. A gated
// metric missing from one side is a regression: a number that stopped
// being reported cannot be shown not to have moved.
func compareFiles(w io.Writer, basePath, newPath string) (regressed bool, err error) {
	base, err := readDocuments(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readDocuments(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-17s %-38s %14s %14s %9s  %s\n", "workload", "metric", "base", "new", "new/base", "verdict")
	for _, wl := range sortedKeys(base, cur) {
		for _, name := range sortedKeys(base[wl], cur[wl]) {
			b, hasB := base[wl][name]
			c, hasC := cur[wl][name]
			if hasB && hasC && median(b) == 0 && median(c) == 0 {
				continue // a layer this workload never enters
			}
			def, _ := metricByName(name)
			gated := def.Name != "" && def.Bound >= 0
			verdict := "ungated"
			switch {
			case !hasB || !hasC:
				verdict = "missing on one side"
				if gated {
					verdict = "REGRESSION: missing on one side"
					regressed = true
				}
				fmt.Fprintf(w, "%-17s %-38s %14s %14s %9s  %s\n", wl, name, cell(b, hasB), cell(c, hasC), "-", verdict)
				continue
			case gated && worse(def, median(b), median(c)):
				verdict = fmt.Sprintf("REGRESSION: bound %.2f", def.Bound)
				regressed = true
			case gated:
				verdict = fmt.Sprintf("ok: bound %.2f", def.Bound)
			}
			fmt.Fprintf(w, "%-17s %-38s %14.6g %14.6g %9.4f  %s\n", wl, name, median(b), median(c), ratio(median(c), median(b)), verdict)
		}
	}
	return regressed, nil
}

// worse applies a metric's direction and bound: the bound is a share of
// the base value.
func worse(def metricDef, base, cur float64) bool {
	if def.Better == "higher" {
		return cur < base*(1-def.Bound)
	}
	return cur > base*(1+def.Bound)
}

func cell(xs []float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.6g", median(xs))
}

func sortedKeys[V any](a, b map[string]V) []string {
	seen := make(map[string]bool)
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
