package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"tag/internal/core"
	"tag/internal/llm"
)

// TestAutomaticRows: -table 1, -table 2 and -coverage each report seven
// methods, the paper's five and then the two automatic TAG pipelines (the
// perf keys tag_auto and tag_udf), and Table 2 and the coverage summary of
// that report carry a row for each of the two.
func TestAutomaticRows(t *testing.T) {
	profile := llm.DefaultProfile()
	for _, c := range []struct {
		table    int
		coverage bool
	}{{1, false}, {2, false}, {0, true}} {
		if n := len(methods(profile, c.table, c.coverage)); n != 7 {
			t.Errorf("-table %d -coverage=%t: %d methods, want 7", c.table, c.coverage, n)
		}
	}
	envs, err := core.BuildEnvs()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.RunBenchmark(context.Background(), envs, methods(profile, 2, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{"Table 2": rep.Table2(), "coverage summary": rep.CoverageSummary()} {
		for _, m := range []string{"TAG (auto-syn)", "TAG (auto-syn, UDFs)"} {
			if !strings.Contains(out, fmt.Sprintf("%-22s ", m)) {
				t.Errorf("%s has no %q row:\n%s", name, m, out)
			}
		}
	}
}
