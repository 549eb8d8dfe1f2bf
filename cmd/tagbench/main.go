// Command tagbench regenerates the TAG paper's evaluation artefacts:
//
//	tagbench -table 1      Table 1 (accuracy + ET, overall and per type)
//	tagbench -table 2      Table 2 (accuracy + ET, knowledge vs reasoning)
//	tagbench -figure 2     Figure 2 (qualitative aggregation comparison)
//	tagbench -coverage     aggregation fact-coverage extension
//	tagbench -queries      list the 80 benchmark queries
//	tagbench -explain ID   print the hand-written TAG pipeline for a query
//	tagbench -outcomes     per-query per-method outcomes (CSV)
//
// A table or the coverage summary asked for alone has, under the paper's
// five methods, a row for each of the two automatic TAG pipelines. With no
// flags it prints both tables of the five, the speedup line and Figure 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"tag/internal/core"
	"tag/internal/llm"
	"tag/internal/tagbench"
)

func main() {
	table := flag.Int("table", 0, "print Table 1 or Table 2 only")
	figure := flag.Int("figure", 0, "print Figure 2 only")
	coverage := flag.Bool("coverage", false, "print the aggregation coverage extension")
	listQueries := flag.Bool("queries", false, "list the 80 benchmark queries")
	explain := flag.String("explain", "", "print the hand-written TAG pipeline for a query id (e.g. RR-01)")
	outcomes := flag.Bool("outcomes", false, "print per-query outcomes as CSV")
	oracle := flag.Bool("oracle", false, "use the perfect-LM profile (ablation)")
	flag.Parse()

	if *listQueries {
		for _, q := range tagbench.Queries() {
			fmt.Printf("%-6s %-12s %-10s %s\n", q.ID, q.Spec.Type, q.Spec.Category, q.NL)
		}
		return
	}
	if *explain != "" {
		for _, q := range tagbench.Queries() {
			if q.ID == *explain {
				fmt.Printf("%s  (%s, %s)\n%s\n\n%s", q.ID, q.Spec.Type, q.Spec.Category, q.NL,
					core.PipelineFor(q.Spec))
				return
			}
		}
		fmt.Fprintf(os.Stderr, "tagbench: no query %q\n", *explain)
		os.Exit(1)
	}

	profile := llm.DefaultProfile()
	if *oracle {
		profile = llm.OracleProfile()
	}
	ctx := context.Background()
	envs, err := core.BuildEnvs()
	if err != nil {
		fatal(err)
	}

	if *figure == 2 {
		fig, err := core.Figure2(ctx, envs, profile)
		if err != nil {
			fatal(err)
		}
		fmt.Println(fig)
		return
	}

	rep, err := core.RunBenchmark(ctx, envs, methods(profile, *table, *coverage), nil)
	if err != nil {
		fatal(err)
	}
	rep.SortOutcomes()

	switch {
	case *outcomes:
		fmt.Println("query,method,type,category,correct,coverage,seconds,error")
		for _, o := range rep.Outcomes {
			errStr := ""
			if o.Err != nil {
				errStr = "error"
			}
			fmt.Printf("%s,%q,%s,%s,%t,%.2f,%.2f,%s\n",
				o.QueryID, o.Method, o.Type, o.Category, o.Correct, o.Coverage, o.Seconds, errStr)
		}
	case *coverage:
		fmt.Println(rep.CoverageSummary())
	case *table == 1:
		fmt.Println(rep.Table1())
	case *table == 2:
		fmt.Println(rep.Table2())
	default:
		fmt.Println(rep.Table1())
		fmt.Println(rep.Table2())
		fmt.Println(rep.SpeedupLine())
		fmt.Println()
		fmt.Println(rep.CoverageSummary())
		fmt.Println(rep.UsageTable())
		fig, err := core.Figure2(ctx, envs, profile)
		if err != nil {
			fatal(err)
		}
		fmt.Println(fig)
	}
}

// methods are the methods a run reports: the paper's five, then, where a
// table or the coverage summary is asked for alone, automatic TAG without
// and with LM functions inside exec — where the gap to the hand-written
// pipelines is, and the one measure of an LM function such as LLM_AGG.
func methods(profile llm.Profile, table int, coverage bool) []core.Method {
	ms := core.NewDefaultMethods(profile)
	if table != 0 || coverage {
		ms = append(ms, core.NewAutomaticMethods(profile)...)
	}
	return ms
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tagbench:", err)
	os.Exit(1)
}
