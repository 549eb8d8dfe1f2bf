// Command perf is the repository's benchmark: four workloads, each checked
// against an oracle, printing end-to-end metrics (tracing off) or
// per-layer metrics (tracing on) by name and unit. See README.md.
//
//	go run ./perf                                  all four workloads, one JSON document
//	go run ./perf -trace 1                         the same plus the per-layer metrics
//	go run ./perf -workload analytics_scan -seed 7 -seconds 10 -trace 0
//	go run ./perf -compare a.json b.json           apply the bounds to two sets of runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// header records what a document was measured on.
type header struct {
	Commit      string         `json:"commit"`
	Seed        int64          `json:"seed"`
	NProc       int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	Seconds     float64        `json:"seconds"`
	Clients     map[string]int `json:"clients"`
	FlushPolicy string         `json:"flush_policy"`
	Tables      sizes          `json:"table_sizes"`
}

// document is what a run without -workload prints: every workload's
// result under one header. -compare reads streams of these.
type document struct {
	Header    header             `json:"header"`
	Workloads map[string]*result `json:"workloads"`
}

func newHeader(cfg config) header {
	h := header{
		Commit: "unknown", Seed: cfg.Seed, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seconds: cfg.Seconds, Clients: map[string]int{},
		FlushPolicy: "oltp_durable: SyncAlways, CheckpointBytes default (1 MiB); other workloads in memory",
		Tables:      cfg.Size,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	for _, w := range workloads {
		h.Clients[w.Name] = w.Clients
	}
	return h
}

func main() {
	workload := flag.String("workload", "", "run one workload and print its result as the last line (default: all four, one document)")
	seed := flag.Int64("seed", 1, "seeds all generated data and op sequences")
	seconds := flag.Float64("seconds", 20, "length of the timed phase; whole rounds")
	trace := flag.Int("trace", 0, "1 records spans, prints the per-layer metrics and writes <out>/trace-<workload>.json")
	outDir := flag.String("out", "perf/out", "directory for trace files and the oltp data directory")
	compare := flag.Bool("compare", false, "compare two files of documents: -compare base.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	cfg := config{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Setups: 5, SetupSeconds: 4, OutDir: *outDir, Size: fullSize}
	enc := json.NewEncoder(os.Stdout)
	if *workload != "" {
		w, ok := workloadByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		if err := enc.Encode(newHeader(cfg)); err != nil {
			fatal(err)
		}
		// The benchmark contract: end-to-end metrics untraced, every other
		// declared metric traced.
		cfg.Emit = []metricClass{classE2E}
		if cfg.Trace {
			cfg.Emit = []metricClass{classUser, classLayer}
		}
		res, err := runWorkload(w, cfg)
		if err != nil {
			fatal(err)
		}
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	doc := document{Header: newHeader(cfg), Workloads: map[string]*result{}}
	for _, w := range workloads {
		untraced := cfg
		untraced.Trace, untraced.Emit = false, []metricClass{classE2E, classUser}
		res, err := runWorkload(w, untraced)
		if err != nil {
			fatal(err)
		}
		if cfg.Trace {
			traced := cfg
			traced.Seconds, traced.Emit = cfg.Seconds/2, []metricClass{classLayer}
			layers, err := runWorkload(w, traced)
			if err != nil {
				fatal(err)
			}
			for name, v := range layers.Metrics {
				res.Metrics[name] = v
			}
			res.Attempted += layers.Attempted
			res.Failed += layers.Failed
			res.Correct = res.Failed == 0
		}
		doc.Workloads[w.Name] = res
	}
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perf:", err)
	os.Exit(2)
}
