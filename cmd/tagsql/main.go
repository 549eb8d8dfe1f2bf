// Command tagsql is an interactive SQL shell over the embedded engine,
// with the built-in benchmark domains preloaded and — with -udf — the LM
// user-defined functions registered, so semantic predicates run inside
// SQL:
//
//	tagsql -domain movies -udf
//	sql> SELECT title FROM movies WHERE LLM_FILTER('classic movie', title);
//
// Statements run in one sqldb.Session, under the rules the wire server
// keeps: BEGIN opens the shell's transaction and every statement then runs
// in it until COMMIT or ROLLBACK. An error inside it fails it: every
// statement but COMMIT or ROLLBACK is then refused, and COMMIT rolls back.
// A second BEGIN, or a COMMIT or ROLLBACK with none open, is an error.
// Each statement prints its command tag, as psql does.
//
// Meta commands: .tables, .schema, .domains, .explain, .analyze, .stats,
// .dump, .restore, .quit. .explain shows the plan a SELECT would run;
// .analyze runs it and annotates the same tree with real per-operator
// counts and the query's totals (EXPLAIN ANALYZE). .dump <file> writes the
// database as a SQL script; .restore <file> loads one in one transaction,
// all or nothing, and refuses a script that holds BEGIN, COMMIT or ROLLBACK.
// .dump, .explain and .analyze read committed state, outside the shell's
// transaction, and .restore is refused while one is open.
//
// Queries run under a signal-aware context: the first Ctrl-C cancels the
// in-flight statement mid-scan (the engine returns a typed ErrCanceled
// error) instead of killing the shell.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"tag/internal/core"
	"tag/internal/llm"
	"tag/internal/sqldb"
	"tag/internal/tagbench/domains"
	"tag/internal/world"
)

func main() {
	domain := flag.String("domain", "movies", "built-in domain to load (see .domains)")
	udf := flag.Bool("udf", false, "open the database with the LM UDFs (LLM_FILTER/LLM_SCORE/LLM_MAP)")
	execSQL := flag.String("e", "", "execute one statement and exit")
	flag.Parse()

	db, err := domains.Build(*domain)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tagsql:", err)
		os.Exit(1)
	}
	if *udf {
		model := llm.NewSimLM(world.Default(), llm.DefaultProfile(), llm.NewClock(), llm.DefaultCostModel())
		core.RegisterLMUDFs(db, model)
	}

	sh := &shell{db: db, sess: db.NewSession(), out: os.Stdout}
	defer sh.sess.Close()
	if *execSQL != "" {
		sh.run(*execSQL)
		return
	}

	fmt.Printf("tagsql — embedded TAG SQL shell (domain %s, LM UDFs %v)\n", *domain, *udf)
	fmt.Println(`type SQL terminated by ';' (BEGIN … COMMIT/ROLLBACK for a transaction; after an error in one, only COMMIT/ROLLBACK), or .tables / .schema / .domains / .explain <sql> / .analyze <sql> / .stats / .dump <file> / .restore <file> / .quit (.dump, .explain and .analyze read committed state)`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Print("sql> ")
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == ".quit" || trimmed == ".exit":
			return
		case trimmed == ".tables":
			for _, t := range db.TableNames() {
				fmt.Println(t)
			}
			fmt.Print("sql> ")
			continue
		case trimmed == ".schema":
			fmt.Println(db.SchemaSQL())
			fmt.Print("sql> ")
			continue
		case strings.HasPrefix(trimmed, ".explain "):
			lines, err := db.Explain(strings.TrimPrefix(trimmed, ".explain "))
			if err != nil {
				fmt.Println("error:", err)
			} else {
				for _, l := range lines {
					fmt.Println(l)
				}
			}
			fmt.Print("sql> ")
			continue
		case strings.HasPrefix(trimmed, ".analyze "):
			analyze(db, strings.TrimPrefix(trimmed, ".analyze "))
			fmt.Print("sql> ")
			continue
		case trimmed == ".stats":
			printStats(db)
			fmt.Print("sql> ")
			continue
		case strings.HasPrefix(trimmed, ".dump"):
			dump(db, strings.TrimSpace(strings.TrimPrefix(trimmed, ".dump")))
			fmt.Print("sql> ")
			continue
		case strings.HasPrefix(trimmed, ".restore"):
			if sh.sess.Status() != 'I' {
				fmt.Println("error: .restore runs in a transaction of its own; COMMIT or ROLLBACK first")
			} else {
				restore(db, strings.TrimSpace(strings.TrimPrefix(trimmed, ".restore")))
			}
			fmt.Print("sql> ")
			continue
		case trimmed == ".domains":
			for _, d := range append(domains.Names(), "movies") {
				fmt.Println(d)
			}
			fmt.Print("sql> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.Contains(line, ";") {
			sh.run(buf.String())
			buf.Reset()
			fmt.Print("sql> ")
		} else {
			fmt.Print("  -> ")
		}
	}
}

// shell runs the statements typed at it in its session and prints their
// results to out.
type shell struct {
	db   *sqldb.Database
	sess *sqldb.Session
	out  io.Writer
}

// run executes the statements of src in order and stops at the first error.
func (sh *shell) run(src string) {
	if strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(src), ";")) == "" {
		return
	}
	// Ctrl-C cancels the in-flight statement; the shell survives.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	stmts, err := sh.db.ParseCached(src)
	for _, stmt := range stmts {
		if err = sh.exec(ctx, stmt); err != nil {
			break
		}
	}
	if err != nil {
		printErr(sh.out, sh.sess.Fail(err))
	}
}

// exec runs one statement and prints its rows or its command tag.
func (sh *shell) exec(ctx context.Context, stmt sqldb.Statement) error {
	sel, ok := stmt.(*sqldb.SelectStmt)
	if !ok {
		tag, err := sh.sess.Exec(ctx, stmt)
		if err == nil {
			fmt.Fprintln(sh.out, tag)
		}
		return err
	}
	rows, err := sh.sess.Query(ctx, sel)
	if err != nil {
		return err
	}
	res, err := rows.Collect()
	if err != nil {
		return err
	}
	fmt.Fprint(sh.out, res.String())
	fmt.Fprintf(sh.out, "(%d rows)\n", len(res.Rows))
	return nil
}

// analyze runs EXPLAIN ANALYZE on one statement under a signal-aware
// context and prints the annotated operator tree plus the query's totals.
func analyze(db *sqldb.Database, src string) {
	src = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(src), ";"))
	if src == "" {
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	aq, err := db.ExplainAnalyze(ctx, src)
	if err != nil {
		printErr(os.Stdout, err)
		return
	}
	for _, l := range aq.Plan {
		fmt.Println(l)
	}
	printCounters(aq.Stats)
	fmt.Printf("elapsed          %v\n", aq.Stats.Elapsed.Round(time.Microsecond))
}

// printCounters prints the counters a statement's QueryStats and the
// engine's Stats share. It is the one printer of both — .analyze's
// per-query totals and .stats — so the two read in the same order under the
// same labels.
func printCounters(qs sqldb.QueryStats) {
	fmt.Printf("rows scanned     %d\n", qs.RowsScanned)
	fmt.Printf("rows emitted     %d\n", qs.RowsEmitted)
	fmt.Printf("scans            %d index / %d range / %d full\n", qs.IndexScans, qs.IndexRangeScans, qs.FullScans)
	fmt.Printf("ordered orders   %d\n", qs.OrderedIndexOrders)
	fmt.Printf("subplan cache    %d hit / %d miss\n", qs.SubplanCacheHits, qs.SubplanCacheMisses)
	fmt.Printf("index maintains  %d incremental\n", qs.OrdMaintains)
	fmt.Printf("tombstones       %d invisible versions stepped over (SELECT and DML)\n", qs.TombstonesSkipped)
	fmt.Printf("segments         %d scans / %d blocks decoded\n", qs.SegmentScans, qs.DecodedBlocks)
	fmt.Printf("vectorized       %d batches / %d row fallbacks\n", qs.VectorBatches, qs.RowFallbacks)
	fmt.Printf("lm functions     %d calls / %d batches / %d deduplicated\n", qs.LMCalls, qs.LMBatches, qs.LMDedup)
}

// dump writes the database as a replayable SQL script — Database.Dump's,
// which .restore reads back.
func dump(db *sqldb.Database, path string) {
	if path == "" {
		_ = db.Dump(os.Stdout)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		printErr(os.Stdout, &sqldb.Error{Code: sqldb.ErrIO, Msg: "dump: " + err.Error(), Cause: err})
		return
	}
	werr := db.Dump(f)
	cerr := f.Close()
	if werr == nil && cerr != nil {
		werr = &sqldb.Error{Code: sqldb.ErrIO, Msg: "dump: " + cerr.Error(), Cause: cerr}
	}
	if werr != nil {
		printErr(os.Stdout, werr)
		return
	}
	fmt.Printf("dumped to %s\n", path)
}

// restore loads a SQL script atomically: the whole file applies in one
// transaction, so a script that fails midway leaves the database untouched.
func restore(db *sqldb.Database, path string) {
	if path == "" {
		fmt.Println("usage: .restore <file>")
		return
	}
	src, err := os.ReadFile(path)
	if err != nil {
		printErr(os.Stdout, &sqldb.Error{Code: sqldb.ErrIO, Msg: "restore: " + err.Error(), Cause: err})
		return
	}
	if err := db.LoadScript(string(src)); err != nil {
		printErr(os.Stdout, err)
		return
	}
	fmt.Printf("restored from %s\n", path)
}

// printErr surfaces the engine's typed error code alongside the message.
func printErr(w io.Writer, err error) {
	var se *sqldb.Error
	if errors.As(err, &se) {
		fmt.Fprintf(w, "error [%s]: %v\n", se.Code, err)
		return
	}
	fmt.Fprintln(w, "error:", err)
}

func printStats(db *sqldb.Database) {
	s := db.Stats()
	fmt.Printf("queries          %d\n", s.Queries)
	fmt.Printf("execs            %d\n", s.Execs)
	fmt.Printf("plan cache       %d hit / %d miss\n", s.PlanCacheHits, s.PlanCacheMisses)
	printCounters(sqldb.QueryStats{
		RowsScanned: s.RowsScanned, RowsEmitted: s.RowsEmitted,
		IndexScans: s.IndexScans, IndexRangeScans: s.IndexRangeScans, FullScans: s.FullScans,
		OrderedIndexOrders: s.OrderedIndexOrders,
		SubplanCacheHits:   s.SubplanCacheHits, SubplanCacheMisses: s.SubplanCacheMisses,
		OrdMaintains: s.OrdMaintains, TombstonesSkipped: s.TombstonesSkipped,
		SegmentScans: s.SegmentScans, DecodedBlocks: s.DecodedBlocks,
		VectorBatches: s.VectorBatches, RowFallbacks: s.RowFallbacks,
		LMCalls: s.LMCalls, LMBatches: s.LMBatches, LMDedup: s.LMDedup,
	})
	fmt.Printf("transactions     %d begun / %d committed / %d rolled back / %d active\n",
		s.Begins, s.Commits, s.Rollbacks, s.ActiveTxns)
	fmt.Printf("vacuum           %d runs / %d versions reclaimed\n", s.VacuumRuns, s.VersionsReclaimed)
	fmt.Printf("wal              %d appends / %d bytes / %d checkpoints / %d group commits\n",
		s.WALAppends, s.WALBytes, s.Checkpoints, s.WALGroupCommits)
	fmt.Printf("recovery         %d txns replayed / %d torn tails dropped\n", s.RecoveredTxns, s.TornTailsDropped)
	fmt.Printf("segments sealed  %d\n", s.SegmentsSealed)
	fmt.Printf("open cursors     %d\n", s.OpenCursors)
}
