package tag

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestOpenAllDomains(t *testing.T) {
	for _, d := range Domains() {
		sys, err := Open(d)
		if err != nil {
			t.Fatalf("Open(%s): %v", d, err)
		}
		if len(sys.DB().TableNames()) == 0 {
			t.Errorf("%s: no tables", d)
		}
	}
	if _, err := Open("no_such_domain"); err == nil {
		t.Error("unknown domain must fail")
	}
}

func TestSystemAskPipeline(t *testing.T) {
	sys, err := Open("movies", WithLMUDFs(), WithProfile(OracleProfile()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := sys.Ask(context.Background(),
		"Among the movies whose genre is 'Romance', how many of them are considered a 'classic'?")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.SQL, "LLM_FILTER('classic movie'") {
		t.Errorf("syn should call the LM UDF:\n%s", resp.SQL)
	}
	if resp.Answer != "[5]" {
		t.Errorf("answer = %s, want [5] (Titanic, Casablanca, Roman Holiday, Ghost, When Harry Met Sally)", resp.Answer)
	}
	if sys.LMSeconds() <= 0 {
		t.Error("LM time should accrue")
	}
}

func TestSystemFrameSemanticOps(t *testing.T) {
	sys, err := Open("movies", WithProfile(OracleProfile()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	df, err := sys.FrameQuery("SELECT title, revenue FROM movies WHERE genre = 'Romance' ORDER BY revenue DESC")
	if err != nil {
		t.Fatal(err)
	}
	classics, err := df.SemFilter(ctx, sys.Model(), "{title} is a movie widely considered a classic")
	if err != nil {
		t.Fatal(err)
	}
	if classics.Len() == 0 || classics.Value(0, "title").AsText() != "Titanic" {
		t.Errorf("highest grossing classic should be Titanic, got %v", classics.Value(0, "title"))
	}
	if _, err := sys.Frame("movies"); err != nil {
		t.Errorf("Frame: %v", err)
	}
	if _, err := sys.Frame("nope"); err == nil {
		t.Error("Frame on missing table must fail")
	}
}

func TestNewWithCustomDatabase(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT)")
	db.MustExec("INSERT INTO notes VALUES (1, 'an absolute masterpiece from start to finish')")
	sys := New("notes", db, WithProfile(OracleProfile()))
	df, err := sys.Frame("notes")
	if err != nil {
		t.Fatal(err)
	}
	pos, err := df.SemFilter(context.Background(), sys.Model(), "the following text is positive: {body}")
	if err != nil {
		t.Fatal(err)
	}
	if pos.Len() != 1 {
		t.Errorf("positive notes = %d", pos.Len())
	}
}

// TestOpenDatabaseRecovers: a row committed through OpenDatabase is read
// back after the database is closed and the directory reopened.
func TestOpenDatabaseRecovers(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDatabase(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT)")
	db.MustExec("INSERT INTO notes VALUES (1, 'kept across a reopen')")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = OpenDatabase(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.Query("SELECT body FROM notes WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsText() != "kept across a reopen" {
		t.Fatalf("rows after reopen = %v, want the committed row", res.Rows)
	}
}

func TestBenchmarkQueriesExposed(t *testing.T) {
	qs := BenchmarkQueries()
	if len(qs) != 80 {
		t.Fatalf("queries = %d", len(qs))
	}
}

func TestExplainPipeline(t *testing.T) {
	for id, want := range map[string][]string{
		"RR-01": {"df = sql(", `df.head(5)`, `df.sem_topk("more technical", "__aug", 5)`},
		"RR-06": {`df.head(4)`, `"__aug", 4)`},
		// One fact lookup, then the relational filter it parameterises.
		"MK-05": {`height = lm_lookup("State the height of Stephen Curry`, `WHERE Player.height > ? ORDER BY Player.volleys DESC", height)`, "df.head(1)"},
		"MK-01": {`df.sem_filter_distinct("{__aug} is a city in the Silicon Valley region", "__aug")`},
		"CR-09": {`df.sem_filter("the following text is positive: {__aug}")`, "answer = len(df)"},
		"AK-01": {`WHERE circuits.name = 'Sepang International Circuit'`, `df[["year", "round", "name", "date"]].sem_agg(`},
		"AK-05": {`df[df.columns[1:5]].sem_agg("Summarize the rows")`},
		"AR-01": {`df.sem_agg("Summarize the Text", "__target")`},
	} {
		out, err := ExplainPipeline(id)
		if err != nil {
			t.Errorf("ExplainPipeline(%s): %v", id, err)
		}
		at := 0
		for _, frag := range want {
			i := strings.Index(out[at:], frag)
			if i < 0 {
				t.Errorf("ExplainPipeline(%s): no %q (in that order) in\n%s", id, frag, out)
				break
			}
			at += i
		}
		if id == "MK-05" && strings.Contains(out, "sem_filter") {
			t.Errorf("ExplainPipeline(MK-05) prints a semantic filter the pipeline does not run:\n%s", out)
		}
	}
	if _, err := ExplainPipeline("ZZ-99"); err == nil {
		t.Error("unknown query id must fail")
	}
}

func TestRunBenchmarkSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark in -short mode")
	}
	rep, err := RunBenchmark(context.Background(), DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Table1(), "Hand-written TAG") {
		t.Error("Table 1 missing TAG row")
	}
}

func TestFigure2Exposed(t *testing.T) {
	fig, err := Figure2(context.Background(), DefaultProfile())
	if err != nil || !strings.Contains(fig, "Sepang") {
		t.Errorf("Figure2: err=%v", err)
	}
}

// TestConcurrentAsksOnOneSystem: Asks that run LM functions inside exec share
// a System — one database, one model — without sharing anything of a
// request: one of each pair is cancelled while in flight, and the other must
// still come back with the answer it gets alone. (Run under -race: Ask used
// to write its dialect onto the shared model and re-register the LM
// functions, closed over its own context, on the shared database.)
func TestConcurrentAsksOnOneSystem(t *testing.T) {
	sys, err := Open("movies", WithLMUDFs(), WithProfile(OracleProfile()))
	if err != nil {
		t.Fatal(err)
	}
	const q = "Among the movies whose genre is 'Romance', how many of them are considered a 'classic'?"
	alone, err := sys.Ask(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 25; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		var cancelled, kept error
		var resp *Response
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, cancelled = sys.Ask(ctx, q)
		}()
		go func() {
			defer wg.Done()
			resp, kept = sys.Ask(context.Background(), q)
		}()
		if round%2 == 1 {
			runtime.Gosched() // let the requests get somewhere first, every other round
		}
		cancel()
		wg.Wait()
		if cancelled != nil && !errors.Is(cancelled, context.Canceled) {
			t.Fatalf("round %d: the cancelled Ask failed with %v", round, cancelled)
		}
		if kept != nil || resp.SQL != alone.SQL || resp.Answer != alone.Answer {
			t.Fatalf("round %d: the other Ask: err %v, answer %v; alone %q", round, kept, resp, alone.Answer)
		}
	}
	if n := sys.DB().LiveSnapshots(); n != 0 {
		t.Errorf("LiveSnapshots = %d, want 0", n)
	}
}
