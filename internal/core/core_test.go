package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tag/internal/llm"
	"tag/internal/nlq"
	"tag/internal/sem"
	"tag/internal/sqldb"
	"tag/internal/tagbench"
	"tag/internal/world"
)

// benchEnvs is built once per test binary — environments are read-only.
var benchEnvs map[string]*Env

// benchReport caches the full 80-query × 5-method run.
var benchReport *Report

func envsForTest(t *testing.T) map[string]*Env {
	t.Helper()
	if benchEnvs == nil {
		envs, err := BuildEnvs()
		if err != nil {
			t.Fatalf("BuildEnvs: %v", err)
		}
		benchEnvs = envs
	}
	return benchEnvs
}

func reportForTest(t *testing.T) *Report {
	t.Helper()
	if benchReport == nil {
		rep, err := RunBenchmark(context.Background(), envsForTest(t),
			NewDefaultMethods(llm.DefaultProfile()), nil)
		if err != nil {
			t.Fatalf("RunBenchmark: %v", err)
		}
		benchReport = rep
	}
	return benchReport
}

func oracleLM() *llm.SimLM {
	return llm.NewSimLM(world.Default(), llm.OracleProfile(), llm.NewClock(), llm.DefaultCostModel())
}

func queryByID(t *testing.T, id string) *tagbench.Query {
	t.Helper()
	for _, q := range tagbench.Queries() {
		if q.ID == id {
			return q
		}
	}
	t.Fatalf("no query %s", id)
	return nil
}

// ---------------------------------------------------------------------------
// Headline reproduction assertions (Table 1 / Table 2 shape)

func TestTable1Shape(t *testing.T) {
	rep := reportForTest(t)
	overall := func(m string) Cell {
		return rep.CellFor(m, func(Outcome) bool { return true })
	}
	tag := overall("Hand-written TAG")

	// Paper §4.3: TAG ≥ 40% on every measured type, ~55% overall; all
	// baselines ≤ 20%; RAG near zero.
	if tag.Exact < 0.45 || tag.Exact > 0.70 {
		t.Errorf("TAG overall accuracy = %.2f, want ~0.55 (paper)", tag.Exact)
	}
	for _, m := range []string{"Text2SQL", "RAG", "Retrieval + LM Rank", "Text2SQL + LM"} {
		if acc := overall(m).Exact; acc > 0.20 {
			t.Errorf("%s accuracy = %.2f, paper caps baselines at 0.20", m, acc)
		}
	}
	if rag := overall("RAG").Exact; rag > 0.05 {
		t.Errorf("RAG accuracy = %.2f, paper reports 0.00", rag)
	}
	// TAG beats every baseline by a wide margin (paper: 20–65 points).
	for _, m := range []string{"Text2SQL", "RAG", "Retrieval + LM Rank", "Text2SQL + LM"} {
		if tag.Exact-overall(m).Exact < 0.20 {
			t.Errorf("TAG advantage over %s = %.2f, want >= 0.20", m, tag.Exact-overall(m).Exact)
		}
	}
}

func TestTable1PerTypeShape(t *testing.T) {
	rep := reportForTest(t)
	for _, ty := range []nlq.QueryType{nlq.Match, nlq.Comparison, nlq.Ranking} {
		tag := rep.typeCell("Hand-written TAG", ty)
		if tag.Exact < 0.35 {
			t.Errorf("TAG %v accuracy = %.2f, paper keeps TAG >= 0.40 per type", ty, tag.Exact)
		}
		for _, m := range []string{"Text2SQL", "RAG", "Retrieval + LM Rank", "Text2SQL + LM"} {
			if c := rep.typeCell(m, ty); c.Exact >= tag.Exact {
				t.Errorf("%s %v accuracy %.2f >= TAG %.2f", m, ty, c.Exact, tag.Exact)
			}
		}
	}
	// Text2SQL is weakest on ranking (reasoning-over-text, paper: 0.10).
	t2sRank := rep.typeCell("Text2SQL", nlq.Ranking)
	if t2sRank.Exact > 0.15 {
		t.Errorf("Text2SQL ranking accuracy = %.2f, paper reports 0.10", t2sRank.Exact)
	}
}

func TestTable1LatencyShape(t *testing.T) {
	rep := reportForTest(t)
	overall := func(m string) float64 {
		return rep.CellFor(m, func(Outcome) bool { return true }).Seconds
	}
	tag := overall("Hand-written TAG")
	t2slm := overall("Text2SQL + LM")
	// Text2SQL + LM is the slowest method (paper: 9.08 s).
	for _, m := range []string{"Text2SQL", "RAG", "Retrieval + LM Rank", "Hand-written TAG"} {
		if overall(m) >= t2slm {
			t.Errorf("%s ET %.2f >= Text2SQL+LM %.2f; paper has Text2SQL+LM slowest", m, overall(m), t2slm)
		}
	}
	// TAG is fastest or nearly fastest (paper: 2.94 s): within 1.2 s of
	// the fastest method and well below the slowest.
	fastest := tag
	for _, m := range rep.Methods {
		if s := overall(m); s < fastest {
			fastest = s
		}
	}
	if tag-fastest > 1.2 {
		t.Errorf("TAG ET %.2f is %.2f slower than fastest; paper has TAG fastest or nearly fastest", tag, tag-fastest)
	}
	if t2slm/tag < 1.4 {
		t.Errorf("TAG speedup over slowest = %.1fx, want >= 1.4x (paper: up to 3.1x)", t2slm/tag)
	}
}

func TestTable2Shape(t *testing.T) {
	rep := reportForTest(t)
	cat := func(m string, c nlq.Category) Cell {
		return rep.CellFor(m, func(o Outcome) bool { return o.Category == c })
	}
	// Paper: TAG above 50% on both knowledge and reasoning.
	if k := cat("Hand-written TAG", nlq.Knowledge).Exact; k < 0.45 {
		t.Errorf("TAG knowledge = %.2f, want > 0.50 (paper 0.53)", k)
	}
	if r := cat("Hand-written TAG", nlq.Reasoning).Exact; r < 0.50 {
		t.Errorf("TAG reasoning = %.2f, want > 0.50 (paper 0.60)", r)
	}
	// Vanilla Text2SQL struggles most on reasoning (paper 0.10).
	if r := cat("Text2SQL", nlq.Reasoning).Exact; r > 0.15 {
		t.Errorf("Text2SQL reasoning = %.2f, paper reports 0.10", r)
	}
}

func TestCoverageOrdering(t *testing.T) {
	rep := reportForTest(t)
	cov := func(m string) float64 {
		var sum float64
		n := 0
		for _, o := range rep.Outcomes {
			if o.Method == m && o.Type == nlq.Aggregation {
				sum += o.Coverage
				n++
			}
		}
		return sum / float64(n)
	}
	// TAG's aggregation answers cover far more facts than RAG's — the
	// quantitative form of Figure 2's qualitative claim.
	if cov("Hand-written TAG") < cov("RAG")+0.2 {
		t.Errorf("TAG coverage %.2f vs RAG %.2f: want a wide gap", cov("Hand-written TAG"), cov("RAG"))
	}
}

func TestReportDeterminism(t *testing.T) {
	// A fresh run must reproduce the cached report exactly.
	envs, err := BuildEnvs()
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := RunBenchmark(context.Background(), envs, NewDefaultMethods(llm.DefaultProfile()), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep1 := reportForTest(t)
	if rep1.Table1() != rep2.Table1() {
		t.Errorf("Table 1 not deterministic:\n%s\nvs\n%s", rep1.Table1(), rep2.Table1())
	}
	if rep1.Table2() != rep2.Table2() {
		t.Error("Table 2 not deterministic")
	}
}

// ---------------------------------------------------------------------------
// Method-level behaviour

func TestHandwrittenTAGOracleIsNearPerfect(t *testing.T) {
	// With a perfect LM, the hand-written pipelines should answer nearly
	// every exact-match query correctly — separating pipeline bugs from
	// modelled LM fallibility.
	envs := envsForTest(t)
	m := &HandwrittenTAG{Model: oracleLM()}
	w := world.Default()
	wrong := 0
	total := 0
	for _, q := range tagbench.Queries() {
		if q.Spec.Type == nlq.Aggregation {
			continue
		}
		total++
		truth, err := tagbench.ComputeTruth(envs[q.Spec.Domain].DB, w, q.Spec)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		ans, err := m.Answer(context.Background(), envs[q.Spec.Domain], q)
		if err != nil {
			t.Errorf("%s: %v", q.ID, err)
			wrong++
			continue
		}
		if !tagbench.ExactMatch(ans.Values, truth.Values) {
			wrong++
			t.Logf("%s oracle mismatch: got %v want %v", q.ID, ans.Values, truth.Values)
		}
	}
	if wrong > total/20 {
		t.Errorf("oracle hand-written TAG wrong on %d/%d exact-match queries", wrong, total)
	}
}

func TestText2SQLDropsReasoning(t *testing.T) {
	env := envsForTest(t)["codebase_community"]
	m := &Text2SQL{Model: oracleLM()}
	q := queryByID(t, "CR-01") // sarcastic comments on T1
	ans, err := m.Answer(context.Background(), env, q)
	if err != nil {
		t.Fatal(err)
	}
	// Plain SQL cannot filter sarcasm: the count includes every comment on
	// the post (9), not the 3 sarcastic ones.
	if len(ans.Values) != 1 || ans.Values[0] == "3" {
		t.Errorf("Text2SQL on CR-01 = %v; dropping the reasoning clause should overcount", ans.Values)
	}
}

func TestRAGMissesAggregationRows(t *testing.T) {
	env := envsForTest(t)["formula_1"]
	m := &RAG{Model: oracleLM(), TopK: 10}
	q := queryByID(t, "AK-01")
	ans, err := m.Answer(context.Background(), env, q)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := tagbench.ComputeTruth(env.DB, world.Default(), q.Spec)
	cov := tagbench.Coverage(ans.Text, truth.Facts)
	if cov > 0.6 {
		t.Errorf("RAG coverage on Sepang = %.2f; top-10 retrieval cannot cover 19 races", cov)
	}
}

func TestHandwrittenTAGSepang(t *testing.T) {
	env := envsForTest(t)["formula_1"]
	m := &HandwrittenTAG{Model: oracleLM()}
	q := queryByID(t, "AK-01")
	ans, err := m.Answer(context.Background(), env, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Kuala Lumpur", "Malaysia", "1999", "2017", "Malaysian Grand Prix"} {
		if !strings.Contains(ans.Text, frag) {
			t.Errorf("TAG Sepang answer missing %q:\n%s", frag, ans.Text)
		}
	}
	truth, _ := tagbench.ComputeTruth(env.DB, world.Default(), q.Spec)
	if cov := tagbench.Coverage(ans.Text, truth.Facts); cov < 0.9 {
		t.Errorf("TAG Sepang coverage = %.2f, want >= 0.9", cov)
	}
	// The summary's projection is part of the pipeline: where its columns
	// are missing (the same augment over a table that is not races) the
	// caller gets the error, not a summary of whatever rows there were.
	misfit := q.Spec.Clone()
	misfit.Table, misfit.Join, misfit.Aug.Column = "circuits", nil, "circuits.name"
	if ans, err := m.run(context.Background(), env, misfit); err == nil || !strings.Contains(err.Error(), `no column "year"`) {
		t.Errorf("summary over a frame without the projected columns: answer %v, err %v", ans, err)
	}
}

func TestFigure2Panels(t *testing.T) {
	fig, err := Figure2(context.Background(), envsForTest(t), llm.DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"== RAG ==", "== Text2SQL + LM ==", "== Hand-written TAG =="} {
		if !strings.Contains(fig, frag) {
			t.Errorf("Figure 2 missing panel %q", frag)
		}
	}
	// The Text2SQL+LM panel must show the parametric-knowledge fallback.
	if !strings.Contains(fig, "general knowledge") {
		t.Error("Figure 2: Text2SQL+LM should degrade to parametric knowledge")
	}
}

func TestPipelineRunStepArtifacts(t *testing.T) {
	env := envsForTest(t)["european_football_2"]
	p := &Pipeline{Model: oracleLM()}
	q := queryByID(t, "CK-01")
	res, err := p.Run(context.Background(), env, q.NL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.SQL, "SELECT") {
		t.Errorf("syn produced %q", res.SQL)
	}
	if res.Table == nil {
		t.Error("exec produced no table")
	}
	if res.Answer == "" {
		t.Error("gen produced no answer")
	}
}

func TestLMUDFsInsideSQL(t *testing.T) {
	env := envsForTest(t)["debit_card_specializing"]
	model := oracleLM()
	ctx := sqldb.WithFuncs(context.Background(), LMFuncs(model))
	res, err := env.DB.QueryContext(ctx, "SELECT COUNT(*) FROM products WHERE LLM_FILTER('premium', Description)")
	if err != nil {
		t.Fatal(err)
	}
	n := res.Rows[0][0].AsInt()
	// Cross-check against ground truth.
	all, _ := env.DB.Query("SELECT Description FROM products")
	truth := int64(0)
	for _, r := range all.Rows {
		if world.IsPremiumProduct(r[0].AsText()) {
			truth++
		}
	}
	if n != truth {
		t.Errorf("LLM_FILTER count = %d, ground truth %d (oracle model)", n, truth)
	}
}

// TestRegisteredLMUDFs: a database opened with the LM functions
// (RegisterLMUDFs, as tagsql -udf opens one) runs them in a bare statement,
// with no functions bound to the context. LLM_FILTER keeps the rows the
// world calls premium, and LLM_MAP returns for each row what sem.Map returns
// for its task and value, over two runs of rows with one task each. Before
// registration the same statement has no such function.
func TestRegisteredLMUDFs(t *testing.T) {
	ctx := context.Background()
	src, err := envsForTest(t)["debit_card_specializing"].DB.Query("SELECT DISTINCT Description FROM products ORDER BY Description")
	if err != nil {
		t.Fatal(err)
	}
	// Four premium products and four others, interleaved.
	var picked, premium []string
	for _, want := range []bool{true, false} {
		n := 0
		for _, r := range src.Rows {
			if d := r[0].AsText(); world.IsPremiumProduct(d) == want && n < 4 {
				picked, n = append(picked, d), n+1
			}
		}
	}
	if len(picked) != 8 {
		t.Fatalf("the domain has too few premium or other products: picked %q", picked)
	}
	db := sqldb.NewDatabase()
	db.MustExec("CREATE TABLE p (id INTEGER, task TEXT, d TEXT)")
	tasks := []string{"Summarise the product in one word", "Name the product's category"}
	for i := 0; i < 4; i++ {
		for j, d := range []string{picked[i], picked[4+i]} {
			id := 2*i + j
			db.MustExec("INSERT INTO p VALUES (?, ?, ?)", id, tasks[id/4], d)
		}
		premium = append(premium, picked[i])
	}
	const filter = "SELECT d FROM p WHERE LLM_FILTER('premium', d) ORDER BY id"
	if _, err := db.Query(filter); sqldb.CodeOf(err) != sqldb.ErrNoFunction {
		t.Fatalf("LLM_FILTER before RegisterLMUDFs: %v, want ErrNoFunction", err)
	}
	RegisterLMUDFs(db, oracleLM())

	res, err := db.Query(filter)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, r := range res.Rows {
		kept = append(kept, r[0].AsText())
	}
	if !slices.Equal(kept, premium) {
		t.Errorf("LLM_FILTER kept %q, want the premium products %q", kept, premium)
	}

	res, err = db.Query("SELECT task, d, LLM_MAP(task, d) FROM p ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(picked) {
		t.Fatalf("LLM_MAP returned %d rows, want %d", len(res.Rows), len(picked))
	}
	for _, r := range res.Rows {
		want, errs := sem.Map(ctx, oracleLM(), r[0].AsText(), []string{r[1].AsText()})
		if errs != nil || r[2].AsText() != want[0] {
			t.Errorf("LLM_MAP(%q, %q) = %q, want sem.Map's %q (errs %v)", r[0].AsText(), r[1].AsText(), r[2].AsText(), want[0], errs)
		}
	}

	for udfs, want := range map[bool]string{false: "TAG (auto-syn)", true: "TAG (auto-syn, UDFs)"} {
		if got := (&TAGPipelineMethod{Pipeline: Pipeline{UseLMUDFs: udfs}}).Name(); got != want {
			t.Errorf("TAGPipelineMethod.Name with UseLMUDFs %v = %q, want %q", udfs, got, want)
		}
	}
}

// promptLog records the prompts a model is sent: single calls, and batch by
// batch.
type promptLog struct {
	llm.Model
	singles []string
	batches [][]string
}

func (p *promptLog) Complete(ctx context.Context, prompt string) (string, error) {
	p.singles = append(p.singles, prompt)
	return p.Model.Complete(ctx, prompt)
}

func (p *promptLog) CompleteBatch(ctx context.Context, prompts []string) ([]string, []error) {
	p.batches = append(p.batches, slices.Clone(prompts))
	return p.Model.CompleteBatch(ctx, prompts)
}

// sent reports whether any prompt sent starts the way this one does up to
// its first argument.
func (p *promptLog) sent(head string) bool {
	for _, b := range append(slices.Clone(p.batches), p.singles) {
		if slices.ContainsFunc(b, func(prompt string) bool { return strings.HasPrefix(prompt, head) }) {
			return true
		}
	}
	return false
}

// TestPipelineForDescribesOperators: the printed pipeline is the executed
// one. For each of the 80 questions PipelineFor names a semantic operator or
// a fact lookup exactly when HandwrittenTAG.Answer sent that kind of prompt.
func TestPipelineForDescribesOperators(t *testing.T) {
	envs := envsForTest(t)
	kinds := []struct{ printed, promptHead string }{
		{"lm_lookup(", llm.HeightPrompt("")[:len("State the height of ")]},
		{".sem_filter", llm.SemFilterPrompt("")},
		{".sem_topk(", llm.SemComparePrompt("", "", "")[:len(llm.SemComparePrompt("", "", ""))-len("\nItem A: \nItem B: ")]},
		{".sem_agg(", llm.SemAggPrompt("", nil)[:len(llm.SemAggPrompt("", nil))-len("\nItems:\n")]},
	}
	seen := make(map[string]int)
	for _, q := range tagbench.Queries() {
		log := &promptLog{Model: llm.NewSimLM(world.Default(), llm.DefaultProfile(), llm.NewClock(), llm.DefaultCostModel())}
		if _, err := (&HandwrittenTAG{Model: log}).Answer(context.Background(), envs[q.Spec.Domain], q); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		desc := PipelineFor(q.Spec)
		if !strings.HasPrefix(desc, "df = sql(") && !strings.HasPrefix(desc, "height = lm_lookup(") {
			t.Errorf("%s: pipeline starts with neither the SQL nor a lookup:\n%s", q.ID, desc)
		}
		for _, k := range kinds {
			printed, sent := strings.Contains(desc, k.printed), log.sent(k.promptHead)
			if printed != sent {
				t.Errorf("%s: %q printed = %v, but such a prompt sent = %v:\n%s", q.ID, k.printed, printed, sent, desc)
			}
			if printed {
				seen[k.printed]++
			}
		}
	}
	for _, k := range kinds {
		if seen[k.printed] == 0 {
			t.Errorf("no question's pipeline has %q", k.printed)
		}
	}
}

// TestOneFilterKernelSameBytes: LLM_FILTER inside SQL, SemFilterDistinct
// over a frame, and SemFilter over the frame's distinct values are three
// adapters of sem.Filter. Over generated tables and every sentence of the
// claim grammar they send the same prompts in the same batches and keep the
// same rows.
func TestOneFilterKernelSameBytes(t *testing.T) {
	pool := []sqldb.Value{sqldb.Null, sqldb.Int(5), sqldb.Float(5), sqldb.Text("5"), sqldb.Float(172.5), sqldb.Text("")}
	for _, s := range []string{"Palo Alto", "Fresno", "Santa Clara", "France", "Titanic", "Casablanca", "Premium Unleaded",
		"Lincoln High School", "an absolute masterpiece from start to finish", "the gradient boosting residuals are reweighted per iteration"} {
		pool = append(pool, sqldb.Text(s))
	}
	r := rand.New(rand.NewSource(22))
	ctx := context.Background()
	for trial, claim := range llm.Claims {
		db := sqldb.NewDatabase()
		db.MustExec("CREATE TABLE t (id INTEGER, v TEXT)")
		var vals []sqldb.Value
		for i, n := 0, 1+r.Intn(120); i < n; i++ {
			vals = append(vals, pool[r.Intn(len(pool))])
			if _, err := db.Exec("INSERT INTO t VALUES (?, ?)", i, vals[i]); err != nil {
				t.Fatal(err)
			}
		}
		ids := func(d *sem.DataFrame) string {
			out, _ := d.Strings("id")
			return strings.Join(out, ",")
		}

		inSQL := &promptLog{Model: oracleLM()}
		rows, err := db.QueryRows(sqldb.WithFuncs(ctx, LMFuncs(inSQL)), "SELECT id, v FROM t WHERE LLM_FILTER(?, v)", claim.Name)
		if err != nil {
			t.Fatal(err)
		}
		fromSQL, err := sem.FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}

		frame, err := sem.FromTable(db, "t")
		if err != nil {
			t.Fatal(err)
		}
		distinct := &promptLog{Model: oracleLM()}
		fromDistinct, err := frame.SemFilterDistinct(ctx, distinct, claim.About("{v}", ""), "v")
		if err != nil {
			t.Fatal(err)
		}

		var seen sqldb.TupleSet
		var first []sqldb.Row
		classes := make([]int, len(vals))
		for i, v := range vals {
			var fresh bool
			if classes[i], fresh = seen.Add([]sqldb.Value{v}); fresh {
				first = append(first, sqldb.Row{sqldb.Int(int64(classes[i])), v})
			}
		}
		uniq, _ := sem.New([]string{"id", "v"}, first)
		perValue := &promptLog{Model: oracleLM()}
		kept, err := uniq.SemFilter(ctx, perValue, claim.About("{v}", ""))
		if err != nil {
			t.Fatal(err)
		}
		keptClass := "," + ids(kept) + ","
		var semiJoin []string
		for i, c := range classes {
			if strings.Contains(keptClass, ","+strconv.Itoa(c)+",") {
				semiJoin = append(semiJoin, strconv.Itoa(i))
			}
		}

		if len(inSQL.batches) != 1 || !reflect.DeepEqual(inSQL.batches, distinct.batches) || !reflect.DeepEqual(inSQL.batches, perValue.batches) {
			t.Errorf("trial %d (%s): prompts differ:\n SQL %q\n SemFilterDistinct %q\n SemFilter over distinct values %q",
				trial, claim.Name, inSQL.batches, distinct.batches, perValue.batches)
		}
		if want := strings.Join(semiJoin, ","); ids(fromSQL) != want || ids(fromDistinct) != want {
			t.Errorf("trial %d (%s): rows kept differ: SQL %s, SemFilterDistinct %s, SemFilter over distinct values %s",
				trial, claim.Name, ids(fromSQL), ids(fromDistinct), want)
		}
		if want := llm.SemFilterPrompt(claim.About(first[0][1].AsText(), "")); inSQL.batches[0][0] != want {
			t.Errorf("trial %d (%s): first prompt %q, want %q", trial, claim.Name, inSQL.batches[0][0], want)
		}
	}
}

func TestEnvRetrieve(t *testing.T) {
	env := envsForTest(t)["california_schools"]
	pts, err := env.retrieve("schools with the highest average math score", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 {
		t.Fatalf("retrieved %d points", len(pts))
	}
	// At least some retrieved rows should be SAT-score rows.
	satRows := 0
	for _, p := range pts {
		if slices.Contains(p.Cols, "AvgScrMath") {
			satRows++
		}
	}
	if satRows == 0 {
		t.Error("retrieval should surface satscores rows for a math-score question")
	}
}
