// Package tag is a Go implementation of Table-Augmented Generation (TAG),
// the unified model for answering natural-language questions over
// databases proposed in "Text2SQL is Not Enough: Unifying AI and Databases
// with TAG" (CIDR 2025).
//
// A TAG system answers a request R in three steps:
//
//	syn(R)     -> Q    query synthesis    (LM turns the question into SQL)
//	exec(Q)    -> T    query execution    (database computes the table)
//	gen(R, T)  -> A    answer generation  (LM writes the answer from R, T)
//
// The package bundles everything a TAG system needs, implemented from
// scratch on the standard library: an embedded SQL engine, a deterministic
// simulated LM (stand-in for Llama-3.1-70B + vLLM), an embedding model and
// vector index (stand-ins for E5 + FAISS), LOTUS-style semantic operators,
// the five methods of the paper's evaluation, and the 80-query TAG-Bench
// benchmark with its harness.
//
// Quick start:
//
//	sys, _ := tag.Open("movies")
//	resp, _ := sys.Ask(ctx, "Summarize the review of the reviews whose genre is 'Romance'.")
//	fmt.Println(resp.Answer)
//
// The embedded engine exposes two query surfaces. Query materialises a
// *Result; QueryRows returns a streaming, context-aware *Rows cursor that
// produces rows one at a time, so LIMIT-style consumption reads only what
// it needs and cancelling the context stops an in-flight scan:
//
//	rows, err := sys.DB().QueryRows(ctx, "SELECT title FROM movies WHERE revenue > ?", 1e8)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		var title string
//		_ = rows.Scan(&title)
//	}
//
// Engine errors are typed: every error is an errors.As-matchable *Error
// with a stable Code (ErrParse, ErrNoTable, ErrNoColumn, ErrType, ...),
// and Stats() exposes the observability counters (queries served,
// plan-cache hits, rows scanned/emitted, index vs full scans, open
// cursors) a production deployment watches under heavy traffic. Per-query
// accounting closes the loop: Rows.Stats reports what one cursor's
// execution did, and ExplainAnalyze runs a statement and renders its
// operator tree annotated with real per-operator counts.
//
// See the examples/ directory for complete programs.
package tag

import (
	"context"
	"fmt"

	"tag/internal/core"
	"tag/internal/llm"
	"tag/internal/sem"
	"tag/internal/server/pgwire"
	"tag/internal/sqldb"
	"tag/internal/tagbench"
	"tag/internal/tagbench/domains"
	"tag/internal/world"
)

// Re-exported building blocks. The aliases give downstream users the full
// method sets of the internal implementations through a stable import path.
type (
	// Database is the embedded SQL engine (the exec substrate).
	Database = sqldb.Database
	// Stmt is a prepared SELECT statement: parsed once via Database.Prepare,
	// executable many times. Database.Query also consults an internal LRU
	// plan cache, so hot query strings are parsed only once either way.
	Stmt = sqldb.Stmt
	// Result is a materialised query result (Rows.Collect).
	Result = sqldb.Result
	// Rows is a streaming, context-aware query cursor (Database.QueryRows).
	Rows = sqldb.Rows
	// Error is the engine's typed error; match with errors.As and branch
	// on Code.
	Error = sqldb.Error
	// ErrorCode classifies an engine Error (sqldb.ErrParse, ...).
	ErrorCode = sqldb.ErrorCode
	// Stats is a snapshot of the engine's observability counters.
	Stats = sqldb.Stats
	// QueryStats is one query's own execution counters (Rows.Stats,
	// ExplainAnalyze) — the per-statement slice of Stats.
	QueryStats = sqldb.QueryStats
	// AnalyzedQuery is an executed plan annotated with real per-operator
	// counts (Database.ExplainAnalyze / System.ExplainAnalyze).
	AnalyzedQuery = sqldb.AnalyzedQuery
	// Value is a dynamically typed SQL value.
	Value = sqldb.Value
	// DurabilityOptions configures the embedded engine's durability layer
	// (fsync policy, checkpoint threshold) for OpenDatabase.
	DurabilityOptions = sqldb.DurabilityOptions
	// SyncPolicy selects when the write-ahead log is fsynced
	// (SyncAlways, SyncInterval, SyncOff).
	SyncPolicy = sqldb.SyncPolicy
	// DataFrame carries a query result through the semantic operators
	// (LOTUS substitute): SemFilter, SemFilterDistinct, SemTopK, SemAgg and
	// SemAggRows, plus Head and cell access. Relational steps — filters,
	// joins, ordering, projection — go in the SQL a frame is loaded with
	// (System.FrameQuery).
	DataFrame = sem.DataFrame
	// Claim is one sentence of the claim grammar semantic filters speak and
	// the simulated LM recognises (TaskClaim); Claim.About writes it as a
	// SemFilter instruction about a column.
	Claim = llm.Claim
	// Model is the language-model inference interface.
	Model = llm.Model
	// Profile configures the simulated LM's fallibility.
	Profile = llm.Profile
	// Report aggregates benchmark outcomes (Table 1 / Table 2 printers).
	Report = core.Report
	// Method is a question-answering strategy under evaluation.
	Method = core.Method
	// Query is one TAG-Bench query.
	Query = tagbench.Query
	// WireServer serves a Database over the Postgres v3 wire protocol, so
	// any Postgres client or driver can query it across the network
	// (cmd/tagserve is the packaged binary).
	WireServer = pgwire.Server
	// WireServerOptions configures a WireServer (connection limit,
	// cleartext password auth).
	WireServerOptions = pgwire.Options
)

// Sync policies for DurabilityOptions.Sync.
const (
	// SyncAlways fsyncs the WAL on every commit (full durability).
	SyncAlways = sqldb.SyncAlways
	// SyncInterval fsyncs on a background ticker (bounded data loss).
	SyncInterval = sqldb.SyncInterval
	// SyncOff never fsyncs explicitly (durability up to the OS).
	SyncOff = sqldb.SyncOff
)

// NewDatabase returns an empty embedded database.
func NewDatabase() *Database { return sqldb.NewDatabase() }

// NewWireServer wraps a database in a Postgres wire-protocol server.
// Start it with Serve or ListenAndServe; stop it with Shutdown (graceful
// drain) or Close.
func NewWireServer(db *Database, opts WireServerOptions) *WireServer {
	return pgwire.NewServer(db, opts)
}

// OpenDatabase opens a durable embedded database backed by a write-ahead
// log in dir, replaying any committed work a previous process left there.
// With no options it uses sqldb.DefaultDurabilityOptions (fsync on every
// commit). In-memory use is NewDatabase; this constructor is the crash-safe
// variant.
func OpenDatabase(dir string, opts ...DurabilityOptions) (*Database, error) {
	o := sqldb.DefaultDurabilityOptions()
	if len(opts) > 0 {
		o = opts[0]
	}
	return sqldb.Open(dir, sqldb.WithDurability("", o))
}

// DefaultProfile is the calibrated 70B-like model profile used by the
// benchmark.
func DefaultProfile() Profile { return llm.DefaultProfile() }

// OracleProfile is a perfect model (no noise, unbounded context) for
// debugging pipelines.
func OracleProfile() Profile { return llm.OracleProfile() }

// Domains lists the built-in benchmark domains plus "movies".
func Domains() []string { return append(domains.Names(), "movies") }

// BenchmarkQueries returns the 80 TAG-Bench queries.
func BenchmarkQueries() []*Query { return tagbench.Queries() }

// System is a ready-to-query TAG system: a database plus a language model
// wired through the TAG pipeline and the semantic-operator runtime. The
// model is wrapped with bounded jittered retry (llm.WithRetry), so
// transient inference failures are absorbed instead of failing the
// request; retry traffic shows up in the model's Stats.
type System struct {
	env      *core.Env
	model    *llm.SimLM      // the simulated model at the core (clock, view)
	lm       *llm.RetryModel // the retry-wrapped surface the pipeline calls
	pipeline *core.Pipeline
}

// Option configures a System.
type Option func(*options)

type options struct {
	profile *Profile
	lmUDFs  bool
}

// WithProfile selects the LM fallibility profile (default: DefaultProfile).
func WithProfile(p Profile) Option {
	return func(o *options) { o.profile = &p }
}

// WithLMUDFs enables LM user-defined functions inside SQL (LLM_FILTER,
// LLM_SCORE, LLM_MAP), letting synthesised queries run semantic predicates
// during exec — the §2.1 design point.
func WithLMUDFs() Option {
	return func(o *options) { o.lmUDFs = true }
}

// Open builds a System over one of the built-in generated domains
// (Domains() lists them).
func Open(domain string, opts ...Option) (*System, error) {
	db, err := domains.Build(domain)
	if err != nil {
		return nil, err
	}
	return New(domain, db, opts...), nil
}

// New builds a System over a caller-provided database.
func New(name string, db *Database, opts ...Option) *System {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	profile := llm.DefaultProfile()
	if o.profile != nil {
		profile = *o.profile
	}
	model := llm.NewSimLM(world.Default(), profile, llm.NewClock(), llm.DefaultCostModel())
	lm := llm.WithRetry(model, llm.DefaultRetryOptions())
	sys := &System{
		env:   core.NewEnv(name, db),
		model: model,
		lm:    lm,
		pipeline: &core.Pipeline{
			Model:     lm,
			UseLMUDFs: o.lmUDFs,
		},
	}
	if o.lmUDFs {
		core.RegisterLMUDFs(db, lm)
	}
	return sys
}

// DB exposes the underlying database.
func (s *System) DB() *Database { return s.env.DB }

// Model exposes the underlying language model (retry-wrapped; use
// llm.AsSimLM to reach the simulated core).
func (s *System) Model() Model { return s.lm }

// LMSeconds reports the simulated LM time consumed so far.
func (s *System) LMSeconds() float64 { return s.model.Clock().Now() }

// Response is the result of one TAG pipeline run, exposing every
// intermediate artefact (Figure 1's three stages).
type Response struct {
	Question string
	SQL      string  // syn(R)
	Table    *Result // exec(Q)
	Answer   string  // gen(R, T)
}

// Ask answers a natural-language question with the full TAG pipeline
// (automatic query synthesis). Questions follow the controlled grammar of
// the benchmark; see the examples.
func (s *System) Ask(ctx context.Context, question string) (*Response, error) {
	res, err := s.pipeline.Run(ctx, s.env, question)
	if err != nil {
		return nil, err
	}
	return &Response{
		Question: res.Question,
		SQL:      res.SQL,
		Table:    res.Table,
		Answer:   res.Answer,
	}, nil
}

// Frame loads a table as a DataFrame for hand-written pipelines mixing
// relational and semantic operators.
func (s *System) Frame(table string) (*DataFrame, error) {
	return sem.FromTable(s.env.DB, table)
}

// Prepare parses a SELECT once for repeated execution against the system's
// database — the low-latency path for hot queries under heavy traffic.
func (s *System) Prepare(sql string) (*Stmt, error) {
	return s.env.DB.Prepare(sql)
}

// QueryRows runs SQL against the system's database and returns a
// streaming cursor (see Database.QueryRows). Close it.
func (s *System) QueryRows(ctx context.Context, sql string, params ...any) (*Rows, error) {
	return s.env.DB.QueryRows(ctx, sql, params...)
}

// Stats reports the engine's observability counters: queries served,
// plan-cache hits/misses, rows scanned and emitted, index vs full scans,
// and open cursors. The aggregate is the sum of per-query recorders —
// each statement's own numbers are available from Rows.Stats and
// ExplainAnalyze.
func (s *System) Stats() Stats { return s.env.DB.Stats() }

// ExplainAnalyze executes a SELECT against the system's database and
// returns its operator tree annotated with what each operator really did
// (rows, loops, wall time, rows scanned per access path, subplan probe
// and cache counts), plus the query's per-execution totals.
func (s *System) ExplainAnalyze(ctx context.Context, sql string, params ...any) (*AnalyzedQuery, error) {
	return s.env.DB.ExplainAnalyze(ctx, sql, params...)
}

// FrameQuery runs SQL and wraps the result as a DataFrame, streaming rows
// straight into the frame.
func (s *System) FrameQuery(sql string, params ...any) (*DataFrame, error) {
	rows, err := s.env.DB.QueryRows(context.Background(), sql, params...)
	if err != nil {
		return nil, err
	}
	return sem.FromRows(rows)
}

// TaskClaim finds a sentence of the claim grammar by name — "city in
// region", "bay area county", "eu country", "classic movie", "named after a
// person", "premium", "taller than", "positive", "negative", "sarcastic",
// "technical", the names LLM_FILTER takes as its task; any other task reads
// as a free-form condition the simulated LM can only guess at. The semantic
// operators are methods on DataFrame; the System provides the model:
//
//	df, _ := sys.Frame("schools")
//	inRegion := tag.TaskClaim("city in region").About("{City}", "Silicon Valley")
//	sv, _ := df.SemFilterDistinct(ctx, sys.Model(), inRegion, "City")
func TaskClaim(task string) Claim { return llm.TaskClaim(task) }

// RunBenchmark evaluates the paper's five methods on TAG-Bench and returns
// the report (Table1/Table2/SpeedupLine printers).
func RunBenchmark(ctx context.Context, profile Profile) (*Report, error) {
	envs, err := core.BuildEnvs()
	if err != nil {
		return nil, err
	}
	return core.RunBenchmark(ctx, envs, core.NewDefaultMethods(profile), nil)
}

// Figure2 renders the paper's qualitative aggregation comparison.
func Figure2(ctx context.Context, profile Profile) (string, error) {
	envs, err := core.BuildEnvs()
	if err != nil {
		return "", err
	}
	return core.Figure2(ctx, envs, profile)
}

// ExplainPipeline prints the hand-written TAG operator chain for a
// benchmark query id.
func ExplainPipeline(queryID string) (string, error) {
	for _, q := range tagbench.Queries() {
		if q.ID == queryID {
			return core.PipelineFor(q.Spec), nil
		}
	}
	return "", fmt.Errorf("tag: no benchmark query %q", queryID)
}
