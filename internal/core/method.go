// Package core implements the TAG model (query synthesis → query execution
// → answer generation) and the five methods the paper evaluates:
//
//	Text2SQL            — LM writes SQL whose result *is* the answer
//	RAG                 — embed rows, retrieve top-10, single LM call
//	Retrieval + LM Rank — RAG with an LM reranking pass
//	Text2SQL + LM       — LM writes retrieval SQL, rows go in context
//	Hand-written TAG    — expert pipelines over semantic operators
//
// plus the benchmark harness that regenerates Table 1, Table 2 and
// Figure 2.
package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tag/internal/embed"
	"tag/internal/llm"
	"tag/internal/nlq"
	"tag/internal/sqldb"
	"tag/internal/tagbench"
	"tag/internal/tagbench/domains"
	"tag/internal/vector"
	"tag/internal/world"
)

// Answer is a method's response to a benchmark query: a value list for
// match/comparison/ranking queries, or free text for aggregation queries.
type Answer struct {
	Values []string
	Text   string
}

// Method answers natural-language questions over a database environment.
type Method interface {
	Name() string
	// Answer resolves the question. Errors (invalid SQL, context length)
	// count as incorrect; their time is still charged.
	Answer(ctx context.Context, env *Env, q *tagbench.Query) (*Answer, error)
}

// Env is one benchmark domain's execution environment, shared by all
// methods: the database, its schema prompt, and a lazily built row-level
// embedding index for the retrieval baselines.
type Env struct {
	Domain string
	DB     *sqldb.Database
	Schema string
	World  *world.World

	embedder *embed.Embedder

	ragOnce  sync.Once
	ragIndex *vector.Flat
	ragRows  []llm.DataPoint
	ragErr   error
}

// NewEnv wraps a database as a method environment.
func NewEnv(domain string, db *sqldb.Database) *Env {
	return &Env{
		Domain:   domain,
		DB:       db,
		Schema:   db.SchemaSQL(),
		World:    world.Default(),
		embedder: embed.New(0),
	}
}

// BuildEnvs constructs environments for all five benchmark domains.
func BuildEnvs() (map[string]*Env, error) {
	envs := make(map[string]*Env)
	for _, name := range domains.Names() {
		db, err := domains.Build(name)
		if err != nil {
			return nil, err
		}
		envs[name] = NewEnv(name, db)
	}
	return envs, nil
}

// ragState builds (once) the row-level embedding index over every table in
// the domain: each row serialised as "- col: val" lines, embedded, and
// stored in an exact flat index — the paper's RAG setup.
func (e *Env) ragState() (*vector.Flat, []llm.DataPoint, error) {
	e.ragOnce.Do(func() {
		idx := vector.NewFlat(e.embedder.Dim(), vector.Cosine)
		id := 0
		var text []byte
		for _, table := range e.DB.TableNames() {
			res, err := e.DB.QueryContext(context.Background(), "SELECT * FROM "+table)
			if err != nil {
				e.ragErr = err
				return
			}
			for _, row := range res.Rows {
				text = text[:0]
				for ci, col := range res.Columns {
					text = append(append(append(text, "- "...), col...), ": "...)
					text = append(row[ci].AppendText(text), '\n')
				}
				if err := idx.Add(id, e.embedder.Embed(string(text))); err != nil {
					e.ragErr = err
					return
				}
				id++
			}
			e.ragRows = append(e.ragRows, dataPoints(res, true)...)
		}
		e.ragIndex = idx
	})
	return e.ragIndex, e.ragRows, e.ragErr
}

// retrieve returns the top-k rows for a question by embedding similarity.
func (e *Env) retrieve(question string, k int) ([]llm.DataPoint, error) {
	idx, rows, err := e.ragState()
	if err != nil {
		return nil, err
	}
	hits, err := idx.Search(e.embedder.Embed(question), k)
	if err != nil {
		return nil, err
	}
	out := make([]llm.DataPoint, 0, len(hits))
	for _, h := range hits {
		out = append(out, rows[h.ID])
	}
	return out, nil
}

// resultPoints reads an executed result as prompt points (llm.Points) in
// place, with rendering order and source columns resolved once. sorted is
// the baselines' rendering, each distinct column name once in name order;
// otherwise every column renders, in result order (gen over exec's table).
// Pinned wart, kept from when a point was a map keyed by column name: where
// a join under SELECT * repeats a name, every rendering of it shows the
// value of the *last* column so named.
type resultPoints struct {
	rows   []sqldb.Row
	header []string
	src    []int // header[j] renders column src[j]
}

func newResultPoints(res *sqldb.Result, sorted bool) resultPoints {
	cols := res.Columns
	lastNamed := func(name string) int {
		i := len(cols) - 1
		for cols[i] != name {
			i--
		}
		return i
	}
	header := cols
	if sorted {
		header = make([]string, 0, len(cols))
		for i, c := range cols {
			if lastNamed(c) == i {
				header = append(header, c)
			}
		}
		sort.Strings(header)
	}
	src := make([]int, len(header))
	for i, c := range header {
		src[i] = lastNamed(c)
	}
	return resultPoints{rows: res.Rows, header: header, src: src}
}

func (p resultPoints) Len() int           { return len(p.rows) }
func (p resultPoints) Names(int) []string { return p.header }

func (p resultPoints) ValLen(i, j int) int {
	if v := p.rows[i][p.src[j]]; v.Kind() == sqldb.KindText {
		return len(v.AsText())
	}
	var cell [32]byte
	return len(p.AppendVal(cell[:0], i, j))
}

func (p resultPoints) AppendVal(dst []byte, i, j int) []byte {
	return p.rows[i][p.src[j]].AppendText(dst)
}

// dataPoints builds the points resultPoints reads, for RAG's index, which
// keeps them. A TEXT cell shares the row's string; every other cell's text
// is cut from one arena, sized up front, so the allocations are per result,
// not per cell.
func dataPoints(res *sqldb.Result, sorted bool) []llm.DataPoint {
	view, size := newResultPoints(res, sorted), 0
	for i, row := range res.Rows {
		for j, s := range view.src {
			if row[s].Kind() != sqldb.KindText {
				size += view.ValLen(i, j)
			}
		}
	}
	var arena strings.Builder
	arena.Grow(size)
	n, cell := len(view.header), [32]byte{}
	points, vals := make([]llm.DataPoint, len(res.Rows)), make([]string, len(res.Rows)*n)
	for i, row := range res.Rows {
		pv := vals[i*n : (i+1)*n : (i+1)*n]
		for j, s := range view.src {
			if v := row[s]; v.Kind() == sqldb.KindText {
				pv[j] = v.AsText()
			} else {
				at := arena.Len()
				arena.Write(v.AppendText(cell[:0]))
				pv[j] = arena.String()[at:]
			}
		}
		points[i] = llm.DataPoint{Cols: view.header, Vals: pv}
	}
	return points
}

// resultToAnswer converts a SQL result into an Answer: single-column
// results become a value list; multi-column results flatten row-major.
func resultToAnswer(res *sqldb.Result) *Answer {
	a := &Answer{}
	for _, row := range res.Rows {
		for _, v := range row {
			a.Values = append(a.Values, v.AsText())
		}
	}
	a.Text = res.String()
	return a
}

// toAnswer reads generated text as an Answer: free text for an aggregation
// question, else the LM's "[v1, v2]" list.
func toAnswer(q *tagbench.Query, raw string) *Answer {
	if q.Spec.Type == nlq.Aggregation {
		return &Answer{Text: raw}
	}
	return &Answer{Values: llm.ParseAnswerList(raw), Text: raw}
}

// countAnswer renders an exact count as an Answer.
func countAnswer(n int) *Answer {
	return &Answer{Values: []string{strconv.Itoa(n)}, Text: fmt.Sprintf("[%d]", n)}
}
