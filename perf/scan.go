package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"tag/internal/sqldb"
)

// scanData is the generated content of items, kept as plain Go columns so
// the oracles never ask the engine what the right answer is. Row i has
// id i, name "item-i" and price cents[i]/100.
type scanData struct {
	cat, cents, qty []int
	ncats           int
}

func genScanData(seed int64, n int) *scanData {
	r := rand.New(rand.NewSource(seed))
	d := &scanData{ncats: n / 10}
	for i := 0; i < n; i++ {
		d.cat = append(d.cat, r.Intn(d.ncats))
		d.cents = append(d.cents, r.Intn(10000))
		d.qty = append(d.qty, r.Intn(50))
	}
	return d
}

// loadInto creates and fills items and cats (the shape of the engine's own
// benchDB) in db.
func (d *scanData) loadInto(db *sqldb.Database) error {
	db.MustExec("CREATE TABLE items (id INTEGER PRIMARY KEY, cat_id INTEGER, name TEXT, price REAL, qty INTEGER)")
	db.MustExec("CREATE TABLE cats (id INTEGER PRIMARY KEY, label TEXT)")
	cats := make([][]any, d.ncats)
	for i := range cats {
		cats[i] = []any{i, fmt.Sprintf("cat-%d", i)}
	}
	if err := db.InsertRows("cats", cats); err != nil {
		return err
	}
	items := make([][]any, len(d.cat))
	for i := range items {
		items[i] = []any{i, d.cat[i], fmt.Sprintf("item-%d", i), float64(d.cents[i]) / 100, d.qty[i]}
	}
	return db.InsertRows("items", items)
}

// load builds a database of its own and seals it, returning how long
// sealing took.
func (d *scanData) load(opts ...sqldb.Option) (*sqldb.Database, time.Duration, error) {
	db := sqldb.NewDatabase(opts...)
	if err := d.loadInto(db); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	db.Seal()
	return db, time.Since(t0), nil
}

// scanStmt is one statement of the pass with its oracle.
type scanStmt struct {
	sql   string
	check func(res *sqldb.Result) bool
}

type scanState struct {
	data   *scanData
	db     *sqldb.Database
	sealS  float64
	stmts  []scanStmt // in scanStmtKeys order
	passes int        // traced passes
	engine sqldb.Stats
}

func setupScan(cfg config) (state, error) {
	s := &scanState{data: genScanData(cfg.Seed, cfg.Size.Items)}
	db, seal, err := s.data.load()
	if err != nil {
		return nil, err
	}
	s.db, s.sealS = db, seal.Seconds()
	s.stmts = s.data.statements()
	return s, nil
}

func cents(v sqldb.Value) int { return int(math.Round(v.AsFloat() * 100)) }

func near(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }

// statements computes every expected result in Go from the columns.
func (d *scanData) statements() []scanStmt {
	n := len(d.cat)
	var hitN, hitIDs, hitCents, sumQty, sumCents int
	minC, maxC := d.cents[0], d.cents[0]
	lowN, lowCents := make([]int, 50), make([]int, 50)
	catN, catQty := make([]int, d.ncats), make([]int, d.ncats)
	for i := 0; i < n; i++ {
		if d.cents[i] > 5000 && d.qty[i] < 25 {
			hitN++
			hitIDs += i
			hitCents += d.cents[i]
		}
		sumQty += d.qty[i]
		sumCents += d.cents[i]
		minC, maxC = min(minC, d.cents[i]), max(maxC, d.cents[i])
		lowN[d.qty[i]]++
		lowCents[d.qty[i]] += d.cents[i]
		catN[d.cat[i]]++
		catQty[d.cat[i]] += d.qty[i]
	}
	liveCats := 0
	for _, c := range catN {
		if c > 0 {
			liveCats++
		}
	}
	// Top 10 categories by total qty; ties by label, as the statement asks.
	top := make([]int, d.ncats)
	for i := range top {
		top[i] = i
	}
	label := func(c int) string { return fmt.Sprintf("cat-%d", c) }
	sort.Slice(top, func(a, b int) bool {
		if catQty[top[a]] != catQty[top[b]] {
			return catQty[top[a]] > catQty[top[b]]
		}
		return label(top[a]) < label(top[b])
	})
	// Top 100 items by price, ties by id.
	dear := make([]int, n)
	for i := range dear {
		dear[i] = i
	}
	sort.Slice(dear, func(a, b int) bool {
		if d.cents[dear[a]] != d.cents[dear[b]] {
			return d.cents[dear[a]] > d.cents[dear[b]]
		}
		return dear[a] < dear[b]
	})
	count := func(want int) func(*sqldb.Result) bool {
		return func(res *sqldb.Result) bool {
			return len(res.Rows) == 1 && int(res.Rows[0][0].AsInt()) == want
		}
	}

	return []scanStmt{
		{"SELECT id, price FROM items WHERE price > 50 AND qty < 25", func(res *sqldb.Result) bool {
			ids, cs := 0, 0
			for _, row := range res.Rows {
				ids += int(row[0].AsInt())
				cs += cents(row[1])
			}
			return len(res.Rows) == hitN && ids == hitIDs && cs == hitCents
		}},
		{"SELECT COUNT(*) FROM items WHERE price > 50 AND qty < 25", count(hitN)},
		{"SELECT COUNT(*), SUM(qty), MIN(price), MAX(price), AVG(price) FROM items", func(res *sqldb.Result) bool {
			if len(res.Rows) != 1 {
				return false
			}
			r := res.Rows[0]
			return int(r[0].AsInt()) == n && int(r[1].AsInt()) == sumQty && cents(r[2]) == minC &&
				cents(r[3]) == maxC && near(r[4].AsFloat(), float64(sumCents)/100/float64(n))
		}},
		{"SELECT qty, COUNT(*), SUM(price) FROM items GROUP BY qty", func(res *sqldb.Result) bool {
			for _, r := range res.Rows {
				q := int(r[0].AsInt())
				if q < 0 || q >= 50 || int(r[1].AsInt()) != lowN[q] || !near(r[2].AsFloat(), float64(lowCents[q])/100) {
					return false
				}
			}
			return len(res.Rows) == 50
		}},
		{"SELECT cat_id, COUNT(*), SUM(qty) FROM items GROUP BY cat_id", func(res *sqldb.Result) bool {
			for _, r := range res.Rows {
				c := int(r[0].AsInt())
				if c < 0 || c >= d.ncats || int(r[1].AsInt()) != catN[c] || int(r[2].AsInt()) != catQty[c] {
					return false
				}
			}
			return len(res.Rows) == liveCats
		}},
		{"SELECT cats.label, SUM(items.qty) AS s FROM items JOIN cats ON items.cat_id = cats.id GROUP BY cats.label ORDER BY s DESC, cats.label LIMIT 10", func(res *sqldb.Result) bool {
			for i, r := range res.Rows {
				if i >= 10 || r[0].AsText() != label(top[i]) || int(r[1].AsInt()) != catQty[top[i]] {
					return false
				}
			}
			return len(res.Rows) == 10
		}},
		{"SELECT id, price FROM items ORDER BY price DESC, id LIMIT 100", func(res *sqldb.Result) bool {
			for i, r := range res.Rows {
				if i >= 100 || int(r[0].AsInt()) != dear[i] || cents(r[1]) != d.cents[dear[i]] {
					return false
				}
			}
			return len(res.Rows) == 100
		}},
		// A CASE predicate has no vector kernel: this statement takes the
		// row path while the seven above can vectorize.
		{"SELECT COUNT(*) FROM items WHERE CASE WHEN qty < 25 THEN price ELSE 0 END > 50", count(hitN)},
	}
}

// pass runs the eight statements once against db.
func (s *scanState) pass(db *sqldb.Database, rec *recorder, req int32) (ops, failed int) {
	for i, st := range s.stmts {
		id := rec.begin("sqldb.exec."+scanStmtKeys[i], noSpan, req)
		res, err := db.Query(st.sql)
		rec.end(id)
		ops++
		if err != nil || !st.check(res) {
			failed++
		}
	}
	return ops, failed
}

func (s *scanState) round(_ int, rec *recorder, n int) (int, int) {
	if rec == nil {
		return s.pass(s.db, nil, int32(n))
	}
	before := s.db.Stats()
	id := rec.begin("sqldb.exec.pass", noSpan, int32(n))
	ops, failed := s.pass(s.db, rec, int32(n))
	rec.end(id)
	s.engine = statsCombine(s.engine, statsCombine(s.db.Stats(), before, -1), 1)
	s.passes++
	return ops, failed
}

func (s *scanState) finish(cfg config, out *layerOut) (int, int, error) {
	if !cfg.Trace {
		return 0, 0, nil
	}
	m := out.m
	for _, key := range scanStmtKeys {
		m["sqldb.exec."+key+"_p50_ms"] = out.spans.p50("sqldb.exec."+key) / 1e3
	}
	m["sqldb.exec.pass_ms_default"] = out.spans.p50("sqldb.exec.pass") / 1e3

	// The same pass on a database limited to one worker, for the speed-up
	// the default pool buys (or costs) on this host.
	db1, _, err := s.data.load(sqldb.WithMaxWorkers(1))
	if err != nil {
		return 0, 0, err
	}
	var ops, failed int
	for i := 0; i < 3; i++ {
		timeSpan(out.probe, "sqldb.exec.pass_workers1", func() {
			o, f := s.pass(db1, nil, int32(i))
			ops, failed = ops+o, failed+f
		})
	}
	m["sqldb.exec.pass_ms_workers1"] = out.spans.p50("sqldb.exec.pass_workers1") / 1e3
	m["sqldb.parallel_speedup"] = ratio(m["sqldb.exec.pass_ms_workers1"], m["sqldb.exec.pass_ms_default"])

	// Counters come from the traced passes only, so the rate is over their
	// time; with one client every pass counts the same.
	passes := float64(s.passes)
	tracedWall := time.Duration(out.spans.total(func(n string) bool { return n == "sqldb.exec.pass" }) * 1e3)
	engineMetrics(m, s.engine, tracedWall)
	m["sqldb.vector_batches_per_pass"] = float64(s.engine.VectorBatches) / passes
	m["sqldb.row_fallbacks_per_pass"] = float64(s.engine.RowFallbacks) / passes
	m["sqldb.decoded_blocks_per_pass"] = float64(s.engine.DecodedBlocks) / passes
	m["sqldb.segment_scans_per_pass"] = float64(s.engine.SegmentScans) / passes
	m["sqldb.seal.s"] = s.sealS
	m["sqldb.seal.segments"] = float64(s.db.Stats().SegmentsSealed)
	return ops, failed, nil
}

func (s *scanState) close() {}
