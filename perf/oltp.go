package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"tag/internal/sqldb"
)

// oltpState is oltp_durable after set-up: a durable database (fsync per
// commit, default checkpoint threshold) holding acct, and one ledger per
// client. Each client reads and writes only ids it owns, so its ledger is
// exact whatever the other client does.
type oltpState struct {
	dir     string
	db      *sqldb.Database
	clients []*oltpClient
	sealS   float64
	stats0  sqldb.Stats
}

// oltpClient is one closed-loop client and its ledger of acknowledged
// writes: the balance of every live id it owns.
type oltpClient struct {
	rng    *rand.Rand
	lo, hi int // owned slice of the initial ids
	nextID int // next id this client inserts
	bal    map[int]int64
	live   []int
	pos    map[int]int // id -> index in live
	order  []int       // class index per op of a round, reshuffled each round
}

func owner(id int) string { return fmt.Sprintf("owner-%d", id) }

func setupOLTP(cfg config) (state, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.OutDir, "oltp-")
	if err != nil {
		return nil, err
	}
	s := &oltpState{dir: dir}
	if s.db, err = sqldb.Open(dir); err != nil {
		s.close()
		return nil, err
	}
	n := cfg.Size.Acct
	r := rand.New(rand.NewSource(cfg.Seed))
	rows := make([][]any, n)
	for c := 0; c < 2; c++ {
		cl := &oltpClient{
			rng: rand.New(rand.NewSource(cfg.Seed*7919 + int64(c))),
			lo:  c * n / 2, hi: (c + 1) * n / 2, nextID: n + c*10_000_000,
			bal: make(map[int]int64), pos: make(map[int]int),
			order: mixOrder(oltpClasses, cfg.Size.RoundOps),
		}
		for id := cl.lo; id < cl.hi; id++ {
			b := int64(1000 + r.Intn(9000))
			rows[id] = []any{id, owner(id), b}
			cl.add(id, b)
		}
		s.clients = append(s.clients, cl)
	}
	if _, err := s.db.Exec("CREATE TABLE acct (id INTEGER PRIMARY KEY, owner TEXT, bal INTEGER)"); err == nil {
		_, err = s.db.Exec("CREATE INDEX idx_acct_bal ON acct (bal)")
	}
	if err == nil {
		err = s.db.InsertRows("acct", rows)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	t0 := time.Now()
	s.db.Seal()
	s.sealS = time.Since(t0).Seconds()
	s.stats0 = s.db.Stats()
	return s, nil
}

func (c *oltpClient) add(id int, bal int64) {
	c.bal[id] = bal
	c.pos[id] = len(c.live)
	c.live = append(c.live, id)
}

func (c *oltpClient) remove(id int) {
	i, last := c.pos[id], c.live[len(c.live)-1]
	c.live[i], c.pos[last] = last, i
	c.live = c.live[:len(c.live)-1]
	delete(c.pos, id)
	delete(c.bal, id)
}

func (c *oltpClient) pick() int { return c.live[c.rng.Intn(len(c.live))] }

func (s *oltpState) round(client int, rec *recorder, n int) (ops, failed int) {
	c := s.clients[client]
	return mixRound(c.rng, c.order, oltpClasses, "oltp.", rec, n, func(ci int, span, req int32) bool {
		return s.op(c, ci, rec, span, req)
	})
}

// op runs one op of class ci and checks it against the ledger. The ledger
// changes only when the engine acknowledged the write.
func (s *oltpState) op(c *oltpClient, ci int, rec *recorder, parent, req int32) bool {
	db := s.db
	oneInt := func(res *sqldb.Result, err error, want int64) bool {
		return err == nil && len(res.Rows) == 1 && res.Rows[0][0].AsInt() == want
	}
	switch oltpClasses[ci].Name {
	case "read_lit":
		id := c.pick()
		res, err := db.Query(fmt.Sprintf("SELECT bal FROM acct WHERE id = %d", id))
		return oneInt(res, err, c.bal[id])
	case "read_param":
		id := c.pick()
		res, err := db.Query("SELECT bal FROM acct WHERE id = ?", id)
		return oneInt(res, err, c.bal[id])
	case "range":
		a := c.lo + c.rng.Intn(c.hi-c.lo-100)
		want := int64(0)
		for id := a; id < a+100; id++ {
			if _, ok := c.bal[id]; ok {
				want++
			}
		}
		res, err := db.Query(fmt.Sprintf("SELECT COUNT(*) FROM acct WHERE id BETWEEN %d AND %d", a, a+99))
		return oneInt(res, err, want)
	case "update":
		id, delta := c.pick(), int64(c.rng.Intn(200)-100)
		n, err := db.Exec("UPDATE acct SET bal = bal + ? WHERE id = ?", delta, id)
		if err != nil {
			return false
		}
		c.bal[id] += delta
		return n == 1
	case "insert":
		id, b := c.nextID, int64(1000+c.rng.Intn(9000))
		c.nextID++
		n, err := db.Exec("INSERT INTO acct VALUES (?, ?, ?)", id, owner(id), b)
		if err != nil {
			return false
		}
		c.add(id, b)
		return n == 1
	case "delete":
		id := c.pick()
		n, err := db.Exec("DELETE FROM acct WHERE id = ?", id)
		if err != nil {
			return false
		}
		c.remove(id)
		return n == 1
	default: // txn2: move x from one owned account to another
		from, to, x := c.pick(), c.pick(), int64(c.rng.Intn(100))
		tx := db.Begin()
		n1, err := tx.Exec("UPDATE acct SET bal = bal - ? WHERE id = ?", x, from)
		var n2 int
		if err == nil {
			n2, err = tx.Exec("UPDATE acct SET bal = bal + ? WHERE id = ?", x, to)
		}
		if err != nil {
			_ = tx.Rollback() // the op already counts as failed
			return false
		}
		cid := rec.begin("wal.commit", parent, req)
		err = tx.Commit()
		rec.end(cid)
		if err != nil {
			return false
		}
		c.bal[from] -= x
		c.bal[to] += x
		return n1 == 1 && n2 == 1
	}
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// finish closes the database, reopens it and checks the recovered table
// against the ledgers row by row: a ledger row that is missing or has
// another balance is a lost write, a table row no ledger has is a phantom.
// This is clean-restart durability; crash durability needs the engine's
// unexported fault-injecting filesystem and stays with wal_crash_test.go.
func (s *oltpState) finish(cfg config, out *layerOut) (attempted, failed int, err error) {
	m := out.m
	vacuum := timeSpan(out.probe, "sqldb.vacuum.explicit", func() { s.db.Vacuum() })
	delta := statsCombine(s.db.Stats(), s.stats0, -1)
	segments := s.db.Stats().SegmentsSealed
	if err := s.db.Close(); err != nil {
		return 0, 0, err
	}
	s.db = nil
	logged, err := dirBytes(s.dir)
	if err != nil {
		return 0, 0, err
	}
	var db *sqldb.Database
	recovery := timeSpan(out.probe, "sqldb.recovery", func() { db, err = sqldb.Open(s.dir) })
	if err != nil {
		return 0, 0, fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()

	want := make(map[int]int64)
	var wantSum, userBytes int64
	for _, c := range s.clients {
		for id, b := range c.bal {
			want[id] = b
			wantSum += b
			userBytes += int64(16 + len(owner(id)))
		}
	}
	res, err := db.Query("SELECT id, bal FROM acct")
	if err != nil {
		return 0, 0, err
	}
	attempted = len(want) + 2
	seen := 0
	for _, row := range res.Rows {
		if b, ok := want[int(row[0].AsInt())]; ok && b == row[1].AsInt() {
			seen++
		} else if !ok {
			failed++ // phantom
		}
	}
	failed += len(want) - seen // lost or stale
	agg, err := db.Query("SELECT COUNT(*), SUM(bal) FROM acct")
	if err != nil {
		return 0, 0, err
	}
	if agg.Rows[0][0].AsInt() != int64(len(want)) {
		failed++
	}
	if agg.Rows[0][1].AsInt() != wantSum {
		failed++
	}

	replayed := db.Stats().RecoveredTxns
	checkpoint := timeSpan(out.probe, "sqldb.wal.checkpoint", func() { err = db.Checkpoint() })
	if err != nil {
		return 0, 0, err
	}
	stored, err := dirBytes(s.dir)
	if err != nil {
		return 0, 0, err
	}
	m["recovery_s"] = recovery.Seconds()
	m["space_amp"] = float64(stored) / float64(userBytes)
	if !cfg.Trace {
		return attempted, failed, nil
	}

	engineMetrics(m, delta, out.wall)
	for _, c := range oltpClasses {
		out.spans.p50p99(m, out.tails, "oltp."+c.Name, "sqldb.oltp."+c.Name)
	}
	readWriteP50(out, "oltp.", oltpClasses)
	out.spans.p50p99(m, out.tails, "wal.commit", "sqldb.wal.commit")
	m["sqldb.wal.checkpoint_s"] = checkpoint.Seconds()
	m["sqldb.recovery.s_per_mb"] = recovery.Seconds() / (float64(logged) / (1 << 20))
	m["sqldb.recovery.txns_replayed"] = float64(replayed)
	m["sqldb.seal.s"] = s.sealS
	m["sqldb.seal.segments"] = float64(segments)
	m["sqldb.vacuum.explicit_s"] = vacuum.Seconds()
	return attempted, failed, nil
}

// readWriteP50 pools the op spans of a mix into its read and write classes.
func readWriteP50(out *layerOut, spanPrefix string, classes []opClass) {
	var reads, writes []float64
	for _, c := range classes {
		d := out.spans.durations(spanPrefix + c.Name)
		if c.Write {
			writes = append(writes, d...)
		} else {
			reads = append(reads, d...)
		}
	}
	out.m["read_p50_ms"] = median(reads) / 1e3
	out.m["write_p50_ms"] = median(writes) / 1e3
}

func (s *oltpState) close() {
	if s.db != nil {
		s.db.Close()
	}
	os.RemoveAll(s.dir)
}
