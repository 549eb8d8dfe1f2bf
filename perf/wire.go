package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"

	"tag/internal/llm"
	"tag/internal/server/pgwire"
	"tag/internal/server/pgwire/pgwiretest"
	"tag/internal/sqldb"
	"tag/internal/tagbench"
	"tag/internal/tagbench/domains"
)

// wireStmt is one read the clients send, with the reply the in-process
// engine gave for the same statement in set-up. Reads never select qty,
// the one column the write transactions change, so the expectation holds
// for the whole run.
type wireStmt struct {
	sql   string
	param *string // non-nil: extended protocol, one int8 parameter
	want  [][]*string
}

// wireState is wire_serving after set-up: the five TAG-Bench domains and
// items merged into one database, a pgwire server in front of it on a
// loopback port (the call cmd/tagserve makes), and one connection per
// client.
type wireState struct {
	db      *sqldb.Database
	srv     *pgwire.Server
	served  chan error
	addr    string
	clients []*wireClient
	qty0    []int // items.qty as loaded
	stats0  sqldb.Stats

	// Pools the clients draw reads from, by class.
	simple, ext, tagSQL, fetch []wireStmt
	fetchRows                  int
}

type wireClient struct {
	conn  *pgwiretest.Conn
	rng   *rand.Rand
	incs  map[int]int // acknowledged qty increments by item id
	order []int
}

const int8OID = 20

func setupWire(cfg config) (state, error) {
	s := &wireState{db: sqldb.NewDatabase(), fetchRows: cfg.Size.FetchRows}
	schemas := make(map[string]string)
	for _, name := range domains.Names() {
		src, err := domains.Build(name)
		if err != nil {
			return nil, err
		}
		var script strings.Builder
		if err := src.Dump(&script); err != nil {
			return nil, err
		}
		if err := s.db.LoadScript(script.String()); err != nil {
			return nil, fmt.Errorf("merging %s: %w", name, err)
		}
		schemas[name] = src.SchemaSQL()
	}
	data := genScanData(cfg.Seed, cfg.Size.WireItems)
	if err := data.loadInto(s.db); err != nil {
		return nil, err
	}
	s.db.Seal()
	s.qty0 = data.qty

	// Read pools, each with the in-process reply.
	n := cfg.Size.WireItems
	r := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < 512; i++ {
		id := r.Intn(n)
		s.simple = append(s.simple, wireStmt{sql: fmt.Sprintf("SELECT name, price FROM items WHERE id = %d", id)})
		s.ext = append(s.ext, wireStmt{sql: "SELECT name, price FROM items WHERE id = ?", param: pgwiretest.Str(strconv.Itoa(id))})
	}
	for i := 0; i < 32; i++ {
		a := r.Intn(n - s.fetchRows)
		s.fetch = append(s.fetch, wireStmt{sql: fmt.Sprintf("SELECT id, name, price FROM items WHERE id BETWEEN %d AND %d", a, a+s.fetchRows-1)})
	}
	// The exec step of a remote Ask: the SQL the Text2SQL model writes for
	// each question. Statements the engine rejects are left out; the
	// workload is built from ops that succeed.
	sim := newSim()
	for i, q := range tagbench.Queries() {
		if i%cfg.Size.QuestionStride != 0 {
			continue
		}
		sql, err := sim.Complete(context.Background(), llm.Text2SQLPrompt(schemas[q.Spec.Domain], q.NL))
		if err == nil {
			s.tagSQL = append(s.tagSQL, wireStmt{sql: sql})
		}
	}
	for _, pool := range []*[]wireStmt{&s.simple, &s.fetch, &s.tagSQL} {
		kept := (*pool)[:0]
		for _, st := range *pool {
			res, err := s.db.Query(st.sql)
			if err != nil {
				continue
			}
			st.want = textRows(res)
			kept = append(kept, st)
		}
		*pool = kept
	}
	if len(s.tagSQL) == 0 || len(s.simple) != len(s.ext) || len(s.fetch) != 32 {
		return nil, fmt.Errorf("wire pools: %d lookups, %d fetches, %d TAG statements", len(s.simple), len(s.fetch), len(s.tagSQL))
	}
	// A parameterised lookup must return what the literal form returns.
	for i := range s.ext {
		s.ext[i].want = s.simple[i].want
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addr = lis.Addr().String()
	s.srv = pgwire.NewServer(s.db, pgwire.Options{})
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(lis) }()
	for c := 0; c < 2; c++ {
		conn, err := pgwiretest.Dial(s.addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, &wireClient{
			conn: conn, rng: rand.New(rand.NewSource(cfg.Seed*7919 + int64(c))),
			incs: make(map[int]int), order: mixOrder(wireClasses, cfg.Size.RoundOps),
		})
	}
	s.stats0 = s.db.Stats()
	return s, nil
}

// textRows renders an in-process result the way the wire carries it: NULL
// as nil, everything else as its text.
func textRows(res *sqldb.Result) [][]*string {
	out := make([][]*string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = make([]*string, len(row))
		for j, v := range row {
			if !v.IsNull() {
				out[i][j] = pgwiretest.Str(v.AsText())
			}
		}
	}
	return out
}

func sameRows(got, want [][]*string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			g, w := got[i][j], want[i][j]
			if (g == nil) != (w == nil) || (g != nil && *g != *w) {
				return false
			}
		}
	}
	return true
}

// send runs one read over the wire: simple protocol, or Parse with a typed
// parameter, Bind, Describe, Execute, Sync.
func (st *wireStmt) send(c *pgwiretest.Conn) (*pgwiretest.Result, error) {
	if st.param == nil {
		return c.Query(st.sql)
	}
	err := c.SendParse("", st.sql, []int32{int8OID})
	if err == nil {
		err = c.SendBind("", "", []*string{st.param})
	}
	if err == nil {
		err = c.SendDescribe('P', "")
	}
	if err == nil {
		err = c.SendExecute("", 0)
	}
	if err == nil {
		err = c.SendSync()
	}
	if err != nil {
		return nil, err
	}
	return c.Collect()
}

// check is the oracle for a read: no transport or server error and the
// in-process rows.
func (st *wireStmt) check(res *pgwiretest.Result, err error) bool {
	return err == nil && res.Err == nil && sameRows(res.Rows, st.want)
}

func (s *wireState) pool(class string) []wireStmt {
	switch class {
	case "simple_lookup":
		return s.simple
	case "ext_lookup":
		return s.ext
	case "tag_sql":
		return s.tagSQL
	default:
		return s.fetch
	}
}

func (s *wireState) round(client int, rec *recorder, n int) (ops, failed int) {
	c := s.clients[client]
	return mixRound(c.rng, c.order, wireClasses, "wire.", rec, n, func(ci int, _, _ int32) bool {
		class := wireClasses[ci].Name
		if class == "txn_write" {
			return s.txnWrite(client, c)
		}
		pool := s.pool(class)
		st := &pool[c.rng.Intn(len(pool))]
		return st.check(st.send(c.conn))
	})
}

// txnWrite is BEGIN; UPDATE; COMMIT as three round trips, on an item whose
// id has the client's parity so the two clients never write one row.
func (s *wireState) txnWrite(client int, c *wireClient) bool {
	id := c.rng.Intn(len(s.qty0)/2)*2 + client
	ok := true
	for _, sql := range []string{"BEGIN", fmt.Sprintf("UPDATE items SET qty = qty + 1 WHERE id = %d", id), "COMMIT"} {
		res, err := c.conn.Query(sql)
		if err != nil || res.Err != nil {
			return false
		}
		if sql != "BEGIN" && sql != "COMMIT" {
			ok = len(res.Tags) == 1 && res.Tags[0] == "UPDATE 1"
		}
	}
	c.incs[id]++
	return ok
}

// finish checks every item's qty against the increments the clients had
// acknowledged, then (traced) times wire and in-process runs of the same
// statements back to back on an otherwise idle server, and last closes the
// connections and checks the server kept nothing of them.
func (s *wireState) finish(cfg config, out *layerOut) (attempted, failed int, err error) {
	res, err := s.db.Query("SELECT id, qty FROM items")
	if err != nil {
		return 0, 0, err
	}
	attempted = len(s.qty0)
	if len(res.Rows) != len(s.qty0) {
		failed++
	}
	for _, row := range res.Rows {
		id := int(row[0].AsInt())
		if int(row[1].AsInt()) != s.qty0[id]+s.clients[0].incs[id]+s.clients[1].incs[id] {
			failed++
		}
	}
	m, p := out.m, out.probe
	if cfg.Trace {
		engineMetrics(m, statsCombine(s.db.Stats(), s.stats0, -1), out.wall)
		for _, c := range wireClasses {
			out.spans.p50p99(m, out.tails, "wire."+c.Name, "pgwire."+c.Name)
		}
		readWriteP50(out, "wire.", wireClasses)
		m["pgwire.fetch_rows_per_s"] = ratio(float64(s.fetchRows), m["pgwire.fetch1k_p50_us"]/1e6)

		conn := s.clients[0].conn
		for _, pair := range []struct {
			key  string
			pool []wireStmt
			reps int
		}{{"lookup", s.simple[:200], 1}, {"tag_sql", s.tagSQL, 3}, {"fetch1k", s.fetch, 1}} {
			for i := 0; i < pair.reps; i++ {
				for j := range pair.pool {
					st := &pair.pool[j]
					attempted++
					timeSpan(p, "wire.pair."+pair.key, func() {
						if !st.check(st.send(conn)) {
							failed++
						}
					})
					// The wire reply was checked against this very call in set-up.
					timeSpan(p, "inproc."+pair.key, func() { _, _ = s.db.Query(st.sql) })
				}
			}
			m["pgwire.tax_"+pair.key+"_us"] = out.spans.p50("wire.pair."+pair.key) - out.spans.p50("inproc."+pair.key)
		}
		for i := 0; i < 20; i++ {
			var c *pgwiretest.Conn
			timeSpan(p, "pgwire.conn_setup", func() { c, err = pgwiretest.Dial(s.addr) })
			if err != nil {
				return 0, 0, err
			}
			_ = c.Terminate() // the leak check below catches a session that stays
			c.Close()
		}
		m["pgwire.conn_setup_us"] = out.spans.p50("pgwire.conn_setup")
	}

	for _, c := range s.clients {
		_ = c.conn.Terminate() // as above
		c.conn.Close()
	}
	s.clients = nil
	for wait := time.Now(); s.srv.ActiveSessions() > 0 && time.Since(wait) < 2*time.Second; {
		time.Sleep(time.Millisecond)
	}
	m["pgwire.leaked_sessions"] = float64(s.srv.ActiveSessions())
	m["pgwire.live_snapshots_after"] = float64(s.db.LiveSnapshots())
	attempted += 2
	if s.srv.ActiveSessions() != 0 {
		failed++
	}
	if s.db.LiveSnapshots() != 0 {
		failed++
	}
	return attempted, failed, nil
}

func (s *wireState) close() {
	for _, c := range s.clients {
		c.conn.Close()
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = s.srv.Shutdown(ctx) // a timeout force-closes; either way Serve returns
		cancel()
		<-s.served
	}
}
