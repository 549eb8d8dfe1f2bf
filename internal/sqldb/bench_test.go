package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// Microbenchmarks for the executor hot paths. Run with:
//
//	go test ./internal/sqldb -run xxx -bench . -benchmem
//
// Every benchmark reports allocations; the compiled-execution refactor is
// judged on allocs/op as much as ns/op.

// benchDB builds a two-table database: `items` (n rows, indexed primary
// key) and `cats` (n/10 rows) joinable on cat_id.
func benchDB(b testing.TB, n int, opts ...Option) *Database {
	b.Helper()
	db := NewDatabase(opts...)
	db.MustExec(`CREATE TABLE items (
		id INTEGER PRIMARY KEY,
		cat_id INTEGER,
		name TEXT,
		price REAL,
		qty INTEGER
	)`)
	db.MustExec("CREATE TABLE cats (id INTEGER PRIMARY KEY, label TEXT)")
	r := rand.New(rand.NewSource(42))
	ncats := n / 10
	if ncats == 0 {
		ncats = 1
	}
	catRows := make([][]any, 0, ncats)
	for i := 0; i < ncats; i++ {
		catRows = append(catRows, []any{i, fmt.Sprintf("cat-%d", i)})
	}
	if err := db.InsertRows("cats", catRows); err != nil {
		b.Fatal(err)
	}
	rows := make([][]any, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []any{
			i,
			r.Intn(ncats),
			fmt.Sprintf("item-%d", i),
			float64(r.Intn(10000)) / 100,
			r.Intn(50),
		})
	}
	if err := db.InsertRows("items", rows); err != nil {
		b.Fatal(err)
	}
	return db
}

func benchQuery(b *testing.B, db *Database, sql string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanFilter(b *testing.B) {
	db := benchDB(b, 2000)
	benchQuery(b, db, "SELECT name, price FROM items WHERE price > 50 AND qty < 25")
}

func BenchmarkHashJoin(b *testing.B) {
	db := benchDB(b, 2000)
	// cats.id is indexed, so force a hash join by joining on the
	// un-indexed cat_id from the probe side's perspective only.
	benchQuery(b, db, "SELECT items.name, cats.label FROM cats JOIN items ON cats.id = items.cat_id")
}

func BenchmarkIndexJoin(b *testing.B) {
	db := benchDB(b, 2000)
	// items JOIN cats ON items.cat_id = cats.id: cats.id is the indexed
	// primary key, so the planner uses an index nested loop.
	benchQuery(b, db, "SELECT items.name, cats.label FROM items JOIN cats ON items.cat_id = cats.id")
}

func BenchmarkGroupByAggregate(b *testing.B) {
	db := benchDB(b, 2000)
	benchQuery(b, db, "SELECT cat_id, COUNT(*), SUM(price), AVG(qty) FROM items GROUP BY cat_id")
}

func BenchmarkOrderBy(b *testing.B) {
	db := benchDB(b, 2000)
	benchQuery(b, db, "SELECT name, price FROM items ORDER BY price DESC, name")
}

func BenchmarkDistinct(b *testing.B) {
	db := benchDB(b, 2000)
	benchQuery(b, db, "SELECT DISTINCT cat_id, qty FROM items")
}

func BenchmarkPointLookup(b *testing.B) {
	db := benchDB(b, 2000)
	benchQuery(b, db, "SELECT name FROM items WHERE id = 1234")
}

// BenchmarkOrderByLimit: ORDER BY on an indexed column under a LIMIT.
// The order-aware planner serves this from index order and reads O(k)
// rows; without it the whole table is scanned, sorted, and sliced.
func BenchmarkOrderByLimit(b *testing.B) {
	db := benchDB(b, 50000)
	db.MustExec("CREATE INDEX idx_items_price ON items (price)")
	benchQuery(b, db, "SELECT name, price FROM items ORDER BY price LIMIT 5")
}

// BenchmarkRangeScan: a range predicate over an indexed column. A range
// index scan touches only the matching rows; a naive plan scans the heap.
func BenchmarkRangeScan(b *testing.B) {
	db := benchDB(b, 50000)
	benchQuery(b, db, "SELECT COUNT(*) FROM items WHERE id BETWEEN 1000 AND 1200")
}

// BenchmarkInterleavedReadWrite is the write-heavy workload the
// incremental index maintenance targets: every iteration inserts a row,
// deletes the oldest one, and then runs the two ordered consumers
// (ORDER BY k LIMIT 5 and a BETWEEN range count) against a 20k-row table
// whose indexed column is high-cardinality. Under wholesale invalidation
// each iteration pays a full O(n log n) ordered-view rebuild plus an
// O(n) hash-map rebuild per DML; with incremental maintenance the insert
// is a binary-search splice, the delete a tombstone, and the ordered
// queries stream straight off the maintained view.
func BenchmarkInterleavedReadWrite(b *testing.B) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE ev (id INTEGER PRIMARY KEY, k INTEGER, note TEXT)")
	db.MustExec("CREATE INDEX idx_ev_k ON ev (k)")
	const n = 20000
	r := rand.New(rand.NewSource(9))
	rows := make([][]any, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []any{i, r.Intn(1 << 30), "x"})
	}
	if err := db.InsertRows("ev", rows); err != nil {
		b.Fatal(err)
	}
	// Warm the ordered view so iteration 0 is not charged the cold build.
	if _, err := db.Query("SELECT id FROM ev ORDER BY k LIMIT 1"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.MustExec("INSERT INTO ev VALUES (?, ?, 'y')", n+i, r.Intn(1<<30))
		db.MustExec("DELETE FROM ev WHERE id = ?", i)
		if _, err := db.Query("SELECT id, k FROM ev ORDER BY k LIMIT 5"); err != nil {
			b.Fatal(err)
		}
		lo := r.Intn(1 << 29)
		if _, err := db.Query("SELECT COUNT(*) FROM ev WHERE k BETWEEN ? AND ?", lo, lo+(1<<24)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedVsParsed quantifies what the statement cache saves:
// sub-benchmark "parsed" clears the cache every iteration, "cached" uses
// Database.Query's LRU, "streamed" drains QueryRows over the same text
// without materialising it.
func BenchmarkPreparedVsParsed(b *testing.B) {
	const sql = "SELECT cat_id, COUNT(*) FROM items WHERE price > 10 GROUP BY cat_id ORDER BY 2 DESC LIMIT 5"
	b.Run("parsed", func(b *testing.B) {
		db := benchDB(b, 500)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.plans = newPlanCache() // defeat the cache: full parse every time
			if _, err := db.Query(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		db := benchDB(b, 500)
		benchQuery(b, db, sql)
	})
	b.Run("streamed", func(b *testing.B) {
		db := benchDB(b, 500)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := db.QueryRows(ctx, sql)
			if err != nil {
				b.Fatal(err)
			}
			for rows.Next() {
			}
			if err := rows.Err(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Scan benchmarks: each statement runs on the same data over heap and over
// sealed column segments. The heap leg pins a single-worker pool; the sealed
// legs — sealed explicitly, so the storage is not left to the background
// sealer's timing — add the pool dimension, workers=1 against the host's
// default, because sealed blocks on the default pool is the configuration
// real traffic runs.
// unsealAll rehydrates every sealed block so the "heap" variants measure
// pure heap scans. The bulk load is big enough to wake the background
// sealer, so it is waited out first — otherwise it could seal blocks
// mid-benchmark.
func unsealAll(db *Database) {
	for db.sealing.Load() {
		time.Sleep(time.Millisecond)
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	for _, t := range db.tableMap() {
		for m, blk := range t.blocks() {
			if blk != nil {
				if err := t.rehydrate(m); err != nil {
					panic(err)
				}
			}
		}
	}
}

func benchVector(b *testing.B, sql string) {
	b.Helper()
	run := func(name string, sealed bool, opts ...Option) {
		b.Run(name, func(b *testing.B) {
			db := benchDB(b, 64*1024, opts...)
			unsealAll(db)
			if sealed && db.Seal() == 0 {
				b.Fatal("Seal() froze nothing")
			}
			benchQuery(b, db, sql)
		})
	}
	run("heap", false, WithMaxWorkers(1))
	run("sealed/workers=1", true, WithMaxWorkers(1))
	run("sealed/workers=default", true)
}

func BenchmarkVectorScan(b *testing.B) {
	benchVector(b, "SELECT id, price FROM items WHERE price > 90.0")
}

func BenchmarkVectorFilter(b *testing.B) {
	benchVector(b, "SELECT COUNT(*) FROM items WHERE price > 50.0 AND qty < 25")
}

func BenchmarkVectorAgg(b *testing.B) {
	benchVector(b, "SELECT COUNT(*), SUM(price), AVG(qty), MIN(price), MAX(price) FROM items WHERE qty < 40")
}

// BenchmarkVectorGroupBy is the scan's worst case on sealed storage: cat_id has n/10 distinct values, so nearly every batch
// discovers new groups and pays the lazy representative-row decode.
func BenchmarkVectorGroupBy(b *testing.B) {
	benchVector(b, "SELECT cat_id, COUNT(*), SUM(qty), MIN(price), MAX(price) FROM items GROUP BY cat_id")
}

// liveHeapPerRow loads the benchDB shape (n five-column items, n/10
// two-column cats, a primary-key index on each), seals it, collects twice
// and returns the heap still held per row: slots, both indexes and the
// sealed blocks, which are the rows' only copy. It is `perf`'s
// analytics_scan live_heap_mb, per row and without the benchmark's oracle.
func liveHeapPerRow(tb testing.TB, n int) float64 {
	before := liveHeap()
	db := benchDB(tb, n)
	db.vacWG.Wait() // the background sealer's pass over the bulk load
	db.Seal()
	after := liveHeap()
	runtime.KeepAlive(db)
	return (float64(after) - float64(before)) / float64(n+n/10)
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// liveHeapCeiling is the most a held row may cost at 32,768 + 3,276 rows:
// 51.4 B measured with a sealed morsel holding no slots — index postings
// and the compressed blocks with their rank and offset tables, plus the
// heap tail's run (67.4 B while every sealed row kept a 16-byte slot;
// 279.1 B while the heap kept every sealed row as well, with the indexes
// holding row ids by hash class and no keys; 392.8 B with the Value-keyed
// index map of ids; 554.3 B with the 48-byte Value and string-keyed
// postings before that), plus ~10 %. The index maps sit at a different
// load factor than at perf's 262,144 + 26,214 rows (≈ 85 B there; 101,
// 283, 393 and 555 before), so the ceiling is this size's own.
const liveHeapCeiling = 57

func TestLiveHeapPerRow(t *testing.T) {
	per := liveHeapPerRow(t, 32768)
	t.Logf("%.1f B of live heap per row (ceiling %d)", per, liveHeapCeiling)
	if per > liveHeapCeiling {
		t.Errorf("a sealed row holds %.1f B of live heap, ceiling %d: the blocks, the index postings or the slots grew", per, liveHeapCeiling)
	}
}

func BenchmarkLiveHeapPerRow(b *testing.B) {
	var per float64
	for i := 0; i < b.N; i++ {
		per = liveHeapPerRow(b, 32768)
	}
	b.ReportMetric(per, "B/row")
}

// BenchmarkTupleSetAdd builds one group table an op from one-value tuples,
// INTEGER and TEXT: every row founding a class (DISTINCT over a unique
// column, a hash join's build on a key), and 131,072 rows over 26,214
// classes (the GROUP BY shape of perf's groupby_high).
func BenchmarkTupleSetAdd(b *testing.B) {
	const classes = 26214
	for _, typ := range []struct {
		name string
		key  func(int) Value
	}{
		{"INTEGER", func(i int) Value { return Int(int64(i)) }},
		{"TEXT", func(i int) Value { return Text(fmt.Sprint("key-", i)) }},
	} {
		for _, shape := range []struct {
			name string
			rows int
		}{{"distinct", classes}, {"repeated", 131072}} {
			keys := make([]Value, shape.rows)
			for i := range keys {
				keys[i] = typ.key(i % classes)
			}
			b.Run(typ.name+"/"+shape.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var set TupleSet
					for j := range keys {
						set.Add(keys[j : j+1])
					}
					if set.n != classes {
						b.Fatalf("%d classes, want %d", set.n, classes)
					}
				}
			})
		}
	}
}
