package sqldb

import "testing"

// Benchmarks for early-terminating query shapes — the workloads the
// streaming executor targets. They use only the materialising Query API;
// the streaming-cursor benchmarks live in stream_bench_test.go.

// BenchmarkLimitQuery: without ORDER BY the plan stops at the window.
func BenchmarkLimitQuery(b *testing.B) {
	db := benchDB(b, 50000)
	benchQuery(b, db, "SELECT name FROM items WHERE qty < 25 LIMIT 5")
}

// BenchmarkDistinctLimit: DISTINCT used to materialise and deduplicate
// the whole result before the window was applied; streaming dedup stops
// at the third distinct value.
func BenchmarkDistinctLimit(b *testing.B) {
	db := benchDB(b, 50000)
	benchQuery(b, db, "SELECT DISTINCT cat_id FROM items LIMIT 3")
}

// BenchmarkExistsProbe: a correlated EXISTS used to materialise its whole
// subquery result per outer row; the streaming subplan stops at the first
// match.
func BenchmarkExistsProbe(b *testing.B) {
	db := benchDB(b, 2000)
	benchQuery(b, db,
		"SELECT label FROM cats WHERE EXISTS (SELECT 1 FROM items WHERE items.cat_id = cats.id)")
}
