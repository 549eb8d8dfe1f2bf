package sqldb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests and a contention benchmark for WAL group commit (wal.go):
// concurrent committers elect one fsync leader per round and
// everyone whose record the leader's fsync covered returns without
// issuing its own — one fsync makes a whole convoy durable.

// slowSyncFS wraps a walFS, counting fsyncs and stretching each one, so
// commit convoys reliably pile up behind an in-flight leader even on a
// single-core host.
type slowSyncFS struct {
	walFS
	delay time.Duration
	syncs atomic.Int64
}

func (s *slowSyncFS) Create(path string) (walFile, error) {
	f, err := s.walFS.Create(path)
	if err != nil {
		return nil, err
	}
	return &slowSyncFile{walFile: f, fs: s}, nil
}

type slowSyncFile struct {
	walFile
	fs *slowSyncFS
}

func (f *slowSyncFile) Sync() error {
	f.fs.syncs.Add(1)
	if f.fs.delay > 0 {
		time.Sleep(f.fs.delay)
	}
	return f.walFile.Sync()
}

// TestWALGroupCommit: N concurrent committers must
// finish with fewer fsyncs than commits and a non-zero WALGroupCommits
// count — and every commit must still be durable across reopen.
func TestWALGroupCommit(t *testing.T) {
	fs := &slowSyncFS{walFS: newMemFS(), delay: time.Millisecond}
	db, err := Open("db", withWAL(fs, -1))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE g (id INTEGER, w INTEGER)")

	const workers, per = 8, 25
	base := fs.syncs.Load()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := db.Exec("INSERT INTO g VALUES (?, ?)", w*per+i, w); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	commits := int64(workers * per)
	syncs := fs.syncs.Load() - base
	if syncs >= commits {
		t.Fatalf("%d commits issued %d fsyncs; group commit saved nothing", commits, syncs)
	}
	grouped := db.Stats().WALGroupCommits
	if grouped == 0 {
		t.Fatal("Stats().WALGroupCommits = 0 under concurrent committers")
	}
	t.Logf("%d commits, %d fsyncs, %d group commits", commits, syncs, grouped)
	closeDB(t, db)

	// Durability: every commit that returned must survive reopen.
	db2, err := Open("db", withWAL(fs, -1))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer closeDB(t, db2)
	rows := queryStrings(t, db2, "SELECT COUNT(*) FROM g")
	if want := fmt.Sprint(commits); rows[0][0] != want {
		t.Fatalf("recovered %s rows, want %s", rows[0][0], want)
	}
}

// TestWALGroupCommitSerial: a lone committer leads every fsync itself —
// the counter must not claim group commits that never happened.
func TestWALGroupCommitSerial(t *testing.T) {
	fs := &slowSyncFS{walFS: newMemFS()}
	db, err := Open("db", withWAL(fs, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer closeDB(t, db)
	db.MustExec("CREATE TABLE g (id INTEGER)")
	for i := 0; i < 20; i++ {
		db.MustExec("INSERT INTO g VALUES (?)", i)
	}
	if grouped := db.Stats().WALGroupCommits; grouped != 0 {
		t.Fatalf("WALGroupCommits = %d for a strictly serial committer, want 0", grouped)
	}
}

// BenchmarkWALGroupCommit measures commit throughput under fsync
// contention. The fsyncs/op metric is the point: at clients=8 it must
// fall well below 1 (one leader fsync covers a convoy), which is where
// the latency win comes from.
func BenchmarkWALGroupCommit(b *testing.B) {
	for _, clients := range []int{1, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			fs := &slowSyncFS{walFS: newMemFS(), delay: 50 * time.Microsecond}
			db, err := Open("db", withWAL(fs, -1))
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			db.MustExec("CREATE TABLE g (id INTEGER, w INTEGER)")
			var id atomic.Int64
			base := fs.syncs.Load()
			b.SetParallelism(clients)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := db.Exec("INSERT INTO g VALUES (?, 0)", id.Add(1)); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(fs.syncs.Load()-base)/float64(b.N), "fsyncs/op")
		})
	}
}
