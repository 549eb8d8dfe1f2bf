package sqldb

import "context"

// The background vacuum replaces the old synchronous threshold compaction.
// DML never pays an O(n) rebuild inside a statement anymore: writers only
// stamp xmax / prepend versions, and a short-lived background goroutine —
// woken when enough dead versions accumulate — reclaims every version that
// has become invisible to all live snapshots.
//
// Reclaimability is decided against the oldest-active-snapshot horizon
// (txnManager.horizon): a version whose committed xmax precedes the
// horizon is invisible to every current and future snapshot, and in a
// newest-first chain xmax values only shrink going older, so the chain
// can be truncated at the first such version. Unlinked versions keep
// their own forward links, so a reader mid-walk on a stale chain still
// terminates safely.
//
// The vacuum runs under the single-writer latch (writers pause, readers
// do not). Only the vacuum and rollback remove index entries, and they
// remove exactly what they unlinked: for each chain it truncates, the
// vacuum takes out of every index what the cut-off versions put there
// and no surviving version of that slot keeps there (Table.unindex) —
// ids out of hash classes in place, out of the live ordered view
// copy-on-write. The pass costs a pointer walk over the heap's slots — a
// sealed morsel has none — plus work in proportion to what it reclaims; no index is rebuilt and no view is
// invalidated. Readers holding an older view or posting copy keep working
// — their recheck already skips reclaimed ids.

// vacuumThreshold is the number of accumulated dead versions that wakes
// the background vacuum.
const vacuumThreshold = 256

// maybeVacuum wakes the background vacuum when enough garbage has
// accumulated. Single-flight: at most one vacuum goroutine exists.
func (db *Database) maybeVacuum() {
	if db.closed.Load() || db.garbage.Load() < vacuumThreshold {
		return
	}
	if !db.vacuuming.CompareAndSwap(false, true) {
		return
	}
	db.vacWG.Add(1)
	go func() {
		defer db.vacWG.Done()
		defer db.vacuuming.Store(false)
		db.vacuum(nil)
	}()
}

// maybeCheckpoint wakes the background checkpoint when the WAL has grown
// past its configured threshold. Single-flight: at most one checkpoint
// goroutine exists. Called after a successful append, so the goroutine's
// writeMu acquisition simply queues behind the in-flight commit.
func (db *Database) maybeCheckpoint() {
	w := db.wal
	if w == nil || db.closed.Load() || !w.wantCheckpoint() {
		return
	}
	if !db.checkpointing.CompareAndSwap(false, true) {
		return
	}
	db.vacWG.Add(1)
	go func() {
		defer db.vacWG.Done()
		defer db.checkpointing.Store(false)
		_ = w.checkpoint()
	}()
}

// Vacuum synchronously reclaims every version invisible to all live
// snapshots and returns how many versions it removed. The background
// vacuum calls the same pass; this entry point exists for tests and for
// embedders that want deterministic reclamation.
func (db *Database) Vacuum() int {
	qc := newQueryCtx(context.Background(), db)
	defer qc.flush()
	return db.vacuum(qc)
}

// vacuum runs one reclamation pass over every table.
func (db *Database) vacuum(qc *queryCtx) int {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.garbage.Store(0)
	h := db.tm.horizon()
	total := 0
	for _, t := range db.tableMap() {
		r, _ := t.vacuum(h)
		total += r
	}
	db.stats.vacuumRuns.Add(1)
	if total > 0 {
		db.stats.versionsReclaimed.Add(uint64(total))
	}
	if qc != nil {
		qc.VersionsReclaimed += uint64(total)
	}
	return total
}

// vacuum truncates this table's version chains at the horizon and takes
// the index entries of each cut-off suffix out with it. It walks the runs
// of the heap's morsels and passes a sealed one — one version a row,
// visible to every snapshot — by in one step. Returns the versions
// reclaimed and the slots visited.
func (t *Table) vacuum(h uint64) (reclaimed, visited int) {
	dir, n := t.loadSlots()
	for m, run := range dir {
		if run == nil {
			continue // sealed
		}
		for i := range min(segBlockSlots, n-m*segBlockSlots) {
			id, head := m*segBlockSlots+i, run[i].Load()
			visited++
			if head == nil {
				continue
			}
			// Find the newest version whose committed xmax precedes the
			// horizon. Under writeMu no writer is active, so every nonzero
			// xmax is committed (rollback clears the ones it unwinds).
			var prev *rowVersion
			v := head
			for v != nil {
				if xmax := v.xmax.Load(); xmax != 0 && xmax < h {
					break
				}
				prev, v = v, v.next.Load()
			}
			if v == nil {
				continue
			}
			for w := v; w != nil; w = w.next.Load() {
				reclaimed++
			}
			if prev == nil {
				run[i].Store(nil)
			} else {
				prev.next.Store(nil)
			}
			t.unindex(id, v, nil)
		}
	}
	return reclaimed, visited
}
