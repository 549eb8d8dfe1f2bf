package sqldb

import (
	"os"
	"path/filepath"
	"sort"
)

// This file defines the small filesystem seam the durability layer writes
// through. Every byte the WAL and checkpoint machinery touches goes
// through a walFS, so tests can substitute an in-memory filesystem
// (memFS) that models the volatile/durable distinction a real disk has —
// written bytes are not durable until Sync — and a fault-injecting
// wrapper (crashFS) that fails or "crashes the process" at the Nth
// mutating operation; both are test code (walfs_test.go). That seam is
// what makes the crash-point matrix in wal_crash_test.go deterministic:
// the same workload always issues the same operation sequence, so every
// injection point is reproducible.

// walFS is the filesystem surface the durability layer needs. The
// production implementation is osFS; tests inject memFS / crashFS.
type walFS interface {
	// MkdirAll ensures the database directory exists.
	MkdirAll(dir string) error
	// ReadDir lists the file names (not paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// ReadFile returns the full contents of the file at path.
	ReadFile(path string) ([]byte, error)
	// Create opens path for writing, truncating any existing file.
	Create(path string) (walFile, error)
	// OpenAppend opens path for appending, creating it if absent, and
	// reports its current size.
	OpenAppend(path string) (walFile, int64, error)
	// Rename atomically replaces newPath with oldPath's file.
	Rename(oldPath, newPath string) error
	// Remove deletes the file at path.
	Remove(path string) error
}

// walFile is an open file handle. Write appends (for OpenAppend handles)
// or extends (for Create handles); Sync makes previously written bytes
// durable; Truncate discards bytes past size.
type walFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// ---------------------------------------------------------------------------
// osFS: the real filesystem.

// osFS implements walFS over the os package. Rename also syncs the parent
// directory (best effort) so the rename itself survives a crash — the
// checkpoint protocol relies on "snapshot file present" implying
// "snapshot file complete".
type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) Create(path string) (walFile, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

func (osFS) OpenAppend(path string) (walFile, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

func (osFS) Rename(oldPath, newPath string) error {
	if err := os.Rename(oldPath, newPath); err != nil {
		return err
	}
	// Persist the directory entry; ignore platforms where directory
	// fsync is unsupported.
	if d, err := os.Open(filepath.Dir(newPath)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

func (osFS) Remove(path string) error { return os.Remove(path) }
