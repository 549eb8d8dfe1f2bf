package sqldb

import (
	"errors"
	"sort"
	"strings"
	"sync"
)

// The test doubles behind the durability layer's filesystem seam
// (walfs.go): an in-memory filesystem with a durability model, and a
// deterministic fault injector over it.

// ---------------------------------------------------------------------------
// memFS: in-memory filesystem with a durability model.

// memFile models one file as the full byte content written so far (what a
// crash-free reader sees) plus the prefix length guaranteed durable (what
// survives a power loss: bytes covered by the last Sync).
type memFile struct {
	data   []byte
	synced int
}

// memFS is an in-memory walFS for tests and benchmarks. It tracks, per
// file, which bytes have been fsynced, so crashFS can compute the two
// interesting post-crash states: "everything written survived" and "only
// synced bytes survived". Rename and Remove are modelled as immediately
// durable metadata operations (the osFS implementation syncs the
// directory to approximate the same contract).
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

func newMemFS() *memFS {
	return &memFS{files: make(map[string]*memFile)}
}

func (m *memFS) MkdirAll(string) error { return nil }

func (m *memFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := strings.TrimSuffix(dir, "/") + "/"
	var names []string
	for p := range m.files {
		if strings.HasPrefix(p, prefix) {
			rest := strings.TrimPrefix(p, prefix)
			if !strings.Contains(rest, "/") {
				names = append(names, rest)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[path]
	if !ok {
		return nil, errors.New("memfs: no such file: " + path)
	}
	return append([]byte(nil), f.data...), nil
}

func (m *memFS) Create(path string) (walFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{}
	m.files[path] = f
	return &memHandle{fs: m, f: f}, nil
}

func (m *memFS) Rename(oldPath, newPath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldPath]
	if !ok {
		return errors.New("memfs: no such file: " + oldPath)
	}
	delete(m.files, oldPath)
	m.files[newPath] = f
	return nil
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return errors.New("memfs: no such file: " + path)
	}
	delete(m.files, path)
	return nil
}

// syncedLen reports the durable prefix length of a file (test probe for
// the fsync-per-commit test).
func (m *memFS) syncedLen(path string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[path]; ok {
		return f.synced
	}
	return -1
}

// memHandle is an open handle on a memFile.
type memHandle struct {
	fs *memFS
	f  *memFile
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.f.synced = len(h.f.data)
	return nil
}

func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if int(size) < len(h.f.data) {
		h.f.data = h.f.data[:size]
	}
	if h.f.synced > int(size) {
		h.f.synced = int(size)
	}
	return nil
}

func (h *memHandle) Close() error { return nil }

// ---------------------------------------------------------------------------
// crashFS: deterministic fault injection.

// Fault modes for crashFS. The first two model recoverable I/O errors
// (the process survives, the call fails); the crash modes model the
// process dying at that operation, with the two bracketing disk
// outcomes for unsynced data.
const (
	// faultENOSPC fails the target operation with a no-space error; no
	// bytes are written.
	faultENOSPC = iota
	// faultShortWrite applies half of the target write, then fails.
	faultShortWrite
	// faultCrashTear kills the process at the target operation. All
	// bytes written before the crash survive (the kernel flushed them),
	// and the crashing write itself lands a torn half.
	faultCrashTear
	// faultCrashLose kills the process at the target operation. Only
	// explicitly synced bytes survive; everything else is lost.
	faultCrashLose
)

// errSimCrash is what every operation returns once the simulated process
// has died. The crash harness uses it to stop the workload.
var errSimCrash = errors.New("crashfs: simulated crash")

// errNoSpace simulates ENOSPC.
var errNoSpace = errors.New("crashfs: no space left on device")

// crashFS wraps a memFS and injects one fault at the Nth mutating
// operation (Create, Rename, Remove, Write, Sync, Truncate — the
// operations whose failure or interruption a durable engine must
// survive). Operation numbering is 1-based; failAt = 0 injects nothing.
// After a crash-mode fault fires, every subsequent operation fails with
// errSimCrash, and afterCrash() produces the filesystem state a restarted
// process would observe.
type crashFS struct {
	inner *memFS
	mode  int

	mu      sync.Mutex
	op      int
	failAt  int
	crashed bool
}

func newCrashFS(failAt, mode int) *crashFS {
	return &crashFS{inner: newMemFS(), failAt: failAt, mode: mode}
}

// ops reports how many mutating operations have been issued (used by the
// harness to size the injection matrix from a fault-free run).
func (c *crashFS) ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.op
}

// step advances the operation counter and reports whether this operation
// is the injection point. The injected error (for non-write operations)
// is returned alongside.
func (c *crashFS) step() (inject bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return false, errSimCrash
	}
	c.op++
	if c.failAt == 0 || c.op != c.failAt {
		return false, nil
	}
	switch c.mode {
	case faultENOSPC, faultShortWrite:
		return true, errNoSpace
	default:
		c.crashed = true
		return true, errSimCrash
	}
}

// afterCrash returns the durable filesystem state a restarted process
// sees: for faultCrashTear every written byte (including the torn half of
// the crashing write); for faultCrashLose only synced bytes. Valid in
// the non-crash modes too, where it is simply the current state.
func (c *crashFS) afterCrash() *memFS {
	c.inner.mu.Lock()
	defer c.inner.mu.Unlock()
	out := newMemFS()
	for p, f := range c.inner.files {
		data := f.data
		if c.mode == faultCrashLose {
			data = f.data[:f.synced]
		}
		out.files[p] = &memFile{data: append([]byte(nil), data...), synced: len(data)}
	}
	return out
}

func (c *crashFS) MkdirAll(dir string) error { return c.inner.MkdirAll(dir) }

func (c *crashFS) ReadDir(dir string) ([]string, error) {
	c.mu.Lock()
	dead := c.crashed
	c.mu.Unlock()
	if dead {
		return nil, errSimCrash
	}
	return c.inner.ReadDir(dir)
}

func (c *crashFS) ReadFile(path string) ([]byte, error) {
	c.mu.Lock()
	dead := c.crashed
	c.mu.Unlock()
	if dead {
		return nil, errSimCrash
	}
	return c.inner.ReadFile(path)
}

func (c *crashFS) Create(path string) (walFile, error) {
	if _, err := c.step(); err != nil {
		return nil, err
	}
	f, err := c.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &crashHandle{fs: c, f: f}, nil
}

func (c *crashFS) Rename(oldPath, newPath string) error {
	if _, err := c.step(); err != nil {
		return err
	}
	return c.inner.Rename(oldPath, newPath)
}

func (c *crashFS) Remove(path string) error {
	if _, err := c.step(); err != nil {
		return err
	}
	return c.inner.Remove(path)
}

// crashHandle wraps a memFS handle with the shared fault state.
type crashHandle struct {
	fs *crashFS
	f  walFile
}

func (h *crashHandle) Write(p []byte) (int, error) {
	inject, err := h.fs.step()
	if !inject {
		if err != nil {
			return 0, err
		}
		return h.f.Write(p)
	}
	switch h.fs.mode {
	case faultENOSPC:
		return 0, errNoSpace
	case faultShortWrite:
		n, _ := h.f.Write(p[:len(p)/2])
		return n, errNoSpace
	case faultCrashTear:
		// The torn half lands on disk; the process is gone.
		_, _ = h.f.Write(p[:len(p)/2])
		return 0, errSimCrash
	default: // faultCrashLose: the write never reached the disk.
		return 0, errSimCrash
	}
}

func (h *crashHandle) Sync() error {
	inject, err := h.fs.step()
	if err != nil && !inject {
		return err
	}
	if inject {
		// A failed or crashed fsync leaves durability of the pending
		// bytes undefined; the harness's acceptance set covers both
		// outcomes. Nothing is promoted to synced here.
		return err
	}
	return h.f.Sync()
}

func (h *crashHandle) Truncate(size int64) error {
	inject, err := h.fs.step()
	if err != nil {
		_ = inject
		return err
	}
	return h.f.Truncate(size)
}

func (h *crashHandle) Close() error { return h.f.Close() }
