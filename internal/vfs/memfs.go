package vfs

import (
	"fmt"
	"io/fs"
	"path"
	"sort"
	"strings"
	"sync"
	"time"
)

// Mem is a deterministic in-memory FS: same operation sequence, same
// final state, no host filesystem involved. It backs the chaos
// explorer's replay runs (thousands of fresh filesystems per sweep)
// and any test that wants durable-writer behavior without touching
// disk.
//
// Path handling is deliberately simple: paths are cleaned with
// path.Clean, "." is the always-existing root, and writing a file
// requires its parent directory to exist — the same discipline the os
// backend enforces, so code that forgets MkdirAll fails here too.
type Mem struct {
	mu    sync.Mutex
	files map[string][]byte
	dirs  map[string]bool
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *Mem {
	return &Mem{files: make(map[string][]byte), dirs: map[string]bool{".": true}}
}

func memClean(name string) string { return path.Clean(strings.ReplaceAll(name, "\\", "/")) }

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// ReadFile returns a copy of the named file's content.
func (m *Mem) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[memClean(name)]
	if !ok {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), data...), nil
}

// writeLocked stores data at name, enforcing that the parent exists
// and is not shadowed by a file.
func (m *Mem) writeLocked(op, name string, data []byte) error {
	name = memClean(name)
	if m.dirs[name] {
		return &fs.PathError{Op: op, Path: name, Err: fmt.Errorf("is a directory")}
	}
	if dir := path.Dir(name); !m.dirs[dir] {
		return notExist(op, name)
	}
	m.files[name] = append([]byte(nil), data...)
	return nil
}

// WriteFile creates or truncates the named file.
func (m *Mem) WriteFile(name string, data []byte, perm fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writeLocked("write", name, data)
}

// memFile buffers writes until Close/Sync publishes them.
type memFile struct {
	m    *Mem
	name string
	buf  []byte
	err  error // deferred create error, surfaced on first use
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	f.buf = append(f.buf, p...)
	return len(p), nil
}

func (f *memFile) publish(op string) error {
	if f.err != nil {
		return f.err
	}
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	return f.m.writeLocked(op, f.name, f.buf)
}

func (f *memFile) Sync() error  { return f.publish("sync") }
func (f *memFile) Close() error { return f.publish("close") }

// Create opens an in-memory file for writing. Content becomes visible
// at Sync or Close (the publishing boundary), matching how a crash
// tears a never-synced file.
func (m *Mem) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{m: m, name: name}
	// Validate the parent now so Create fails like os.Create would.
	if err := m.writeLocked("create", name, nil); err != nil {
		return nil, err
	}
	return f, nil
}

// Rename atomically moves oldname onto newname.
func (m *Mem) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldname, newname = memClean(oldname), memClean(newname)
	data, ok := m.files[oldname]
	if !ok {
		return notExist("rename", oldname)
	}
	if dir := path.Dir(newname); !m.dirs[dir] {
		return notExist("rename", newname)
	}
	m.files[newname] = data
	delete(m.files, oldname)
	return nil
}

// Remove deletes the named file.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = memClean(name)
	if _, ok := m.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

// MkdirAll creates the named directory and any missing parents.
func (m *Mem) MkdirAll(name string, perm fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = memClean(name)
	for d := name; ; d = path.Dir(d) {
		if _, isFile := m.files[d]; isFile {
			return &fs.PathError{Op: "mkdir", Path: d, Err: fmt.Errorf("not a directory")}
		}
		m.dirs[d] = true
		if d == "." || d == "/" {
			break
		}
	}
	return nil
}

// memInfo is the minimal fs.FileInfo Stat hands out.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string { return path.Base(i.name) }
func (i memInfo) Size() int64  { return i.size }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }

// Stat describes the named file or directory.
func (m *Mem) Stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = memClean(name)
	if data, ok := m.files[name]; ok {
		return memInfo{name: name, size: int64(len(data))}, nil
	}
	if m.dirs[name] {
		return memInfo{name: name, dir: true}, nil
	}
	return nil, notExist("stat", name)
}

// ReadDir returns the sorted names of the files directly inside the
// named directory.
func (m *Mem) ReadDir(name string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = memClean(name)
	if !m.dirs[name] {
		return nil, notExist("readdir", name)
	}
	var out []string
	for f := range m.files {
		if path.Dir(f) == name {
			out = append(out, path.Base(f))
		}
	}
	sort.Strings(out)
	return out, nil
}

// Files returns every file path in sorted order.
func (m *Mem) Files() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for name := range m.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns every file's path and size in sorted order — a
// deterministic digest of the filesystem for test assertions and
// failure reports.
func (m *Mem) Snapshot() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for name, data := range m.files {
		out = append(out, fmt.Sprintf("%s (%d bytes)", name, len(data)))
	}
	sort.Strings(out)
	return out
}
