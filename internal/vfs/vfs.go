// Package vfs is the filesystem seam under every durable writer in the
// repo: the job store (internal/server), the checkpoint manifests
// (internal/experiments), and the CSV/trace/metrics artifact writers
// all perform their I/O through the FS interface instead of calling
// the os package directly.
//
// Three implementations exist:
//
//   - OS, the thin production binding to the os package;
//   - Mem (NewMem), a deterministic in-memory filesystem for tests and
//     for the chaos explorer's replay runs;
//   - Fault (NewFault), a wrapper that injects one crash or I/O fault
//     at an exact persistence boundary — the k-th mutating operation —
//     so the chaos explorer (internal/chaos) can enumerate every
//     write/sync/rename boundary of a recorded run and prove recovery
//     from each one.
//
// The interface is deliberately tiny: exactly the operations the
// durability story is built from. Every mutating operation (WriteFile,
// Rename, Remove, MkdirAll, and File.Sync/Close on a Create handle) is
// one persistence boundary; a crash between two boundaries loses
// nothing that was not already at risk inside one of them. Reads
// (ReadFile, Stat, ReadDir) are not boundaries.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
)

// File is an open writable file. Close without Sync models the page
// cache: bytes are visible to readers but a crash may still tear them.
type File interface {
	io.Writer
	// Sync flushes the file to stable storage.
	Sync() error
	// Close releases the handle, flushing buffered writes to the
	// (simulated) page cache but not necessarily to stable storage.
	Close() error
}

// FS is the filesystem surface durable writers run on. Implementations
// must make Rename atomic with respect to crashes: after a crash the
// destination holds either its old content or the complete source,
// never a mixture — that is the property the temp-file-plus-rename
// flush discipline is built on.
type FS interface {
	// ReadFile returns the named file's content. A missing file yields
	// an error satisfying errors.Is(err, fs.ErrNotExist) (and therefore
	// os.IsNotExist).
	ReadFile(name string) ([]byte, error)
	// WriteFile creates or truncates the named file with data. One
	// persistence boundary: a crash inside it may persist nothing, a
	// prefix, or a corrupted tail — never content of some other file.
	WriteFile(name string, data []byte, perm fs.FileMode) error
	// Create opens the named file for writing (create or truncate).
	Create(name string) (File, error)
	// Rename atomically moves oldname onto newname, replacing it.
	Rename(oldname, newname string) error
	// Remove deletes the named file.
	Remove(name string) error
	// MkdirAll creates the named directory and any missing parents.
	MkdirAll(name string, perm fs.FileMode) error
	// Stat describes the named file.
	Stat(name string) (fs.FileInfo, error)
	// ReadDir returns the names of the regular files directly inside
	// the named directory, sorted; subdirectories are omitted. A
	// missing directory yields an error satisfying
	// errors.Is(err, fs.ErrNotExist).
	ReadDir(name string) ([]string, error)
}

// OS is the production filesystem: the os package, verbatim.
var OS FS = osFS{}

type osFS struct{}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) Create(name string) (File, error)     { return os.Create(name) }
func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(name string, perm fs.FileMode) error {
	return os.MkdirAll(name, perm)
}
func (osFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }
func (osFS) ReadDir(name string) ([]string, error) {
	entries, err := os.ReadDir(name)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	return out, nil
}

// WriteFileAtomic writes data to path with the crash-safe flush
// discipline shared by the job store and the checkpoint manifests:
// write a sibling temp file, then atomically rename it over path. A
// crash at any boundary leaves path holding either its previous
// content or the complete new content.
func WriteFileAtomic(fsys FS, path string, data []byte, perm fs.FileMode) error {
	tmp := path + ".tmp"
	if err := fsys.WriteFile(tmp, data, perm); err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}

// Quarantine moves a damaged file aside so a fresh one can take its
// place, preserving the evidence: the destination is path+".corrupt",
// or, when earlier quarantines already claimed that name,
// path+".corrupt.N" for the smallest unclaimed N — repeated
// corruptions never overwrite a previously quarantined file. It
// returns the destination.
func Quarantine(fsys FS, path string) (string, error) {
	for n := 0; ; n++ {
		q := path + ".corrupt"
		if n > 0 {
			q = fmt.Sprintf("%s.corrupt.%d", path, n)
		}
		switch _, err := fsys.Stat(q); {
		case err == nil:
			continue // claimed by an earlier quarantine; keep probing
		case !errors.Is(err, fs.ErrNotExist):
			return "", fmt.Errorf("vfs: quarantine probe %s: %w", q, err)
		}
		if err := fsys.Rename(path, q); err != nil {
			return "", err
		}
		return q, nil
	}
}
