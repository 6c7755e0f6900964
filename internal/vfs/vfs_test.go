package vfs

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// impls returns a fresh instance of every FS implementation, each
// rooted so relative behavior matches: the os backend gets a temp dir
// prefix via a tiny adapter.
func impls(t *testing.T) map[string]FS {
	t.Helper()
	return map[string]FS{
		"mem": NewMem(),
		"os":  prefixFS{dir: t.TempDir()},
	}
}

// prefixFS roots the real-os backend in a temp dir so conformance
// cases can use the same relative paths as the memfs.
type prefixFS struct{ dir string }

func (p prefixFS) abs(name string) string { return filepath.Join(p.dir, name) }

func (p prefixFS) ReadFile(name string) ([]byte, error) { return OS.ReadFile(p.abs(name)) }
func (p prefixFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return OS.WriteFile(p.abs(name), data, perm)
}
func (p prefixFS) Create(name string) (File, error) { return OS.Create(p.abs(name)) }
func (p prefixFS) Rename(o, n string) error         { return OS.Rename(p.abs(o), p.abs(n)) }
func (p prefixFS) Remove(name string) error         { return OS.Remove(p.abs(name)) }
func (p prefixFS) MkdirAll(name string, perm fs.FileMode) error {
	return OS.MkdirAll(p.abs(name), perm)
}
func (p prefixFS) Stat(name string) (fs.FileInfo, error) { return OS.Stat(p.abs(name)) }
func (p prefixFS) ReadDir(name string) ([]string, error) { return OS.ReadDir(p.abs(name)) }

// TestConformance runs the same durable-writer sequence against every
// implementation: both must behave identically at the seam.
func TestConformance(t *testing.T) {
	for name, fsys := range impls(t) {
		t.Run(name, func(t *testing.T) {
			// Missing files are fs.ErrNotExist (and os.IsNotExist).
			if _, err := fsys.ReadFile("absent"); !errors.Is(err, fs.ErrNotExist) || !os.IsNotExist(err) {
				t.Fatalf("missing read error = %v", err)
			}
			if _, err := fsys.Stat("absent"); !os.IsNotExist(err) {
				t.Fatalf("missing stat error = %v", err)
			}
			if _, err := fsys.ReadDir("absent"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("missing readdir error = %v", err)
			}
			// Writing under a missing parent fails; MkdirAll cures it.
			if err := fsys.WriteFile("d/sub/f", []byte("x"), 0o644); err == nil {
				t.Fatal("write under missing parent succeeded")
			}
			if err := fsys.MkdirAll("d/sub", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := fsys.WriteFile("d/sub/f", []byte("hello"), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := fsys.ReadFile("d/sub/f")
			if err != nil || string(got) != "hello" {
				t.Fatalf("read = %q, %v", got, err)
			}
			// The atomic flush discipline.
			if err := WriteFileAtomic(fsys, "d/sub/f", []byte("v2"), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, _ := fsys.ReadFile("d/sub/f"); string(got) != "v2" {
				t.Fatalf("after atomic write = %q", got)
			}
			if _, err := fsys.Stat("d/sub/f.tmp"); !os.IsNotExist(err) {
				t.Fatalf("temp file left behind: %v", err)
			}
			// Create handles publish on Close.
			h, err := fsys.Create("d/sub/g")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Write([]byte("stream")); err != nil {
				t.Fatal(err)
			}
			if err := h.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			if got, _ := fsys.ReadFile("d/sub/g"); string(got) != "stream" {
				t.Fatalf("streamed content = %q", got)
			}
			// ReadDir lists the directory's own files, sorted: not the
			// subdirectory, not the files beneath it.
			if err := fsys.WriteFile("d/sub/a", []byte("a"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := fsys.MkdirAll("d/sub/inner", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := fsys.WriteFile("d/sub/inner/h", []byte("h"), 0o644); err != nil {
				t.Fatal(err)
			}
			names, err := fsys.ReadDir("d/sub")
			if err != nil || strings.Join(names, ",") != "a,f,g" {
				t.Fatalf("readdir = %q, %v", names, err)
			}
			// Rename replaces, Remove deletes.
			if err := fsys.Rename("d/sub/g", "d/sub/f"); err != nil {
				t.Fatal(err)
			}
			if got, _ := fsys.ReadFile("d/sub/f"); string(got) != "stream" {
				t.Fatalf("after rename = %q", got)
			}
			if err := fsys.Remove("d/sub/f"); err != nil {
				t.Fatal(err)
			}
			if _, err := fsys.ReadFile("d/sub/f"); !os.IsNotExist(err) {
				t.Fatalf("after remove: %v", err)
			}
			if err := fsys.Remove("d/sub/f"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("double remove error = %v", err)
			}
			if err := fsys.Rename("absent", "d/sub/x"); err == nil {
				t.Fatal("rename of missing file succeeded")
			}
		})
	}
}

// TestQuarantineMonotonic verifies repeated corruptions never
// overwrite an earlier quarantined file: the suffix sequence is
// .corrupt, .corrupt.1, .corrupt.2, ...
func TestQuarantineMonotonic(t *testing.T) {
	for name, fsys := range impls(t) {
		t.Run(name, func(t *testing.T) {
			want := []string{"f.corrupt", "f.corrupt.1", "f.corrupt.2"}
			for i, dest := range want {
				body := []byte{byte('0' + i)}
				if err := fsys.WriteFile("f", body, 0o644); err != nil {
					t.Fatal(err)
				}
				q, err := Quarantine(fsys, "f")
				if err != nil {
					t.Fatal(err)
				}
				if q != dest {
					t.Fatalf("quarantine %d = %q, want %q", i, q, dest)
				}
			}
			// Every generation's evidence survives, unclobbered.
			for i, dest := range want {
				got, err := fsys.ReadFile(dest)
				if err != nil || string(got) != string(byte('0'+i)) {
					t.Fatalf("%s = %q, %v", dest, got, err)
				}
			}
			// The original is gone.
			if _, err := fsys.ReadFile("f"); !os.IsNotExist(err) {
				t.Fatalf("original survived quarantine: %v", err)
			}
		})
	}
}

// TestFaultClasses pins each fault class's exact effect at a write
// boundary and the process-death contract afterwards.
func TestFaultClasses(t *testing.T) {
	payload := []byte("0123456789abcdef")
	cases := []struct {
		kind  FaultKind
		crash bool
		want  string // surviving content ("" = file absent)
		errno syscall.Errno
	}{
		{FaultKill, true, "", 0},
		{FaultTorn, true, "01234567", 0},
		{FaultCorrupt, true, "01234567\x9d\x9c\xc4\xc7\xc6\xc1\xc0\xc3", 0},
		{FaultENOSPC, false, "01234567", syscall.ENOSPC},
		{FaultEIO, false, "", syscall.EIO},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			mem := NewMem()
			f := NewFault(mem)
			f.Arm(1, tc.kind) // boundary 0 passes, 1 faults
			if err := f.WriteFile("before", []byte("ok"), 0o644); err != nil {
				t.Fatalf("pre-fault boundary failed: %v", err)
			}
			err := f.WriteFile("victim", payload, 0o644)
			if err == nil {
				t.Fatal("faulted write succeeded")
			}
			if !f.Tripped() {
				t.Fatal("fault did not trip")
			}
			if tc.crash != errors.Is(err, ErrCrashed) {
				t.Fatalf("crash = %v, err = %v", tc.crash, err)
			}
			if tc.errno != 0 && !errors.Is(err, tc.errno) {
				t.Fatalf("errno: %v, want %v", err, tc.errno)
			}
			got, rerr := mem.ReadFile("victim")
			if tc.want == "" {
				if !os.IsNotExist(rerr) {
					t.Fatalf("victim survives: %q, %v", got, rerr)
				}
			} else if string(got) != tc.want {
				t.Fatalf("surviving content = %q, want %q", got, tc.want)
			}
			// Crash classes kill the process: nothing works afterwards.
			if tc.crash {
				if _, err := f.ReadFile("before"); !errors.Is(err, ErrCrashed) {
					t.Fatalf("dead process read = %v", err)
				}
				if _, err := f.ReadDir("."); !errors.Is(err, ErrCrashed) {
					t.Fatalf("dead process readdir = %v", err)
				}
				if err := f.WriteFile("after", []byte("x"), 0o644); !errors.Is(err, ErrCrashed) {
					t.Fatalf("dead process write = %v", err)
				}
			} else {
				// Error classes leave the process alive; later boundaries work.
				if err := f.WriteFile("after", []byte("x"), 0o644); err != nil {
					t.Fatalf("post-error boundary failed: %v", err)
				}
			}
		})
	}
}

// TestFaultRenameEIO pins the "EIO on rename" drill: destination
// intact, source intact, error visible, process alive.
func TestFaultRenameEIO(t *testing.T) {
	mem := NewMem()
	if err := mem.WriteFile("dst", []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := NewFault(mem)
	f.Arm(1, FaultEIO)
	if err := f.WriteFile("src", []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.Rename("src", "dst"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("rename error = %v", err)
	}
	if got, _ := mem.ReadFile("dst"); string(got) != "old" {
		t.Fatalf("destination after failed rename = %q", got)
	}
	if got, _ := mem.ReadFile("src"); string(got) != "new" {
		t.Fatalf("source after failed rename = %q", got)
	}
	if err := f.Rename("src", "dst"); err != nil {
		t.Fatalf("retry after EIO: %v", err)
	}
}

// TestFaultCountsBoundaries verifies the op accounting the explorer's
// fault-space enumeration is built on: reads are free, every mutating
// op (including a Create handle's publish) counts exactly once.
func TestFaultCountsBoundaries(t *testing.T) {
	f := NewFault(NewMem())
	if err := f.MkdirAll("d", 0o755); err != nil { // 1
		t.Fatal(err)
	}
	if err := f.WriteFile("d/a", []byte("x"), 0o644); err != nil { // 2
		t.Fatal(err)
	}
	if _, err := f.ReadFile("d/a"); err != nil { // reads are free
		t.Fatal(err)
	}
	if _, err := f.Stat("d/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadDir("d"); err != nil {
		t.Fatal(err)
	}
	h, err := f.Create("d/b") // handle itself is free...
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil { // 3: ...its publish is the boundary
		t.Fatal(err)
	}
	if err := f.Rename("d/b", "d/c"); err != nil { // 4
		t.Fatal(err)
	}
	if err := f.Remove("d/c"); err != nil { // 5
		t.Fatal(err)
	}
	if got := f.Ops(); got != 5 {
		t.Fatalf("ops = %d, want 5", got)
	}
}
