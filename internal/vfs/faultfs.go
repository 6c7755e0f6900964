package vfs

import (
	"errors"
	"io/fs"
	"sync"
	"syscall"
)

// Fault classes the fault-injecting filesystem can land on one
// persistence boundary. The first three are crash classes — the
// process dies at the boundary and every later operation fails with
// ErrCrashed; the last two are I/O-error classes — the operation fails
// visibly and the process lives to handle (or mishandle) the error.
type FaultKind int

const (
	// FaultKill crashes at the boundary before the operation takes any
	// effect: a power cut between syscalls. Full loss of the op.
	FaultKill FaultKind = iota
	// FaultTorn crashes mid-write: a WriteFile (or publishing
	// Sync/Close) persists only a prefix of its data. Non-write
	// boundaries degrade to FaultKill (rename and remove are atomic).
	FaultTorn
	// FaultCorrupt crashes after the write reached the medium wrong: a
	// WriteFile persists full-length data with a corrupted tail.
	// Non-write boundaries degrade to FaultKill.
	FaultCorrupt
	// FaultENOSPC fails a write boundary with ENOSPC after persisting a
	// prefix (the disk filled mid-write). The process observes the
	// error; non-write boundaries fail with ENOSPC and no effect.
	FaultENOSPC
	// FaultEIO fails the boundary with EIO and no effect — the "EIO on
	// rename" drill when the boundary is a rename, and a generic
	// transient device error elsewhere.
	FaultEIO

	numFaultKinds
)

var faultNames = [...]string{"kill", "torn", "corrupt", "enospc", "eio"}

func (k FaultKind) String() string {
	if int(k) < len(faultNames) {
		return faultNames[k]
	}
	return "fault(?)"
}

// Faults lists every fault class, in enumeration order.
func Faults() []FaultKind {
	out := make([]FaultKind, numFaultKinds)
	for i := range out {
		out[i] = FaultKind(i)
	}
	return out
}

// crashes reports whether the class kills the process at the boundary.
func (k FaultKind) crashes() bool {
	return k == FaultKill || k == FaultTorn || k == FaultCorrupt
}

// ErrCrashed is what every filesystem operation returns after a crash
// fault landed: the process is dead; nothing it does can reach disk.
var ErrCrashed = errors.New("vfs: process crashed at an injected fault point")

// Fault wraps an FS and injects one fault at an exact persistence
// boundary. Boundaries are the mutating operations — WriteFile,
// Rename, Remove, MkdirAll, and a Create handle's publishing
// Sync/Close — counted from zero in execution order; reads are free.
// Unarmed, it is a pass-through that counts boundaries, which is how
// the chaos explorer measures a run's fault space.
type Fault struct {
	inner FS

	mu      sync.Mutex
	ops     int // boundaries seen so far
	armed   bool
	at      int // boundary to fault
	kind    FaultKind
	tripped bool // the armed fault landed
	crashed bool // a crash class landed; everything fails now
}

// NewFault wraps inner. The result passes every operation through
// until Arm is called.
func NewFault(inner FS) *Fault { return &Fault{inner: inner} }

// Arm schedules kind to land on the op-th mutating operation from now
// (0-based). Counting restarts at Arm.
func (f *Fault) Arm(op int, kind FaultKind) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed, f.at, f.kind = true, op, kind
	f.ops, f.tripped, f.crashed = 0, false, false
}

// Ops reports how many persistence boundaries have executed since the
// last Arm (or construction).
func (f *Fault) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Tripped reports whether the armed fault landed.
func (f *Fault) Tripped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tripped
}

// Crashed reports whether a crash-class fault landed: the simulated
// process is dead and every operation fails with ErrCrashed.
func (f *Fault) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// boundary advances the op counter and reports the fault to apply at
// this boundary, if any. It returns (kind, true) exactly once — on the
// armed boundary — and flips crashed for the crash classes.
func (f *Fault) boundary() (FaultKind, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, false, ErrCrashed
	}
	op := f.ops
	f.ops++
	if !f.armed || f.tripped || op != f.at {
		return 0, false, nil
	}
	f.tripped = true
	if f.kind.crashes() {
		f.crashed = true
	}
	return f.kind, true, nil
}

// dead reports ErrCrashed when a crash fault already landed; read
// operations call it so a dead process cannot observe the filesystem.
func (f *Fault) dead() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

func pathErr(op, name string, errno syscall.Errno) error {
	return &fs.PathError{Op: op, Path: name, Err: errno}
}

// tornLen is how much of a torn or out-of-space write persists: half
// the payload, deterministically.
func tornLen(data []byte) int { return len(data) / 2 }

// corruptTail returns data with its final bytes flipped — the
// signature of a write that reached the medium wrong.
func corruptTail(data []byte) []byte {
	out := append([]byte(nil), data...)
	n := len(out)
	for i := n - min(8, n); i < n; i++ {
		out[i] ^= 0xA5
	}
	return out
}

// ReadFile passes through unless the process is dead.
func (f *Fault) ReadFile(name string) ([]byte, error) {
	if err := f.dead(); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

// WriteFile is one boundary; every fault class has a distinct effect
// here (see the FaultKind constants).
func (f *Fault) WriteFile(name string, data []byte, perm fs.FileMode) error {
	kind, hit, err := f.boundary()
	if err != nil {
		return err
	}
	if !hit {
		return f.inner.WriteFile(name, data, perm)
	}
	switch kind {
	case FaultKill:
		return ErrCrashed
	case FaultTorn:
		_ = f.inner.WriteFile(name, data[:tornLen(data)], perm)
		return ErrCrashed
	case FaultCorrupt:
		_ = f.inner.WriteFile(name, corruptTail(data), perm)
		return ErrCrashed
	case FaultENOSPC:
		_ = f.inner.WriteFile(name, data[:tornLen(data)], perm)
		return pathErr("write", name, syscall.ENOSPC)
	default: // FaultEIO
		return pathErr("write", name, syscall.EIO)
	}
}

// mutate applies one non-write boundary: crash classes take effect
// before the operation does anything; error classes fail it visibly.
func (f *Fault) mutate(op, name string, fn func() error) error {
	kind, hit, err := f.boundary()
	if err != nil {
		return err
	}
	if !hit {
		return fn()
	}
	switch kind {
	case FaultENOSPC:
		return pathErr(op, name, syscall.ENOSPC)
	case FaultEIO:
		return pathErr(op, name, syscall.EIO)
	default: // kill; torn and corrupt degrade to kill off the write path
		return ErrCrashed
	}
}

// Rename is one boundary. FaultEIO here is the "EIO on rename" drill:
// the destination keeps its old content and the caller sees the error.
func (f *Fault) Rename(oldname, newname string) error {
	return f.mutate("rename", newname, func() error { return f.inner.Rename(oldname, newname) })
}

// Remove is one boundary.
func (f *Fault) Remove(name string) error {
	return f.mutate("remove", name, func() error { return f.inner.Remove(name) })
}

// MkdirAll is one boundary.
func (f *Fault) MkdirAll(name string, perm fs.FileMode) error {
	return f.mutate("mkdir", name, func() error { return f.inner.MkdirAll(name, perm) })
}

// Stat passes through unless the process is dead.
func (f *Fault) Stat(name string) (fs.FileInfo, error) {
	if err := f.dead(); err != nil {
		return nil, err
	}
	return f.inner.Stat(name)
}

// ReadDir passes through unless the process is dead.
func (f *Fault) ReadDir(name string) ([]string, error) {
	if err := f.dead(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

// faultFile routes a Create handle's publishing boundary (Sync/Close)
// through the injector, buffering writes so torn and corrupt faults
// can act on the complete payload.
type faultFile struct {
	f    *Fault
	name string
	buf  []byte
	done bool // published (or crashed); further publishes are no-ops
}

// Create opens a buffered handle; the boundary is its Sync or Close.
func (f *Fault) Create(name string) (File, error) {
	if err := f.dead(); err != nil {
		return nil, err
	}
	return &faultFile{f: f, name: name}, nil
}

func (w *faultFile) Write(p []byte) (int, error) {
	if err := w.f.dead(); err != nil {
		return 0, err
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// publish is the handle's persistence boundary: the whole buffered
// payload goes through the same fault taxonomy as a WriteFile.
func (w *faultFile) publish() error {
	if w.done {
		return w.f.dead()
	}
	w.done = true
	return w.f.WriteFile(w.name, w.buf, 0o644)
}

func (w *faultFile) Sync() error  { return w.publish() }
func (w *faultFile) Close() error { return w.publish() }
