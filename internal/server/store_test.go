package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"memsim/internal/core"
	"memsim/internal/vfs"
)

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStoreFS(dir, vfs.OS)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := s.Create(JobSpec{Preset: "base"}, []string{"gcc"}, "c1", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Create(JobSpec{Preset: "tuned"}, []string{"mcf"}, "c2", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID == j2.ID || j1.Seq >= j2.Seq {
		t.Fatalf("bad allocation: %+v %+v", j1, j2)
	}
	if _, err := s.Update(j1.ID, func(j *Job) { j.State = StateRunning }); err != nil {
		t.Fatal(err)
	}

	// Reopen: records, sequence counter, and pending set must survive.
	s2, err := OpenStoreFS(dir, vfs.OS)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(j1.ID)
	if !ok || got.State != StateRunning || got.Spec.Preset != "base" {
		t.Fatalf("reloaded job = %+v, %v", got, ok)
	}
	pending := s2.Pending()
	if len(pending) != 2 || pending[0].ID != j1.ID || pending[1].ID != j2.ID {
		t.Fatalf("pending = %+v", pending)
	}
	j3, err := s2.Create(JobSpec{}, []string{"art"}, "c3", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if j3.Seq != 3 {
		t.Fatalf("sequence restarted: %+v", j3)
	}
}

func TestStorePendingSkipsTerminal(t *testing.T) {
	s, err := OpenStoreFS(t.TempDir(), vfs.OS)
	if err != nil {
		t.Fatal(err)
	}
	states := []JobState{StateQueued, StateDone, StateRunning, StateFailed, StateCanceled}
	for _, st := range states {
		j, err := s.Create(JobSpec{}, []string{"gcc"}, "", time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Update(j.ID, func(j *Job) { j.State = st }); err != nil {
			t.Fatal(err)
		}
	}
	pending := s.Pending()
	if len(pending) != 2 {
		t.Fatalf("pending = %+v", pending)
	}
	if pending[0].State != StateQueued || pending[1].State != StateRunning {
		t.Fatalf("pending order = %v, %v", pending[0].State, pending[1].State)
	}
}

func TestStoreQuarantinesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.json")
	// A truncated write: the signature of a crash without atomic flush.
	if err := os.WriteFile(path, []byte(`{"version":1,"jobs":{"j0`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStoreFS(dir, vfs.OS)
	if err != nil {
		t.Fatalf("corrupt store must not fail open: %v", err)
	}
	if s.Quarantined() != path+".corrupt" {
		t.Fatalf("quarantined = %q", s.Quarantined())
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt file not preserved: %v", err)
	}
	if len(s.List()) != 0 {
		t.Fatalf("fresh store not empty: %+v", s.List())
	}
	// The fresh store must be fully usable.
	if _, err := s.Create(JobSpec{}, []string{"gcc"}, "", time.Now()); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRejectsVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "jobs.json"),
		[]byte(`{"version":99,"jobs":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStoreFS(dir, vfs.OS); err == nil {
		t.Fatal("version mismatch must stay a hard error")
	}
}

// TestStoreRepeatedQuarantineKeepsEvidence pins the monotonic
// quarantine naming: a second and third corruption move aside as
// .corrupt.1 and .corrupt.2 instead of overwriting the first capture.
func TestStoreRepeatedQuarantineKeepsEvidence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.json")
	want := []string{path + ".corrupt", path + ".corrupt.1", path + ".corrupt.2"}
	for gen, dest := range want {
		body := []byte("{generation " + string(rune('0'+gen)))
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStoreFS(dir, vfs.OS)
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		if s.Quarantined() != dest {
			t.Fatalf("generation %d quarantined as %q, want %q", gen, s.Quarantined(), dest)
		}
	}
	for gen, dest := range want {
		data, err := os.ReadFile(dest)
		if err != nil {
			t.Fatalf("generation %d evidence lost: %v", gen, err)
		}
		if got := string(data[len(data)-1]); got != string(rune('0'+gen)) {
			t.Fatalf("%s holds generation %q, want %d", dest, got, gen)
		}
	}
}

// record is the layout of one job record file, jobs/<id>.json.
type record struct {
	Version int  `json:"version"`
	Job     *Job `json:"job"`
}

// finishedResults is a done job's result payload: the bulk of a record
// once its job finishes.
func finishedResults() []core.Result {
	return []core.Result{{Instrs: 1_000_000, Cycles: 2_345_678, IPC: 0.426}}
}

// TestStoreWritesOneRecordPerJob pins the layout: each job lives in its
// own jobs/<id>.json, and no jobs.json is ever written.
func TestStoreWritesOneRecordPerJob(t *testing.T) {
	mem := vfs.NewMem()
	s, err := OpenStoreFS("state", mem)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"gcc", "mcf"} {
		if _, err := s.Create(JobSpec{}, []string{b}, "", time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	want := "state/jobs/j000001.json,state/jobs/j000002.json"
	if got := strings.Join(mem.Files(), ","); got != want {
		t.Fatalf("files = %s, want %s", got, want)
	}
	data, err := mem.ReadFile("state/jobs/j000002.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil || rec.Version != 1 || rec.Job == nil || rec.Job.ID != "j000002" {
		t.Fatalf("record = %s (%v)", data, err)
	}
}

// TestStoreCreateFailureLeavesNoGhost: a create whose flush fails must
// not leave a queued job behind that a later flush would persist and a
// successor daemon would run, after its client was told it failed.
func TestStoreCreateFailureLeavesNoGhost(t *testing.T) {
	mem := vfs.NewMem()
	f := vfs.NewFault(mem)
	s, err := OpenStoreFS("state", f)
	if err != nil {
		t.Fatal(err)
	}
	f.Arm(1, vfs.FaultEIO) // the create's rename
	if _, err := s.Create(JobSpec{}, []string{"gcc"}, "", time.Now()); !errors.Is(err, syscall.EIO) {
		t.Fatalf("create error = %v, want EIO", err)
	}
	if got := s.List(); len(got) != 0 {
		t.Fatalf("failed create still listed: %+v", got)
	}
	ops := f.Ops()
	if err := s.Save(); err != nil {
		t.Fatalf("save after a failed create: %v", err)
	}
	if f.Ops() != ops {
		t.Fatalf("save wrote %d boundaries for a job that does not exist", f.Ops()-ops)
	}
	reopened, err := OpenStoreFS("state", mem)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.List(); len(got) != 0 {
		t.Fatalf("reopened store holds the failed job: %+v", got)
	}
	j, err := s.Create(JobSpec{}, []string{"gcc"}, "", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "j000002" {
		t.Fatalf("next create got %s, want a fresh j000002", j.ID)
	}
}

// TestStoreQuarantinesCorruptRecord: one damaged record is moved aside
// on its own and every other job still loads.
func TestStoreQuarantinesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStoreFS(dir, vfs.OS)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Create(JobSpec{}, []string{"gcc"}, "", time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	victim := filepath.Join(dir, "jobs", "j000002.json")
	if err := os.WriteFile(victim, []byte(`{"version":1,"job":{"id":"j0`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStoreFS(dir, vfs.OS)
	if err != nil {
		t.Fatalf("one corrupt record must not fail open: %v", err)
	}
	if s2.Quarantined() != victim+".corrupt" {
		t.Fatalf("quarantined = %q", s2.Quarantined())
	}
	if _, err := os.Stat(victim + ".corrupt"); err != nil {
		t.Fatalf("corrupt record not preserved: %v", err)
	}
	got := s2.List()
	if len(got) != 2 || got[0].ID != "j000001" || got[1].ID != "j000003" {
		t.Fatalf("surviving jobs = %+v", got)
	}
}

// TestStoreRecordVersionMismatch: a record of another schema is a hard
// error, as for the legacy file.
func TestStoreRecordVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "j000001.json"),
		[]byte(`{"version":2,"job":{"id":"j000001","seq":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStoreFS(dir, vfs.OS); err == nil {
		t.Fatal("record version mismatch must be a hard error")
	}
}

// TestStoreNeverReusesIDs: the highest ID on disk — even as a leftover
// temp file or a quarantined record — is never handed out again, so a
// new job cannot inherit an old job's manifest.
func TestStoreNeverReusesIDs(t *testing.T) {
	for _, tc := range []struct{ leftover, next string }{
		{"j000005.json.tmp", "j000006"},
		{"j000007.json.corrupt.2", "j000008"},
		{"j000009.json", "j000010"}, // torn: quarantined at the first open
	} {
		t.Run(tc.leftover, func(t *testing.T) {
			mem := vfs.NewMem()
			s, err := OpenStoreFS("state", mem)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Create(JobSpec{}, []string{"gcc"}, "", time.Now()); err != nil {
				t.Fatal(err)
			}
			if err := mem.WriteFile("state/jobs/"+tc.leftover, []byte("{torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			for gen := 0; gen < 2; gen++ { // the ID stays retired across reopens
				if s, err = OpenStoreFS("state", mem); err != nil {
					t.Fatal(err)
				}
				wantQ := gen == 0 && filepath.Ext(tc.leftover) == ".json"
				if (s.Quarantined() != "") != wantQ {
					t.Fatalf("open %d: quarantined = %q", gen, s.Quarantined())
				}
			}
			j, err := s.Create(JobSpec{}, []string{"gcc"}, "", time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if j.ID != tc.next {
				t.Fatalf("next ID = %s, want %s", j.ID, tc.next)
			}
		})
	}
}

// TestStoreSaveRetriesFailedUpdate: an update whose flush hit EIO stays
// in memory, Save re-flushes exactly that record, and a reopened store
// sees the update.
func TestStoreSaveRetriesFailedUpdate(t *testing.T) {
	mem := vfs.NewMem()
	f := vfs.NewFault(mem)
	s, err := OpenStoreFS("state", f)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(JobSpec{}, []string{"gcc"}, "", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	f.Arm(1, vfs.FaultEIO) // the update's rename
	if _, err := s.Update(j.ID, func(j *Job) { j.State = StateDone; j.Results = finishedResults() }); !errors.Is(err, syscall.EIO) {
		t.Fatalf("update error = %v, want EIO", err)
	}
	if got, _ := s.Get(j.ID); got.State != StateDone {
		t.Fatalf("in-memory state = %s after a failed flush", got.State)
	}
	if before, err := OpenStoreFS("state", mem); err != nil {
		t.Fatal(err)
	} else if got, _ := before.Get(j.ID); got.State != StateQueued {
		t.Fatalf("on-disk state before save = %s, want the last flushed queued", got.State)
	}

	// Save re-flushes the record (two boundaries: temp write + rename)
	// and still reports the earlier failure.
	ops := f.Ops()
	if err := s.Save(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("save error = %v, want the earlier EIO", err)
	}
	if n := f.Ops() - ops; n != 2 {
		t.Fatalf("save wrote %d boundaries, want 2 (one record)", n)
	}
	after, err := OpenStoreFS("state", mem)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := after.Get(j.ID); got.State != StateDone || len(got.Results) != 1 {
		t.Fatalf("reopened after save = %+v", got)
	}
	// The record is clean now: another Save writes nothing.
	ops = f.Ops()
	_ = s.Save()
	if f.Ops() != ops {
		t.Fatalf("second save rewrote %d boundaries", f.Ops()-ops)
	}
}

// legacyStore is a jobs.json as older daemons wrote it.
const legacyStore = `{
  "version": 1,
  "next_seq": 2,
  "jobs": {
    "j000001": {"id": "j000001", "seq": 1, "state": "done", "spec": {"preset": "base"},
                "benchmarks": ["gcc"], "enqueued_at": "2026-01-01T00:00:00Z",
                "results": [{"Instrs": 1000}]},
    "j000002": {"id": "j000002", "seq": 2, "state": "running", "spec": {},
                "benchmarks": ["mcf"], "enqueued_at": "2026-01-01T00:00:01Z"}
  }
}`

// checkImported asserts the legacy store's two jobs loaded intact.
func checkImported(t *testing.T, s *Store) {
	t.Helper()
	got := s.List()
	if len(got) != 2 || got[0].ID != "j000001" || got[0].State != StateDone ||
		len(got[0].Results) != 1 || got[0].Results[0].Instrs != 1000 ||
		got[1].ID != "j000002" || got[1].State != StateRunning {
		t.Fatalf("imported jobs = %+v", got)
	}
}

// TestStoreImportsLegacyFile: an older daemon's jobs.json becomes one
// record per job, keeps the sequence counter, and is removed.
func TestStoreImportsLegacyFile(t *testing.T) {
	mem := vfs.NewMem()
	if err := mem.MkdirAll("state", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := mem.WriteFile("state/jobs.json", []byte(legacyStore), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStoreFS("state", mem)
	if err != nil {
		t.Fatal(err)
	}
	checkImported(t, s)
	want := "state/jobs/j000001.json,state/jobs/j000002.json"
	if got := strings.Join(mem.Files(), ","); got != want {
		t.Fatalf("files after import = %s, want %s", got, want)
	}
	j, err := s.Create(JobSpec{}, []string{"art"}, "", time.Now())
	if err != nil || j.ID != "j000003" {
		t.Fatalf("create after import = %+v, %v; want j000003", j, err)
	}
	s2, err := OpenStoreFS("state", mem)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.List(); len(got) != 3 {
		t.Fatalf("reopened after import: %+v", got)
	}
}

// TestStoreLegacyImportSurvivesCrash kills the import at each of its
// boundaries: the next open must finish it with nothing lost.
func TestStoreLegacyImportSurvivesCrash(t *testing.T) {
	for op := 0; ; op++ {
		mem := vfs.NewMem()
		if err := mem.MkdirAll("state", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := mem.WriteFile("state/jobs.json", []byte(legacyStore), 0o644); err != nil {
			t.Fatal(err)
		}
		f := vfs.NewFault(mem)
		f.Arm(op, vfs.FaultTorn)
		_, err := OpenStoreFS("state", f)
		if !f.Tripped() {
			if err != nil {
				t.Fatal(err)
			}
			if op < 4 {
				t.Fatalf("import crossed only %d boundaries", op)
			}
			return
		}
		if !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("crash at boundary %d: open error = %v", op, err)
		}
		s, err := OpenStoreFS("state", mem)
		if err != nil {
			t.Fatalf("recovery after crash at boundary %d: %v", op, err)
		}
		if s.Quarantined() != "" {
			t.Fatalf("crash at boundary %d left corrupt data: %s", op, s.Quarantined())
		}
		checkImported(t, s)
		if _, err := mem.Stat("state/jobs.json"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("crash at boundary %d: legacy file survived recovery: %v", op, err)
		}
	}
}

// countingFS counts the bytes and files the store writes.
type countingFS struct {
	vfs.FS
	bytes, writes int
}

func (c *countingFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	c.bytes += len(data)
	c.writes++
	return c.FS.WriteFile(name, data, perm)
}

// TestStoreUpdateCostIndependentOfJobCount pins the store's scaling: a
// transition writes the same bytes whether the store holds one job or
// a thousand finished ones.
func TestStoreUpdateCostIndependentOfJobCount(t *testing.T) {
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	updateCost := func(finished int) (bytes, writes int) {
		fsys := &countingFS{FS: vfs.NewMem()}
		s, err := OpenStoreFS("state", fsys)
		if err != nil {
			t.Fatal(err)
		}
		target, err := s.Create(JobSpec{Preset: "base"}, []string{"gcc"}, "c", at)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < finished; i++ {
			j, err := s.Create(JobSpec{Preset: "tuned"}, []string{"mcf"}, "c", at)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Update(j.ID, func(j *Job) { j.State, j.Results = StateDone, finishedResults() }); err != nil {
				t.Fatal(err)
			}
		}
		fsys.bytes, fsys.writes = 0, 0
		if _, err := s.Update(target.ID, func(j *Job) { j.State, j.StartedAt = StateRunning, &at }); err != nil {
			t.Fatal(err)
		}
		return fsys.bytes, fsys.writes
	}
	b1, w1 := updateCost(0)
	b1000, w1000 := updateCost(1000)
	if b1 != b1000 || w1 != w1000 || w1 != 1 {
		t.Fatalf("one update wrote %d bytes in %d files with 1 job stored, %d bytes in %d files with 1001",
			b1, w1, b1000, w1000)
	}
}

// BenchmarkStoreUpdate times one transition against stores of
// different sizes on the real filesystem; the cost should not grow
// with the job count.
func BenchmarkStoreUpdate(b *testing.B) {
	for _, n := range []int{10, 1000} {
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			s, err := OpenStoreFS(b.TempDir(), vfs.OS)
			if err != nil {
				b.Fatal(err)
			}
			ids := make([]string, n)
			for i := range ids {
				j, err := s.Create(JobSpec{}, []string{"gcc"}, "c", time.Now())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Update(j.ID, func(j *Job) { j.State, j.Results = StateDone, finishedResults() }); err != nil {
					b.Fatal(err)
				}
				ids[i] = j.ID
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Update(ids[i%n], func(j *Job) { j.Resumes++ }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
