package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"memsim/internal/vfs"
)

// storeVersion guards the job record schema (and the legacy jobs.json
// one), mirroring the checkpoint manifest's version gate.
const storeVersion = 1

// record is the serialized layout of one job record file,
// jobs/<id>.json.
type record struct {
	Version int  `json:"version"`
	Job     *Job `json:"job"`
}

// legacyFile is the layout of the single jobs.json older daemons kept
// every record in. It is only ever read, to import it.
type legacyFile struct {
	Version int             `json:"version"`
	NextSeq uint64          `json:"next_seq"`
	Jobs    map[string]*Job `json:"jobs"`
}

// Store is the durable job store: each job record lives in its own
// jobs/<id>.json inside the state directory, flushed atomically (temp
// file + rename) after every transition of that job, alongside one
// checkpoint manifest per job carrying its per-spec results. Together
// they are the crash safety of the service: the records say which jobs
// were in flight, the manifests say which of their specs already
// finished, and a restarted daemon re-adopts the difference. A
// transition rewrites only the record it changed, so its cost does not
// grow with the number of jobs stored.
type Store struct {
	mu          sync.Mutex
	fs          vfs.FS
	dir         string
	jobsDir     string
	jobs        map[string]*Job
	dirty       map[string]bool // records whose last flush failed; Save retries them
	nextSeq     uint64
	saveErr     error    // first transition flush failure, surfaced by Save
	quarantined []string // where corrupt data was moved at open
}

// OpenStore opens (or initializes) the job store in dir on the real
// filesystem. See OpenStoreFS.
func OpenStore(dir string) (*Store, error) { return OpenStoreFS(dir, vfs.OS) }

// OpenStoreFS opens (or initializes) the job store in dir on fsys and
// loads every jobs/*.json record. A record that does not parse — crash
// damage or outside interference — is quarantined (<id>.json.corrupt,
// then .corrupt.1, .corrupt.2, ... so repeated corruptions keep their
// evidence) and every other record still loads, matching the
// checkpoint manifest's degradation policy: losing one job's metadata
// must not brick the service. A record of another schema version is a
// hard error.
//
// A jobs.json left by an older daemon is imported first: its records
// are written out one by one, then the file is removed. A crash
// mid-import leaves jobs.json in place, so the next open simply
// imports it again. A jobs.json that does not parse is quarantined
// like a record; a version mismatch is a hard error.
func OpenStoreFS(dir string, fsys vfs.FS) (*Store, error) {
	s := &Store{
		fs:      fsys,
		dir:     dir,
		jobsDir: filepath.Join(dir, "jobs"),
		jobs:    make(map[string]*Job),
		dirty:   make(map[string]bool),
	}
	if err := fsys.MkdirAll(s.jobsDir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.importLegacy(); err != nil {
		return nil, err
	}
	names, err := fsys.ReadDir(s.jobsDir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, name := range names {
		// Every name carries its job's sequence number: temp files and
		// quarantined records too, so no ID is ever handed out twice
		// and a new job never inherits an old job's manifest.
		s.nextSeq = max(s.nextSeq, nameSeq(name))
		if filepath.Ext(name) != ".json" {
			continue
		}
		if err := s.load(filepath.Join(s.jobsDir, name)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// nameSeq parses the sequence number out of a record file name
// ("j000042.json", "j000042.json.tmp", "j000042.json.corrupt.1"), or
// returns 0 for a name of another shape.
func nameSeq(name string) uint64 {
	digits, ok := strings.CutPrefix(name, "j")
	if !ok {
		return 0
	}
	var seq uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			break
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq
}

// load reads one record file into the store, quarantining it when it
// does not parse.
func (s *Store) load(path string) error {
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return s.quarantine(path, err)
	}
	if rec.Version != storeVersion {
		return fmt.Errorf("store %s: version %d, want %d", path, rec.Version, storeVersion)
	}
	if rec.Job == nil {
		return s.quarantine(path, errors.New("no job in record"))
	}
	s.jobs[rec.Job.ID] = rec.Job
	return nil
}

// quarantine moves an unparseable file aside, keeping it as evidence.
func (s *Store) quarantine(path string, cause error) error {
	q, err := vfs.Quarantine(s.fs, path)
	if err != nil {
		return fmt.Errorf("store %s: unparseable (%v) and quarantine failed: %w", path, cause, err)
	}
	s.quarantined = append(s.quarantined, q)
	return nil
}

// importLegacy converts an older daemon's jobs.json into per-job
// records and removes it. Until the removal lands the legacy file stays
// the source of truth, so an interrupted import is simply redone.
func (s *Store) importLegacy() error {
	path := filepath.Join(s.dir, "jobs.json")
	data, err := s.fs.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var f legacyFile
	if err := json.Unmarshal(data, &f); err != nil {
		return s.quarantine(path, err)
	}
	if f.Version != storeVersion {
		return fmt.Errorf("store %s: version %d, want %d", path, f.Version, storeVersion)
	}
	ids := make([]string, 0, len(f.Jobs))
	for id := range f.Jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if j := f.Jobs[id]; j != nil {
			if err := s.write(j); err != nil {
				return err
			}
		}
	}
	s.nextSeq = f.NextSeq
	if err := s.fs.Remove(path); err != nil {
		return fmt.Errorf("store: import %s: %w", path, err)
	}
	return nil
}

// Quarantined reports where OpenStore moved corrupt data — a record or
// a legacy jobs.json — comma-separated when there was more than one,
// or "" when the load was clean.
func (s *Store) Quarantined() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.quarantined, ", ")
}

// Dir reports the state directory.
func (s *Store) Dir() string { return s.dir }

// ManifestPath is where a job's per-spec checkpoint manifest lives.
func (s *Store) ManifestPath(id string) string {
	return filepath.Join(s.dir, "job-"+id+".manifest.json")
}

// Create allocates, records, and persists a new queued job. When the
// record cannot be persisted the job does not exist: it is neither
// listed nor flushed by a later Save, and the next Create allocates a
// fresh ID.
func (s *Store) Create(spec JobSpec, benches []string, client string, now time.Time) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSeq++
	j := &Job{
		ID:         fmt.Sprintf("j%06d", s.nextSeq),
		Seq:        s.nextSeq,
		State:      StateQueued,
		Spec:       spec,
		Benchmarks: benches,
		Client:     client,
		EnqueuedAt: now.UTC(),
	}
	if err := s.write(j); err != nil {
		return Job{}, err
	}
	s.jobs[j.ID] = j
	return *j, nil
}

// Get returns a copy of the job record.
func (s *Store) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Update applies mutate to the job under the store lock and persists
// its record, returning the updated copy. A record whose flush fails
// keeps the update in memory and is flushed again by Save.
func (s *Store) Update(id string, mutate func(*Job)) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("store: no job %s", id)
	}
	mutate(j)
	err := s.write(j)
	if err != nil {
		s.dirty[id] = true
		if s.saveErr == nil {
			s.saveErr = err
		}
	} else {
		delete(s.dirty, id)
	}
	return *j, err
}

// List returns every job record in allocation order.
func (s *Store) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	return out
}

// Pending returns the jobs a (re)started daemon must enqueue, in
// allocation order: queued jobs from a previous life, and running jobs
// whose execution a crash or drain cut short.
func (s *Store) Pending() []Job {
	var out []Job
	for _, j := range s.List() {
		if j.State == StateQueued || j.State == StateRunning {
			out = append(out, j)
		}
	}
	return out
}

// Save flushes every record whose last flush failed, reporting the
// first error from any earlier transition flush as well; the drain
// path calls it so an interrupted daemon leaves a complete record.
func (s *Store) Save() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.dirty))
	for id := range s.dirty {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := s.write(s.jobs[id]); err != nil {
			return err
		}
		delete(s.dirty, id)
	}
	return s.saveErr
}

// write persists one job's record atomically (temp file + rename), so
// a kill mid-write never leaves a truncated record.
func (s *Store) write(j *Job) error {
	data, err := json.Marshal(record{Version: storeVersion, Job: j})
	if err == nil {
		err = vfs.WriteFileAtomic(s.fs, filepath.Join(s.jobsDir, j.ID+".json"), data, 0o644)
	}
	if err != nil {
		return fmt.Errorf("store %s: %w", j.ID, err)
	}
	return nil
}
