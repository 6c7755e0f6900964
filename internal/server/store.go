package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"memsim/internal/recdir"
	"memsim/internal/vfs"
)

// storeLayout is the job record schema: jobs/<id>.json holds
// {"version": 1, "job": ...}, and older daemons' single jobs.json held
// {"version": 1, "jobs": {<id>: ...}}.
var storeLayout = recdir.Layout{Version: 1, Field: "job", LegacyField: "jobs"}

// Store is the durable job store: each job record lives in its own
// jobs/<id>.json inside the state directory, rewritten after every
// transition of that job. With the service manifest beside it
// (specs.manifest.json, one record per finished spec of any job) it is
// the crash safety of the service: the records say which jobs were in
// flight, the manifest says which specs already finished, and a
// restarted daemon re-adopts the jobs, which simulate only the rest.
type Store struct {
	mu      sync.Mutex
	recs    *recdir.Dir
	jobs    map[string]*Job
	nextSeq uint64
}

// OpenStoreFS opens (or initializes) the job store in dir on fsys and
// loads every jobs/*.json record, first importing a jobs.json left by
// an older daemon (see recdir.Open). A corrupt record is quarantined on
// its own, so losing one job's metadata does not brick the service.
func OpenStoreFS(dir string, fsys vfs.FS) (*Store, error) {
	s := &Store{jobs: make(map[string]*Job)}
	recs, names, err := recdir.Open(fsys, filepath.Join(dir, "jobs"), filepath.Join(dir, "jobs.json"), storeLayout,
		func(_ string, rec []byte) error {
			var j *Job
			if err := json.Unmarshal(rec, &j); err != nil {
				return err
			}
			if j == nil {
				return errors.New("no job in record")
			}
			s.jobs[j.ID] = j
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.recs = recs
	// Every name carries its job's sequence number: temp files and
	// quarantined records too, so no ID is ever handed out twice.
	for _, name := range names {
		s.nextSeq = max(s.nextSeq, nameSeq(name))
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

// Quarantined reports where OpenStoreFS moved corrupt records or a
// corrupt legacy jobs.json, comma-separated, or "" after a clean load.
func (s *Store) Quarantined() string { return s.recs.Quarantined() }

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
	if err := s.recs.Write(j.ID, j); err != nil {
		return Job{}, fmt.Errorf("store: %w", err)
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
	err := s.recs.Put(id, j)
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
	return s.recs.Flush()
}
