package server

import (
	"io"
	"sync"
	"sync/atomic"

	"memsim/internal/obs"
)

// metrics is the server-level observability: the PR 4 registry reused
// at the service layer. Counters are atomics read lazily at export
// (the registry's own instruments are event-loop single-threaded and
// would race under concurrent handlers), the job-latency histogram is
// guarded by the export mutex, and gauges read the admission gate.
type metrics struct {
	admitted     atomic.Uint64
	shedQueue    atomic.Uint64 // queue watermark crossed
	shedRate     atomic.Uint64 // per-client token bucket empty
	shedDraining atomic.Uint64 // submission during drain
	badRequests  atomic.Uint64 // malformed or invalid submissions
	completed    atomic.Uint64
	failed       atomic.Uint64
	canceled     atomic.Uint64
	resumedJobs  atomic.Uint64 // jobs re-adopted at startup
	specsReused  atomic.Uint64 // checkpointed specs reused instead of re-run

	mu         sync.Mutex
	reg        *obs.Registry
	jobSeconds *obs.Histogram
}

// newMetrics wires the server series into a fresh registry. adm feeds
// the queue-depth and in-flight gauges.
func newMetrics(adm *admission) *metrics {
	m := &metrics{reg: obs.NewRegistry()}
	r := m.reg

	r.GaugeFunc("memsimd_queue_depth", "Jobs admitted and waiting for a worker.",
		func() float64 { q, _ := adm.depths(); return float64(q) })
	r.GaugeFunc("memsimd_inflight_jobs", "Jobs currently executing on the worker pool.",
		func() float64 { _, run := adm.depths(); return float64(run) })

	ctr := func(c *atomic.Uint64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}
	r.CounterFunc("memsimd_jobs_admitted_total", "Jobs accepted into the queue.", ctr(&m.admitted))
	shedHelp := "Submissions shed with 429/503, by reason."
	r.CounterFunc("memsimd_jobs_shed_total", shedHelp, ctr(&m.shedQueue), obs.Label{Key: "reason", Value: "queue_full"})
	r.CounterFunc("memsimd_jobs_shed_total", shedHelp, ctr(&m.shedRate), obs.Label{Key: "reason", Value: "rate_limited"})
	r.CounterFunc("memsimd_jobs_shed_total", shedHelp, ctr(&m.shedDraining), obs.Label{Key: "reason", Value: "draining"})
	r.CounterFunc("memsimd_bad_requests_total", "Submissions rejected as malformed or invalid (4xx).", ctr(&m.badRequests))
	r.CounterFunc("memsimd_jobs_completed_total", "Jobs that finished with results.", ctr(&m.completed))
	r.CounterFunc("memsimd_jobs_failed_total", "Jobs that exhausted their execution (panic, deadline, hard error).", ctr(&m.failed))
	r.CounterFunc("memsimd_jobs_canceled_total", "Jobs canceled by the client.", ctr(&m.canceled))
	r.CounterFunc("memsimd_jobs_resumed_total", "Interrupted jobs re-adopted at daemon startup.", ctr(&m.resumedJobs))
	r.CounterFunc("memsimd_specs_reused_total", "Checkpointed specs reused across resumes instead of re-simulated.", ctr(&m.specsReused))

	m.jobSeconds = r.Histogram("memsimd_job_duration_seconds",
		"Wall-clock latency of completed jobs, enqueue to finish.",
		[]float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300})
	return m
}

// observeJobSeconds records one completed job's latency.
func (m *metrics) observeJobSeconds(s float64) {
	m.mu.Lock()
	m.jobSeconds.Observe(s)
	m.mu.Unlock()
}

// jobSecondsAvg reports the mean completed-job latency, false before
// any job has finished.
func (m *metrics) jobSecondsAvg() (avg float64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.jobSeconds.Count()
	if n == 0 {
		return 0, false
	}
	return m.jobSeconds.Sum() / float64(n), true
}

// writePrometheus renders the registry in the Prometheus text format,
// holding the histogram lock so export never races an observation.
func (m *metrics) writePrometheus(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg.WritePrometheus(w)
}
