package server

import (
	"math"
	"sort"
	"sync"
	"time"
)

// maxClients bounds the rate limiter's bucket table: one token bucket
// per distinct client key, evicting the longest-idle bucket when the
// table fills. A hostile sweep of client ids therefore costs O(1)
// memory, at worst resetting strangers' buckets to full — which only
// relaxes their limit, never tightens it.
const maxClients = 1024

// tokenBucket is one client's refillable allowance.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// rateLimiter applies a per-client token bucket: each client key earns
// rate tokens per second up to burst, and a submission spends one.
type rateLimiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64 // bucket capacity
	buckets map[string]*tokenBucket
}

// newRateLimiter builds a limiter; a rate <= 0 disables limiting.
func newRateLimiter(rate float64, burst int) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{rate: rate, burst: float64(burst), buckets: make(map[string]*tokenBucket)}
}

// allow spends one token for key, reporting whether the submission may
// proceed and, when not, how long until the bucket earns the next
// token (the Retry-After hint).
func (l *rateLimiter) allow(key string, now time.Time) (ok bool, retryAfter time.Duration) {
	if l.rate <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= maxClients {
			l.evictIdlest()
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(l.burst, b.tokens+dt*l.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / l.rate
	return false, time.Duration(math.Ceil(need)) * time.Second
}

// evictIdlest drops the bucket that has gone longest without a
// submission, breaking timestamp ties by key so eviction is
// deterministic. Called with the lock held.
func (l *rateLimiter) evictIdlest() {
	keys := make([]string, 0, len(l.buckets))
	for k := range l.buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var (
		victim string
		oldest time.Time
	)
	for _, k := range keys {
		if b := l.buckets[k]; victim == "" || b.last.Before(oldest) {
			victim, oldest = k, b.last
		}
	}
	delete(l.buckets, victim)
}

// admission is the load-shedding gate: a bounded logical queue. It
// tracks counts itself (rather than reading channel lengths) so the
// admit decision and the counter update are one atomic step under its
// lock. Only the worker goroutines start jobs, so running never
// exceeds the worker count and admitted-but-unfinished work never
// exceeds queueDepth plus the workers.
type admission struct {
	mu         sync.Mutex
	queueDepth int // high watermark on queued jobs
	queued     int
	running    int
}

// newAdmission builds the gate: queueDepth bounds waiting jobs.
func newAdmission(queueDepth int) *admission {
	return &admission{queueDepth: queueDepth}
}

// tryAdmit claims a queue slot, reporting false when the queue is at
// its watermark.
func (a *admission) tryAdmit() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.queued >= a.queueDepth {
		return false
	}
	a.queued++
	return true
}

// adopt claims a queue slot unconditionally: restart re-adoption must
// never shed jobs that were already admitted in a previous life.
func (a *admission) adopt() {
	a.mu.Lock()
	a.queued++
	a.mu.Unlock()
}

// release gives a queue slot back without running (a canceled queued
// job, or an enqueue that failed after admission).
func (a *admission) release() {
	a.mu.Lock()
	a.queued--
	a.mu.Unlock()
}

// start moves one job from queued to running.
func (a *admission) start() {
	a.mu.Lock()
	a.queued--
	a.running++
	a.mu.Unlock()
}

// finish retires one running job.
func (a *admission) finish() {
	a.mu.Lock()
	a.running--
	a.mu.Unlock()
}

// depths snapshots the queued and running counts.
func (a *admission) depths() (queued, running int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued, a.running
}
