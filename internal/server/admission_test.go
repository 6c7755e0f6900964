package server

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestAdmissionWatermarks(t *testing.T) {
	a := newAdmission(2) // queue of 2, one worker

	if !a.tryAdmit() || !a.tryAdmit() {
		t.Fatal("admissions under the watermark refused")
	}
	if a.tryAdmit() {
		t.Fatal("queue watermark not enforced")
	}
	a.start() // one job moves to a worker: a queue slot frees...
	if !a.tryAdmit() {
		t.Fatal("freed queue slot refused")
	}
	// ...and the re-admission fills the queue again, so the gate holds.
	if a.tryAdmit() {
		t.Fatal("queue watermark not enforced after start")
	}
	a.finish() // running job retires, but the queue itself is still full
	if a.tryAdmit() {
		t.Fatal("queue watermark ignored after finish")
	}
	a.start() // a queued job moves to the freed worker
	if !a.tryAdmit() {
		t.Fatal("freed queue slot refused after start")
	}
	q, r := a.depths()
	if q != 2 || r != 1 {
		t.Fatalf("depths = %d, %d", q, r)
	}
}

func TestAdmissionAdoptBypassesWatermark(t *testing.T) {
	a := newAdmission(1)
	// Restart re-adoption must never shed previously admitted jobs,
	// even past the watermark.
	for i := 0; i < 5; i++ {
		a.adopt()
	}
	if q, _ := a.depths(); q != 5 {
		t.Fatalf("adopted depth = %d", q)
	}
	if a.tryAdmit() {
		t.Fatal("new work admitted over adopted backlog")
	}
}

func TestRateLimiterRefill(t *testing.T) {
	l := newRateLimiter(2, 2) // 2 tokens/s, burst 2
	now := time.Unix(1000, 0)

	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("a", now); !ok {
			t.Fatalf("burst submission %d refused", i)
		}
	}
	ok, retry := l.allow("a", now)
	if ok {
		t.Fatal("empty bucket allowed a submission")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry hint = %v", retry)
	}
	// Another client is an independent bucket.
	if ok, _ := l.allow("b", now); !ok {
		t.Fatal("independent client throttled")
	}
	// Half a second earns one token at 2/s.
	if ok, _ := l.allow("a", now.Add(500*time.Millisecond)); !ok {
		t.Fatal("refill not credited")
	}
}

func TestRateLimiterDisabled(t *testing.T) {
	l := newRateLimiter(-1, 1)
	for i := 0; i < 100; i++ {
		if ok, _ := l.allow("a", time.Unix(1000, 0)); !ok {
			t.Fatal("disabled limiter throttled")
		}
	}
}

func TestRateLimiterBoundsClientTable(t *testing.T) {
	l := newRateLimiter(1, 1)
	now := time.Unix(1000, 0)
	// A hostile sweep of distinct client ids must not grow memory
	// without bound.
	for i := 0; i < 4*maxClients; i++ {
		l.allow(fmt.Sprintf("client-%d", i), now.Add(time.Duration(i)*time.Millisecond))
	}
	l.mu.Lock()
	n := len(l.buckets)
	l.mu.Unlock()
	if n > maxClients {
		t.Fatalf("bucket table grew to %d (max %d)", n, maxClients)
	}
}

func TestRateLimiterEvictionDeterministicUnderCollision(t *testing.T) {
	l := newRateLimiter(1, 1)
	now := time.Unix(1000, 0)
	// Fill the table with keys sharing one timestamp — maximal
	// collision pressure on the idlest tie-break.
	for i := 0; i < maxClients; i++ {
		l.allow(fmt.Sprintf("c%04d", i), now)
	}
	// Each admission over the cap evicts exactly one bucket: the
	// lexicographically smallest key among the tied-idlest, in order.
	for i := 0; i < 3; i++ {
		newKey := fmt.Sprintf("n%d", i)
		l.allow(newKey, now.Add(time.Second))
		l.mu.Lock()
		_, victimAlive := l.buckets[fmt.Sprintf("c%04d", i)]
		_, nextAlive := l.buckets[fmt.Sprintf("c%04d", i+1)]
		_, added := l.buckets[newKey]
		n := len(l.buckets)
		l.mu.Unlock()
		if victimAlive {
			t.Fatalf("eviction %d: tie-break victim c%04d survived", i, i)
		}
		if !nextAlive || !added {
			t.Fatalf("eviction %d: wrong bucket evicted (next=%v added=%v)", i, nextAlive, added)
		}
		if n != maxClients {
			t.Fatalf("eviction %d: table size %d, want %d", i, n, maxClients)
		}
	}
	// A strictly idler bucket is the victim regardless of key order.
	l.mu.Lock()
	l.buckets["c0500"].last = now.Add(-time.Hour)
	l.mu.Unlock()
	l.allow("straggler", now.Add(2*time.Second))
	l.mu.Lock()
	_, idlerAlive := l.buckets["c0500"]
	_, smallestAlive := l.buckets["c0003"]
	l.mu.Unlock()
	if idlerAlive {
		t.Fatal("strictly idlest bucket survived eviction")
	}
	if !smallestAlive {
		t.Fatal("key-order tie-break applied over a strictly idler bucket")
	}
}

// TestRateLimiterStateAcrossDrainRestart pins the documented lifetime
// of the bucket table: it is process-local. A drained client's spent
// tokens do not survive a daemon restart — the successor grants a
// fresh burst, which only relaxes the limit, never tightens it.
func TestRateLimiterStateAcrossDrainRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		StateDir:   dir,
		Workers:    1,
		RatePerSec: 0.001, // no meaningful refill within the test
		Burst:      2,
		Logger:     log.New(io.Discard, "", 0),
		runHook:    instantHook,
	}
	post := func(svc *Service) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/jobs", strings.NewReader(`{"benchmarks":["swim"]}`))
		req.Header.Set("X-Client-ID", "alice")
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, req)
		return rec
	}

	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if rec := post(svc); rec.Code != http.StatusAccepted {
			t.Fatalf("burst submission %d = %d", i, rec.Code)
		}
	}
	rec := post(svc)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst submission = %d, want 429", rec.Code)
	}
	if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", rec.Header().Get("Retry-After"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc2.Drain(ctx)
	}()
	if rec := post(svc2); rec.Code != http.StatusAccepted {
		t.Fatalf("post-restart submission = %d; the successor must grant a fresh burst", rec.Code)
	}
}

// TestRetryAfterFloor pins the 429 estimate before any job has
// completed (no latency mean) and under a measured mean of zero: both
// fall back to the documented pessimistic default, and the result is
// always within [retryAfterMinSeconds, retryAfterMaxSeconds].
func TestRetryAfterFloor(t *testing.T) {
	svc := newService(t, Config{Workers: 1, QueueDepth: 4})

	// Zero completed jobs: the pessimistic default per queued job.
	if got := svc.retryAfterSeconds(); got != int(retryAfterDefaultPerJob) {
		t.Fatalf("cold estimate = %d, want %d", got, int(retryAfterDefaultPerJob))
	}
	// Sub-second jobs truncate the mean to zero; the default must take
	// over rather than collapsing the estimate to the floor by luck.
	svc.met.observeJobSeconds(0)
	if got := svc.retryAfterSeconds(); got != int(retryAfterDefaultPerJob) {
		t.Fatalf("zero-mean estimate = %d, want %d", got, int(retryAfterDefaultPerJob))
	}
	// Deep backlog clamps to the ceiling, never beyond.
	for i := 0; i < 3*retryAfterMaxSeconds/int(retryAfterDefaultPerJob); i++ {
		svc.adm.adopt()
	}
	if got := svc.retryAfterSeconds(); got != retryAfterMaxSeconds {
		t.Fatalf("deep-backlog estimate = %d, want %d", got, retryAfterMaxSeconds)
	}
	for i := 0; i < 3*retryAfterMaxSeconds/int(retryAfterDefaultPerJob); i++ {
		svc.adm.release()
	}
	// A fast measured mean floors at retryAfterMinSeconds, never 0.
	svc.met.observeJobSeconds(0.1)
	if got := svc.retryAfterSeconds(); got < retryAfterMinSeconds {
		t.Fatalf("estimate %d below the floor", got)
	}
}
