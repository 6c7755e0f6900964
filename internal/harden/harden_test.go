package harden

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestValidatorAggregates(t *testing.T) {
	var v Validator
	v.Pow2Range("Block", 48, 1, 1<<20)
	v.Range("MSHRs", 0, 1, 1024)
	v.FloatRange("ClockHz", math.NaN(), 1e3, 1e12)
	v.Range("Watchdog", -1, 0, math.MaxInt64)
	v.Reject("Mapping", "diag", "unknown mapping")

	err := v.Err()
	if err == nil {
		t.Fatal("Err() = nil with three violations")
	}
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not *ConfigError", err)
	}
	if len(ce.Fields) != 5 {
		t.Fatalf("got %d field errors, want 5", len(ce.Fields))
	}
	msg := err.Error()
	for _, want := range []string{"5 problems",
		"Block = 48: must be a power of two in [1, 1048576]",
		"MSHRs = 0: must be in [1, 1024]",
		"ClockHz = NaN: must be in [1000, 1e+12]",
		"Watchdog = -1: must be >= 0",
		"Mapping = diag: unknown mapping"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error message missing %q:\n%s", want, msg)
		}
	}
}

// TestValidatorClean: passing checks record nothing and, with their
// values unboxed, allocate nothing.
func TestValidatorClean(t *testing.T) {
	if allocs := testing.AllocsPerRun(10, func() {
		var v Validator
		if !v.Pow2Range("Block", 64, 1, 1<<20) || !v.Pow2Range("One", 1, 1, 1) ||
			!v.Range("MSHRs", 8, 1, 1024) || !v.Range("Watchdog", 1<<40, 0, math.MaxInt64) {
			t.Fatal("a passing check reported failure")
		}
		v.FloatRange("ClockHz", 1.6e9, 1e3, 1e12)
		if err := v.Err(); err != nil {
			t.Fatalf("clean pass returned %v", err)
		}
	}); allocs != 0 {
		t.Errorf("clean pass: %v allocations, want 0", allocs)
	}
}

func TestValidatorMerge(t *testing.T) {
	var inner Validator
	inner.Pow2Range("BlockBytes", 3, 1, 64)
	var outer Validator
	outer.Merge("Prefetch", inner.Err())
	outer.Merge("L1", errors.New("size not divisible"))
	outer.Merge("L2", nil)

	err := outer.Err()
	if err == nil {
		t.Fatal("merged violations lost")
	}
	ce := err.(*ConfigError)
	if len(ce.Fields) != 2 {
		t.Fatalf("got %d field errors, want 2", len(ce.Fields))
	}
	if ce.Fields[0].Field != "Prefetch.BlockBytes" {
		t.Errorf("merged field %q, want Prefetch.BlockBytes", ce.Fields[0].Field)
	}
}

func TestFieldErrorViaErrorsAs(t *testing.T) {
	var v Validator
	v.Reject("X", 1, "bad")
	var fe *FieldError
	if !errors.As(v.Err(), &fe) {
		t.Fatal("errors.As failed to find *FieldError through ConfigError.Unwrap")
	}
	if fe.Field != "X" {
		t.Errorf("field %q, want X", fe.Field)
	}
}

func TestWatchdogObserve(t *testing.T) {
	var w Watchdog
	p := Progress{Retired: 10, Issued: 5, Completions: 3}
	if !w.Observe(p) {
		t.Fatal("first observation must prime, not trip")
	}
	if w.Observe(p) {
		t.Fatal("identical snapshot reported as progress")
	}
	p.Completions++
	if !w.Observe(p) {
		t.Fatal("completion increment not counted as progress")
	}
	if w.Observe(p) {
		t.Fatal("stagnant snapshot after progress reported as progress")
	}
}

func TestReportFormat(t *testing.T) {
	var r Report
	r.Section("cpu")
	r.Linef("count=%d", 3)
	r.Section("mshrs")
	r.Linef("empty")
	got := r.String()
	for _, want := range []string{"=== cpu ===", "count=3", "=== mshrs ===", "empty"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}
