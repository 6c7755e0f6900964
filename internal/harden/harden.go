// Package harden is the simulator's robustness layer: typed,
// aggregated configuration errors, a forward-progress watchdog for the
// event loop, cross-layer invariant ("paranoid mode") violations, and
// structured diagnostic dumps attached to every failure.
//
// The package deliberately sits below the subsystem packages: it
// depends only on the simulation kernel, so the policy registries,
// core, the experiments runner and the server report through it
// without import cycles. The layers core checks (caches, channels,
// controllers, prefetchers) expose plain CheckSane/CheckIntegrity
// errors, which core wraps into these types.
// Real memory-system simulators (DRAMsim3's config checker, the
// backpressure accounting in MemorySim-style controllers) treat these
// facilities as part of the product, not the tests; memsim does the
// same so that a malformed Config or a corrupted queue surfaces as a
// structured error instead of a raw panic or a silent infinite loop.
package harden

import (
	"fmt"
	"math"
	"strings"

	"memsim/internal/sim"
)

// FieldError describes one invalid configuration field. It is the unit
// of aggregation: a validation pass reports every bad field at once
// rather than stopping at the first.
type FieldError struct {
	// Field names the offending configuration field (dotted for nested
	// structures, e.g. "Prefetch.QueueDepth").
	Field string
	// Value is the rejected value.
	Value any
	// Reason explains the constraint that was violated.
	Reason string
}

// Error implements error.
func (e *FieldError) Error() string {
	return fmt.Sprintf("%s = %v: %s", e.Field, e.Value, e.Reason)
}

// ConfigError aggregates every FieldError found in one validation
// pass. Callers can range over Fields for structured handling or use
// errors.As to detect a validation failure.
type ConfigError struct {
	Fields []*FieldError
}

// Error implements error, listing every violation.
func (e *ConfigError) Error() string {
	msg := fmt.Sprintf("invalid config (%d problems)", len(e.Fields))
	if len(e.Fields) == 1 {
		msg = "invalid config (1 problem)"
	}
	for _, f := range e.Fields {
		msg += "\n  - " + f.Error()
	}
	return msg
}

// Unwrap exposes the individual field errors to errors.Is/As.
func (e *ConfigError) Unwrap() []error {
	errs := make([]error, len(e.Fields))
	for i, f := range e.Fields {
		errs[i] = f
	}
	return errs
}

// Validator accumulates field errors during a validation pass. The
// zero value is ready to use; a pass whose checks hold allocates nothing.
type Validator struct {
	fields []*FieldError
}

// Reject records a violation for the named field. It boxes its
// arguments, so call it only once a check has failed; the range checks
// take their values unboxed.
func (v *Validator) Reject(field string, value any, format string, args ...any) {
	v.fields = append(v.fields, &FieldError{
		Field:  field,
		Value:  value,
		Reason: fmt.Sprintf(format, args...),
	})
}

// Range requires lo <= value <= hi, reporting whether value passed; a
// hi of math.MaxInt64 leaves it unbounded above.
func (v *Validator) Range(field string, value, lo, hi int64) bool {
	ok := value >= lo && value <= hi
	switch {
	case !ok && hi == math.MaxInt64:
		v.Reject(field, value, "must be >= %d", lo)
	case !ok:
		v.Reject(field, value, "must be in [%d, %d]", lo, hi)
	}
	return ok
}

// Pow2Range requires a power of two in [lo, hi], lo >= 1, and reports whether it passed.
func (v *Validator) Pow2Range(field string, value, lo, hi int64) bool {
	ok := value >= lo && value <= hi && value&(value-1) == 0
	if !ok {
		v.Reject(field, value, "must be a power of two in [%d, %d]", lo, hi)
	}
	return ok
}

// FloatRange requires lo <= value <= hi; NaN fails it.
func (v *Validator) FloatRange(field string, value, lo, hi float64) {
	if !(value >= lo && value <= hi) {
		v.Reject(field, value, "must be in [%g, %g]", lo, hi)
	}
}

// Merge absorbs another error into the pass: a *ConfigError
// contributes its fields under the given prefix (an empty prefix keeps
// them as they are), any other error becomes a single field entry. A
// nil err is a no-op.
func (v *Validator) Merge(prefix string, err error) {
	if err == nil {
		return
	}
	if ce, ok := err.(*ConfigError); ok {
		for _, f := range ce.Fields {
			field := f.Field
			if prefix != "" {
				field = prefix + "." + field
			}
			v.fields = append(v.fields, &FieldError{Field: field, Value: f.Value, Reason: f.Reason})
		}
		return
	}
	v.Reject(prefix, nil, "%v", err)
}

// Err returns nil when no violations were recorded, else the
// aggregated *ConfigError.
func (v *Validator) Err() error {
	if len(v.fields) == 0 {
		return nil
	}
	return &ConfigError{Fields: v.fields}
}

// WatchdogError reports a run aborted because the system made no
// forward progress (no retire, no channel issue, no completion) for a
// full watchdog window.
type WatchdogError struct {
	// Now is the simulated time of the abort.
	Now sim.Time
	// WindowCycles is the configured no-progress window.
	WindowCycles int64
	// Progress is the (stagnant) progress snapshot at the abort.
	Progress Progress
	// Dump is the structured diagnostic state dump.
	Dump string
}

// Error implements error.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("watchdog: no forward progress for %d cycles at %v (retired=%d issued=%d completions=%d)\n%s",
		e.WindowCycles, e.Now, e.Progress.Retired, e.Progress.Issued, e.Progress.Completions, e.Dump)
}

// InvariantError reports cross-layer accounting violations found by
// the paranoid checker.
type InvariantError struct {
	// Now is the simulated time of the failing check.
	Now sim.Time
	// Violations lists every broken invariant, in deterministic order.
	Violations []string
	// Dump is the structured diagnostic state dump.
	Dump string
}

// Error implements error.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("invariant check failed at %v:\n  - %s\n%s",
		e.Now, strings.Join(e.Violations, "\n  - "), e.Dump)
}

// CorruptionError wraps an internal-bug panic (e.g. a duplicate MSHR
// fill) recovered during a run, attaching the diagnostic dump. The
// panic still indicates a bug — routing it through this type preserves
// the crash signal while giving the caller the state needed to debug
// it.
type CorruptionError struct {
	// PanicValue is the recovered panic payload.
	PanicValue any
	// Now is the simulated time of the panic.
	Now sim.Time
	// Dump is the structured diagnostic state dump.
	Dump string
}

// Error implements error.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("internal corruption at %v: %v\n%s", e.Now, e.PanicValue, e.Dump)
}

// Progress is a monotonic snapshot of system forward progress. Any
// strictly increasing component counts as progress.
type Progress struct {
	// Retired counts instructions retired by the core.
	Retired uint64
	// Issued counts accesses issued on the memory channels.
	Issued uint64
	// Completions counts transfer completions delivered to the
	// hierarchy (MSHR drains and prefetch fills).
	Completions uint64
}

// Watchdog detects no-forward-progress windows. Observe is called at a
// fixed cycle interval with the current progress snapshot; two
// consecutive identical snapshots mean the window passed with no
// retire, no issue, and no completion. The zero value is unprimed: its
// first observation only records a baseline.
type Watchdog struct {
	last   Progress
	primed bool
}

// Observe records a snapshot and reports whether the system progressed
// since the previous one. The first call always reports true.
func (w *Watchdog) Observe(p Progress) bool {
	ok := !w.primed || p != w.last
	w.primed, w.last = true, p
	return ok
}

// Report builds the structured diagnostic dump attached to hardening
// errors: named sections of formatted lines.
type Report struct {
	b        strings.Builder
	sections int
}

// Section starts a named section.
func (r *Report) Section(name string) {
	if r.sections > 0 {
		r.b.WriteString("\n")
	}
	r.sections++
	r.b.WriteString("=== ")
	r.b.WriteString(name)
	r.b.WriteString(" ===\n")
}

// Linef appends one formatted line to the current section.
func (r *Report) Linef(format string, args ...any) {
	fmt.Fprintf(&r.b, format, args...)
	r.b.WriteString("\n")
}

// String renders the report.
func (r *Report) String() string { return r.b.String() }
