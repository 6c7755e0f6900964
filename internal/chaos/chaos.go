// Package chaos is the deterministic crash-point and I/O-fault
// explorer over the vfs seam (DESIGN.md §13). It generalizes the
// single hand-picked kill drill of the crash-safety tests into
// exhaustive coverage: a golden run on an unarmed fault filesystem
// counts every persistence boundary in a scenario, then every
// (boundary, fault class) pair is drilled — the scenario runs with
// that one fault armed, "restarts" over whatever state survived, and
// must reproduce the golden results byte for byte. Seeded random
// multi-fault sequences (a crash during crash recovery) ride on top,
// and any failing sequence is shrunk to a minimal reproducer with the
// same chunk-halving strategy as the difftest shrinker.
//
// The explorer never touches the host filesystem: each drill replays
// on a fresh in-memory vfs.Mem wrapped in a vfs.Fault.
package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"memsim/internal/obs"
	"memsim/internal/vfs"
)

// Scenario is one durable-writer workload the explorer drills. Run
// must be deterministic and idempotent: it executes the workload over
// whatever state survives in f's inner filesystem — a fresh run when
// the filesystem is empty, a daemon-restart recovery otherwise — and
// returns the run's canonical result bytes (results only; timestamps,
// resume counters, and other legitimately-divergent state excluded).
// A run interrupted by a crash fault should return vfs.ErrCrashed; a
// run degraded by an I/O error may return any non-nil error. Whenever
// Run returns nil, its bytes must equal an uninterrupted run's.
type Scenario interface {
	Name() string
	Run(f *vfs.Fault) ([]byte, error)
}

// Checker is an optional invariant asserted on the surviving
// filesystem after a drill's final clean recovery run.
type Checker func(m *vfs.Mem) error

// Injection is one armed fault: Kind lands on the Op-th persistence
// boundary of one scenario execution.
type Injection struct {
	Op   int
	Kind vfs.FaultKind
}

func (inj Injection) String() string { return fmt.Sprintf("%s@%d", inj.Kind, inj.Op) }

// FormatSeq renders an injection sequence ("torn@3 kill@7") for
// reports and reproduction one-liners.
func FormatSeq(seq []Injection) string {
	parts := make([]string, len(seq))
	for i, inj := range seq {
		parts[i] = inj.String()
	}
	return strings.Join(parts, " ")
}

// ParseSeq parses FormatSeq's rendering back into injections, so a
// failing drill printed by a CI log can be replayed directly.
func ParseSeq(s string) ([]Injection, error) {
	var out []Injection
	for _, part := range strings.Fields(s) {
		kindStr, opStr, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("chaos: injection %q: want kind@op", part)
		}
		op, err := strconv.Atoi(opStr)
		if err != nil {
			return nil, fmt.Errorf("chaos: injection %q: %w", part, err)
		}
		kind := -1
		for _, k := range vfs.Faults() {
			if k.String() == kindStr {
				kind = int(k)
			}
		}
		if kind < 0 {
			return nil, fmt.Errorf("chaos: injection %q: unknown fault class", part)
		}
		out = append(out, Injection{Op: op, Kind: vfs.FaultKind(kind)})
	}
	return out, nil
}

// Options tunes an exploration.
type Options struct {
	// Seed drives the random multi-fault rounds; the same seed replays
	// the same sequences.
	Seed int64
	// Rounds is how many random multi-fault sequences to drill after
	// the exhaustive single-fault sweep (0 = sweep only).
	Rounds int
	// MaxSeq bounds a random sequence's length (default 3).
	MaxSeq int
	// Checker, when non-nil, is asserted after every drill's recovery.
	Checker Checker
	// Registry, when non-nil, receives per-drill counters
	// (chaos_drills_total by scenario and fault class,
	// chaos_failures_total, chaos_boundaries).
	Registry *obs.Registry
}

// Failure is one drill whose recovery diverged from the golden run.
type Failure struct {
	// Seq is the injection sequence as drilled.
	Seq []Injection
	// Minimal is Seq shrunk to a minimal still-failing sequence.
	Minimal []Injection
	// Err describes the divergence.
	Err error
}

// Report summarizes one exploration.
type Report struct {
	Scenario   string
	Seed       int64
	Boundaries int // persistence boundaries in the golden run
	Drills     int // sequences drilled (exhaustive + random)
	Failures   []Failure
}

// Failed reports whether any drill diverged.
func (r *Report) Failed() bool { return len(r.Failures) > 0 }

// String renders the report with a reproduction one-liner per
// failure, mirroring the difftest's minimal-reproducer style.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos %s: %d boundaries, %d drills, %d failures (seed %d)",
		r.Scenario, r.Boundaries, r.Drills, len(r.Failures), r.Seed)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "\n  FAIL seq [%s] minimal [%s]: %v", FormatSeq(f.Seq), FormatSeq(f.Minimal), f.Err)
		fmt.Fprintf(&b, "\n    reproduce: go test ./internal/chaos -run TestReplaySeq -args -chaos.scenario=%s -chaos.replay=%q",
			r.Scenario, FormatSeq(f.Minimal))
	}
	return b.String()
}

// Explore drills sc: one golden run to count boundaries, an
// exhaustive sweep of every (boundary, fault class) pair, then
// opt.Rounds seeded random multi-fault sequences. A non-nil error
// means the exploration itself could not run (the golden run failed);
// drill divergences are reported in Report.Failures.
func Explore(sc Scenario, opt Options) (*Report, error) {
	if opt.MaxSeq <= 0 {
		opt.MaxSeq = 3
	}
	golden, boundaries, err := goldenRun(sc)
	if err != nil {
		return nil, err
	}
	rep := &Report{Scenario: sc.Name(), Seed: opt.Seed, Boundaries: boundaries}
	// injected counts the drilled injections by fault class.
	injected := make([]uint64, len(vfs.Faults()))
	if reg := opt.Registry; reg != nil {
		scLabel := obs.Label{Key: "scenario", Value: sc.Name()}
		reg.GaugeFunc("chaos_boundaries", "persistence boundaries in the golden run",
			func() float64 { return float64(boundaries) }, scLabel)
		for _, k := range vfs.Faults() {
			reg.CounterFunc("chaos_drills_total", "fault injections drilled",
				func() float64 { return float64(injected[k]) },
				scLabel, obs.Label{Key: "class", Value: k.String()})
		}
		reg.CounterFunc("chaos_failures_total", "drills whose recovery diverged",
			func() float64 { return float64(len(rep.Failures)) }, scLabel)
	}
	drill := func(seq []Injection) {
		rep.Drills++
		for _, inj := range seq {
			injected[inj.Kind]++
		}
		err := RunSeq(sc, opt.Checker, golden, seq)
		if err == nil {
			return
		}
		minimal := Minimize(seq, func(cand []Injection) bool {
			return RunSeq(sc, opt.Checker, golden, cand) != nil
		})
		rep.Failures = append(rep.Failures, Failure{Seq: seq, Minimal: minimal, Err: err})
	}

	// Exhaustive single-fault sweep: every boundary × every class.
	for op := 0; op < boundaries; op++ {
		for _, kind := range vfs.Faults() {
			drill([]Injection{{Op: op, Kind: kind}})
		}
	}
	// Seeded random multi-fault sequences: crashes during recovery.
	// Ops range past the golden boundary count because recovery
	// executions can have more boundaries than the golden run.
	rng := rand.New(rand.NewSource(opt.Seed))
	for round := 0; round < opt.Rounds; round++ {
		seq := make([]Injection, 1+rng.Intn(opt.MaxSeq))
		for i := range seq {
			seq[i] = Injection{
				Op:   rng.Intn(boundaries + boundaries/2 + 1),
				Kind: vfs.FaultKind(rng.Intn(len(vfs.Faults()))),
			}
		}
		drill(seq)
	}
	return rep, nil
}

// goldenRun executes sc uninterrupted on a fresh filesystem and
// returns its canonical bytes and boundary count.
func goldenRun(sc Scenario) ([]byte, int, error) {
	f := vfs.NewFault(vfs.NewMem())
	out, err := sc.Run(f)
	if err != nil {
		return nil, 0, fmt.Errorf("chaos: golden run of %s: %w", sc.Name(), err)
	}
	return out, f.Ops(), nil
}

// RunSeq executes one drill: injection i arms execution i (so later
// injections land during recovery from earlier ones), then a final
// clean execution must reproduce golden and satisfy check. A non-nil
// return is the divergence.
func RunSeq(sc Scenario, check Checker, golden []byte, seq []Injection) error {
	mem := vfs.NewMem()
	for i, inj := range seq {
		f := vfs.NewFault(mem)
		f.Arm(inj.Op, inj.Kind)
		out, err := sc.Run(f)
		if err == nil && !bytes.Equal(out, golden) {
			// The fault was absorbed (or never landed) and the execution
			// completed — then its results must already be golden.
			return fmt.Errorf("injection %d (%s): execution completed with divergent results", i, inj)
		}
		// Crashed or errored: the next execution is the restart.
	}
	out, err := sc.Run(vfs.NewFault(mem))
	if err != nil {
		return fmt.Errorf("recovery run after [%s]: %w", FormatSeq(seq), err)
	}
	if !bytes.Equal(out, golden) {
		return fmt.Errorf("recovery after [%s] diverged from golden:\n got  %s\n want %s",
			FormatSeq(seq), out, golden)
	}
	if check != nil {
		if err := check(mem); err != nil {
			return fmt.Errorf("post-recovery invariant after [%s]: %w", FormatSeq(seq), err)
		}
	}
	return nil
}

// Minimize shrinks a failing injection sequence to a minimal one with
// the difftest shrinker's strategy: greedily delete chunks of halving
// sizes as long as fails keeps reporting true.
func Minimize(seq []Injection, fails func([]Injection) bool) []Injection {
	if !fails(seq) {
		return seq
	}
	for chunk := (len(seq) + 1) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(seq); {
			trial := make([]Injection, 0, len(seq)-chunk)
			trial = append(trial, seq[:i]...)
			trial = append(trial, seq[i+chunk:]...)
			if fails(trial) {
				seq = trial
			} else {
				i += chunk
			}
		}
	}
	return seq
}
