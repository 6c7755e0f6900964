package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Experiment pairs an identifier with a description and a runner that
// writes the regenerated table or figure as text.
type Experiment struct {
	ID    string
	Paper string // the paper artifact this regenerates
	Run   func(*Runner, io.Writer) error
}

// write adapts a typed experiment to the registry signature. After a
// KeepGoing batch loses runs, the artifact still renders (failed cells
// show FAILED or NaN) and gains a DEGRADED section naming each lost
// spec and why.
func write[T interface{ Write(io.Writer) error }](f func(*Runner) (T, error)) func(*Runner, io.Writer) error {
	return func(r *Runner, w io.Writer) error {
		res, err := f(r)
		if err != nil {
			// Keep this artifact's failures out of the next one's
			// DEGRADED section.
			r.DrainFailures()
			return err
		}
		if err := res.Write(w); err != nil {
			return err
		}
		return writeFailures(w, r.DrainFailures())
	}
}

// writeFailures renders the DEGRADED trailer of a partial artifact.
func writeFailures(w io.Writer, fails []RunFailure) error {
	if len(fails) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "\nDEGRADED: %d run(s) lost; their cells read FAILED or NaN above\n", len(fails)); err != nil {
		return err
	}
	for _, f := range fails {
		attempts := "attempt"
		if f.Attempts != 1 {
			attempts = "attempts"
		}
		if _, err := fmt.Fprintf(w, "  FAILED(%s [%s]: %s after %d %s)\n",
			f.Bench, f.Key, FirstLine(f.Err), f.Attempts, attempts); err != nil {
			return err
		}
	}
	return nil
}

// FirstLine compresses an error (watchdog aborts carry multi-line
// state dumps) to its headline, for one-line failure listings.
func FirstLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}

// registry lists every reproducible artifact in presentation order.
var registry = []Experiment{
	{"fig1", "Figure 1: real vs perfect-L2 vs perfect-memory IPC", write((*Runner).Fig1)},
	{"table1", "Table 1: pollution and performance points", write((*Runner).Table1)},
	{"table2", "Table 2: channel width vs performance points", write((*Runner).Table2)},
	{"addrmap", "Figure 3 / Section 3.4: address mapping study", write((*Runner).AddrMap)},
	{"table3", "Table 3: prefetch insertion priority", write((*Runner).Table3)},
	{"table4", "Table 4: prefetch scheme comparison", write((*Runner).Table4)},
	{"fig5", "Figure 5: tuned scheduled region prefetching", write((*Runner).Fig5)},
	{"util", "Section 4.4: channel utilization", write((*Runner).Util)},
	{"cachesize", "Section 4.5: multi-megabyte caches", write((*Runner).CacheSize)},
	{"latsens", "Section 4.6: DRAM latency sensitivity", write((*Runner).LatSens)},
	{"swpf", "Section 4.7: software prefetching interaction", write((*Runner).SWPF)},
	{"regionsize", "Section 4.2 ablation: region size", write((*Runner).RegionSize)},
	{"queuedepth", "Ablation: prefetch queue depth", write((*Runner).QueueDepth)},
	{"throttle", "Sections 4.4/6 extension: accuracy throttling", write((*Runner).Throttle)},
	{"schemes", "Section 5 baselines: sequential/stream/region prefetching", write((*Runner).Schemes)},
	{"reorder", "Section 6 extension: open-row-first demand reordering", write((*Runner).Reorder)},
	{"schedzoo", "Policy zoo: registered issue policies", write((*Runner).SchedZoo)},
	{"timingzoo", "Policy zoo: registered bank-timing schemes", write((*Runner).TimingZoo)},
	{"refresh", "Extension: DRAM refresh cost", write((*Runner).Refresh)},
	{"interleave", "Section 6 extension: channel interleaving organization", write((*Runner).Interleave)},
	{"pollution", "Section 5 alternative: insertion priority vs separate prefetch buffer", write((*Runner).Pollution)},
}

// All returns the experiments in presentation order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}
