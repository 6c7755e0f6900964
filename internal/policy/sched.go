package policy

import (
	"fmt"

	"memsim/internal/memctrl"
)

// SchedParams carries the knobs a scheduling scheme may use.
type SchedParams struct {
	// Window bounds the FR-FCFS scan depth (Config.ReorderWindow); only
	// "frfcfs-cap" uses it.
	Window int
}

// Sched is the memory-scheduling registry: each scheme builds the
// controller's issue policy. The empty name keeps the legacy
// ReorderWindow encoding: "frfcfs-cap" when the window is above 1,
// else "fcfs", so every pre-zoo config runs a named policy.
var Sched = NewRegistry[SchedParams, memctrl.IssuePolicy]("scheduling", "SchedPolicy", func(p SchedParams) string {
	if p.Window > 1 {
		return "frfcfs-cap"
	}
	return "fcfs"
})

type schedScheme = Scheme[SchedParams, memctrl.IssuePolicy]

func init() {
	Sched.Register("fcfs", schedScheme{Build: func(SchedParams) (memctrl.IssuePolicy, error) {
		return memctrl.FCFS{}, nil
	}})
	Sched.Register("frfcfs", schedScheme{Build: func(SchedParams) (memctrl.IssuePolicy, error) {
		return memctrl.FRFCFS{}, nil
	}})
	Sched.Register("frfcfs-cap", schedScheme{
		Check: func(p SchedParams) error {
			if p.Window < 2 {
				return reject("SchedPolicy", "frfcfs-cap", "needs ReorderWindow >= 2 as its scan bound, got %d", p.Window)
			}
			return nil
		},
		Fill: func(p SchedParams) SchedParams {
			if p.Window < 2 {
				p.Window = 8
			}
			return p
		},
		Build: func(p SchedParams) (memctrl.IssuePolicy, error) {
			if p.Window < 2 {
				return nil, fmt.Errorf("policy: frfcfs-cap needs a reorder window >= 2, got %d", p.Window)
			}
			return memctrl.FRFCFS{Window: p.Window}, nil
		},
	})
}

// NewSched builds the named scheduling policy.
func NewSched(name string, p SchedParams) (memctrl.IssuePolicy, error) {
	return Sched.build(name, p)
}
