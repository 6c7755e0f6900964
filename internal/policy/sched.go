package policy

import (
	"fmt"

	"memsim/internal/memctrl"
)

// SchedParams carries the knobs a scheduling scheme may use.
type SchedParams struct {
	// Window bounds the FR-FCFS scan depth (Config.ReorderWindow); only
	// "frfcfs-cap" reads it.
	Window int
}

// Sched is the memory-scheduling registry: each scheme builds the
// controller's issue policy. The empty name is "fcfs", the paper's
// strict in-order issue.
var Sched = NewRegistry[SchedParams, memctrl.IssuePolicy]("scheduling", "SchedPolicy", "fcfs")

type schedScheme = Scheme[SchedParams, memctrl.IssuePolicy]

// unbounded is a scheme that reads no window, so takes only 0 or 1.
func unbounded(pol memctrl.IssuePolicy) schedScheme {
	return schedScheme{
		Check: func(p SchedParams) error {
			if p.Window < 0 || p.Window > 1 {
				return reject("ReorderWindow", p.Window, "must be 0 or 1: only frfcfs-cap reads a scan bound; %s has none", pol.Name())
			}
			return nil
		},
		Build: func(SchedParams) (memctrl.IssuePolicy, error) { return pol, nil },
	}
}

func init() {
	Sched.Register("fcfs", unbounded(memctrl.FCFS{}))
	Sched.Register("frfcfs", unbounded(memctrl.FRFCFS{}))
	Sched.Register("frfcfs-cap", schedScheme{
		Check: func(p SchedParams) error {
			switch {
			case p.Window < 2:
				return reject("SchedPolicy", "frfcfs-cap", "needs ReorderWindow >= 2 as its scan bound, got %d", p.Window)
			case p.Window > 1024:
				return reject("ReorderWindow", p.Window, "must be in [2, 1024]")
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
