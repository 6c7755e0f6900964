package memctrl

// IssuePolicy is the memory-scheduling seam: it picks which queued
// request the controller issues next. Implementations register in
// internal/policy under a scheme name, which is how Config.SchedPolicy
// reaches them.
//
// Pick must be a pure function of its arguments. The Counterfactual
// decorator evaluates every registered alternative on the same queue
// snapshot, and the round-trip replay test re-runs traced decisions
// through a fresh instance expecting bit-identical choices, so hidden
// per-instance state would break both.
type IssuePolicy interface {
	// Name is the scheme name the policy registered under.
	Name() string
	// Pick returns the index in q of the request to issue next. q is
	// never empty; rowOpen reports whether a request's mapped DRAM row
	// is currently open in its bank's sense amps.
	Pick(q []*Request, rowOpen func(*Request) bool) int
}

// FCFS is the paper's scheduler: strictly in-order issue (Section 5).
type FCFS struct{}

// Name implements IssuePolicy.
func (FCFS) Name() string { return "fcfs" }

// Pick implements IssuePolicy: always the oldest request.
func (FCFS) Pick(q []*Request, rowOpen func(*Request) bool) int { return 0 }

// FRFCFS is first-ready FCFS: the oldest request whose row is already
// open issues ahead of older row-miss requests; with no ready request
// the policy degenerates to FCFS. Window > 0 bounds the scan to the
// first Window queue entries (the "frfcfs-cap" variant, the Section 6
// reordering extension's queue-depth knob); Window <= 0 scans the
// whole queue.
type FRFCFS struct {
	// Window bounds the open-row scan; <= 0 means unbounded.
	Window int
}

// Name implements IssuePolicy.
func (p FRFCFS) Name() string {
	if p.Window > 0 {
		return "frfcfs-cap"
	}
	return "frfcfs"
}

// Pick implements IssuePolicy: the first request within the window
// whose row is open, else the oldest.
func (p FRFCFS) Pick(q []*Request, rowOpen func(*Request) bool) int {
	limit := len(q)
	if p.Window > 0 && p.Window < limit {
		limit = p.Window
	}
	for i := 0; i < limit; i++ {
		if rowOpen(q[i]) {
			return i
		}
	}
	return 0
}
