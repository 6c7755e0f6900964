package memctrl

import (
	"reflect"
	"testing"

	"memsim/internal/obs"
)

// pickCase builds a queue where open marks the row-open entries.
func pickCase(open ...bool) ([]*Request, func(*Request) bool) {
	q := make([]*Request, len(open))
	m := map[*Request]bool{}
	for i, o := range open {
		q[i] = &Request{Addr: uint64(i) * 64}
		m[q[i]] = o
	}
	return q, func(r *Request) bool { return m[r] }
}

func TestPickPolicies(t *testing.T) {
	cases := []struct {
		name string
		pol  IssuePolicy
		open []bool
		want int
	}{
		{"fcfs ignores open rows", FCFS{}, []bool{false, true, true}, 0},
		{"frfcfs takes first open", FRFCFS{}, []bool{false, false, true}, 2},
		{"frfcfs falls back to oldest", FRFCFS{}, []bool{false, false, false}, 0},
		{"frfcfs prefers older open", FRFCFS{}, []bool{false, true, true}, 1},
		{"cap reaches inside window", FRFCFS{Window: 2}, []bool{false, true, true}, 1},
		{"cap cannot reach past window", FRFCFS{Window: 2}, []bool{false, false, true}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, rowOpen := pickCase(tc.open...)
			if got := tc.pol.Pick(q, rowOpen); got != tc.want {
				t.Fatalf("Pick = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestPolicyNames(t *testing.T) {
	for _, tc := range []struct {
		pol  IssuePolicy
		want string
	}{
		{FCFS{}, "fcfs"},
		{FRFCFS{}, "frfcfs"},
		{FRFCFS{Window: 4}, "frfcfs-cap"},
	} {
		if got := tc.pol.Name(); got != tc.want {
			t.Errorf("%T.Name() = %q, want %q", tc.pol, got, tc.want)
		}
	}
}

// decision is one contested issue decision as a policy saw it: the
// queued addresses in queue order, whether each one's row was open,
// and the index picked.
type decision struct {
	Addrs  []uint64
	Open   []bool
	Chosen int
}

// recordingPolicy wraps an IssuePolicy and records every decision it
// is asked to make.
type recordingPolicy struct {
	IssuePolicy
	recs []decision
}

func (p *recordingPolicy) Pick(q []*Request, rowOpen func(*Request) bool) int {
	d := decision{Chosen: p.IssuePolicy.Pick(q, rowOpen)}
	for _, r := range q {
		d.Addrs = append(d.Addrs, r.Addr)
		d.Open = append(d.Open, rowOpen(r))
	}
	p.recs = append(p.recs, d)
	return d.Chosen
}

// TestDecisionRecording drives the reorder scenario through a
// Counterfactual decorator and checks what it records: the queue
// addresses and open-row flags the primary saw, the primary's choice,
// each alternative's pick on the same snapshot, and the decision and
// alternative events it traces.
func TestDecisionRecording(t *testing.T) {
	s, c, _ := newReorderController(t, nil, 1)
	tr := obs.NewTracer(0, s.Now)
	primary := &recordingPolicy{IssuePolicy: FRFCFS{Window: 4}}
	cf := NewCounterfactual(primary, tr, 0)
	fcfs := &recordingPolicy{IssuePolicy: FCFS{}}
	frfcfs := &recordingPolicy{IssuePolicy: FRFCFS{}}
	cf.AddShadow("fcfs", fcfs)
	cf.AddShadow("frfcfs", frfcfs)
	c.SetPolicy(cf)
	if got := c.Policy().Name(); got != "frfcfs-cap" {
		t.Fatalf("decorated policy answers as %q, want its primary frfcfs-cap", got)
	}

	submitCase(c, 0, hitBehindConflict)
	s.Run()

	records := primary.recs
	if len(records) < 2 {
		t.Fatalf("recorded %d decisions, want at least 2", len(records))
	}
	// The first decision sees all three requests on cold banks: nothing
	// is open, so every policy falls back to the oldest request.
	cold := records[0]
	if !reflect.DeepEqual(cold.Addrs, []uint64{0, conflictAddr, 512}) {
		t.Fatalf("cold queue = %v", cold.Addrs)
	}
	if cold.Chosen != 0 {
		t.Fatalf("cold decision chose %d, want 0", cold.Chosen)
	}
	// After addr 0's access, its row is open: the conflicting address
	// targets the same bank's next row while 512 is a row hit, so the
	// row-aware policies jump the queue and FCFS does not.
	warm := records[1]
	if !reflect.DeepEqual(warm.Addrs, []uint64{conflictAddr, 512}) {
		t.Fatalf("warm queue = %v", warm.Addrs)
	}
	if !reflect.DeepEqual(warm.Open, []bool{false, true}) {
		t.Fatalf("warm open flags = %v", warm.Open)
	}
	if warm.Chosen != 1 {
		t.Fatalf("primary chose %d, want 1 (the open row)", warm.Chosen)
	}
	// Each alternative decided every decision on the primary's snapshot.
	for _, alt := range []struct {
		name string
		pol  *recordingPolicy
		want int
	}{{"fcfs", fcfs, 0}, {"frfcfs", frfcfs, 1}} {
		if len(alt.pol.recs) != len(records) {
			t.Fatalf("%s decided %d times, primary %d", alt.name, len(alt.pol.recs), len(records))
		}
		for i, rec := range alt.pol.recs {
			if !reflect.DeepEqual(rec.Addrs, records[i].Addrs) || !reflect.DeepEqual(rec.Open, records[i].Open) {
				t.Fatalf("%s decision %d saw %+v, primary saw %+v", alt.name, i, rec, records[i])
			}
		}
		if got := alt.pol.recs[1].Chosen; got != alt.want {
			t.Fatalf("%s picked %d at the warm decision, want %d", alt.name, got, alt.want)
		}
	}

	// The trace carries one decision event and one event per
	// alternative for each decision, in that order.
	if got, want := tr.PolicyNames(), []string{"frfcfs-cap", "fcfs", "frfcfs"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("interned policies = %v, want %v", got, want)
	}
	evs := tr.Events()
	if len(evs) != 3*len(records) {
		t.Fatalf("traced %d events for %d decisions, want 3 per decision", len(evs), len(records))
	}
	type ev struct {
		kind obs.EventKind
		a, b uint64
	}
	var warmEvs []ev
	for _, e := range evs[3:6] {
		warmEvs = append(warmEvs, ev{e.Kind, e.A, e.B})
	}
	wantEvs := []ev{
		{obs.EvSchedDecision, 512, 0},
		{obs.EvSchedAlt, conflictAddr, 1 << 1},
		{obs.EvSchedAlt, 512, 2<<1 | 1},
	}
	if !reflect.DeepEqual(warmEvs, wantEvs) {
		t.Fatalf("warm decision traced %+v, want %+v", warmEvs, wantEvs)
	}
}
