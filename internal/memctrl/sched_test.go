package memctrl

import (
	"reflect"
	"testing"
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

// TestDecisionRecording drives the reorder scenario with counterfactual
// recording armed and checks the recorded snapshot: queue addresses,
// open-row flags, the primary's choice, and each alternative's pick on
// the same snapshot.
func TestDecisionRecording(t *testing.T) {
	s, c, _ := newReorderController(t, FRFCFS{Window: 4}, 1)
	c.EnableCounterfactual([]IssuePolicy{FCFS{}, FRFCFS{}})
	var records []DecisionRecord
	c.OnDecision(func(r DecisionRecord) { records = append(records, r) })

	submitCase(c, 0, hitBehindConflict)
	s.Run()

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
	wantAlts := []AltPick{{Name: "fcfs", Chosen: 0}, {Name: "frfcfs", Chosen: 1}}
	if !reflect.DeepEqual(warm.Alts, wantAlts) {
		t.Fatalf("alts = %+v, want %+v", warm.Alts, wantAlts)
	}
}
