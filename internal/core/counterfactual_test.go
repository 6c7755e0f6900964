package core

import (
	"reflect"
	"testing"

	"memsim/internal/memctrl"
	"memsim/internal/obs"
	"memsim/internal/policy"
	"memsim/internal/workload"
)

// cfConfig is a counterfactually-armed configuration with a contested
// controller queue: one channel and unscheduled prefetch back the
// queue up so issue decisions are real choices.
func cfConfig(sched string) Config {
	cfg := Base()
	cfg.Channels = 1
	cfg.Prefetch = TunedPrefetch()
	cfg.Prefetch.Scheduled = false
	cfg.SchedPolicy = sched
	if sched == "frfcfs-cap" {
		cfg.ReorderWindow = 4
	}
	cfg.MaxInstrs = 20_000
	cfg.WarmupInstrs = 20_000
	cfg.Counterfactual = true
	cfg.Obs = obs.Config{Trace: true}
	return cfg
}

// decision is one contested controller decision as the run made and
// traced it: the queued addresses in queue order, whether each one's
// row was open, the index issued, and the events the pick emitted.
type decision struct {
	Addrs  []uint64
	Open   []bool
	Chosen int
	Events []obs.Event
}

// recordingPolicy wraps a controller's installed issue policy and
// appends every decision it makes to recs, which the controllers of a
// system share, so the records follow the order of the decisions and
// of the events they traced.
type recordingPolicy struct {
	memctrl.IssuePolicy
	tr   *obs.Tracer
	recs *[]decision
}

func (p *recordingPolicy) Pick(q []*memctrl.Request, rowOpen func(*memctrl.Request) bool) int {
	before := p.tr.Emitted()
	d := decision{Chosen: p.IssuePolicy.Pick(q, rowOpen)}
	d.Events = p.tr.Last(int(p.tr.Emitted() - before))
	for _, r := range q {
		d.Addrs = append(d.Addrs, r.Addr)
		d.Open = append(d.Open, rowOpen(r))
	}
	*p.recs = append(*p.recs, d)
	return d.Chosen
}

// runDecisions runs cfg and collects every controller decision with the
// events it traced, and the tracer's policy-name table.
func runDecisions(t *testing.T, cfg Config) ([]decision, []string) {
	t.Helper()
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := p.Generator(0, false)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	var records []decision
	for _, c := range sys.mem.ctrls {
		c.SetPolicy(&recordingPolicy{IssuePolicy: c.Policy(), tr: sys.tr, recs: &records})
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return records, sys.tr.PolicyNames()
}

// replayPick re-runs one recorded decision through a fresh policy
// instance on the recorded inputs alone.
func replayPick(t *testing.T, pol memctrl.IssuePolicy, rec decision) int {
	t.Helper()
	q := make([]*memctrl.Request, len(rec.Addrs))
	open := make(map[*memctrl.Request]bool, len(rec.Addrs))
	for i, a := range rec.Addrs {
		q[i] = &memctrl.Request{Addr: a}
		open[q[i]] = rec.Open[i]
	}
	return pol.Pick(q, func(r *memctrl.Request) bool { return open[r] })
}

// TestCounterfactualRoundTrip pins the no-hidden-state contract: every
// decision — the primary's and each traced alternative's — must be
// reproduced exactly by a fresh policy instance replaying the recorded
// queue snapshot. The alternatives are checked against the sched-alt
// events the run traced. A policy that consulted anything beyond its
// Pick arguments (live channel state, per-instance history) would
// diverge here.
func TestCounterfactualRoundTrip(t *testing.T) {
	for _, sched := range policy.Sched.Names() {
		t.Run(sched, func(t *testing.T) {
			cfg := cfConfig(sched)
			records, names := runDecisions(t, cfg)
			if len(records) == 0 {
				t.Fatal("no contested decisions recorded; the config no longer backs up the queue")
			}

			name := policy.Sched.Resolve(cfg.SchedPolicy)
			primary, err := policy.NewSched(name, cfg.schedParams())
			if err != nil {
				t.Fatal(err)
			}
			// Fresh alternative instances, one per traced alt name.
			altPol := map[string]memctrl.IssuePolicy{}
			for _, e := range records[0].Events[1:] {
				alt := names[e.B>>1]
				pol, err := policy.NewSched(alt, policy.SchedParams{Window: 8})
				if err != nil {
					t.Fatalf("alt %s: %v", alt, err)
				}
				altPol[alt] = pol
			}
			if want := len(policy.Sched.Names()) - 1; len(altPol) != want {
				t.Fatalf("decision traced %d alternatives, want %d (every registered policy but the primary)", len(altPol), want)
			}

			for i, rec := range records {
				if got := replayPick(t, primary, rec); got != rec.Chosen {
					t.Fatalf("record %d: fresh %s picked %d, run picked %d", i, name, got, rec.Chosen)
				}
				if len(rec.Events) != 1+len(altPol) {
					t.Fatalf("record %d traced %d events, want a decision and %d alternatives", i, len(rec.Events), len(altPol))
				}
				d := rec.Events[0]
				if d.Kind != obs.EvSchedDecision || d.A != rec.Addrs[rec.Chosen] || names[d.B] != name {
					t.Fatalf("record %d traced decision %+v, want %s issuing %#x", i, d, name, rec.Addrs[rec.Chosen])
				}
				for _, e := range rec.Events[1:] {
					alt := names[e.B>>1]
					got := replayPick(t, altPol[alt], rec)
					agree := uint64(0)
					if got == rec.Chosen {
						agree = 1
					}
					if e.Kind != obs.EvSchedAlt || e.A != rec.Addrs[got] || e.B&1 != agree {
						t.Fatalf("record %d: fresh %s picked %#x (agree %d), traced alt %+v", i, alt, rec.Addrs[got], agree, e)
					}
				}
			}
		})
	}
}

// TestCounterfactualDeterminism re-runs one armed configuration and
// requires the full decision stream to bit-match: arming changes no
// architectural behaviour and the trace itself is reproducible.
func TestCounterfactualDeterminism(t *testing.T) {
	a, _ := runDecisions(t, cfConfig("frfcfs"))
	b, _ := runDecisions(t, cfConfig("frfcfs"))
	if len(a) == 0 {
		t.Fatal("no decisions recorded")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("decision streams diverged across identical runs (%d vs %d records)", len(a), len(b))
	}
}

// TestCounterfactualInvisible pins that arming decision tracing does
// not perturb the measured run: the Result of an armed run equals the
// unarmed run's bit for bit.
func TestCounterfactualInvisible(t *testing.T) {
	run := func(armed bool) Result {
		cfg := cfConfig("frfcfs")
		cfg.Counterfactual = armed
		p, err := workload.ByName("gcc")
		if err != nil {
			t.Fatal(err)
		}
		gen, err := p.Generator(0, false)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := New(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if armed, plain := run(true), run(false); armed != plain {
		t.Fatalf("counterfactual arming changed the Result:\narmed: %+v\nplain: %+v", armed, plain)
	}
}
