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

// runDecisions runs cfg and collects every controller decision record.
func runDecisions(t *testing.T, cfg Config) []memctrl.DecisionRecord {
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
	var records []memctrl.DecisionRecord
	for _, c := range sys.mem.ctrls {
		c.OnDecision(func(r memctrl.DecisionRecord) { records = append(records, r) })
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return records
}

// replayPick re-runs one recorded decision through a fresh policy
// instance on the recorded inputs alone.
func replayPick(t *testing.T, pol memctrl.IssuePolicy, rec memctrl.DecisionRecord) int {
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
// recorded decision — the primary's and each traced alternative's —
// must be reproduced exactly by a fresh policy instance replaying the
// recorded queue snapshot. A policy that consulted anything beyond its
// Pick arguments (live channel state, per-instance history) would
// diverge here.
func TestCounterfactualRoundTrip(t *testing.T) {
	for _, sched := range policy.Sched.Names() {
		t.Run(sched, func(t *testing.T) {
			cfg := cfConfig(sched)
			records := runDecisions(t, cfg)
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
			for _, a := range records[0].Alts {
				pol, err := policy.NewSched(a.Name, policy.SchedParams{Window: 8})
				if err != nil {
					t.Fatalf("alt %s: %v", a.Name, err)
				}
				altPol[a.Name] = pol
			}
			if want := len(policy.Sched.Names()) - 1; len(altPol) != want {
				t.Fatalf("decision traced %d alternatives, want %d (every registered policy but the primary)", len(altPol), want)
			}

			for i, rec := range records {
				if got := replayPick(t, primary, rec); got != rec.Chosen {
					t.Fatalf("record %d: fresh %s picked %d, run picked %d", i, name, got, rec.Chosen)
				}
				for _, a := range rec.Alts {
					if got := replayPick(t, altPol[a.Name], rec); got != a.Chosen {
						t.Fatalf("record %d: fresh %s picked %d, traced alt picked %d", i, a.Name, got, a.Chosen)
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
	a := runDecisions(t, cfConfig("frfcfs"))
	b := runDecisions(t, cfConfig("frfcfs"))
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
