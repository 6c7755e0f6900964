package obs

import (
	"bytes"
	"testing"

	"memsim/internal/sim"
)

// sampleEvents covers every tid lane and both phase shapes.
func sampleEvents() []Event {
	return []Event{
		{At: 1000, Dur: 5000, A: 2, B: 1, Kind: EvChannelBusy, Group: 0},
		{At: 2000, A: 17, B: 3, Kind: EvBankActivate, Group: 1},
		{At: 3000, A: 17, B: uint64(PrechargeConflict), Kind: EvBankPrecharge, Group: 1},
		{At: 4000, Dur: 2000, A: 5, Kind: EvRefresh, Group: 0},
		{At: 5000, A: 0xdead0, B: uint64(DropResident), Kind: EvPrefetchDrop},
		{At: 6000, A: 0xbeef0, Kind: EvRegionCreate},
	}
}

// single wraps one stream the way Tracer.WriteChromeTrace does.
func single(events []Event) []SystemEvents {
	return []SystemEvents{{Label: "memsim", Events: events}}
}

// TestChromeTraceRoundTrip writes a trace and parses it back,
// checking structure survives encoding/json.
func TestChromeTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTraceMulti(&buf, single(sampleEvents())); err != nil {
		t.Fatal(err)
	}
	tr, err := ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var meta, spans, instants int
	names := map[int]string{}
	for _, e := range tr.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
			if e.Name == "thread_name" {
				names[e.Tid] = e.Args["name"]
			}
			continue
		case "X":
			spans++
			if e.Dur <= 0 {
				t.Errorf("span %s has dur %v", e.Name, e.Dur)
			}
		case "i":
			instants++
			if e.S != "t" {
				t.Errorf("instant %s has scope %q, want t", e.Name, e.S)
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
			continue
		}
		if _, ok := KindByName(e.Name); !ok {
			t.Errorf("event name %q does not resolve to a kind", e.Name)
		}
		if e.Pid != chromePid {
			t.Errorf("event %s pid = %d", e.Name, e.Pid)
		}
	}
	if spans != 2 || instants != 4 {
		t.Errorf("spans/instants = %d/%d, want 2/4", spans, instants)
	}
	// 1 process_name + one thread_name per distinct track:
	// channel 0, banks 1, prefetch engine, hierarchy.
	if meta != 5 {
		t.Errorf("metadata records = %d, want 5", meta)
	}
	for tid, want := range map[int]string{
		0*lanesPerGroup + laneChannel: "channel 0",
		1*lanesPerGroup + laneBanks:   "banks 1",
		tidPrefetch:                   "prefetch engine",
		tidHierarchy:                  "hierarchy",
	} {
		if names[tid] != want {
			t.Errorf("tid %d named %q, want %q", tid, names[tid], want)
		}
	}
}

// TestChromeTraceMulti checks the multi-system layout: one pid per
// stream, process_name metadata carrying the label, and events
// attributed to their own system's pid.
func TestChromeTraceMulti(t *testing.T) {
	systems := []SystemEvents{
		{Label: "sys0-mcf", Events: sampleEvents()},
		{Label: "sys1-swim", Events: sampleEvents()[:2]},
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceMulti(&buf, systems); err != nil {
		t.Fatal(err)
	}
	tr, err := ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	procs := map[int]string{}
	perPid := map[int]int{}
	for _, e := range tr.TraceEvents {
		if e.Ph == "M" {
			if e.Name == "process_name" {
				procs[e.Pid] = e.Args["name"]
			}
			continue
		}
		perPid[e.Pid]++
	}
	if procs[1] != "sys0-mcf" || procs[2] != "sys1-swim" {
		t.Fatalf("process names = %v", procs)
	}
	if perPid[1] != len(sampleEvents()) || perPid[2] != 2 {
		t.Fatalf("events per pid = %v", perPid)
	}
}

// TestChromeTraceArgs pins the arg vocabulary cmd/obsdump parses.
func TestChromeTraceArgs(t *testing.T) {
	evs := ChromeEventsMulti(single(sampleEvents()))
	byName := map[string]ChromeEvent{}
	for _, e := range evs {
		if e.Ph != "M" {
			byName[e.Name] = e
		}
	}
	if got := byName["channel-busy"].Args; got["class"] != "prefetch" || got["rowhit"] != "1" {
		t.Errorf("channel-busy args = %v", got)
	}
	if got := byName["bank-precharge"].Args; got["bank"] != "17" || got["reason"] != "conflict" {
		t.Errorf("bank-precharge args = %v", got)
	}
	if got := byName["prefetch-drop"].Args; got["addr"] != "0xdead0" || got["reason"] != "resident" {
		t.Errorf("prefetch-drop args = %v", got)
	}
	if got := byName["region-create"].Args; got["region"] != "0xbeef0" {
		t.Errorf("region-create args = %v", got)
	}
}

// TestChromeTraceTimebase checks the picosecond -> microsecond
// conversion: 1000 ps = 1 ns = 0.001 us.
func TestChromeTraceTimebase(t *testing.T) {
	evs := ChromeEventsMulti(single([]Event{{At: sim.Nanosecond, Dur: 2 * sim.Nanosecond, Kind: EvChannelBusy}}))
	e := evs[len(evs)-1]
	if e.Ts != 0.001 || e.Dur != 0.002 {
		t.Errorf("ts/dur = %v/%v us, want 0.001/0.002", e.Ts, e.Dur)
	}
}

// TestChromeTraceByteDeterminism checks that the same event sequence
// always encodes to the same bytes — the property the end-to-end
// determinism test (obs_test.go at the module root) relies on.
func TestChromeTraceByteDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChromeTraceMulti(&a, single(sampleEvents())); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTraceMulti(&b, single(sampleEvents())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two encodings of the same events differ")
	}
}
