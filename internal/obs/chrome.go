package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"memsim/internal/sim"
)

// Chrome trace-event export: the tracer's ring renders to the JSON
// format chrome://tracing and Perfetto load directly. Spans become
// complete ("X") events, instants become instant ("i") events, and
// each (group, lane) pair gets its own named track so channel
// occupancy, bank state churn, and prefetch engine activity line up
// on one shared time axis.
//
// Timestamps are microseconds (the format's unit) derived from
// picosecond simulated time, so they are exact to 1e-6 us and the
// export is byte-deterministic: encoding/json sorts map keys and
// struct fields keep declaration order.

// ChromeEvent is one trace-event record. Exported so cmd/obsdump and
// tests can round-trip trace files through encoding/json.
type ChromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTrace is the file layout: the JSON object form of the format,
// which tolerates the metadata fields Perfetto shows in its header.
type ChromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []ChromeEvent `json:"traceEvents"`
}

// Track (tid) layout: each channel group owns a pair of lanes, the
// engine-level lanes sit above any realistic group count.
const (
	lanesPerGroup = 2
	laneChannel   = 1 // bus-occupancy spans + issue-time instants
	laneBanks     = 2 // bank open/close churn
	tidPrefetch   = 9001
	tidHierarchy  = 9002
	tidDecisions  = 9003
	chromePid     = 1
)

// tidFor maps an event to its track.
func tidFor(e Event) int {
	switch e.Kind {
	case EvChannelBusy, EvRefresh, EvPrefetchIssue, EvDemandBypass:
		return int(e.Group)*lanesPerGroup + laneChannel
	case EvBankActivate, EvBankPrecharge:
		return int(e.Group)*lanesPerGroup + laneBanks
	case EvPrefetchPromote, EvRegionCreate, EvRegionReplace:
		return tidPrefetch
	case EvSchedDecision, EvSchedAlt, EvPrefetchDecision, EvPrefetchAlt:
		return tidDecisions
	default: // EvPrefetchDrop, EvLateMerge, EvPollution
		return tidHierarchy
	}
}

// tidName labels a track for the viewer.
func tidName(tid int) string {
	switch tid {
	case tidPrefetch:
		return "prefetch engine"
	case tidHierarchy:
		return "hierarchy"
	case tidDecisions:
		return "decisions"
	}
	group := (tid - 1) / lanesPerGroup
	if (tid-1)%lanesPerGroup == laneChannel-1 {
		return fmt.Sprintf("channel %d", group)
	}
	return fmt.Sprintf("banks %d", group)
}

// micros converts simulated picoseconds to the format's microseconds.
func micros(t sim.Time) float64 { return float64(t) / 1e6 }

func hex(v uint64) string { return "0x" + strconv.FormatUint(v, 16) }

// classNames mirrors channel.Class without importing it (obs sits
// below the modelling packages).
var classNames = [...]string{"demand", "writeback", "prefetch"}

func className(c uint64) string {
	if c < uint64(len(classNames)) {
		return classNames[c]
	}
	return strconv.FormatUint(c, 10)
}

// policyName resolves an interned policy id against the system's
// name table, falling back to a positional label for foreign traces.
func policyName(policies []string, id uint64) string {
	if id < uint64(len(policies)) {
		return policies[id]
	}
	return "policy-" + strconv.FormatUint(id, 10)
}

// eventArgs decodes the kind-specific payload into viewer-friendly
// args. Keys are stable; cmd/obsdump parses them back. policies is
// the tracer's interned policy-name table (decision events only).
func eventArgs(e Event, policies []string) map[string]string {
	switch e.Kind {
	case EvChannelBusy:
		return map[string]string{"class": className(e.A), "rowhit": strconv.FormatUint(e.B, 10)}
	case EvBankActivate:
		return map[string]string{"bank": strconv.FormatUint(e.A, 10), "row": strconv.FormatUint(e.B, 10)}
	case EvBankPrecharge:
		return map[string]string{"bank": strconv.FormatUint(e.A, 10), "reason": PrechargeReason(e.B).String()}
	case EvRefresh:
		return map[string]string{"bank": strconv.FormatUint(e.A, 10)}
	case EvPrefetchIssue, EvDemandBypass, EvLateMerge, EvPollution:
		return map[string]string{"addr": hex(e.A)}
	case EvPrefetchDrop:
		return map[string]string{"addr": hex(e.A), "reason": DropReason(e.B).String()}
	case EvPrefetchPromote, EvRegionCreate, EvRegionReplace:
		return map[string]string{"region": hex(e.A)}
	case EvSchedDecision, EvPrefetchDecision:
		return map[string]string{"addr": hex(e.A), "policy": policyName(policies, e.B)}
	case EvSchedAlt, EvPrefetchAlt:
		return map[string]string{
			"alt":    hex(e.A),
			"policy": policyName(policies, e.B>>1),
			"agree":  strconv.FormatUint(e.B&1, 10),
		}
	default:
		return nil
	}
}

// SystemEvents pairs one system's label with its trace stream for the
// multi-system export: a cluster run has one stream per member.
type SystemEvents struct {
	Label  string
	Events []Event
	// Policies is the system tracer's interned policy-name table
	// (Tracer.PolicyNames); decision events resolve names against it.
	Policies []string
}

// ChromeEventsMulti renders several systems' streams into one trace.
// System i becomes process pid i+1 named by its label, so the viewer
// groups each system's channel/bank/prefetch lanes under its own
// process header on the shared time axis. A single stream labeled
// "memsim" reproduces the classic single-system layout exactly.
func ChromeEventsMulti(systems []SystemEvents) []ChromeEvent {
	var out []ChromeEvent
	for i, sys := range systems {
		pid := chromePid + i
		tids := map[int]bool{}
		for _, e := range sys.Events {
			tids[tidFor(e)] = true
		}
		order := make([]int, 0, len(tids))
		for tid := range tids {
			order = append(order, tid)
		}
		sort.Ints(order)

		out = append(out, ChromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]string{"name": sys.Label},
		})
		for _, tid := range order {
			out = append(out, ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]string{"name": tidName(tid)},
			})
		}
		for _, e := range sys.Events {
			ce := ChromeEvent{
				Name: e.Kind.String(),
				Cat:  "memsim",
				Ts:   micros(e.At),
				Pid:  pid,
				Tid:  tidFor(e),
				Args: eventArgs(e, sys.Policies),
			}
			if e.Kind.isSpan() {
				ce.Ph = "X"
				ce.Dur = micros(e.Dur)
			} else {
				ce.Ph = "i"
				ce.S = "t"
			}
			out = append(out, ce)
		}
	}
	return out
}

// isSpan reports whether the kind renders as a duration event.
func (k EventKind) isSpan() bool { return k == EvChannelBusy || k == EvRefresh }

// WriteChromeTrace writes the events as a chrome://tracing-loadable
// JSON file. Output is byte-deterministic for a given event sequence.
// The tracer's policy-name table rides along so decision events carry
// readable policy names.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTraceMulti(w, []SystemEvents{
		{Label: "memsim", Events: t.Events(), Policies: t.PolicyNames()},
	})
}

// WriteChromeTraceMulti writes several systems' streams as one
// loadable trace file (see ChromeEventsMulti for the layout).
func WriteChromeTraceMulti(w io.Writer, systems []SystemEvents) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ChromeTrace{DisplayTimeUnit: "ns", TraceEvents: ChromeEventsMulti(systems)})
}

// ParseChromeTrace reads a trace file written by WriteChromeTraceMulti (or
// any tool emitting the JSON object form).
func ParseChromeTrace(r io.Reader) (*ChromeTrace, error) {
	var t ChromeTrace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("obs: parsing chrome trace: %w", err)
	}
	return &t, nil
}
