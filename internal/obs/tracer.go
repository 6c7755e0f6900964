package obs

import (
	"fmt"

	"memsim/internal/sim"
)

// EventKind is the trace event taxonomy. Span kinds carry a duration;
// instant kinds mark a single simulated instant.
type EventKind uint8

// Event kinds. The A/B payload fields are kind-specific; see each
// comment. Group is the channel-group index for channel-anchored
// kinds and 0 for engine/hierarchy kinds.
const (
	// EvChannelBusy is a span: one block access occupying the channel
	// buses, from its first packet to its last data packet. A is the
	// access class (channel.Class), B is 1 when the first span hit an
	// open row.
	EvChannelBusy EventKind = iota
	// EvBankActivate is an instant: a row opened. A is the global bank
	// index (device*BanksPerDevice+bank), B the row.
	EvBankActivate
	// EvBankPrecharge is an instant: a bank closed. A is the global
	// bank index, B a PrechargeReason.
	EvBankPrecharge
	// EvRefresh is a span: one refresh operation occupying all buses.
	// A is the global bank index it precharged.
	EvRefresh
	// EvPrefetchIssue is an instant: the access prioritizer pulled a
	// prefetch onto an idle channel. A is the group-local block
	// address.
	EvPrefetchIssue
	// EvPrefetchDrop is an instant: a prefetch candidate was discarded
	// before issue. A is the block address, B a DropReason.
	EvPrefetchDrop
	// EvPrefetchPromote is an instant: a demand miss re-promoted its
	// queued region to the head (LIFO). A is the region base address.
	EvPrefetchPromote
	// EvRegionCreate is an instant: a demand miss opened a new region
	// entry. A is the region base address.
	EvRegionCreate
	// EvRegionReplace is an instant: a full queue evicted a region
	// before completion. A is the evicted region's base address.
	EvRegionReplace
	// EvDemandBypass is an instant: a demand miss arrived while a
	// prefetch transfer still occupied the channel and will bypass any
	// queued prefetches. A is the block address.
	EvDemandBypass
	// EvLateMerge is an instant: a demand miss merged into an
	// in-flight prefetch of the same block. A is the block address.
	EvLateMerge
	// EvPollution is an instant: a prefetched block was evicted from
	// the cache without ever being referenced. A is the block address.
	EvPollution
	// EvSchedDecision is an instant: the controller resolved a
	// contested issue decision (more than one queued request). A is the
	// chosen request's address, B the interned id of the primary
	// scheduling policy (see Tracer.InternPolicy).
	EvSchedDecision
	// EvSchedAlt is an instant: what one armed alternative scheduling
	// policy would have issued at the same decision point. A is the
	// alternative's chosen address, B packs id<<1 | agree, where agree
	// is 1 when it matched the primary choice.
	EvSchedAlt
	// EvPrefetchDecision is an instant: the primary prefetch scheme
	// produced its next candidate. A is the block address, B the
	// interned id of the primary scheme.
	EvPrefetchDecision
	// EvPrefetchAlt is an instant: what one shadow prefetch scheme
	// would have fetched next at the same point. A is the shadow's
	// candidate block (0 when it had none and agree is 0), B packs
	// id<<1 | agree.
	EvPrefetchAlt

	numEventKinds
)

// String names the kind (also the Chrome trace event name).
func (k EventKind) String() string {
	switch k {
	case EvChannelBusy:
		return "channel-busy"
	case EvBankActivate:
		return "bank-activate"
	case EvBankPrecharge:
		return "bank-precharge"
	case EvRefresh:
		return "refresh"
	case EvPrefetchIssue:
		return "prefetch-issue"
	case EvPrefetchDrop:
		return "prefetch-drop"
	case EvPrefetchPromote:
		return "prefetch-promote"
	case EvRegionCreate:
		return "region-create"
	case EvRegionReplace:
		return "region-replace"
	case EvDemandBypass:
		return "demand-bypass"
	case EvLateMerge:
		return "late-merge"
	case EvPollution:
		return "pollution"
	case EvSchedDecision:
		return "sched-decision"
	case EvSchedAlt:
		return "sched-alt"
	case EvPrefetchDecision:
		return "prefetch-decision"
	case EvPrefetchAlt:
		return "prefetch-alt"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// KindByName resolves a Chrome event name back to its kind (trace
// file analysis); ok is false for foreign names.
func KindByName(name string) (EventKind, bool) {
	for k := EventKind(0); k < numEventKinds; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// PrechargeReason is EvBankPrecharge's B payload.
type PrechargeReason uint64

// Precharge reasons.
const (
	// PrechargeConflict: the bank was open at a different row than the
	// access needed — a row-buffer conflict.
	PrechargeConflict PrechargeReason = iota
	// PrechargeNeighbor: an adjacent bank activated and the shared
	// sense amps forced this bank closed.
	PrechargeNeighbor
	// PrechargeClosedPage: the closed-page policy released the row
	// after its access.
	PrechargeClosedPage
	// PrechargeRefresh: a refresh operation closed the bank.
	PrechargeRefresh
)

// String names the reason.
func (r PrechargeReason) String() string {
	switch r {
	case PrechargeConflict:
		return "conflict"
	case PrechargeNeighbor:
		return "neighbor"
	case PrechargeClosedPage:
		return "closed-page"
	case PrechargeRefresh:
		return "refresh"
	default:
		return fmt.Sprintf("PrechargeReason(%d)", uint64(r))
	}
}

// DropReason is EvPrefetchDrop's B payload.
type DropReason uint64

// Drop reasons.
const (
	// DropResident: the block already sits in the L2.
	DropResident DropReason = iota
	// DropBuffered: the block already sits in the separate prefetch
	// buffer.
	DropBuffered
	// DropInFlight: a prefetch of the block is already in flight.
	DropInFlight
	// DropDemandPending: a demand miss to the block is already
	// outstanding in the MSHRs.
	DropDemandPending
)

// String names the reason.
func (r DropReason) String() string {
	switch r {
	case DropResident:
		return "resident"
	case DropBuffered:
		return "buffered"
	case DropInFlight:
		return "in-flight"
	case DropDemandPending:
		return "demand-pending"
	default:
		return fmt.Sprintf("DropReason(%d)", uint64(r))
	}
}

// Event is one trace record: 40 bytes, no pointers, so the ring is a
// single flat allocation the garbage collector never scans.
type Event struct {
	// At is when the event happened (span start for span kinds).
	At sim.Time
	// Dur is the span length; zero for instants.
	Dur sim.Time
	// A and B are kind-specific payloads.
	A, B uint64
	// Kind classifies the event.
	Kind EventKind
	// Group is the channel-group index for channel-anchored kinds.
	Group int32
}

// Tracer records events into a bounded ring buffer. All methods are
// nil-safe: with tracing disabled every emit site costs one branch.
// The tracer is written from inside the event loop but only read at
// run boundaries, and it never spawns goroutines or reads wall-clock
// time, so traced runs stay deterministic.
type Tracer struct {
	now     func() sim.Time
	buf     []Event
	next    int // ring cursor: the oldest retained event once full
	emitted uint64
	// policies is the interned policy-name table; decision events
	// reference names by index (see InternPolicy).
	policies []string
}

// NewTracer returns a tracer holding the most recent capacity events.
// now supplies the simulated clock for Instant.
func NewTracer(capacity int, now func() sim.Time) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	return &Tracer{now: now, buf: make([]Event, 0, capacity)}
}

// Emit appends one event, overwriting the oldest when the ring is
// full.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.emitted++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
		return
	}
	t.buf[t.next] = e
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
}

// Span records a [start, end) span event.
func (t *Tracer) Span(kind EventKind, group int, start, end sim.Time, a, b uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{At: start, Dur: end - start, A: a, B: b, Kind: kind, Group: int32(group)})
}

// Instant records an event at the current simulated time.
func (t *Tracer) Instant(kind EventKind, group int, a, b uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{At: t.now(), A: a, B: b, Kind: kind, Group: int32(group)})
}

// InstantAt records an event at an explicit time (for emitters that
// resolve timing retroactively, like the channel's bus-reservation
// model).
func (t *Tracer) InstantAt(kind EventKind, group int, at sim.Time, a, b uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{At: at, A: a, B: b, Kind: kind, Group: int32(group)})
}

// InternPolicy registers a policy name on the tracer and returns its
// stable id — the compact policy reference packed into decision
// events' payloads. Repeated calls with one name return one id; on a
// nil tracer the id is 0.
func (t *Tracer) InternPolicy(name string) uint64 {
	if t == nil {
		return 0
	}
	for i, n := range t.policies {
		if n == name {
			return uint64(i)
		}
	}
	t.policies = append(t.policies, name)
	return uint64(len(t.policies) - 1)
}

// PolicyNames returns a copy of the interned policy-name table,
// indexed by the ids InternPolicy issued.
func (t *Tracer) PolicyNames() []string {
	if t == nil {
		return nil
	}
	return append([]string(nil), t.policies...)
}

// Len reports how many events the ring currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Emitted reports how many events were ever emitted.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.emitted
}

// Dropped reports how many events the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.emitted - uint64(len(t.buf))
}

// Events returns the retained events in emission order, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}

// Last returns up to k of the most recent events, oldest first. The
// watchdog embeds these in its diagnostic dump, so a no-progress abort
// shows what the memory system last did.
func (t *Tracer) Last(k int) []Event {
	if t == nil {
		return nil
	}
	n := len(t.buf)
	k = min(max(k, 0), n)
	out := make([]Event, 0, k)
	// The i-th oldest retained event sits at (next+i) mod n.
	for i := n - k; i < n; i++ {
		out = append(out, t.buf[(t.next+i)%n])
	}
	return out
}
