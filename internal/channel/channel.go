// Package channel models a Direct Rambus memory channel: the split
// command buses (a row bus carrying PRER/ACT packets and a column bus
// carrying RD/WR packets), the data bus, and the bank state of the
// attached devices.
//
// When a system has n physical channels they are simply interleaved:
// the memory controller treats them as a single logical channel of n
// times the width, with the devices operating in lock step. This
// package therefore models one logical channel; a data packet moves n
// dualocts (16n bytes) in one packet time.
//
// Timing is resolved with a bus-reservation model: each access reserves
// packet slots on the three buses at the earliest instants consistent
// with bus occupancy, bank-state latencies (precharge, activate,
// CAS-to-data), and the shared sense-amp adjacency constraint.
// Consecutive accesses pipeline naturally — a later access's row-bus
// packets may overlap an earlier access's data transfer — which matches
// the paper's controller, which "pipelines requests, but does not
// reorder or interleave commands from multiple requests".
package channel

import (
	"fmt"

	"memsim/internal/addrmap"
	"memsim/internal/dram"
	"memsim/internal/obs"
	"memsim/internal/sim"
)

// Class labels an access for statistics: demand fetch, writeback, or
// prefetch. Row-buffer hit rates are tracked per class (Section 3.4
// distinguishes read and writeback hit rates; Section 4.2 tracks the
// prefetch hit rate).
type Class int

// Access classes.
const (
	Demand Class = iota
	Writeback
	Prefetch
	numClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Demand:
		return "demand"
	case Writeback:
		return "writeback"
	case Prefetch:
		return "prefetch"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Config parameterizes a logical channel.
type Config struct {
	Geometry addrmap.Geometry
	Timing   dram.Timing
	// TimingPol, when non-nil, resolves per-activate latency (the
	// tiered-latency and row-reuse schemes of the policy zoo). Nil
	// charges Timing.ACT for every activate — the flat scheme.
	TimingPol dram.TimingPolicy
	// ClosedPage selects the closed-page policy: the row buffer is
	// released after each access, so the next access to the same row
	// pays ACT but never PRER. The default (false) is the open-row
	// policy used throughout the paper.
	ClosedPage bool
	// RefreshInterval, when positive, models DRAM refresh: every
	// interval one refresh operation occupies all buses for
	// RefreshDuration and precharges one bank (round-robin across
	// devices and banks). The paper does not model refresh; this
	// extension quantifies its cost.
	RefreshInterval sim.Time
	// RefreshDuration is the per-operation cost (roughly a row cycle).
	RefreshDuration sim.Time
}

// Result reports the resolved timing of one block access.
type Result struct {
	// Start is when the first packet of the access was placed on a bus.
	Start sim.Time
	// FirstData is when the first data packet completes: the critical
	// word is available to the requester.
	FirstData sim.Time
	// LastData is when the final data packet completes: the whole
	// block has transferred.
	LastData sim.Time
	// CmdDone is when the access's last command packet has been placed.
	// The controller may make its next issue decision at this time.
	CmdDone sim.Time
	// DataTime is the data-bus time this access consumed: one packet
	// time per column packet. The data bus serializes all traffic, so
	// summing DataTime per requester yields exact occupancy shares
	// (memctrl.ShareStats, the cluster's fairness accounting).
	DataTime sim.Time
	// RowHit reports whether the first span of the access found its row
	// open in the sense amps.
	RowHit bool
	// RowHits and Spans count per-span row-buffer hits for multi-span
	// (large-block) accesses.
	RowHits, Spans int
}

// Stats accumulates channel activity.
type Stats struct {
	Accesses [numClasses]uint64
	RowHits  [numClasses]uint64
	// Packet counts by bus.
	RowPackets, ColPackets, DataPackets uint64
	// Busy time by bus.
	RowBusy, ColBusy, DataBusy sim.Time
	// NeighborPrecharges counts precharges forced by the shared
	// sense-amp adjacency constraint.
	NeighborPrecharges uint64
	// RowMissPrecharges counts precharges of the accessed bank itself.
	RowMissPrecharges uint64
	// Refreshes counts injected refresh operations.
	Refreshes uint64
}

// Delta returns the counters accumulated since base was captured.
func (s Stats) Delta(base Stats) Stats {
	d := Stats{
		RowPackets:         s.RowPackets - base.RowPackets,
		ColPackets:         s.ColPackets - base.ColPackets,
		DataPackets:        s.DataPackets - base.DataPackets,
		RowBusy:            s.RowBusy - base.RowBusy,
		ColBusy:            s.ColBusy - base.ColBusy,
		DataBusy:           s.DataBusy - base.DataBusy,
		NeighborPrecharges: s.NeighborPrecharges - base.NeighborPrecharges,
		RowMissPrecharges:  s.RowMissPrecharges - base.RowMissPrecharges,
		Refreshes:          s.Refreshes - base.Refreshes,
	}
	for c := Class(0); c < numClasses; c++ {
		d.Accesses[c] = s.Accesses[c] - base.Accesses[c]
		d.RowHits[c] = s.RowHits[c] - base.RowHits[c]
	}
	return d
}

// Add returns the field-wise sum of two counter sets (aggregating
// multiple channel groups). MaxDemandQueue-like maxima do not exist
// here; every field is additive.
func (s Stats) Add(o Stats) Stats {
	r := Stats{
		RowPackets:         s.RowPackets + o.RowPackets,
		ColPackets:         s.ColPackets + o.ColPackets,
		DataPackets:        s.DataPackets + o.DataPackets,
		RowBusy:            s.RowBusy + o.RowBusy,
		ColBusy:            s.ColBusy + o.ColBusy,
		DataBusy:           s.DataBusy + o.DataBusy,
		NeighborPrecharges: s.NeighborPrecharges + o.NeighborPrecharges,
		RowMissPrecharges:  s.RowMissPrecharges + o.RowMissPrecharges,
		Refreshes:          s.Refreshes + o.Refreshes,
	}
	for c := Class(0); c < numClasses; c++ {
		r.Accesses[c] = s.Accesses[c] + o.Accesses[c]
		r.RowHits[c] = s.RowHits[c] + o.RowHits[c]
	}
	return r
}

// HitRate reports the row-buffer hit rate for a class, or 0 with no
// accesses.
func (s Stats) HitRate(c Class) float64 {
	if s.Accesses[c] == 0 {
		return 0
	}
	return float64(s.RowHits[c]) / float64(s.Accesses[c])
}

// CommandUtilization is the fraction of time the command buses carried
// packets over the elapsed interval (row and column buses averaged).
func (s Stats) CommandUtilization(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(s.RowBusy+s.ColBusy) / (2 * float64(elapsed))
}

// DataUtilization is the fraction of time the data bus carried packets.
func (s Stats) DataUtilization(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(s.DataBusy) / float64(elapsed)
}

// Channel is one logical (possibly ganged) Direct Rambus channel.
type Channel struct {
	cfg     Config
	devices []*dram.Device
	// Bus free times.
	rowFree, colFree, dataFree sim.Time
	// bankReady[dev][bank] is when the bank completes its in-flight
	// precharge or activate and can accept its next command.
	bankReady [][]sim.Time

	// Refresh state: the next scheduled refresh instant and the
	// round-robin cursor over (device, bank) pairs.
	nextRefresh sim.Time
	refreshAt   int

	stats Stats

	// Observability hooks (see Observe). tr and streak are nil-safe:
	// with observability off each emit site costs one branch.
	tr    *obs.Tracer
	group int
	// streak is the demand row-hit streak histogram; demandStreak
	// counts consecutive demand row-buffer hits since the last miss.
	streak       *obs.Histogram
	demandStreak uint64
}

// New returns a channel with all banks precharged and buses idle.
func New(cfg Config) (*Channel, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if cfg.Timing.Packet <= 0 {
		return nil, fmt.Errorf("channel: timing part %q has no packet time", cfg.Timing.Name)
	}
	ch := &Channel{cfg: cfg}
	for i := 0; i < cfg.Geometry.DevicesPerChannel; i++ {
		ch.devices = append(ch.devices, dram.NewDevice())
		ch.bankReady = append(ch.bankReady, make([]sim.Time, dram.BanksPerDevice))
	}
	if cfg.RefreshInterval > 0 {
		ch.nextRefresh = cfg.RefreshInterval
	}
	return ch, nil
}

// applyRefresh lazily injects refresh operations that fell due before
// now: each occupies all buses for RefreshDuration (delayed behind any
// in-flight packets) and precharges the next bank in round-robin
// order.
func (ch *Channel) applyRefresh(now sim.Time) {
	if ch.cfg.RefreshInterval <= 0 {
		return
	}
	for ch.nextRefresh <= now {
		start := ch.nextRefresh
		dur := ch.cfg.RefreshDuration
		ch.rowFree = max(ch.rowFree, start) + dur
		ch.colFree = max(ch.colFree, start) + dur
		ch.dataFree = max(ch.dataFree, start) + dur

		dev := ch.refreshAt / dram.BanksPerDevice % len(ch.devices)
		bank := ch.refreshAt % dram.BanksPerDevice
		ch.devices[dev].Precharge(bank)
		ch.bankReady[dev][bank] = max(ch.bankReady[dev][bank], start) + dur
		ch.refreshAt++

		ch.tr.Span(obs.EvRefresh, ch.group, start, start+dur, globalBank(dev, bank), 0)
		ch.tr.InstantAt(obs.EvBankPrecharge, ch.group, start, globalBank(dev, bank), uint64(obs.PrechargeRefresh))
		ch.stats.Refreshes++
		ch.nextRefresh += ch.cfg.RefreshInterval
	}
}

// Config reports the channel configuration.
func (ch *Channel) Config() Config { return ch.cfg }

// Stats returns a snapshot of accumulated statistics.
func (ch *Channel) Stats() Stats { return ch.stats }

// NextFree reports the earliest time at which all three buses are idle.
func (ch *Channel) NextFree() sim.Time {
	t := ch.rowFree
	if ch.colFree > t {
		t = ch.colFree
	}
	if ch.dataFree > t {
		t = ch.dataFree
	}
	return t
}

// IdleAt reports whether the channel is completely idle at time t: no
// packet is scheduled on any bus at or after t.
func (ch *Channel) IdleAt(t sim.Time) bool { return ch.NextFree() <= t }

// RowOpen reports whether the coordinate's row is currently held in its
// bank's sense amps. The prefetch prioritizer uses this for bank-aware
// scheduling.
func (ch *Channel) RowOpen(c addrmap.Coord) bool {
	return ch.devices[c.Device].IsOpen(c.Bank, c.Row)
}

// SaneHorizon bounds how far beyond the current time any bus or bank
// reservation may legitimately extend: the longest access (an 8KB
// block is 512 logical columns) plus generous refresh interference
// stays well under a millisecond. The paranoid checker treats a
// reservation beyond now+SaneHorizon as corruption.
const SaneHorizon = sim.Millisecond

// CheckSane verifies that all bus free times and bank ready times lie
// within the sanity horizon of now and are non-negative. A violation
// means timing state was corrupted.
func (ch *Channel) CheckSane(now sim.Time) error {
	horizon := now + SaneHorizon
	check := func(name string, t sim.Time) error {
		if t < 0 {
			return fmt.Errorf("channel: %s = %v is negative", name, t)
		}
		if t > horizon {
			return fmt.Errorf("channel: %s = %v beyond sanity horizon %v", name, t, horizon)
		}
		return nil
	}
	if err := check("rowFree", ch.rowFree); err != nil {
		return err
	}
	if err := check("colFree", ch.colFree); err != nil {
		return err
	}
	if err := check("dataFree", ch.dataFree); err != nil {
		return err
	}
	for d, banks := range ch.bankReady {
		for b, t := range banks {
			if err := check(fmt.Sprintf("bankReady[%d][%d]", d, b), t); err != nil {
				return err
			}
		}
	}
	return nil
}

// DebugState summarizes timing state for diagnostic dumps, reporting
// bus reservations relative to now and the most distant bank
// reservation.
func (ch *Channel) DebugState(now sim.Time) string {
	maxDev, maxBank, maxReady := 0, 0, sim.Time(0)
	for d, banks := range ch.bankReady {
		for b, t := range banks {
			if t > maxReady {
				maxDev, maxBank, maxReady = d, b, t
			}
		}
	}
	return fmt.Sprintf("rowFree=now%+v colFree=now%+v dataFree=now%+v maxBankReady[%d][%d]=now%+v refreshes=%d",
		ch.rowFree-now, ch.colFree-now, ch.dataFree-now, maxDev, maxBank, maxReady-now, ch.stats.Refreshes)
}

// reserveRow places one packet on the row bus no earlier than at.
func (ch *Channel) reserveRow(at sim.Time) sim.Time {
	t := max(at, ch.rowFree)
	ch.rowFree = t + ch.cfg.Timing.Packet
	ch.stats.RowPackets++
	ch.stats.RowBusy += ch.cfg.Timing.Packet
	return t
}

// Access resolves the timing of a block access covering spans, updates
// bank and bus state, and returns the schedule. now is the earliest
// time any packet may be placed.
func (ch *Channel) Access(now sim.Time, spans []addrmap.Span, class Class, write bool) Result {
	if len(spans) == 0 {
		panic("channel: access with no spans")
	}
	ch.applyRefresh(now)
	tm := ch.cfg.Timing
	res := Result{Start: sim.MaxTime, Spans: len(spans)}
	ch.stats.Accesses[class]++

	for i, sp := range spans {
		c := sp.Coord
		dev := ch.devices[c.Device]
		ready := &ch.bankReady[c.Device]

		hit := dev.IsOpen(c.Bank, c.Row)
		if hit {
			ch.stats.RowHits[class]++
			if i == 0 {
				res.RowHit = true
			}
			res.RowHits++
		} else {
			// Precharge the bank itself (if open at another row) and
			// any active adjacent banks, then activate.
			self, neighbors := dev.Precharges(c.Bank, c.Row)
			prechargeDone := (*ready)[c.Bank]
			for i := 0; i < neighbors.Len(); i++ {
				nb := neighbors.At(i)
				t := ch.reserveRow(max(now, (*ready)[nb]))
				res.Start = min(res.Start, t)
				done := t + tm.PRER
				(*ready)[nb] = done
				prechargeDone = max(prechargeDone, done)
				dev.Precharge(nb)
				ch.tr.InstantAt(obs.EvBankPrecharge, ch.group, t, globalBank(c.Device, nb), uint64(obs.PrechargeNeighbor))
				ch.stats.NeighborPrecharges++
			}
			if self {
				t := ch.reserveRow(max(now, (*ready)[c.Bank]))
				res.Start = min(res.Start, t)
				prechargeDone = max(prechargeDone, t+tm.PRER)
				ch.tr.InstantAt(obs.EvBankPrecharge, ch.group, t, globalBank(c.Device, c.Bank), uint64(obs.PrechargeConflict))
				ch.stats.RowMissPrecharges++
			}
			t := ch.reserveRow(max(now, prechargeDone))
			res.Start = min(res.Start, t)
			dev.Activate(c.Bank, c.Row)
			ch.tr.InstantAt(obs.EvBankActivate, ch.group, t, globalBank(c.Device, c.Bank), uint64(c.Row))
			act := tm.ACT
			if ch.cfg.TimingPol != nil {
				act = ch.cfg.TimingPol.ActivateLatency(c.Device, c.Bank, c.Row, tm.ACT)
			}
			(*ready)[c.Bank] = t + act
		}

		rowAvail := max(now, (*ready)[c.Bank])
		// Column packets pipeline back to back; each data packet
		// follows its command by CAC.
		for j := 0; j < sp.NCols; j++ {
			t := max(rowAvail, ch.colFree)
			dstart := t + tm.CAC
			if dstart < ch.dataFree {
				t += ch.dataFree - dstart
				dstart = ch.dataFree
			}
			ch.colFree = t + tm.Packet
			ch.dataFree = dstart + tm.Packet
			ch.stats.ColPackets++
			ch.stats.DataPackets++
			ch.stats.ColBusy += tm.Packet
			ch.stats.DataBusy += tm.Packet
			res.DataTime += tm.Packet
			res.Start = min(res.Start, t)
			if res.FirstData == 0 {
				res.FirstData = dstart + tm.Packet
			}
			res.LastData = dstart + tm.Packet
		}
		res.CmdDone = ch.colFree

		if ch.cfg.ClosedPage {
			// Release the row buffer after the access; the next access
			// to this row pays only ACT+RD.
			t := ch.reserveRow(ch.colFree)
			(*ready)[c.Bank] = t + tm.PRER
			dev.Precharge(c.Bank)
			ch.tr.InstantAt(obs.EvBankPrecharge, ch.group, t, globalBank(c.Device, c.Bank), uint64(obs.PrechargeClosedPage))
		}
	}
	var hit uint64
	if res.RowHit {
		hit = 1
	}
	ch.tr.Span(obs.EvChannelBusy, ch.group, res.Start, res.LastData, uint64(class), hit)
	if class == Demand {
		if res.RowHit {
			ch.demandStreak++
		} else {
			ch.streak.Observe(float64(ch.demandStreak))
			ch.demandStreak = 0
		}
	}
	_ = write // reads and writes share packet timing on DRDRAM (Section 2.2, note 2)
	return res
}
