package core

import (
	"memsim/internal/addrmap"
	"memsim/internal/channel"
	"memsim/internal/memctrl"
	"memsim/internal/obs"
	"memsim/internal/policy"
	"memsim/internal/sim"
)

// skewGranules offsets requester i's address space by i times this
// many stripe granules (a prime, so requesters running identical
// workloads still exercise different rows and banks, the same trick
// workload generation uses to de-correlate streams).
const skewGranules = 1009

// Memory is the integrated memory behind one or more requesters: one
// controller per channel group of the configured organization
// (policy.Interleavings), each with its channel, address mapping and
// issue policy, and whole granules (the L2 block) striped across the
// groups. A private System builds a one-requester Memory and submits
// to it directly; a cluster builds one N-requester Memory behind its
// link, and each member holds an empty one with no groups.
type Memory struct {
	ctrls    []*memctrl.Controller
	maprs    []addrmap.Mapper
	granule  uint64
	capacity uint64
}

// NewMemory builds cfg's channel groups on sched, each controller
// serving requesters requesters (at least one).
func NewMemory(sched *sim.Scheduler, cfg Config, requesters int) (*Memory, error) {
	return newMemory(sched, cfg, channelConfig(cfg), requesters)
}

// channelConfig is the channel configuration cfg gives every group.
func channelConfig(cfg Config) channel.Config {
	chCfg := channel.Config{Timing: cfg.Timing, ClosedPage: cfg.ClosedPage}
	if cfg.Refresh {
		// One refresh per ~2us retires all 16K rows of a device within
		// a 32ms retention period; each costs roughly a row cycle.
		chCfg.RefreshInterval = 2 * sim.Microsecond
		chCfg.RefreshDuration = 70 * sim.Nanosecond
	}
	return chCfg
}

// newMemory is NewMemory with every group's channel built on chCfg.
func newMemory(sched *sim.Scheduler, cfg Config, chCfg channel.Config, requesters int) (*Memory, error) {
	org, err := policy.NewOrganization(cfg.Interleaving, cfg.geometry())
	if err != nil {
		return nil, err
	}
	m := &Memory{
		ctrls:    make([]*memctrl.Controller, 0, org.Groups),
		maprs:    make([]addrmap.Mapper, 0, org.Groups),
		granule:  uint64(cfg.L2Block),
		capacity: org.Capacity(),
	}
	for g := 0; g < org.Groups; g++ {
		chn, mapr, err := org.NewGroup(cfg.Mapping, cfg.BankTiming, chCfg)
		if err != nil {
			return nil, err
		}
		pol, err := policy.NewSched(cfg.SchedPolicy, cfg.schedParams())
		if err != nil {
			return nil, err
		}
		ctrl := memctrl.NewShared(sched, chn, mapr, requesters)
		ctrl.SetPolicy(pol)
		m.ctrls = append(m.ctrls, ctrl)
		m.maprs = append(m.maprs, mapr)
	}
	return m, nil
}

// route maps requester sys's address to its group and that group's
// private address space: the address moves sys*skewGranules granules
// up the shared space, wrapping at capacity, and is striped across the
// groups. Requester 0 keeps its address.
func (m *Memory) route(sys int, addr uint64) (group int, local uint64) {
	addr += uint64(sys) * skewGranules * m.granule
	if addr >= m.capacity {
		addr %= m.capacity // in-range addresses skip the division
	}
	return addrmap.Stripe(addr, m.granule, len(m.ctrls))
}

// Submit routes a request from requester r.Sys to the controller of
// its group, rewriting r.Addr into the group's space.
func (m *Memory) Submit(r *memctrl.Request) {
	g, local := m.route(int(r.Sys), r.Addr)
	r.Addr = local
	m.ctrls[g].Submit(r)
}

// rowOpen reports whether requester 0's block has its row open.
func (m *Memory) rowOpen(block uint64) bool {
	g, local := m.route(0, block)
	return m.ctrls[g].Channel().RowOpen(m.maprs[g].Map(local))
}

// Observe wires every group's channel and controller into ob, each
// labelled with its group index.
func (m *Memory) Observe(ob *obs.Observer) {
	for g, c := range m.ctrls {
		c.Channel().Observe(ob, g)
		c.Observe(ob, g)
	}
}

// Stats sums the channel and controller statistics over the groups.
func (m *Memory) Stats() (channel.Stats, memctrl.Stats) {
	var chn channel.Stats
	var ctrl memctrl.Stats
	for _, c := range m.ctrls {
		chn = chn.Add(c.Channel().Stats())
		ctrl = ctrl.Add(c.Stats())
	}
	return chn, ctrl
}

// Controllers returns the groups' controllers in group order.
func (m *Memory) Controllers() []*memctrl.Controller { return m.ctrls }

// Busy reports whether any controller still holds queued or armed
// work.
func (m *Memory) Busy() bool {
	for _, c := range m.ctrls {
		if c.Pending() {
			return true
		}
	}
	return false
}
