package prefetch

import "memsim/internal/obs"

// Counterfactual wraps a primary Prefetcher and a set of shadow
// schemes: every demand miss feeds all of them, and every primary
// Next that produces a candidate also asks each shadow what it would
// have fetched, emitting EvPrefetchDecision/EvPrefetchAlt instants so
// obsdump can tabulate per-scheme divergence. Only the primary's
// candidates reach the memory system — shadows run open-loop, so
// their accuracy feedback (RecordSettled) never fires and their view
// of residency is the primary run's. That bias is inherent to
// counterfactual tracing without forking the simulation and is why
// the divergence table reports decision agreement, not IPC.
type Counterfactual struct {
	primary Prefetcher
	name    string
	id      uint64
	tr      *obs.Tracer
	shadows []shadowPF
}

// shadowPF is one armed alternative scheme with its interned trace id.
type shadowPF struct {
	pf Prefetcher
	id uint64
}

// Counterfactual implements Prefetcher.
var _ Prefetcher = (*Counterfactual)(nil)

// NewCounterfactual wraps primary (registered under name) for decision
// tracing into tr.
func NewCounterfactual(primary Prefetcher, tr *obs.Tracer, name string) *Counterfactual {
	return &Counterfactual{primary: primary, name: name, id: tr.InternPolicy(name), tr: tr}
}

// AddShadow arms one alternative scheme under its registered name.
func (c *Counterfactual) AddShadow(name string, pf Prefetcher) {
	c.shadows = append(c.shadows, shadowPF{pf: pf, id: c.tr.InternPolicy(name)})
}

// OnDemandMiss implements Prefetcher: the miss feeds the primary and
// every shadow, so each scheme tracks the same demand stream.
func (c *Counterfactual) OnDemandMiss(addr uint64, resident func(block uint64) bool) {
	c.primary.OnDemandMiss(addr, resident)
	for _, s := range c.shadows {
		s.pf.OnDemandMiss(addr, resident)
	}
}

// Next implements Prefetcher: the primary's pick is returned and, when
// it produced one, traced alongside each shadow's would-be pick. A
// shadow with no candidate records a disagreement with block 0.
func (c *Counterfactual) Next(rowOpen func(block uint64) bool) (uint64, bool) {
	block, ok := c.primary.Next(rowOpen)
	if !ok {
		return 0, false
	}
	c.tr.Instant(obs.EvPrefetchDecision, 0, block, c.id)
	for _, s := range c.shadows {
		sb, sok := s.pf.Next(rowOpen)
		var agree, a uint64
		if sok {
			a = sb
			if sb == block {
				agree = 1
			}
		}
		c.tr.Instant(obs.EvPrefetchAlt, 0, a, s.id<<1|agree)
	}
	return block, true
}

// RecordSettled implements Prefetcher: feedback reaches the primary
// only (shadows run open-loop; see the type comment).
func (c *Counterfactual) RecordSettled(used bool) { c.primary.RecordSettled(used) }

// Stats implements Prefetcher, reporting the primary's counters.
func (c *Counterfactual) Stats() Stats { return c.primary.Stats() }
