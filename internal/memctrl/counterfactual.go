package memctrl

import "memsim/internal/obs"

// Counterfactual wraps a primary IssuePolicy and a set of shadow
// policies: every contested decision (the controller consults its
// policy only with more than one request queued) goes to the primary,
// and each shadow is then asked what it would have issued from the
// same queue. The decorator emits one EvSchedDecision for the
// primary's pick and one EvSchedAlt per shadow, so obsdump can
// tabulate per-policy divergence. Only the primary's pick issues.
//
// Shadows see the open-row bits recorded when the primary picked, not
// the live channel, so the traced alternatives equal the recorded
// inputs replayed offline. The snapshot lives in a buffer reused
// across decisions, so an armed run allocates nothing per decision.
type Counterfactual struct {
	primary IssuePolicy
	id      uint64
	tr      *obs.Tracer
	group   int
	shadows []shadowPolicy

	// q and open are the decision being traced: the queue and, per
	// entry, whether its row was open. snapFn is snapOpen bound once.
	q      []*Request
	open   []bool
	snapFn func(*Request) bool
}

// shadowPolicy is one armed alternative with its interned trace id.
type shadowPolicy struct {
	pol IssuePolicy
	id  uint64
}

// Counterfactual implements IssuePolicy.
var _ IssuePolicy = (*Counterfactual)(nil)

// NewCounterfactual wraps primary for decision tracing into tr on
// behalf of channel group group.
func NewCounterfactual(primary IssuePolicy, tr *obs.Tracer, group int) *Counterfactual {
	c := &Counterfactual{primary: primary, id: tr.InternPolicy(primary.Name()), tr: tr, group: group}
	c.snapFn = c.snapOpen
	return c
}

// AddShadow arms one alternative policy under its registered name.
func (c *Counterfactual) AddShadow(name string, pol IssuePolicy) {
	c.shadows = append(c.shadows, shadowPolicy{pol: pol, id: c.tr.InternPolicy(name)})
}

// Name implements IssuePolicy: the decorator answers as its primary.
func (c *Counterfactual) Name() string { return c.primary.Name() }

// Pick implements IssuePolicy: the primary's pick is returned and
// traced alongside each shadow's pick on the recorded snapshot.
func (c *Counterfactual) Pick(q []*Request, rowOpen func(*Request) bool) int {
	chosen := c.primary.Pick(q, rowOpen)
	c.q, c.open = q, c.open[:0]
	for _, r := range q {
		c.open = append(c.open, rowOpen(r))
	}
	c.tr.Instant(obs.EvSchedDecision, c.group, q[chosen].Addr, c.id)
	for _, s := range c.shadows {
		pick := s.pol.Pick(q, c.snapFn)
		var agree uint64
		if pick == chosen {
			agree = 1
		}
		c.tr.Instant(obs.EvSchedAlt, c.group, q[pick].Addr, s.id<<1|agree)
	}
	c.q = nil
	return chosen
}

// snapOpen reports the recorded open-row bit of a request in the
// decision being traced.
func (c *Counterfactual) snapOpen(r *Request) bool {
	for i, qr := range c.q {
		if qr == r {
			return c.open[i]
		}
	}
	return false
}
