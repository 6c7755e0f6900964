package policy

import "memsim/internal/dram"

// TimingParams carries the bank-timing knobs.
type TimingParams struct {
	// NearRows sizes the tiered scheme's near segment; <= 0 defaults.
	NearRows int
	// ReuseEntries sizes the row-reuse table; <= 0 defaults.
	ReuseEntries int
}

// Timings is the bank-timing registry; the empty name is "flat". The
// flat scheme builds a nil TimingPolicy — the channel's uniform-ACT
// fast path — so it is addressable by name without costing an
// interface call per activate.
var Timings = NewRegistry[TimingParams, dram.TimingPolicy]("bank-timing", "BankTiming", "flat")

type timingScheme = Scheme[TimingParams, dram.TimingPolicy]

func init() {
	Timings.Register("flat", timingScheme{Build: func(TimingParams) (dram.TimingPolicy, error) {
		return nil, nil
	}})
	Timings.Register("tiered", timingScheme{Build: func(p TimingParams) (dram.TimingPolicy, error) {
		return dram.NewTieredTiming(p.NearRows), nil
	}})
	Timings.Register("rowreuse", timingScheme{Build: func(p TimingParams) (dram.TimingPolicy, error) {
		return dram.NewReuseTiming(p.ReuseEntries), nil
	}})
}

// NewTiming builds the named bank-timing policy; "" and "flat" return
// nil (the flat scheme).
func NewTiming(name string, p TimingParams) (dram.TimingPolicy, error) {
	return Timings.build(name, p)
}
