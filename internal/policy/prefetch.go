package policy

import (
	"memsim/internal/harden"
	"memsim/internal/prefetch"
)

// PrefetchParams carries the prefetch-scheme knobs; schemes read the
// subset that applies to them.
type PrefetchParams struct {
	// BlockBytes is the L2 block size every scheme generates in.
	BlockBytes int
	// Lookahead is the sequential/stream prefetch depth.
	Lookahead int
	// TableSize is the stream scheme's table size; <= 0 defaults to 8.
	TableSize int
	// RegionBytes/QueueDepth/Policy/BankAware/Throttle* tune the region
	// scheme.
	RegionBytes      int
	QueueDepth       int
	Policy           prefetch.Policy
	BankAware        bool
	ThrottleAccuracy float64
	ThrottleWindow   int
}

// MaxQueueDepth bounds every prefetch table a config sizes: the region
// queue, the stream table and the prefetch buffer.
const MaxQueueDepth = 4096

// maxRegionBytes bounds the region scheme's region size.
const maxRegionBytes = 1 << 24

// Prefetchers is the prefetch-scheme registry; the empty name is the
// paper's "region" scheme. Fallback knobs are the Section 4 tuned
// values.
var Prefetchers = NewRegistry[PrefetchParams, prefetch.Prefetcher]("prefetch", "Prefetch.Scheme", "region")

type prefetchScheme = Scheme[PrefetchParams, prefetch.Prefetcher]

// region is the region engine's configuration.
func (p PrefetchParams) region() prefetch.Config {
	return prefetch.Config{RegionBytes: p.RegionBytes, BlockBytes: p.BlockBytes, QueueDepth: p.QueueDepth,
		Policy: p.Policy, BankAware: p.BankAware, ThrottleAccuracy: p.ThrottleAccuracy, ThrottleWindow: p.ThrottleWindow}
}

// lookahead is the sequential and stream schemes' entry around build.
func lookahead(build func(PrefetchParams) (prefetch.Prefetcher, error)) prefetchScheme {
	return prefetchScheme{
		Check: func(p PrefetchParams) error {
			var v harden.Validator
			v.Range("Prefetch.Lookahead", int64(p.Lookahead), 1, 1024)
			v.Range("Prefetch.TableSize", int64(p.TableSize), 0, MaxQueueDepth)
			return v.Err()
		},
		Fill: func(p PrefetchParams) PrefetchParams {
			if p.Lookahead <= 0 {
				p.Lookahead = 4
			}
			return p
		},
		Build: build,
	}
}

func init() {
	Prefetchers.Register("region", prefetchScheme{
		// BlockBytes (L2Block) and ThrottleAccuracy are the core
		// config's own fields, checked there.
		Check: func(p PrefetchParams) error {
			var v harden.Validator
			switch r := p.RegionBytes; {
			case r <= 0 || r > maxRegionBytes || r&(r-1) != 0:
				v.Reject("Prefetch.RegionBytes", r, "must be a power of two in [1, %d]", maxRegionBytes)
			case p.BlockBytes > r:
				v.Reject("Prefetch.RegionBytes", r, "must be >= L2Block (%d): a region holds whole blocks", p.BlockBytes)
			}
			v.Range("Prefetch.QueueDepth", int64(p.QueueDepth), 1, MaxQueueDepth)
			return v.Err()
		},
		Fill: func(p PrefetchParams) PrefetchParams {
			if p.RegionBytes <= 0 {
				p.RegionBytes = 4096
			}
			if p.QueueDepth <= 0 {
				p.QueueDepth = 8
			}
			return p
		},
		Build: func(p PrefetchParams) (prefetch.Prefetcher, error) { return built(prefetch.New(p.region())) },
	})
	Prefetchers.Register("sequential", lookahead(func(p PrefetchParams) (prefetch.Prefetcher, error) {
		return built(prefetch.NewSequential(p.BlockBytes, p.Lookahead, 8*p.Lookahead))
	}))
	Prefetchers.Register("stream", lookahead(func(p PrefetchParams) (prefetch.Prefetcher, error) {
		table := p.TableSize
		if table <= 0 {
			table = 8
		}
		return built(prefetch.NewStream(p.BlockBytes, table, p.Lookahead))
	}))
}

// built returns a scheme's engine, or an explicit nil on failure: a
// typed-nil engine inside the interface would pass != nil checks at
// the call sites.
func built[E prefetch.Prefetcher](e E, err error) (prefetch.Prefetcher, error) {
	if err != nil {
		return nil, err
	}
	return e, nil
}

// NewPrefetcher builds the named prefetch scheme.
func NewPrefetcher(name string, p PrefetchParams) (prefetch.Prefetcher, error) {
	return Prefetchers.build(name, p)
}
