package core

import (
	"cmp"
	"math/bits"
	"slices"
)

// fillIndex finds the L2 fill in flight for a block: every demand miss,
// software prefetch and hardware prefetch between issue and completion,
// so one probe answers "is this block being fetched?". It is a
// power-of-two table of chains threaded through missReq.next, indexed
// by block number, so the consecutive blocks of a region prefetch land
// in consecutive buckets. The table doubles when fills outnumber its
// buckets two to one, which only unscheduled prefetching reaches, and
// never shrinks, so a warmed run allocates nothing.
//
// A block has at most one fill: callers probe with find before add.
type fillIndex struct {
	buckets []*missReq
	shift   uint // log2 of the block size
	n       int  // fills indexed
}

// newFillIndex returns an index over blocks of blockBytes (a power of
// two) with buckets for at least mshrs fills.
func newFillIndex(blockBytes, mshrs int) fillIndex {
	return fillIndex{
		buckets: make([]*missReq, 1<<bits.Len(uint(mshrs))),
		shift:   uint(bits.TrailingZeros(uint(blockBytes))),
	}
}

// chain returns the head of block's bucket.
func (x *fillIndex) chain(block uint64) **missReq {
	return &x.buckets[(block>>x.shift)&uint64(len(x.buckets)-1)]
}

// find returns block's fill, or nil.
func (x *fillIndex) find(block uint64) *missReq {
	for r := *x.chain(block); r != nil; r = r.next {
		if r.block == block {
			return r
		}
	}
	return nil
}

// add indexes r under r.block.
func (x *fillIndex) add(r *missReq) {
	if x.n >= 2*len(x.buckets) {
		old := x.buckets
		x.buckets = make([]*missReq, 2*len(old))
		for _, f := range old {
			for f != nil {
				next := f.next
				head := x.chain(f.block)
				f.next, *head = *head, f
				f = next
			}
		}
	}
	head := x.chain(r.block)
	r.next, *head = *head, r
	x.n++
}

// remove unlinks r, reporting false when r is not indexed.
func (x *fillIndex) remove(r *missReq) bool {
	for p := x.chain(r.block); *p != nil; p = &(*p).next {
		if *p == r {
			*p, r.next = r.next, nil
			x.n--
			return true
		}
	}
	return false
}

// sorted returns the indexed fills in block order, for the paranoid
// checks and the diagnostic dump.
func (x *fillIndex) sorted() []*missReq {
	out := make([]*missReq, 0, x.n)
	for _, r := range x.buckets {
		for ; r != nil; r = r.next {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(a, b *missReq) int { return cmp.Compare(a.block, b.block) })
	return out
}
