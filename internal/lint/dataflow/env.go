package dataflow

import (
	"go/types"
	"sort"
)

// Env maps variables (types.Objects) to small abstract values. It is
// the Fact shape shared by the taint-style analyzers (ctxflow,
// errdrop).
//
// The representation is a pair of parallel slices kept sorted by the
// object's declaration position (with the name as a tiebreak), not a
// map: joins and equality then iterate in a deterministic order
// without the collect-and-sort dance the simdeterminism analyzer
// would otherwise demand of this package's own code, and lookups stay
// O(log n) on environments that rarely exceed a handful of entries.
type Env struct {
	keys []types.Object
	vals []uint8
}

// envLess orders objects by declaration position, then name. Within
// one token.FileSet two distinct objects never share both.
func envLess(a, b types.Object) bool {
	if a.Pos() != b.Pos() {
		return a.Pos() < b.Pos()
	}
	return a.Name() < b.Name()
}

// find returns the index of o, or the insertion point with ok=false.
func (e *Env) find(o types.Object) (int, bool) {
	i := sort.Search(len(e.keys), func(i int) bool { return !envLess(e.keys[i], o) })
	return i, i < len(e.keys) && e.keys[i] == o
}

// Get reports o's abstract value and whether o is tracked.
func (e *Env) Get(o types.Object) (uint8, bool) {
	if e == nil {
		return 0, false
	}
	i, ok := e.find(o)
	if !ok {
		return 0, false
	}
	return e.vals[i], true
}

// Clone returns an independent copy; Set on the copy never disturbs
// the original, which is what Flow.Transfer's no-mutation contract
// requires.
func (e *Env) Clone() *Env {
	c := &Env{
		keys: make([]types.Object, len(e.keys)),
		vals: make([]uint8, len(e.vals)),
	}
	copy(c.keys, e.keys)
	copy(c.vals, e.vals)
	return c
}

// Set binds o to v in place (use on a Clone inside transfer
// functions).
func (e *Env) Set(o types.Object, v uint8) {
	i, ok := e.find(o)
	if ok {
		e.vals[i] = v
		return
	}
	e.keys = append(e.keys, nil)
	e.vals = append(e.vals, 0)
	copy(e.keys[i+1:], e.keys[i:])
	copy(e.vals[i+1:], e.vals[i:])
	e.keys[i] = o
	e.vals[i] = v
}

// Join merges two environments: keys present on both sides combine
// through join, keys present on one side keep their value (the other
// path never bound the variable, usually because it was declared in a
// branch and is out of scope at the merge — its value there is
// irrelevant).
func Join(a, b *Env, join func(x, y uint8) uint8) *Env {
	out := &Env{
		keys: make([]types.Object, 0, len(a.keys)+len(b.keys)),
		vals: make([]uint8, 0, len(a.vals)+len(b.vals)),
	}
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] == b.keys[j]:
			out.keys = append(out.keys, a.keys[i])
			out.vals = append(out.vals, join(a.vals[i], b.vals[j]))
			i++
			j++
		case envLess(a.keys[i], b.keys[j]):
			out.keys = append(out.keys, a.keys[i])
			out.vals = append(out.vals, a.vals[i])
			i++
		default:
			out.keys = append(out.keys, b.keys[j])
			out.vals = append(out.vals, b.vals[j])
			j++
		}
	}
	out.keys = append(out.keys, a.keys[i:]...)
	out.vals = append(out.vals, a.vals[i:]...)
	out.keys = append(out.keys, b.keys[j:]...)
	out.vals = append(out.vals, b.vals[j:]...)
	return out
}

// JoinDefault merges like Join, but a key present on only one side is
// combined with def instead of kept as-is. Must-style analyses (a
// property has to hold on every path) use it with def = the
// property-less value, so a variable that was simply never assigned on
// one path — still holding its original, untracked meaning there —
// dissolves the single-path fact at the merge.
func JoinDefault(a, b *Env, def uint8, join func(x, y uint8) uint8) *Env {
	out := &Env{
		keys: make([]types.Object, 0, len(a.keys)+len(b.keys)),
		vals: make([]uint8, 0, len(a.vals)+len(b.vals)),
	}
	i, j := 0, 0
	for i < len(a.keys) || j < len(b.keys) {
		switch {
		case j >= len(b.keys) || (i < len(a.keys) && envLess(a.keys[i], b.keys[j])):
			out.keys = append(out.keys, a.keys[i])
			out.vals = append(out.vals, join(a.vals[i], def))
			i++
		case i >= len(a.keys) || envLess(b.keys[j], a.keys[i]):
			out.keys = append(out.keys, b.keys[j])
			out.vals = append(out.vals, join(def, b.vals[j]))
			j++
		default:
			out.keys = append(out.keys, a.keys[i])
			out.vals = append(out.vals, join(a.vals[i], b.vals[j]))
			i++
			j++
		}
	}
	return out
}

// Equal reports whether two environments bind the same objects to the
// same values.
func (e *Env) Equal(o *Env) bool {
	if len(e.keys) != len(o.keys) {
		return false
	}
	for i := range e.keys {
		if e.keys[i] != o.keys[i] || e.vals[i] != o.vals[i] {
			return false
		}
	}
	return true
}
