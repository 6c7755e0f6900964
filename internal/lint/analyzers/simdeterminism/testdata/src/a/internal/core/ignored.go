package core

// suppressed proves the //lint:ignore escape hatch: both directive
// placements (own line above, trailing on the flagged line) silence
// the finding, so neither loop carries a want comment.
func (s *system) suppressed() float64 {
	sum := 0.0
	//lint:ignore simdeterminism fixture: order does not reach results
	for b := range s.inflight {
		sum += float64(b)
	}
	var order []uint64
	for b := range s.inflight { //lint:ignore simdeterminism fixture: consumed by an order-insensitive set
		order = append(order, b)
	}
	return sum + float64(len(order))
}

// wrongName shows a directive naming a different analyzer does not
// suppress this one.
func (s *system) wrongName() []uint64 {
	var order []uint64
	for b := range s.inflight { //lint:ignore errdrop wrong analyzer name // want `map keys are collected but never sorted`
		order = append(order, b)
	}
	return order
}
