// Package a exercises errdrop's inherited must-check set: wrappers
// around the root watched set (here Validate, watched by name) inherit
// must-check status through any number of hops, through fmt.Errorf %w
// wrapping, and through named-result naked returns; handling the error
// locally breaks the chain.
package a

import "fmt"

// Validate is a root (errdrop matches the name); a dropped call to it
// is reported once, with the root's own message.
func Validate(x int) error {
	if x < 0 {
		return fmt.Errorf("negative: %d", x)
	}
	return nil
}

// check inherits must-check: it returns Validate's error wrapped.
func check(x int) error {
	if err := Validate(x); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	return nil
}

// checkAll inherits through two hops.
func checkAll(xs []int) error {
	for _, x := range xs {
		if err := check(x); err != nil {
			return err
		}
	}
	return nil
}

// checkNamed propagates through a named result and a naked return.
func checkNamed(x int) (err error) {
	err = Validate(x)
	return
}

// guard mirrors the checkpoint-save wrapper the interprocedural rule
// first caught in cmd/sweep: a nil fast path plus a direct pass-through of
// the watched call. The nil branch must not launder the other one.
func guard(p *int) error {
	if p == nil {
		return nil
	}
	return Validate(*p)
}

// logged handles the error itself; its own error is fresh, so it does
// not inherit.
func logged(x int) error {
	if err := Validate(x); err != nil {
		println(err.Error())
	}
	return fmt.Errorf("always fresh")
}

// killed reassigns before returning, killing the taint.
func killed(x int) error {
	err := Validate(x)
	err = fmt.Errorf("unrelated")
	return err
}

func use(xs []int) {
	check(3)       // want `error returned by check is discarded: it propagates the must-check error of a\.Validate`
	checkAll(xs)   // want `error returned by checkAll is discarded`
	checkNamed(4)  // want `error returned by checkNamed is discarded`
	go check(5)    // want `error returned by check is discarded`
	guard(nil)     // want `error returned by guard is discarded`
	defer check(6) // want `error returned by check is discarded`
	logged(7)
	killed(8)
	Validate(11) // want `error returned by a\.Validate is discarded: it feeds the paranoid invariant audit`
	_ = check(9) // deliberate, visible discard
	if err := check(10); err != nil {
		println(err.Error())
	}
}
