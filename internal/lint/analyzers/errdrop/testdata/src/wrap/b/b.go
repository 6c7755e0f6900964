// Package b exercises the inherited must-check set's cross-package
// reach: a wrapper in one module package inherits must-check status
// from a watched function declared in another.
package b

import "wrap/a"

// guard wraps a.Validate from another package.
func guard(x int) error {
	return a.Validate(x)
}

func use() {
	guard(1) // want `error returned by guard is discarded: it propagates the must-check error of a\.Validate`
	if err := guard(2); err != nil {
		println(err.Error())
	}
}
