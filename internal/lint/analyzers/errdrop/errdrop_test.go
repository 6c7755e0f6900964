package errdrop_test

import (
	"testing"

	"memsim/internal/lint/analysistest"
	"memsim/internal/lint/analyzers/errdrop"
)

// TestFixtures covers discarded errors from Validate/CheckSane/
// CheckIntegrity, the stats constructors, trace.NewRepeat, checkpoint
// Manifest writes, and only-error Flush — including defer/go
// statements — plus the allowed forms (explicit `_ =`, handled errors,
// non-error lookalikes, and //lint:ignore suppression).
func TestFixtures(t *testing.T) {
	analysistest.Run(t, "testdata", errdrop.Analyzer, "a")
}

// TestHandlerFixtures covers the HTTP handler surface: discarded
// errors from http.ResponseWriter.Write and json's Encoder.Encode.
func TestHandlerFixtures(t *testing.T) {
	analysistest.Run(t, "testdata", errdrop.Analyzer, "srv")
}

// TestVFSFixtures covers the filesystem seam: discarded errors from
// vfs.FS mutators, vfs.File Sync/Close, and the WriteFileAtomic and
// Quarantine helpers — plus the unwatched lookalikes (plain Closers,
// same-shaped local interfaces, reads).
func TestVFSFixtures(t *testing.T) {
	analysistest.Run(t, "testdata", errdrop.Analyzer, "dur")
}

// TestWrapperFixtures covers the inherited must-check set: the
// inheritance chain (direct wrap, two hops, %w wrapping, named-result
// naked return, cross-package wrappers), the non-inheriting shapes
// (handled locally, taint killed by reassignment, deliberate _
// discard), and a dropped root reported exactly once.
func TestWrapperFixtures(t *testing.T) {
	analysistest.Run(t, "testdata", errdrop.Analyzer, "wrap/a", "wrap/b")
}
