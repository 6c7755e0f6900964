package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
)

// updateGolden regenerates the rendered-artifact fixture:
//
//	go test ./internal/experiments -run TestArtifactsGolden -update
//
// Regenerate only when a change intentionally alters a table; the diff
// of the fixture is the reviewable statement of exactly what moved.
var updateGolden = flag.Bool("update", false, "rewrite golden artifact fixtures")

const artifactsGoldenFile = "testdata/artifacts_golden.txt"

// TestArtifactsGolden renders every registry artifact through
// Experiment.Run on one runner at a micro budget over the whole suite
// and compares the text byte for byte with the fixture. The shape tests
// check orderings; this pins every printed cell, so a refactor of how
// the artifacts gather their runs must leave the tables unchanged.
func TestArtifactsGolden(t *testing.T) {
	r, err := NewRunner(Options{Instrs: 2000, Warmup: 2000})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, e := range All() {
		fmt.Fprintf(&got, "==== %s: %s\n\n", e.ID, e.Paper)
		if err := e.Run(r, &got); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got.WriteString("\n")
	}
	if *updateGolden {
		if err := os.WriteFile(artifactsGoldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(artifactsGoldenFile)
	if err != nil {
		t.Fatalf("%v (record the fixture with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("rendered artifacts differ from %s:\n%s", artifactsGoldenFile, firstDiff(want, got.Bytes()))
	}
}

// firstDiff reports the first line where two renderings part.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < max(len(wl), len(gl)); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w, g)
		}
	}
	return "(lengths differ)"
}
