package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"flag"
	"io"
	"strings"
	"testing"
)

// TestBadSweepWritesNothing pins that an unknown -param, an
// unparsable -values entry or, without -keep-going, a value the config
// rejects fails before any CSV reaches the output.
func TestBadSweepWritesNothing(t *testing.T) {
	for _, args := range [][]string{
		{"-param", "closed"},
		{"-param", "engine", "-values", "1"},
		{"-param", "block", "-values", "64,x"},
		{"-param", "channels", "-values", "2,,8"},
		{"-param", "channels", "-values", "2,3"},
		{"-param", "block", "-values", "96"},
	} {
		var out bytes.Buffer
		w := csv.NewWriter(&out)
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		code, err := sweep(context.Background(), fs, append(args, "-instrs", "1000", "-warmup", "0"), w)
		w.Flush()
		if code != exitFailed || err == nil {
			t.Errorf("%v: code %d err %v, want %d and an error", args, code, err, exitFailed)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %q before failing", args, out.String())
		}
	}
}

// TestKeepGoingInvalidPoint pins that under -keep-going a value the
// config rejects still gets its FAILED row.
func TestKeepGoingInvalidPoint(t *testing.T) {
	var out bytes.Buffer
	w := csv.NewWriter(&out)
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	code, err := sweep(context.Background(), fs, []string{"-param", "channels", "-values", "3", "-keep-going",
		"-instrs", "1000", "-warmup", "0"}, w)
	w.Flush()
	if code != exitDegraded || err != nil {
		t.Fatalf("code %d err %v, want %d and no error", code, err, exitDegraded)
	}
	if !strings.Contains(out.String(), "\n3,,,,,,,FAILED: ") {
		t.Fatalf("output %q has no FAILED row for channels=3", out.String())
	}
}
