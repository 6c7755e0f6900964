package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"flag"
	"io"
	"os"
	"path/filepath"
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
		code, err := sweep(context.Background(), fs, append(args, "-instrs", "1000", "-warmup", "0"), w, io.Discard)
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
		"-instrs", "1000", "-warmup", "0"}, w, io.Discard)
	w.Flush()
	if code != exitDegraded || err != nil {
		t.Fatalf("code %d err %v, want %d and no error", code, err, exitDegraded)
	}
	if !strings.Contains(out.String(), "\n3,,,,,,,FAILED: ") {
		t.Fatalf("output %q has no FAILED row for channels=3", out.String())
	}
}

// TestResumeCorruptCheckpoint pins that -resume over a garbage
// -checkpoint file still completes the sweep, moves the file aside as
// <path>.corrupt, and says so on the diagnostics stream.
func TestResumeCorruptCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, diag bytes.Buffer
	w := csv.NewWriter(&out)
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	code, err := sweep(context.Background(), fs, []string{"-param", "channels", "-values", "2",
		"-instrs", "1000", "-warmup", "0", "-checkpoint", path, "-resume"}, w, &diag)
	w.Flush()
	if code != exitOK || err != nil {
		t.Fatalf("code %d err %v, want %d and no error", code, err, exitOK)
	}
	if !strings.Contains(out.String(), "\n2,") {
		t.Errorf("output %q has no row for channels=2", out.String())
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt checkpoint not quarantined: %v", err)
	}
	if !strings.Contains(diag.String(), path+".corrupt") {
		t.Errorf("diagnostics %q do not name the quarantined file", diag.String())
	}
}

// TestCheckpointNeedsResume pins the checkpoint directory's contract:
// a sweep writes one record per point, a second sweep on the same
// directory without -resume is refused before any output, and with
// -resume it reuses the record.
func TestCheckpointNeedsResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweep")
	run := func(extra ...string) (string, int, error) {
		var out bytes.Buffer
		w := csv.NewWriter(&out)
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		code, err := sweep(context.Background(), fs, append([]string{"-param", "channels", "-values", "2",
			"-instrs", "1000", "-warmup", "0", "-checkpoint", dir}, extra...), w, io.Discard)
		w.Flush()
		return out.String(), code, err
	}
	first, code, err := run()
	if code != exitOK || err != nil {
		t.Fatalf("first sweep: code %d err %v", code, err)
	}
	if names, err := os.ReadDir(dir); err != nil || len(names) != 1 {
		t.Fatalf("checkpoint holds %d files (%v), want one record", len(names), err)
	}
	if out, code, err := run(); code != exitFailed || err == nil || !strings.Contains(err.Error(), "-resume") || out != "" {
		t.Fatalf("second sweep without -resume: code %d err %v output %q, want a refusal naming -resume", code, err, out)
	}
	if out, code, err := run("-resume"); code != exitOK || err != nil || out != first {
		t.Fatalf("resumed sweep: code %d err %v output %q, want %q", code, err, out, first)
	}
}
