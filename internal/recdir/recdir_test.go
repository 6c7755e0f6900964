package recdir

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"memsim/internal/vfs"
)

var testLayout = Layout{Version: 2, Field: "rec", LegacyField: "recs"}

// rec is the record type the tests store.
type rec struct {
	N int `json:"n"`
}

// loaded opens path on fsys (legacy file at legacy) and returns the Dir
// with every record it decoded, in decode order.
func loaded(t *testing.T, fsys vfs.FS, path, legacy string) (*Dir, []string, map[string]int) {
	t.Helper()
	var order []string
	got := map[string]int{}
	d, _, err := Open(fsys, path, legacy, testLayout, func(name string, body []byte) error {
		var r rec
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		order = append(order, name)
		got[name] = r.N
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, order, got
}

func mustWrite(t *testing.T, fsys vfs.FS, name, data string) {
	t.Helper()
	if err := fsys.WriteFile(name, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenLoadsRecords checks a round trip: records written through the
// Dir come back from a fresh Open, decoded in name order, and Open
// lists every file in the directory, temp files included.
func TestOpenLoadsRecords(t *testing.T) {
	mem := vfs.NewMem()
	d, order, _ := loaded(t, mem, "d", "d.json")
	if len(order) != 0 {
		t.Fatalf("empty directory decoded %v", order)
	}
	for name, n := range map[string]int{"b": 2, "a": 1, "c": 3} {
		if err := d.Write(name, rec{n}); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite(t, mem, "d/c.json.tmp", "partial")

	_, names, err := Open(mem, "d", "d.json", testLayout, func(string, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.json", "b.json", "c.json", "c.json.tmp"}; !reflect.DeepEqual(names, want) {
		t.Errorf("Open listed %v, want %v", names, want)
	}
	d, order, got := loaded(t, mem, "d", "d.json")
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(order, want) {
		t.Errorf("decode order %v, want %v", order, want)
	}
	if want := map[string]int{"a": 1, "b": 2, "c": 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %v, want %v", got, want)
	}
	if q := d.Quarantined(); q != "" {
		t.Errorf("clean load quarantined %q", q)
	}
	data, err := mem.ReadFile("d/a.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"version":2,"rec":{"n":1}}`; string(data) != want {
		t.Errorf("record file holds %s, want %s", data, want)
	}
}

// TestOpenRejectsOtherVersion checks that a record of another schema
// version is a hard error, not a quarantine: its data is whole, and a
// newer build's records must not be moved aside by an older one.
func TestOpenRejectsOtherVersion(t *testing.T) {
	mem := vfs.NewMem()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, mem, "d/a.json", `{"version":3,"rec":{"n":1}}`)
	_, _, err := Open(mem, "d", "d.json", testLayout, func(string, []byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "version 3, want 2") {
		t.Fatalf("got %v, want a version error", err)
	}
	if _, err := mem.Stat("d/a.json"); err != nil {
		t.Errorf("the record of another version moved: %v", err)
	}
}

// TestOpenQuarantinesPerRecord checks that a record that does not
// parse, and one the decoder rejects, are each moved aside on their own
// while the rest load, and that Quarantined names both moves.
func TestOpenQuarantinesPerRecord(t *testing.T) {
	mem := vfs.NewMem()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, mem, "d/a.json", `{"version":2,"rec":{"n":1}}`)
	mustWrite(t, mem, "d/b.json", `{"version":2,"rec":{"n":`)
	mustWrite(t, mem, "d/c.json", `{"version":2,"rec":{"n":"three"}}`)
	mustWrite(t, mem, "d/e.json", `{"version":2,"rec":{"n":5}}`)

	d, order, got := loaded(t, mem, "d", "d.json")
	if want := map[string]int{"a": 1, "e": 5}; !reflect.DeepEqual(got, want) || len(order) != 2 {
		t.Errorf("decoded %v, want %v", got, want)
	}
	if want := "d/b.json.corrupt, d/c.json.corrupt"; d.Quarantined() != want {
		t.Errorf("Quarantined() = %q, want %q", d.Quarantined(), want)
	}
	for _, f := range []string{"d/b.json", "d/c.json"} {
		if _, err := mem.Stat(f); err == nil {
			t.Errorf("%s still in place after quarantine", f)
		}
		if _, err := mem.Stat(f + ".corrupt"); err != nil {
			t.Errorf("%s not quarantined: %v", f, err)
		}
	}
}

// TestFlushRetriesFailedPut checks the full-disk path: a Put whose
// write fails returns the error and keeps the record, a later Put of
// another record still succeeds, and Flush rewrites the kept record and
// reports the first failure, once.
func TestFlushRetriesFailedPut(t *testing.T) {
	mem := vfs.NewMem()
	f := vfs.NewFault(mem)
	d, _, _ := loaded(t, f, "d", "d.json")

	f.Arm(0, vfs.FaultENOSPC) // the first record's temp-file write
	first := d.Put("a", rec{1})
	if first == nil {
		t.Fatal("Put on a full disk succeeded")
	}
	if err := d.Put("b", rec{2}); err != nil {
		t.Fatalf("Put after the disk filled once: %v", err)
	}
	if _, err := mem.Stat("d/a.json"); err == nil {
		t.Fatal("the failed Put published its record")
	}
	if err := d.Flush(); !errors.Is(err, first) {
		t.Fatalf("Flush reported %v, want the first failure %v", err, first)
	}
	_, _, got := loaded(t, mem, "d", "d.json")
	if want := map[string]int{"a": 1, "b": 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("after Flush the directory holds %v, want %v", got, want)
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("a second Flush reported %v again", err)
	}

	// A record rewritten successfully is no longer retried.
	d2, _, _ := loaded(t, f, "e", "e.json")
	f.Arm(0, vfs.FaultEIO)
	if err := d2.Put("x", rec{1}); err == nil {
		t.Fatal("Put under EIO succeeded")
	}
	if err := d2.Put("x", rec{7}); err != nil {
		t.Fatal(err)
	}
	before := f.Ops()
	if err := d2.Flush(); err == nil {
		t.Fatal("Flush forgot the earlier failure")
	}
	if f.Ops() != before {
		t.Errorf("Flush rewrote a record whose last Put succeeded (%d boundaries)", f.Ops()-before)
	}
}

// legacyFile is a single-file store of older builds holding three
// records.
const legacyFile = `{"version":2,"recs":{"a":{"n":1},"b":{"n":2},"c":{"n":3}}}`

// TestLegacyImport checks the import of an older build's single file,
// here at the directory's own path as manifests keep it: every record
// lands in the directory and the file is gone.
func TestLegacyImport(t *testing.T) {
	mem := vfs.NewMem()
	mustWrite(t, mem, "m.json", legacyFile)
	_, _, got := loaded(t, mem, "m.json", "m.json")
	if want := map[string]int{"a": 1, "b": 2, "c": 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("imported %v, want %v", got, want)
	}
	if want := []string{"m.json/a.json", "m.json/b.json", "m.json/c.json"}; !reflect.DeepEqual(mem.Files(), want) {
		t.Errorf("files after import %v, want %v", mem.Files(), want)
	}
}

// TestLegacyImportCrashSafe kills the import at every persistence
// boundary in turn and checks that the next Open completes it: every
// record of the legacy file present, none lost or doubled, and no
// import file left behind.
func TestLegacyImportCrashSafe(t *testing.T) {
	probe := vfs.NewFault(vfs.NewMem())
	mustWrite(t, probe, "m.json", legacyFile)
	start := probe.Ops()
	loaded(t, probe, "m.json", "m.json")
	boundaries := probe.Ops() - start
	if boundaries < 5 {
		t.Fatalf("import crossed only %d boundaries", boundaries)
	}
	for op := 0; op < boundaries; op++ {
		for _, kind := range []vfs.FaultKind{vfs.FaultKill, vfs.FaultTorn} {
			mem := vfs.NewMem()
			mustWrite(t, mem, "m.json", legacyFile)
			f := vfs.NewFault(mem)
			f.Arm(op, kind)
			if _, _, err := Open(f, "m.json", "m.json", testLayout, func(string, []byte) error { return nil }); err == nil {
				t.Fatalf("%s@%d: the import survived its crash", kind, op)
			}
			d, _, got := loaded(t, mem, "m.json", "m.json")
			if want := map[string]int{"a": 1, "b": 2, "c": 3}; !reflect.DeepEqual(got, want) {
				t.Errorf("%s@%d: recovered %v, want %v", kind, op, got, want)
			}
			if q := d.Quarantined(); q != "" {
				t.Errorf("%s@%d: recovery quarantined %s", kind, op, q)
			}
			for _, file := range mem.Files() {
				if strings.HasSuffix(file, ".import") {
					t.Errorf("%s@%d: %s left behind", kind, op, file)
				}
			}
		}
	}
}
