// Package recdir is the on-disk form of memsimd's job store and of the
// checkpoint manifests: a directory of JSON records, <name>.json, each
// written atomically, so a change costs the same however many records
// the directory holds. A record that does not parse is quarantined on
// its own; one of another schema version is a hard error.
package recdir

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"

	"memsim/internal/vfs"
)

// Layout is a record directory's schema: each record file holds
// {"version": Version, Field: record}, and the single file older builds
// kept instead held {"version": Version, LegacyField: {name: record}}.
type Layout struct {
	Version            int
	Field, LegacyField string
}

// Dir is one open record directory. Its owner serializes calls.
type Dir struct {
	fs          vfs.FS
	path        string
	layout      Layout
	quarantined []string
	dirty       map[string]any // records whose last Put failed; Flush retries them
	saveErr     error          // first Put failure, reported by Flush
}

// Open opens the record directory at path on fsys, creating it when
// missing, and passes each record to decode in name order; a decode
// error marks the record unparseable. It returns the names of all files
// in the directory, temp and quarantined ones included.
//
// A legacy single file at legacy is imported first: it moves to
// legacy+".import" (so legacy may be path itself), its records are
// written, and the moved file is removed. Until then the moved file is
// the source of truth, and the next Open redoes an interrupted import.
func Open(fsys vfs.FS, path, legacy string, l Layout, decode func(name string, rec []byte) error) (*Dir, []string, error) {
	d := &Dir{fs: fsys, path: path, layout: l, dirty: make(map[string]any)}
	recs, src, err := d.readLegacy(legacy)
	if err != nil {
		return nil, nil, err
	}
	if err := fsys.MkdirAll(path, 0o755); err != nil {
		return nil, nil, err
	}
	if src != "" {
		names := make([]string, 0, len(recs))
		for name := range recs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := d.Write(name, recs[name]); err != nil {
				return nil, nil, err
			}
		}
		if err := fsys.Remove(src); err != nil {
			return nil, nil, err
		}
	}
	names, err := fsys.ReadDir(path)
	if err != nil {
		return nil, nil, err
	}
	for _, name := range names {
		if filepath.Ext(name) == ".json" {
			key := strings.TrimSuffix(name, ".json")
			if err := d.load(filepath.Join(path, name), l.Field, func(rec []byte) error { return decode(key, rec) }); err != nil {
				return nil, nil, err
			}
		}
	}
	return d, names, nil
}

// readLegacy parses the legacy file and moves it aside, returning its
// records and where it now lies, or src == "" with nothing to import.
func (d *Dir) readLegacy(legacy string) (recs map[string]json.RawMessage, src string, err error) {
	src = legacy + ".import" // an import an earlier Open left unfinished
	if _, err := d.fs.Stat(src); errors.Is(err, fs.ErrNotExist) {
		src = legacy
		if fi, err := d.fs.Stat(legacy); errors.Is(err, fs.ErrNotExist) || err == nil && fi.IsDir() {
			return nil, "", nil
		}
	}
	n := len(d.quarantined)
	err = d.load(src, d.layout.LegacyField, func(body []byte) error { return json.Unmarshal(body, &recs) })
	if err != nil || len(d.quarantined) > n {
		return nil, "", err
	}
	if src == legacy {
		src = legacy + ".import"
		err = d.fs.Rename(legacy, src)
	}
	return recs, src, err
}

// load reads a file holding {"version": Version, field: body} and hands
// body to decode. A file that does not parse, or whose body decode
// rejects, is quarantined; a version mismatch is an error.
func (d *Dir) load(file, field string, decode func(body []byte) error) error {
	data, err := d.fs.ReadFile(file)
	if err != nil {
		return err
	}
	var env map[string]json.RawMessage
	var v int
	if err = json.Unmarshal(data, &env); err == nil {
		err = json.Unmarshal(env["version"], &v)
	}
	if err == nil && v != d.layout.Version {
		return fmt.Errorf("%s: version %d, want %d", file, v, d.layout.Version)
	}
	if err == nil {
		err = decode(env[field])
	}
	if err == nil {
		return nil
	}
	q, qerr := vfs.Quarantine(d.fs, file)
	if qerr != nil {
		return fmt.Errorf("%s: unparseable (%v) and quarantine failed: %w", file, err, qerr)
	}
	d.quarantined = append(d.quarantined, q)
	return nil
}

// Quarantined reports where Open moved unparseable files,
// comma-separated, or "" when the load was clean.
func (d *Dir) Quarantined() string { return strings.Join(d.quarantined, ", ") }

// Write persists rec as the record called name, atomically, so a kill
// mid-write never leaves a truncated record.
func (d *Dir) Write(name string, rec any) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	data := fmt.Appendf(nil, `{"version":%d,%q:%s}`, d.layout.Version, d.layout.Field, body)
	return vfs.WriteFileAtomic(d.fs, filepath.Join(d.path, name+".json"), data, 0o644)
}

// Put writes rec like Write, but a record whose write fails is kept for
// Flush to retry, and the first failure for Flush to report, so a
// writer on a full disk carries on and reports the problem once.
func (d *Dir) Put(name string, rec any) error {
	err := d.Write(name, rec)
	if err == nil {
		delete(d.dirty, name)
		return nil
	}
	d.dirty[name] = rec
	if d.saveErr == nil {
		d.saveErr = err
	}
	return err
}

// Flush rewrites every record whose last Put failed and reports the
// first failure of any Put since the previous Flush as well, so a
// long-lived writer that flushes often reports each failure once.
func (d *Dir) Flush() error {
	names := make([]string, 0, len(d.dirty))
	for name := range d.dirty {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := d.Write(name, d.dirty[name]); err != nil {
			return err
		}
		delete(d.dirty, name)
	}
	err := d.saveErr
	d.saveErr = nil
	return err
}
