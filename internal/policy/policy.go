// Package policy holds one registry per design axis: memory
// scheduling, address mapping, prefetching, bank timing and channel
// organization. A table is the only code that knows its axis: an entry
// checks its parameters under the Config field names, fills in its
// fallback knobs, and builds; the table resolves the empty name to the
// axis default, one fixed name. The tables are filled by init functions
// and read-only afterwards; Names returns a sorted copy, so every consumer
// (validation errors, test matrices, counterfactual alternative sets)
// enumerates the zoo in one deterministic order.
package policy

import (
	"fmt"
	"sort"
	"strings"

	"memsim/internal/harden"
)

// Scheme is one registry entry. Check, when set, reports the
// parameters the scheme cannot build from as a *harden.ConfigError;
// Fill, when set, sets the knobs the scheme needs but its config left
// zero to their fallback values; Build constructs the scheme.
type Scheme[P, T any] struct {
	Check func(P) error
	Fill  func(P) P
	Build func(P) (T, error)
}

// Registry maps scheme names to the entries of one axis. The zero
// value is not usable; construct with NewRegistry.
type Registry[P, T any] struct {
	kind    string
	field   string
	def     string
	schemes map[string]Scheme[P, T]
}

// NewRegistry returns an empty registry. kind names the axis in panic
// and error messages ("scheduling", "address-mapping", ...), field is
// the Config field naming the scheme, and def is the scheme the empty
// name selects (an empty def makes the name required).
func NewRegistry[P, T any](kind, field, def string) *Registry[P, T] {
	return &Registry[P, T]{kind: kind, field: field, def: def, schemes: make(map[string]Scheme[P, T])}
}

// Register adds one named scheme. It panics on an empty name or a
// duplicate — both are programmer errors in an init function, and the
// panic message is deterministic so the misuse tests can pin it.
func (r *Registry[P, T]) Register(name string, s Scheme[P, T]) {
	if name == "" {
		panic(fmt.Sprintf("policy: empty %s scheme name", r.kind))
	}
	if _, dup := r.schemes[name]; dup {
		panic(fmt.Sprintf("policy: duplicate %s scheme %q", r.kind, name))
	}
	r.schemes[name] = s
}

// Resolve returns the scheme name selects: name itself, or the axis
// default for the empty name.
func (r *Registry[P, T]) Resolve(name string) string {
	if name == "" {
		return r.def
	}
	return name
}

// Validate checks that name selects a registered scheme and that the
// scheme accepts p; nil means it builds.
func (r *Registry[P, T]) Validate(name string, p P) error {
	s, ok := r.schemes[r.Resolve(name)]
	if !ok {
		choices := "one of " + strings.Join(r.Names(), ", ")
		if r.def != "" {
			choices = "empty or " + choices
		}
		return reject(r.field, name, "must be %s", choices)
	}
	if s.Check == nil {
		return nil
	}
	return s.Check(p)
}

// Fill completes p with the fallback values of the scheme name
// selects, for building a scheme the config did not select.
func (r *Registry[P, T]) Fill(name string, p P) P {
	if s, ok := r.schemes[r.Resolve(name)]; ok && s.Fill != nil {
		return s.Fill(p)
	}
	return p
}

// build constructs the scheme name selects from p; an unknown name
// reports the full registered set, so errors double as documentation.
func (r *Registry[P, T]) build(name string, p P) (T, error) {
	name = r.Resolve(name)
	s, ok := r.schemes[name]
	if !ok {
		var zero T
		return zero, fmt.Errorf("policy: unknown %s scheme %q (registered: %s)",
			r.kind, name, strings.Join(r.Names(), ", "))
	}
	return s.Build(p)
}

// Alternatives builds every registered scheme but the one primary
// selects, in sorted name order, each from p filled with its own
// fallback values, and hands each to add; one that still cannot build
// is left out. These are a run's counterfactual alternatives.
func (r *Registry[P, T]) Alternatives(primary string, p P, add func(name string, alt T)) {
	primary = r.Resolve(primary)
	for _, name := range r.Names() {
		if name == primary {
			continue
		}
		if alt, err := r.build(name, r.Fill(name, p)); err == nil {
			add(name, alt)
		}
	}
}

// Names returns the registered scheme names in sorted order.
func (r *Registry[P, T]) Names() []string {
	names := make([]string, 0, len(r.schemes))
	for name := range r.schemes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// reject returns a one-field *harden.ConfigError.
func reject(field string, value any, format string, args ...any) error {
	var v harden.Validator
	v.Reject(field, value, format, args...)
	return v.Err()
}
