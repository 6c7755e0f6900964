// Package policy is the runtime registry tying scheme names to
// factories for the four pluggable decision points: memory scheduling,
// address mapping, prefetching, and bank timing. Config.Validate
// resolves names through these tables, so an unknown scheme fails as a
// typed *harden.ConfigError (a 422 through memsimd) instead of a
// construction-time surprise, and the zoo's membership is defined in
// exactly one place.
//
// The tables are populated by init functions in this package and are
// read-only afterwards; Names always returns a sorted copy, so every
// consumer (validation errors, test matrices, counterfactual
// alternative sets) enumerates the zoo in one deterministic order.
package policy

import (
	"fmt"
	"sort"
	"strings"
)

// Registry maps scheme names to factories of one kind. The zero value
// is not usable; construct with NewRegistry.
type Registry[T any] struct {
	kind      string
	factories map[string]T
}

// NewRegistry returns an empty registry; kind names the decision point
// in panic and error messages ("scheduling", "address-mapping", ...).
func NewRegistry[T any](kind string) *Registry[T] {
	return &Registry[T]{kind: kind, factories: make(map[string]T)}
}

// Register adds one named factory. It panics on an empty name or a
// duplicate — both are programmer errors in an init function, and the
// panic message is deterministic so the misuse tests can pin it.
func (r *Registry[T]) Register(name string, factory T) {
	if name == "" {
		panic(fmt.Sprintf("policy: empty %s scheme name", r.kind))
	}
	if _, dup := r.factories[name]; dup {
		panic(fmt.Sprintf("policy: duplicate %s scheme %q", r.kind, name))
	}
	r.factories[name] = factory
}

// Lookup resolves a name; unknown names report the full registered set
// so config errors double as documentation.
func (r *Registry[T]) Lookup(name string) (T, error) {
	f, ok := r.factories[name]
	if !ok {
		var zero T
		return zero, fmt.Errorf("policy: unknown %s scheme %q (registered: %s)",
			r.kind, name, strings.Join(r.Names(), ", "))
	}
	return f, nil
}

// Known reports whether name is registered.
func (r *Registry[T]) Known(name string) bool {
	_, ok := r.factories[name]
	return ok
}

// Names returns the registered scheme names in sorted order.
func (r *Registry[T]) Names() []string {
	names := make([]string, 0, len(r.factories))
	for name := range r.factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
