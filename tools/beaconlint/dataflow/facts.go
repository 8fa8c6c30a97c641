// Package dataflow is beaconlint's shared type-aware dataflow layer: a
// small facts engine over go/types plus the assignment/call-graph walks the
// unit-safety and seed-provenance analyzers are built on.
//
// Facts attach analyzer-computed knowledge to package-level objects —
// "this function's result is in seconds", "this function forwards its
// second parameter into an RNG seed" — and survive package boundaries:
// the driver analyzes packages in dependency order and carries one Store
// across the whole run. Objects are keyed structurally (import path +
// name), so a fact exported while a package is checked from source is
// found again when the same object is later imported from gc export data.
package dataflow

import (
	"encoding/json"
	"fmt"
	"go/types"
)

// KeyOf returns the cross-package key for obj: "pkgpath.Name" for
// package-level objects, "pkgpath.Recv.Name" for methods. The second
// result is false for objects that have no stable cross-package identity
// (locals, interface methods, universe names).
func KeyOf(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name(), true
		}
	}
	// Only package-scope objects are addressable across packages.
	if obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Pkg().Path() + "." + obj.Name(), true
}

// Store holds facts for every analyzer in a run, keyed by analyzer name
// and object key. The zero value is not usable; call NewStore.
type Store struct {
	facts map[string]map[string]json.RawMessage
}

// NewStore returns an empty fact store.
func NewStore() *Store {
	return &Store{facts: map[string]map[string]json.RawMessage{}}
}

// ExportFact records fact (any JSON-encodable value) for obj under the
// analyzer's namespace. Objects without a cross-package key are silently
// skipped — their facts could never be looked up again.
func (s *Store) ExportFact(analyzer string, obj types.Object, fact any) error {
	key, ok := KeyOf(obj)
	if !ok {
		return nil
	}
	data, err := json.Marshal(fact)
	if err != nil {
		return fmt.Errorf("dataflow: encoding %s fact for %s: %w", analyzer, key, err)
	}
	m := s.facts[analyzer]
	if m == nil {
		m = map[string]json.RawMessage{}
		s.facts[analyzer] = m
	}
	m[key] = data
	return nil
}

// ImportFact decodes the analyzer's fact for obj into fact (a pointer) and
// reports whether one was found.
func (s *Store) ImportFact(analyzer string, obj types.Object, fact any) bool {
	key, ok := KeyOf(obj)
	if !ok {
		return false
	}
	data, ok := s.facts[analyzer][key]
	if !ok {
		return false
	}
	return json.Unmarshal(data, fact) == nil
}

// Len reports the total number of stored facts, across analyzers.
func (s *Store) Len() int {
	n := 0
	for _, m := range s.facts {
		n += len(m)
	}
	return n
}
