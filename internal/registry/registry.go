// Package registry is the name table behind the component SPI. Each
// component family — branch predictors, cache replacement policies and
// prefetchers — keeps one Table, and every component in it, built-in or
// third-party, is registered, named, validated and built the same way.
package registry

import (
	"fmt"
	"slices"
	"sync"
)

// Table maps the names of one family's components to their constructors,
// which build an instance of the interface type T from the family's
// arguments A. It is safe for concurrent use.
type Table[A, T any] struct {
	pkg, noun string   // errors read `<pkg>: unknown <noun> "x"`
	reserved  []string // names the family resolves itself
	mu        sync.RWMutex
	byName    map[string]component[A, T]
}

type component[A, T any] struct {
	build func(A) (T, error)
	check func(A) error
}

// New returns an empty table. Names lists the reserved names, and
// Register refuses them like the empty name.
func New[A, T any](pkg, noun string, reserved ...string) *Table[A, T] {
	return &Table[A, T]{pkg: pkg, noun: noun, reserved: reserved, byName: map[string]component[A, T]{}}
}

// Register adds a component. check, if not nil, runs every check build
// makes without building anything, so Validate allocates nothing for the
// component. Register rejects the empty name, a reserved or taken name and
// a nil build.
func (t *Table[A, T]) Register(name string, build func(A) (T, error), check func(A) error) error {
	if name == "" || slices.Contains(t.reserved, name) {
		return fmt.Errorf("%s: %s name %q is reserved", t.pkg, t.noun, name)
	}
	if build == nil {
		return fmt.Errorf("%s: %s %q registered with nil factory", t.pkg, t.noun, name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.byName[name]; dup {
		return fmt.Errorf("%s: %s %q already registered", t.pkg, t.noun, name)
	}
	t.byName[name] = component[A, T]{build, check}
	return nil
}

// Names lists the reserved and the registered names in sorted order.
func (t *Table[A, T]) Names() []string {
	t.mu.RLock()
	names := slices.Clone(t.reserved)
	for name := range t.byName {
		names = append(names, name)
	}
	t.mu.RUnlock()
	slices.Sort(names)
	return names
}

// Build makes an instance of the named component, running its check
// first. A check's error is returned as it is, so it names the component
// itself; a build's error and a nil instance are reported with the name.
func (t *Table[A, T]) Build(name string, args A) (T, error) {
	var zero T
	c, err := t.lookup(name)
	if err == nil && c.check != nil {
		err = c.check(args)
	}
	if err != nil {
		return zero, err
	}
	v, err := c.build(args)
	if err != nil {
		return zero, fmt.Errorf("%s: %s %q: %w", t.pkg, t.noun, name, err)
	}
	if any(v) == nil {
		return zero, fmt.Errorf("%s: %s %q returned nil", t.pkg, t.noun, name)
	}
	return v, nil
}

// Validate reports the error Build would return. Only a component without
// a check is built.
func (t *Table[A, T]) Validate(name string, args A) error {
	c, err := t.lookup(name)
	switch {
	case err != nil:
		return err
	case c.check != nil:
		return c.check(args)
	}
	_, err = t.Build(name, args)
	return err
}

func (t *Table[A, T]) lookup(name string) (component[A, T], error) {
	t.mu.RLock()
	c, ok := t.byName[name]
	t.mu.RUnlock()
	if !ok {
		return c, fmt.Errorf("%s: unknown %s %q", t.pkg, t.noun, name)
	}
	return c, nil
}
