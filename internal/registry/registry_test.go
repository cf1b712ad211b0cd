package registry

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The test family builds widgets from an int, checked by sign. Its
// instances are interface values, like every component family's.
type widget interface{ size() int }

type box int

func (b box) size() int { return int(b) }

func buildWidget(size int) (widget, error) {
	if size < 0 {
		return nil, errors.New("negative size")
	}
	return box(size), nil
}

func checkWidget(size int) error {
	if size < 0 {
		return fmt.Errorf("test: widget size %d is negative", size)
	}
	return nil
}

func TestTableRegister(t *testing.T) {
	tab := New[int, widget]("test", "widget", "plain")
	for _, name := range []string{"", "plain"} {
		if err := tab.Register(name, buildWidget, nil); err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Errorf("Register(%q) = %v, want reserved", name, err)
		}
	}
	if err := tab.Register("nil", nil, checkWidget); err == nil || !strings.Contains(err.Error(), "nil factory") {
		t.Errorf("nil build accepted: %v", err)
	}
	for _, name := range []string{"b", "a"} {
		if err := tab.Register(name, buildWidget, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Register("a", buildWidget, nil); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate accepted: %v", err)
	}
	if got, want := tab.Names(), []string{"a", "b", "plain"}; !slices.Equal(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
}

func TestTableBuildAndValidate(t *testing.T) {
	tab := New[int, widget]("test", "widget")
	built := 0
	counted := func(size int) (widget, error) {
		built++
		return buildWidget(size)
	}
	for _, err := range []error{
		tab.Register("checked", counted, checkWidget),
		tab.Register("unchecked", counted, nil),
		tab.Register("nil", func(int) (widget, error) { return nil, nil }, nil),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name    string
		size    int
		wantErr string // "" = success
		builds  int    // by Validate
	}{
		{"checked", 4, "", 0},
		{"checked", -1, "test: widget size -1 is negative", 0},
		{"unchecked", 4, "", 1},
		{"unchecked", -1, `test: widget "unchecked": negative size`, 1},
		{"nil", 4, `test: widget "nil" returned nil`, 0},
		{"absent", 4, `test: unknown widget "absent"`, 0},
	} {
		built = 0
		verr := tab.Validate(c.name, c.size)
		if built != c.builds {
			t.Errorf("Validate(%s, %d) built %d, want %d", c.name, c.size, built, c.builds)
		}
		w, err := tab.Build(c.name, c.size)
		if fmt.Sprint(verr) != fmt.Sprint(err) {
			t.Errorf("%s, %d: Validate = %v, Build = %v", c.name, c.size, verr, err)
		}
		switch {
		case c.wantErr == "" && (err != nil || w == nil || w.size() != c.size):
			t.Errorf("Build(%s, %d) = %v, %v", c.name, c.size, w, err)
		case c.wantErr != "" && (err == nil || err.Error() != c.wantErr || w != nil):
			t.Errorf("Build(%s, %d) = %v, %v; want error %q", c.name, c.size, w, err, c.wantErr)
		}
	}
}

// TestTableConcurrent: one goroutine registers while others resolve and
// list; run it under -race.
func TestTableConcurrent(t *testing.T) {
	tab := New[int, widget]("test", "widget")
	if err := tab.Register("base", buildWidget, checkWidget); err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range n {
			if err := tab.Register(fmt.Sprintf("w%03d", i), buildWidget, nil); err != nil {
				t.Error(err)
			}
		}
	}()
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range n {
				if _, err := tab.Build("base", i); err != nil {
					t.Error(err)
				}
				if err := tab.Validate(fmt.Sprintf("w%03d", i), i); err != nil && !strings.Contains(err.Error(), "unknown") {
					t.Error(err)
				}
				if names := tab.Names(); !slices.IsSorted(names) || !slices.Contains(names, "base") {
					t.Errorf("Names() = %v", names)
				}
			}
		}()
	}
	wg.Wait()
	if got := len(tab.Names()); got != n+1 {
		t.Errorf("%d names after the race, want %d", got, n+1)
	}
}
