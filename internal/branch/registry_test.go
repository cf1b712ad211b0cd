package branch

import (
	"fmt"
	"strings"
	"testing"
)

// fixed is a registry test double: a parameterless predictor whose single
// counter table makes determinism and Reset trivially checkable.
type fixed struct {
	table [64]counter
}

func (f *fixed) Predict(pc uint64) bool { return f.table[(pc>>2)&63].taken() }
func (f *fixed) Update(pc uint64, taken bool) {
	i := (pc >> 2) & 63
	f.table[i] = f.table[i].update(taken)
}
func (f *fixed) Reset() {
	for i := range f.table {
		f.table[i] = 2
	}
}

func newFixed() *fixed {
	f := &fixed{}
	f.Reset()
	return f
}

func TestRegisterRejectsBadNames(t *testing.T) {
	factory := func(Config) (Predictor, error) { return newFixed(), nil }
	if err := Register("", factory); err == nil {
		t.Fatal("empty name accepted")
	}
	for _, builtin := range []string{"gshare", "bimodal", "tage"} {
		if err := Register(builtin, factory); err == nil {
			t.Fatalf("built-in name %q accepted", builtin)
		}
	}
	if err := Register("reg-test-nil", nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	if err := Register("reg-test-dup", factory); err != nil {
		t.Fatalf("first registration failed: %v", err)
	}
	if err := Register("reg-test-dup", factory); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestRegisteredListsBuiltinsAndRegistered(t *testing.T) {
	if err := Register("reg-test-listed", func(Config) (Predictor, error) { return newFixed(), nil }); err != nil {
		t.Fatal(err)
	}
	names := Registered()
	want := map[string]bool{"gshare": false, "bimodal": false, "tage": false, "reg-test-listed": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("Registered() missing %q (got %v)", n, names)
		}
	}
}

func TestRegisteredKindConstructsThroughConfig(t *testing.T) {
	var gotParams string
	err := Register("reg-test-params", func(cfg Config) (Predictor, error) {
		gotParams = cfg.Params
		return newFixed(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := (Config{Kind: "reg-test-params", Params: "alpha=3"}).New()
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("nil predictor")
	}
	if gotParams != "alpha=3" {
		t.Fatalf("factory saw params %q, want alpha=3", gotParams)
	}
	if _, err := (Config{Kind: "reg-test-unknown"}).New(); err == nil ||
		!strings.Contains(err.Error(), "unknown predictor kind") {
		t.Fatalf("unknown kind error = %v", err)
	}
}

func TestBuiltinsRejectOpaqueParams(t *testing.T) {
	for _, kind := range []string{"gshare", "bimodal", "tage"} {
		cfg := RepresentativeConfig(kind)
		cfg.Params = "x"
		if _, err := cfg.New(); err == nil {
			t.Errorf("%s accepted opaque params", kind)
		}
	}
}

func TestConformanceBuiltins(t *testing.T) {
	for _, kind := range []string{"gshare", "bimodal", "tage"} {
		if err := Conformance(RepresentativeConfig(kind)); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

// nondet predicts from a call counter the Reset doesn't clear, violating
// the Reset-equals-cold-state clause.
type nondet struct{ calls int }

func (n *nondet) Predict(pc uint64) bool { n.calls++; return n.calls%5 == 0 }
func (n *nondet) Update(uint64, bool)    {}
func (n *nondet) Reset()                 {}

// alloc allocates on every Update, violating the no-allocation clause.
type alloc struct{ sink []byte }

func (a *alloc) Predict(uint64) bool { return true }
func (a *alloc) Update(uint64, bool) { a.sink = append(a.sink[:0:0], 1) }
func (a *alloc) Reset()              { a.sink = nil }

func TestConformanceCatchesViolations(t *testing.T) {
	if err := Register("reg-test-nondet", func(Config) (Predictor, error) { return &nondet{}, nil }); err != nil {
		t.Fatal(err)
	}
	if err := Conformance(Config{Kind: "reg-test-nondet"}); err == nil {
		t.Error("conformance passed a reset-violating predictor")
	}
	if err := Register("reg-test-alloc", func(Config) (Predictor, error) { return &alloc{}, nil }); err != nil {
		t.Fatal(err)
	}
	if err := Conformance(Config{Kind: "reg-test-alloc"}); err == nil ||
		!strings.Contains(err.Error(), "allocated") {
		t.Errorf("conformance on allocating predictor = %v, want allocation failure", err)
	}
	if err := Conformance(Config{Kind: "reg-test-absent"}); err == nil {
		t.Error("conformance passed an unregistered kind")
	}
}

func TestRepresentativeConfigsConstruct(t *testing.T) {
	for _, kind := range []string{"gshare", "bimodal", "tage"} {
		if _, err := RepresentativeConfig(kind).New(); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
	if cfg := RepresentativeConfig("reg-3p"); cfg.Kind != "reg-3p" || cfg.LogSize != 0 {
		t.Errorf("third-party representative config = %+v", cfg)
	}
}

// TestValidateAgreesWithNew: for every kind Registered lists, built-in or
// registered, with empty and with opaque params, Validate accepts exactly
// when New succeeds, with the same error.
func TestValidateAgreesWithNew(t *testing.T) {
	if err := Register("reg-test-agree", func(cfg Config) (Predictor, error) {
		if cfg.Params != "" {
			return nil, fmt.Errorf("takes no params, got %q", cfg.Params)
		}
		return newFixed(), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := Register("reg-test-agree-nil", func(Config) (Predictor, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	for _, kind := range Registered() {
		for _, params := range []string{"", "x"} {
			cfg := RepresentativeConfig(kind)
			cfg.Params = params
			_, err := cfg.New()
			verr := cfg.Validate()
			if fmt.Sprint(verr) != fmt.Sprint(err) {
				t.Errorf("%s, params %q: Validate = %v, New = %v", kind, params, verr, err)
			}
		}
	}
}
