package main

import (
	"reflect"
	"testing"

	"archcontest/internal/experiments"
)

func TestExperimentIDs(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []string // nil: must be rejected
	}{
		{"", experiments.RegistryOrder},
		{"fig1", []string{"fig1"}},
		{"fig1,table1,statecost", []string{"fig1", "table1", "statecost"}},
		{" fig1 , fig6\t", []string{"fig1", "fig6"}},
		{"fig1,fgi7", nil},
		{"fgi7,fig1", nil},
		{"fig1,", nil},
		{",fig1", nil},
		{"fig1,,fig6", nil},
		{" ", nil},
	} {
		got, err := experimentIDs(tc.list)
		if tc.want == nil {
			if err == nil {
				t.Errorf("experimentIDs(%q) = %v, want an error", tc.list, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("experimentIDs(%q) = %v, %v; want %v", tc.list, got, err, tc.want)
		}
	}
}
