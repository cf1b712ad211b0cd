package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// parseWorkerList parses a comma-separated list of worker counts.
func parseWorkerList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		w, err := strconv.Atoi(f)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad worker count %q", f)
		}
		out = append(out, w)
	}
	sort.Ints(out)
	return out, nil
}
