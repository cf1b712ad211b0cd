// Command gen regenerates the checked-in fuzz seed corpus under
// fuzz/testdata/fuzz/ from fuzz.SeedCorpus(), for FuzzContest. Run from the
// repository root:
//
//	go run ./fuzz/gen
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"archcontest/fuzz"
)

var targets = []string{"FuzzContest"}

func main() {
	for _, target := range targets {
		dir := filepath.Join("fuzz", "testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		for i, seed := range fuzz.SeedCorpus() {
			// The go-fuzz corpus file format: a version line, then one
			// quoted value per fuzz argument.
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("wrote %d seeds for %d targets\n", len(fuzz.SeedCorpus()), len(targets))
}
