// Command tracegen inspects the synthetic workloads: instruction mix,
// memory footprint, phase statistics, and optionally a window of the raw
// trace.
package main

import (
	"flag"
	"fmt"
	"log"

	"archcontest"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	bench := flag.String("bench", "", "benchmark name (empty = summarize all)")
	n := flag.Int("n", 100_000, "trace length in instructions")
	dump := flag.Int("dump", 0, "dump this many instructions from -offset")
	offset := flag.Int64("offset", 0, "dump starting index")
	flag.Parse()

	benches := archcontest.Benchmarks()
	if *bench != "" {
		benches = []string{*bench}
	}
	for _, name := range benches {
		tr, err := archcontest.GenerateTrace(name, *n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %8d insts  mix[%v]  footprint(64B) %6dKB\n",
			name, tr.Len(), tr.Mix(), tr.Footprint(64)>>10)
		if *dump > 0 {
			end := *offset + int64(*dump)
			if end > int64(tr.Len()) {
				end = int64(tr.Len())
			}
			for i := *offset; i < end; i++ {
				fmt.Printf("  %8d: %v\n", i, *tr.At(i))
			}
		}
	}
}
