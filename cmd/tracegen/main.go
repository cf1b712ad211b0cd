// Command tracegen inspects the synthetic workloads: instruction mix,
// memory footprint, the trace's resident size, and optionally a window of
// the raw trace.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"archcontest"
	"archcontest/internal/isa"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	bench := flag.String("bench", "", "benchmark name (empty = summarize all)")
	n := flag.Int("n", 100_000, "trace length in instructions")
	dump := flag.Int("dump", 0, "dump this many instructions from -offset")
	offset := flag.Int("offset", 0, "dump starting index")
	flag.Parse()
	if *offset < 0 {
		fmt.Fprintf(os.Stderr, "tracegen: negative -offset %d\n", *offset)
		flag.Usage()
		os.Exit(2)
	}

	benches := archcontest.Benchmarks()
	if *bench != "" {
		benches = []string{*bench}
	}
	for _, name := range benches {
		tr, err := archcontest.GenerateTrace(name, *n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %8d insts  mix[%v]  footprint(64B) %6dKB  resident %7dKB %.2fB/inst\n",
			name, tr.Len(), tr.Mix(), tr.Footprint(64)>>10,
			tr.Bytes()>>10, float64(tr.Bytes())/float64(tr.Len()))
		if *dump > 0 && *offset < tr.Len() {
			r := tr.Reader(*offset)
			var in isa.Inst
			for i := *offset; i < *offset+*dump && r.Next(&in); i++ {
				fmt.Printf("  %8d: %v\n", i, in)
			}
		}
	}
}
