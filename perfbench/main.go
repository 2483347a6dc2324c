// Command perfbench is the movr benchmark: it times calls into the
// simulator's public packages — the fleet engine and the movrd job API
// — on seeded workloads, checks every output, and prints one JSON
// result line.
//
// Run it from the repository root through its wrapper, which builds it
// first:
//
//	bash perfbench/run.sh --workload venue --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// from a separate traced run, which also writes its spans to
// .bench_out/ and prints a self-time table. --steady N runs the
// workload N times with consecutive seeds and prints each metric's
// quartiles next to its bound in BENCHMARK.json. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: venue|home_variants|movrd")
		seed    = flag.Int64("seed", defaultSeed, "workload seed")
		seconds = flag.Int("seconds", 25, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		steady  = flag.Int("steady", 0, "run the workload this many times and report each metric's spread")
		sets    = flag.Int("sets", 1, "with --steady: repeat the whole set this many times and compare medians")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *steady < 0 || *sets < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload venue|home_variants|movrd [--seed N] [--seconds S] [--trace 0|1] [--steady N [--sets K]]")
		os.Exit(2)
	}
	if *steady > 0 {
		if err := steadiness(w.name, *seed, *seconds, *trace, *steady, *sets); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	// One process generates all load: GOMAXPROCS, fleet workers and
	// client connections are all the CPU count.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d workers=%d gomaxprocs=%d\n",
		w.name, *seed, *seconds, *trace, nproc, runtime.GOMAXPROCS(0))

	ctx := context.Background()
	var (
		rep report
		err error
	)
	if *trace == 1 {
		rep, err = tracedRun(ctx, w, *seed, *seconds, nproc)
	} else {
		rep, err = untracedRun(ctx, w, *seed, *seconds, nproc)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// logf prints a diagnostic to stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
