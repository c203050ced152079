// Command perfbench is the repository's end-to-end benchmark. It generates
// one of three workloads from a seed, drives the system only through its
// public entry points, checks every answer for correctness, and prints the
// workload's metrics. See README.md for the workloads, the metric
// definitions and how to run it; perfbench/run.sh builds and launches it.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 the
// run records spans and replays its inputs through each inner layer, and
// the metrics are the per-layer ledger. A failed correctness check prints
// "correct": false and exits 1; a run that cannot be set up exits 1
// without a result line.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(ctx context.Context, e *env) error{
	"static-batch":  runStaticBatch,
	"stream-ingest": runStreamIngest,
	"tcp-fleet":     runTCPFleet,
}

// runMargin bounds everything a run does outside its measured phase:
// set-up, recall, recovery and, on traced runs, the replays. At full size
// that takes 20–35 s on a 2-vCPU machine.
const runMargin = 150 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: static-batch, stream-ingest or tcp-fleet")
	seed := flag.Uint64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer ledger instead of the end-to-end metrics")
	work := flag.String("work", ".bench_build/perfbench", "directory for temporary data, result files and traces")
	nodeBin := flag.String("node-bin", "", "plsh-node binary (required by tcp-fleet)")
	flag.Parse()

	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if *seed == 0 {
		*seed = 1<<63 | 1 // corpus generation treats seed 0 as "unset"
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Past the measured phase plus a margin for set-up, the correctness
	// checks and recovery, the run has stalled: give up cleanly.
	measured := time.Duration(*seconds * float64(time.Second))
	ctx, cancel := context.WithTimeout(ctx, measured+runMargin)
	defer cancel()

	tmp := filepath.Join(*work, "tmp", fmt.Sprintf("%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	e := newEnv(*workload, *seed, measured, *trace == 1, 1, tmp, *nodeBin)
	start := time.Now()
	if err := drive(ctx, e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	e.note("wall_s", "%.1f", time.Since(start).Seconds())

	if err := e.writeFiles(*work); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	e.printReport(os.Stdout)
	out := result{
		Correct:   e.chk.failed.Load() == 0,
		Attempted: e.chk.attempted.Load(),
		Failed:    e.chk.failed.Load(),
		Metrics:   e.metrics(),
	}
	if out.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
