// Command perfbench is BitDew's end-to-end benchmark. It boots a service
// plane in-process through runtime.NewShardedContainer, the program's real
// boot path, and runs one of three closed-loop workloads against it:
//
//	mixed       bitdew-stress's default put/fetch/schedule/search mix
//	ingest      create-and-put of new data on a durable, replicated plane
//	distribute  back-to-back BLAST-style waves pulled by worker nodes
//
// Every answer is checked; a wrong one counts as a failed op. The last
// line of standard output is one JSON object with the run's verdict and
// metrics: the end-to-end metrics, or with -trace 1 the per-layer ones
// (the line before it is a fuller report). See README.md.
//
//	go run . -workload mixed -seed 1 -seconds 24 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	var (
		o       options
		seconds int
		trace   int
	)
	flag.StringVar(&o.workload, "workload", "", "mixed, ingest or distribute")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&seconds, "seconds", 24, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build/perfbench", "directory for durable state and span files")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	o.window = time.Duration(seconds) * time.Second
	o.warmup = time.Second
	o.trace = trace == 1

	out, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, e := range out.errs {
		fmt.Fprintf(os.Stderr, "perfbench: failed op: %s\n", e)
	}
	if err := printResult(os.Stdout, out, o.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// result is the last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// printResult writes the full report line, then the result line.
func printResult(w io.Writer, out *outcome, traced bool) error {
	report := map[string]any{"run": out.info, "end_to_end": out.named}
	if traced {
		report["per_layer"] = out.layer
	}
	line, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, string(line)); err != nil {
		return err
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.e2e}
	if traced {
		res.Metrics = out.layer
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
