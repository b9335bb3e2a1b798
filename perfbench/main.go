// Command perfbench is the end-to-end benchmark of topoestd. It starts the
// real daemon binary, drives it over loopback HTTP with inputs generated
// from a seed, checks the final estimates against the batch estimator, and
// prints one JSON result line:
//
//	perfbench -daemon .bench_build/topoestd -workdir .bench_build \
//	    --workload star-bin-wide --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate traced run replays the workload's inputs through each layer's
// public functions in process and reports per-layer costs instead. Normally
// run through perfbench/run.sh, which builds both binaries first. See
// README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload runs with.
type env struct {
	daemon  string  // topoestd binary
	work    string  // this run's scratch directory: logs, checkpoints
	out     string  // where traced runs write their spans
	seed    uint64  // workload seed: every generated input derives from it
	seconds float64 // measurement budget of one run
	trace   bool

	attempted, failed atomic.Int64 // every request the workload sends
	metrics           map[string]metric
	gateErrs          []string
}

// set records a metric.
func (e *env) set(name, unit string, v float64) { e.metrics[name] = metric{v, unit} }

// tally counts one request and its outcome.
func (e *env) tally(err error) error {
	e.attempted.Add(1)
	if err != nil {
		e.failed.Add(1)
	}
	return err
}

// gate records a correctness failure; the run reports correct=false.
func (e *env) gate(err error) {
	if err != nil {
		e.gateErrs = append(e.gateErrs, err.Error())
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate:", err)
	}
}

// logf prints a human-readable progress or detail line (standard error, so
// the result stays the last line of standard output).
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

var workloads = map[string]func(*env) error{
	"star-bin-wide":     runStarBinWide,
	"induced-json-boot": runInducedJSONBoot,
	"crawl-paper":       runCrawlPaper,
}

func main() {
	var (
		e        env
		workload string
		trace    int
	)
	flag.StringVar(&e.daemon, "daemon", "", "topoestd binary to benchmark")
	flag.StringVar(&e.work, "workdir", ".bench_build", "directory for logs, checkpoints and traces")
	flag.StringVar(&workload, "workload", "", "workload name (star-bin-wide | induced-json-boot | crawl-paper)")
	flag.Uint64Var(&e.seed, "seed", 1, "workload seed")
	flag.Float64Var(&e.seconds, "seconds", 30, "measurement budget of the run in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	flag.Parse()
	run, ok := workloads[workload]
	if !ok || e.daemon == "" || e.seconds <= 0 || (trace != 0 && trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -daemon, a positive --seconds, --trace 0|1 and --workload in %v\n", names)
		os.Exit(2)
	}
	e.trace = trace == 1
	e.metrics = map[string]metric{}
	e.out = filepath.Join(e.work, "traces")
	e.work = filepath.Join(e.work, fmt.Sprintf("run-%s-%d-%d", workload, e.seed, os.Getpid()))
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := run(&e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v (daemon logs kept in %s)\n", workload, err, e.work)
		os.Exit(1)
	}
	// Checkpoint files and logs of a completed run are not needed again.
	if err := os.RemoveAll(e.work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	res := result{
		Correct:   len(e.gateErrs) == 0,
		Attempted: e.attempted.Load(),
		Failed:    e.failed.Load(),
		Metrics:   e.metrics,
	}
	if res.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: the workload sent no request")
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
