// Command perfbench is the repository benchmark. It measures the two
// user paths of the reproduction from outside the program: the full
// default circlebench report, run in process through core.Suite, and
// /v1/score served by cmd/circlerouter in front of two cmd/circled
// backends, driven over HTTP.
//
// Usage, from the repository root (perfbench/run.sh builds the binaries
// first and passes -bin and -out):
//
//	perfbench -workload report|serve-score -seed N -seconds S -trace 0|1
//
// With -trace 0 a run measures the workload's end-to-end metrics; with
// -trace 1 it makes the traced run, which times calls into each layer's
// public functions on the workload's inputs, writes its spans and
// counters as an obs JSONL manifest under -out, and reports per-layer
// metrics. Every operation's output is checked; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// workloads are the benchmark's workloads: the full default report in
// process, and the analytic /v1/score mix served by the HTTP tier.
var workloads = []string{"report", "serve-score"}

// config is one invocation's settings.
type config struct {
	wl      string // one of workloads
	seed    int64
	seconds float64
	trace   bool
	nproc   int
	bin     string // directory holding circled and circlerouter
	out     string // scratch directory inside the checkout
}

// suiteScale and suiteSeed are the scale and seed of every suite the
// benchmark runs on: the defaults of circlebench and circled, so the
// report workload measures the default report. The suite seed sets the
// sizes of the generated graphs, and with them the report's work, which
// differs by over 10% from one seed to another; the workload seed
// therefore drives only request mixes.
const (
	suiteScale = 1.0
	suiteSeed  = 1
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates what a run measured and checked.
type outcome struct {
	tally    tally
	problems []string // failed output checks, for standard error
	metrics  map[string]metric
	notes    []string // human-readable lines printed before the result
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

func (o *outcome) set(name string, value float64, unit string) {
	o.metrics[name] = metric{Value: value, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// check records one output check; a failed check is reported on
// standard error and makes the result incorrect.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name     = flag.String("workload", "", "workload: "+strings.Join(workloads, " or "))
		seed     = flag.Int64("seed", 1, "workload seed: drives the request mix of serve-score and of the traced run's probes")
		secs     = flag.Float64("seconds", 30, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 makes the traced per-layer run instead of the end-to-end one")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding the circled and circlerouter binaries")
		out      = flag.String("out", ".bench_build", "scratch directory for manifests and logs")
		child    = flag.String("child", "", "internal: run one measurement in this fresh process (setup, report or layers)")
		traced   = flag.Bool("traced", false, "internal: child runs with the obs recorder on")
		manifest = flag.String("manifest", "", "internal: child manifest path")
	)
	flag.Parse()
	if *child != "" {
		return runChild(*child, childArgs{MixSeed: *seed, Traced: *traced, Manifest: *manifest})
	}

	if !slices.Contains(workloads, *name) {
		return fmt.Errorf("unknown workload %q (want %s)", *name, strings.Join(workloads, " or "))
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	cfg := config{
		wl: *name, seed: *seed, seconds: *secs, trace: *trace == 1,
		nproc: runtime.NumCPU(), bin: *bin, out: *out,
	}
	for _, b := range []string{"circled", "circlerouter"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, b)); err != nil {
			return fmt.Errorf("binary %s: %w (build with perfbench/run.sh)", b, err)
		}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}

	// SIGTERM or SIGINT cancels the run; every started process is still
	// stopped and waited for on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var o *outcome
	var err error
	switch {
	case cfg.trace:
		o, err = runTraced(ctx, cfg)
	case cfg.wl == "serve-score":
		o, err = runServe(ctx, cfg)
	default:
		o, err = runReport(ctx, cfg)
	}
	if err != nil {
		return err
	}
	want := endToEndNames
	if cfg.trace {
		want = perLayerNames()
	}
	for _, name := range want {
		if _, ok := o.metrics[name]; !ok {
			return fmt.Errorf("run produced no %s", name)
		}
	}
	return emit(cfg, o)
}

// endToEndNames lists the metrics every untraced run reports, whatever
// the workload; one operation is one full report or one request.
var endToEndNames = []string{"setup_s", "rps", "latency_p50_ms", "latency_tail_ms", "cpu_ms_per_op", "peak_rss_mb"}

// emit prints the environment stamp, the metrics one per line, the
// failed checks, and the result line.
func emit(cfg config, o *outcome) error {
	fmt.Println(envLine(cfg))
	for _, n := range o.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(o.metrics))
	//lint:ignore maporder names are sorted immediately below
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		fmt.Printf("metric %s = %s %s\n", n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Printf("fail_share = %s (%d of %d operations failed)\n",
		strconv.FormatFloat(o.tally.failShare(), 'g', -1, 64), o.tally.Failed, o.tally.Attempted)
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	for _, n := range names {
		if !finite(o.metrics[n].Value) {
			return fmt.Errorf("metric %s is not a finite number", n)
		}
	}
	line, err := json.Marshal(result{
		Correct:   len(o.problems) == 0 && o.tally.Attempted > 0,
		Attempted: o.tally.Attempted,
		Failed:    o.tally.Failed,
		Metrics:   o.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// envLine stamps a result with the machine and code it came from, in
// the style of the benchenv line the Go benchmarks print.
func envLine(cfg config) string {
	return fmt.Sprintf("benchenv: cpus=%d gomaxprocs=%d goos=%s goarch=%s go=%s git=%s workload=%s seed=%d trace=%t",
		cfg.nproc, runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version(),
		gitDescribe(), cfg.wl, cfg.seed, cfg.trace)
}

// gitDescribe identifies the measured tree; "none" outside a git
// checkout.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}
