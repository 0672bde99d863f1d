// Command orchbench is the repository benchmark: it drives the simulator
// stack and the wire control plane through their public functions, from
// one process, and prints every metric by name with its unit.
//
// Usage (from the root of a checkout, whose BENCHMARK.json holds the
// metric catalog; normally through run.sh, which builds this module first
// and starts it there):
//
//	orchbench --workload sim-flush|sim-contend|store-control \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics of a separate
// traced span (CPU profile attribution, timed public calls, counters).
// The line before it is a report with the host stamp, the workload's own
// named results and every output check. README.md lists the metrics, the
// layer each belongs to, and the reason for each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line, with exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back to main: the end-to-end or
// per-layer metrics (whichever the run asked for), the workload's own
// named results, and the output checks that failed.
type outcome struct {
	attempted uint64
	failed    uint64
	metrics   map[string]metric
	named     map[string]metric
	info      map[string]string
	problems  []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) name(name string, v float64, unit string) {
	if o.named == nil {
		o.named = map[string]metric{}
	}
	o.named[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
	quick    bool   // small scale, for the benchmark's own tests
	sockDir  string // where store-control's server socket lives
}

var workloads = map[string]func(options) (*outcome, error){
	"sim-flush":     runSimFlush,
	"sim-contend":   runSimContend,
	"store-control": runStoreControl,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("orchbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "sim-flush | sim-contend | store-control")
	seed := fs.Uint64("seed", 1, "workload seed; the program receives only inputs generated from it")
	seconds := fs.Float64("seconds", 10, "wall-clock budget of the measured part of the run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced span")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "orchbench: unknown workload %q (want sim-flush, sim-contend or store-control)\n", *wl)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "orchbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := loadCatalog("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "orchbench: metric catalog:", err)
		return 2
	}
	sockDir, err := socketDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "orchbench:", err)
		return 1
	}
	opts := options{
		workload: *wl, seed: *seed, trace: *traced == 1,
		budget:  time.Duration(*seconds * float64(time.Second)),
		sockDir: sockDir,
	}
	out, err := fn(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "orchbench:", err)
		return 1
	}
	if opts.trace {
		complete(out, perLayer)
	} else {
		complete(out, endToEnd)
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	if res.Attempted == 0 {
		res.Correct = false
		out.problems = append(out.problems, "no operation attempted")
	}
	report := map[string]any{
		"workload": opts.workload,
		"seed":     opts.seed,
		"trace":    opts.trace,
		"stamp":    hostStamp(),
		"results":  out.named,
		"info":     out.info,
		"problems": out.problems,
	}
	enc := json.NewEncoder(os.Stdout)
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "orchbench: check failed:", p)
	}
	if err := enc.Encode(report); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// socketDir is where store-control's server socket lives: beside the
// binary, with the rest of the build output. It is given relative to the
// working directory when that is shorter, since a Unix socket path is
// limited to about 100 bytes.
func socketDir() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(filepath.Dir(exe), "sock")
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, dir); err == nil && len(rel) < len(dir) {
			dir = rel
		}
	}
	return dir, nil
}

// sortedKeys lists a map's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
