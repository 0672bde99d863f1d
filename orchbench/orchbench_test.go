package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if err := loadCatalog("../BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// quickRun runs one workload at quick scale and fails the test on any
// output check.
func quickRun(t *testing.T, workload string, seed uint64, trace bool) *outcome {
	t.Helper()
	o, err := workloads[workload](options{
		workload: workload, seed: seed, trace: trace, quick: true,
		budget: 1500 * time.Millisecond, sockDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if trace {
		complete(o, perLayer)
	} else {
		complete(o, endToEnd)
	}
	if len(o.problems) > 0 {
		t.Fatalf("%s (trace=%v) output checks failed:\n%s", workload, trace, strings.Join(o.problems, "\n"))
	}
	if o.attempted == 0 {
		t.Fatalf("%s: nothing attempted", workload)
	}
	return o
}

func TestQuickWorkloadsUntraced(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			o := quickRun(t, name, 5, false)
			for _, m := range endToEnd {
				if v := o.metrics[m.Name].Value; !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, v)
				}
			}
		})
	}
}

func TestQuickWorkloadsTraced(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			o := quickRun(t, name, 6, true)
			sum := 0.0
			for _, l := range layers {
				sum += o.metrics[l+".cpu_pct"].Value
			}
			if o.metrics["profile.samples"].Value > 0 && math.Abs(sum-100) > 1 {
				t.Errorf("%s: cpu_pct shares sum to %.3f, want 100 ± 1", name, sum)
			}
			if len(o.metrics) != len(perLayer) {
				t.Errorf("%s: %d per-layer metrics, catalog has %d", name, len(o.metrics), len(perLayer))
			}
		})
	}
}

// TestSimStatsArePureFunctionsOfSeed: two runs of one seed agree on
// every simulated statistic; another seed gives other inputs.
func TestSimStatsArePureFunctionsOfSeed(t *testing.T) {
	a := quickRun(t, "sim-flush", 7, false).info["sim_digest"]
	b := quickRun(t, "sim-flush", 7, false).info["sim_digest"]
	c := quickRun(t, "sim-flush", 8, false).info["sim_digest"]
	if a == "" || a != b {
		t.Fatalf("seed 7 digests differ across runs: %q vs %q", a, b)
	}
	if a == c {
		t.Fatalf("seeds 7 and 8 gave identical simulated statistics (%q)", a)
	}
}

func TestStoreInputsFollowSeed(t *testing.T) {
	a, b, c := newStoreInputs(1), newStoreInputs(1), newStoreInputs(2)
	if strings.Join(a.pads, ",") != strings.Join(b.pads, ",") {
		t.Fatal("one seed produced two different input sets")
	}
	if strings.Join(a.pads, ",") == strings.Join(c.pads, ",") {
		t.Fatal("two seeds produced the same input set")
	}
}

func TestValueEncodingRoundTrips(t *testing.T) {
	v := encodeValue(42, 1234*time.Microsecond, "pad:with:colons")
	seq, sent, ok := decodeValue(v)
	if !ok || seq != 42 || sent != 1234*time.Microsecond {
		t.Fatalf("decode(%q) = %d, %v, %v", v, seq, sent, ok)
	}
	if _, _, ok := decodeValue("garbage"); ok {
		t.Fatal("decoded a value without a stamp")
	}
}

// TestAttributionRule pins the CPU-profile rule on synthetic stacks:
// each sample goes to its innermost module frame; stacks without one go
// to runtime; system-call frames anywhere count toward the syscall share.
func TestAttributionRule(t *testing.T) {
	stacks := []stack{
		{count: 5, frames: []string{
			"runtime.mapaccess2_faststr",
			"iorchestra/internal/store.(*Store).Write",
			"iorchestra/internal/core.(*Driver).onStoreEvent",
			"iorchestra/internal/sim.(*Kernel).RunUntil",
		}},
		{count: 3, frames: []string{
			"internal/runtime/syscall.Syscall6",
			"syscall.write",
			"internal/poll.(*FD).Write",
			"net.(*conn).Write",
			"iorchestra/internal/netstore.(*srvConn).writeLoop",
		}},
		{count: 2, frames: []string{"runtime.gcBgMarkWorker", "runtime.goexit"}},
		{count: 4, frames: []string{
			"iorchestra/internal/sim.(*FIFO[go.shape.*uint8]).Push",
			"iorchestra/internal/hypervisor.(*Host).route",
		}},
		{count: 1, frames: []string{"time.now", "main.(*simBench).startWriter.func1", "iorchestra/internal/sim.(*Kernel).Step"}},
		{count: 1, frames: []string{"iorchestra/internal/federation.ScoreHosts"}},
		{count: 4, frames: []string{"iorchestra.(*Platform).RunFor"}},
	}
	var a attribution
	a.add(stacks)
	want := map[string]int64{"store": 5, "netstore": 3, "runtime": 2, "sim": 4, "bench": 1, "other": 5}
	for l, n := range want {
		if a.byLayer[l] != n {
			t.Errorf("layer %s: %d samples, want %d", l, a.byLayer[l], n)
		}
	}
	if a.total != 20 || a.syscall != 3 {
		t.Errorf("total %d, syscall %d; want 20, 3", a.total, a.syscall)
	}
	o := &outcome{}
	a.report(o)
	sum := 0.0
	for _, l := range layers {
		sum += o.metrics[l+".cpu_pct"].Value
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if got := o.metrics["netstore.syscall_pct"].Value; got != 15 {
		t.Errorf("syscall share %v, want 15", got)
	}
}

func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// TestParseProfile decodes a real CPU profile taken by runtime/pprof.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range stacks {
		for _, f := range s.frames {
			if f == "iorchestra/orchbench.spin" || f == "main.spin" {
				found = found || s.count > 0
			}
		}
	}
	if len(stacks) == 0 || !found {
		t.Fatalf("no sample in spin among %d stacks", len(stacks))
	}
}

func TestLatHistQuantiles(t *testing.T) {
	var h latHist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		if got := h.quantileUs(c.q); math.Abs(got-c.want)/c.want > 0.015 {
			t.Errorf("q%.2f = %.2f us, want %.0f ± 1.5%%", c.q, got, c.want)
		}
	}
}

// TestEpochCostsIgnoreBursts: interference that slows a few rounds at
// any epoch does not move that epoch's cost, while an epoch every round
// pays for stays expensive.
func TestEpochCostsIgnoreBursts(t *testing.T) {
	base := []time.Duration{1000, 1000, 8000, 1000} // µs; epoch 2 is heavy
	var rounds []simRound
	for i := 0; i < 12; i++ {
		r := simRound{epochs: make([]time.Duration, len(base))}
		for e, d := range base {
			r.epochs[e] = d * time.Microsecond
			if (i+e)%4 == 0 { // a quarter of the rounds are slowed at each epoch
				r.epochs[e] *= 5
			}
		}
		rounds = append(rounds, r)
	}
	got := epochCosts(rounds)
	for e, d := range base {
		if want := float64(d); got[e] != want {
			t.Errorf("epoch %d cost = %.0f us, want %.0f", e, got[e], want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestBenchmarkJSON validates BENCHMARK.json against its schema. The
// metric lists are the program's catalog, so the quick runs check that
// every metric a workload reports is listed there with its unit.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	keys := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(top) != len(keys) {
		t.Errorf("top-level keys %v, want exactly %v", sortedKeys(top), keys)
	}
	type entry map[string]any
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if n := len(b.Command); n == 0 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, c := range b.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command element %q", c)
		}
		if strings.Contains(c, "/") && !underPaths(c, b.Paths) {
			t.Errorf("command names %q outside paths %v", c, b.Paths)
		}
	}
	if n := len(b.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths", n)
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") || strings.HasPrefix(p, "/") {
			t.Errorf("bad path %q", p)
		}
	}
	if b.RunSeconds != math.Trunc(b.RunSeconds) || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %v", b.RunSeconds)
	}
	// Every run may overrun its budget by one round plus set-up and
	// checks; allow 6 s of that per run and two 120 s builds.
	if runs := 4 + 22*float64(len(b.Workloads)); runs*(b.RunSeconds+6)+240 > 3420 {
		t.Errorf("%v runs of %vs do not fit the 3420 s budget for all runs", runs, b.RunSeconds)
	}

	seen := map[string]bool{}
	checkNames := func(kind string, es []entry, want ...string) {
		for _, e := range es {
			if len(e) != len(want) {
				t.Errorf("%s entry %v: want exactly keys %v", kind, e, want)
			}
			name, _ := e["name"].(string)
			if !nameRE.MatchString(name) || seen[name] {
				t.Errorf("%s name %q invalid or reused", kind, name)
			}
			seen[name] = true
		}
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	checkNames("workload", b.Workloads, "name", "why")
	for _, w := range b.Workloads {
		why, _ := w["why"].(string)
		if why == "" || len(why) > 200 || strings.ContainsAny(why, "\n\r") {
			t.Errorf("workload %v: why must be one line of at most 200 characters", w["name"])
		}
		if _, ok := workloads[w["name"].(string)]; !ok {
			t.Errorf("workload %v is not implemented", w["name"])
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}

	checkNames("end_to_end", b.EndToEnd, "name", "unit", "better", "bound")
	checkNames("per_layer", b.PerLayer, "name", "unit", "better")
	for _, es := range [][]entry{b.EndToEnd, b.PerLayer} {
		for _, e := range es {
			if unit, _ := e["unit"].(string); !unitRE.MatchString(unit) {
				t.Errorf("%v: bad unit %q", e["name"], unit)
			}
			if e["better"] != "higher" && e["better"] != "lower" {
				t.Errorf("%v: better is %v, want higher or lower", e["name"], e["better"])
			}
		}
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end_to_end metrics", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per_layer metrics", n)
	}
	setup := false
	for _, e := range b.EndToEnd {
		bound, _ := e["bound"].(float64)
		if bound <= 0 || bound > 0.25 {
			t.Errorf("%v: bound %v outside (0, 0.25]", e["name"], bound)
		}
		if e["name"] == "setup_s" {
			setup = e["unit"] == "s" && e["better"] == "lower"
			for _, o := range b.EndToEnd {
				if ob, _ := o["bound"].(float64); ob > bound {
					t.Errorf("setup_s bound %v is not the largest (%v has %v)", bound, o["name"], ob)
				}
			}
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

func underPaths(p string, paths []string) bool {
	for _, root := range paths {
		if p == root || strings.HasPrefix(p, strings.TrimSuffix(root, "/")+"/") {
			return true
		}
	}
	return false
}

// TestRefusesBareDirectory: run.sh in a directory holding only
// BENCHMARK.json and the benchmark itself exits non-zero, fast, without
// printing a result.
func TestRefusesBareDirectory(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("no bash")
	}
	dir := t.TempDir()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), raw, 0o644)
	os.MkdirAll(filepath.Join(dir, "orchbench"), 0o755)
	script, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "orchbench", "run.sh"), script, 0o755)
	cmd := exec.Command("bash", "orchbench/run.sh", "--workload", "sim-flush", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatal("run.sh succeeded outside a checkout")
	}
	if len(bytes.TrimSpace(out)) != 0 {
		t.Fatalf("run.sh printed a result outside a checkout: %s", out)
	}
}
