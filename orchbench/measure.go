package main

// Wall-clock, process and Go runtime measurements shared by every
// workload. None of this feeds back into the program under test.

import (
	"io"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durQuantile is quantile over durations, in microseconds.
func durQuantile(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d.Nanoseconds()) / 1e3
	}
	return quantile(xs, q)
}

// latHist is a latency histogram with 1%-wide logarithmic buckets from
// 50 ns to about 50 s: constant memory however long the run. Quantiles
// interpolate within a bucket by rank.
type latHist struct {
	counts []uint64
	n      uint64
}

const (
	histMinNs   = 50.0
	histGrowth  = 1.01
	histBuckets = 2100
)

var logHistGrowth = math.Log(histGrowth)

func (h *latHist) add(d time.Duration) {
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	i := 0
	if ns := float64(d); ns > histMinNs {
		i = min(int(math.Log(ns/histMinNs)/logHistGrowth), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileUs is the q-quantile (0..1) in microseconds; 0 when empty.
func (h *latHist) quantileUs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo := histMinNs * math.Pow(histGrowth, float64(i))
			return (lo + lo*(histGrowth-1)*(rank-cum+0.5)/float64(c)) / 1e3
		}
		cum += float64(c)
	}
	return histMinNs * math.Pow(histGrowth, histBuckets) / 1e3
}

// scaled returns xs multiplied by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usage is a getrusage snapshot of the whole process.
type usage struct {
	cpu    time.Duration // user + system
	csw    int64         // voluntary + involuntary context switches
	maxRSS int64         // bytes
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		csw:    ru.Nvcsw + ru.Nivcsw,
		maxRSS: ru.Maxrss << 10, // Linux reports KiB
	}
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 { return float64(readUsage().maxRSS) / 1e6 }

// rssProbe reads the process's current resident set from /proc/self/statm.
type rssProbe struct {
	f   *os.File
	buf [128]byte
}

func openRSSProbe() (*rssProbe, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	return &rssProbe{f: f}, nil
}

// bytes is the current resident set; 0 if it cannot be read.
func (p *rssProbe) bytes() int64 {
	n, err := p.f.ReadAt(p.buf[:], 0)
	if err != nil && err != io.EOF {
		return 0
	}
	fields := strings.Fields(string(p.buf[:n]))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(fields[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

func (p *rssProbe) close() { p.f.Close() }

// runtimeSample is a snapshot of the runtime/metrics the per-layer
// report derives from.
type runtimeSample struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
	allocBytes      uint64
	allocObjects    uint64
	schedLat        *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var r runtimeSample
	for _, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			if s.Name == runtimeMetricNames[0] {
				r.gcCPU = s.Value.Float64()
			} else {
				r.totalCPU = s.Value.Float64()
			}
		case metrics.KindUint64:
			switch s.Name {
			case "/gc/cycles/total:gc-cycles":
				r.gcCycles = s.Value.Uint64()
			case "/gc/heap/allocs:bytes":
				r.allocBytes = s.Value.Uint64()
			default:
				r.allocObjects = s.Value.Uint64()
			}
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			r.schedLat = &metrics.Float64Histogram{
				Counts:  append([]uint64(nil), h.Counts...),
				Buckets: h.Buckets,
			}
		}
	}
	return r
}

// runtimeDelta accumulates runtime activity over measured spans only.
type runtimeDelta struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
	allocBytes      uint64
	allocObjects    uint64
	schedCounts     []uint64
	schedBuckets    []float64
}

func (d *runtimeDelta) add(before, after runtimeSample) {
	d.gcCPU += after.gcCPU - before.gcCPU
	d.totalCPU += after.totalCPU - before.totalCPU
	d.gcCycles += after.gcCycles - before.gcCycles
	d.allocBytes += after.allocBytes - before.allocBytes
	d.allocObjects += after.allocObjects - before.allocObjects
	if before.schedLat == nil || after.schedLat == nil {
		return
	}
	if d.schedCounts == nil {
		d.schedCounts = make([]uint64, len(after.schedLat.Counts))
		d.schedBuckets = after.schedLat.Buckets
	}
	for i := range d.schedCounts {
		d.schedCounts[i] += after.schedLat.Counts[i] - before.schedLat.Counts[i]
	}
}

// schedP99us is the 99th percentile goroutine scheduling latency over
// the accumulated spans, as the upper edge of its histogram bucket.
func (d *runtimeDelta) schedP99us() float64 {
	var total uint64
	for _, c := range d.schedCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range d.schedCounts {
		cum += c
		if cum >= target {
			edge := d.schedBuckets[i+1]
			if math.IsInf(edge, 1) {
				edge = d.schedBuckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

// report adds the runtime per-layer metrics; per is the unit of work
// ("event" or "op") and n how many of them the spans completed.
func (d *runtimeDelta) report(o *outcome, per string, n float64) {
	o.set("runtime.gc_cpu_pct", 100*ratio(d.gcCPU, d.totalCPU), "%")
	o.set("runtime.gc_cycles", float64(d.gcCycles), "count")
	o.set("runtime.sched_lat_p99_us", d.schedP99us(), "us")
	for _, unit := range []string{"event", "op"} {
		bytes, objs := 0.0, 0.0
		if unit == per {
			bytes, objs = ratio(float64(d.allocBytes), n), ratio(float64(d.allocObjects), n)
		}
		o.set("runtime.alloc_bytes_per_"+unit, bytes, "B")
		o.set("runtime.allocs_per_"+unit, objs, "count")
	}
}

// settle collects garbage left by a previous round and returns its
// memory to the OS, so every round's set-up starts from the same state
// and the old heap does not inflate the next round's peak resident set.
func settle() {
	debug.FreeOSMemory()
}
