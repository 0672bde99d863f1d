package main

// The simulator workloads. Each round builds a fresh testbed from the
// seed, runs a warm-up, then measures a fixed simulated span; rounds
// repeat until the wall-clock budget is spent. Every simulated
// statistic of a round is a pure function of the seed, so all rounds of
// a run (and every run of a seed) must agree exactly — the benchmark
// checks that.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"iorchestra/internal/blkio"
	"iorchestra/internal/cluster"
	"iorchestra/internal/core"
	"iorchestra/internal/device"
	"iorchestra/internal/gstate"
	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/metrics"
	"iorchestra/internal/pagecache"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/workload"
)

// simSpec fixes one simulator workload's scale.
type simSpec struct {
	hosts  int
	guests int // per host
	epoch  sim.Duration
	warmup sim.Duration
	span   sim.Duration // measured simulated time; whole periods of the workload
}

// The sim-flush writer: 1 MiB every 10 ms of virtual time in 50-write
// bursts separated by 700 ms pauses (a period of about 1.2 s), the load
// cmd/sim-bench drives. The pauses are where Algorithm 1 finds
// flush-eligible guests.
const (
	writeBytes    = 1 << 20
	writeInterval = 10 * sim.Millisecond
	burstWrites   = 50
	burstPause    = 700 * sim.Millisecond
)

// The sim-contend readers: eight readahead streams per guest, on for 2 s
// and idle for 2 s, every guest in step, so host congestion both starts
// and clears within each 4 s cycle. The idle half is what lets the
// device's utilization fall to the G-state relief threshold.
const (
	streamsPerGuest = 8
	streamsOn       = 2 * sim.Second
	streamsOff      = 2 * sim.Second
)

func flushSpec(quick bool) simSpec {
	if quick {
		return simSpec{hosts: 1, guests: 50, epoch: 50 * sim.Millisecond,
			warmup: 1200 * sim.Millisecond, span: 2400 * sim.Millisecond}
	}
	return simSpec{hosts: 1, guests: 300, epoch: 50 * sim.Millisecond,
		warmup: 1200 * sim.Millisecond, span: 12 * sim.Second}
}

func contendSpec(quick bool) simSpec {
	if quick {
		return simSpec{hosts: 2, guests: 3, epoch: 50 * sim.Millisecond,
			warmup: 4 * sim.Second, span: 4 * sim.Second}
	}
	return simSpec{hosts: 2, guests: 12, epoch: 50 * sim.Millisecond,
		warmup: 4 * sim.Second, span: 8 * sim.Second}
}

// simBench is one constructed testbed.
type simBench struct {
	spec     simSpec
	tb       *cluster.ParallelTestbed
	managers []*core.Manager
	phases   [][]streamPhase // per host: every stream on-phase started

	// The benchmark's own VDisk calls (sim-flush runs one kernel, so these
	// are never touched concurrently). Calls are timed only when timeIO.
	timeIO  bool
	ioCalls uint64
	ioNanos int64
}

// streamPhase is one on-phase of a guest's readers.
type streamPhase struct {
	start sim.Time
	ops   *workload.Recorder
}

func runSimFlush(opts options) (*outcome, error) {
	return runSim(opts, flushSpec(opts.quick), buildFlush, func(o *outcome, c map[string]float64) {
		o.check(c["core.flush_orders"] > 0, "sim-flush: no flush orders issued")
	})
}

func runSimContend(opts options) (*outcome, error) {
	return runSim(opts, contendSpec(opts.quick), buildContend, func(o *outcome, c map[string]float64) {
		for _, k := range []string{
			"core.vetoes", "core.confirms", "core.relieves", "core.cosched_runs",
			"core.gstate_demotes", "core.gstate_promotes",
		} {
			o.check(c[k] > 0, "sim-contend: %s is 0", k)
		}
	})
}

// buildFlush: 300 guests on one host and one kernel, on the default
// paravirtual path with the paper's three policies.
func buildFlush(seed uint64, spec simSpec, timeIO bool) *simBench {
	rng := stats.NewStream(seed, "orchbench/sim-flush")
	b := &simBench{spec: spec, timeIO: timeIO}
	b.tb = cluster.NewParallelTestbed(spec.hosts, hypervisor.Config{}, rng)
	stagger := rng.Fork("stagger")
	for h := 0; h < spec.hosts; h++ {
		host, k := b.tb.Host(h), b.tb.Kernel(h)
		m := core.NewManager(host, core.All(), core.ManagerConfig{}, rng.Fork(fmt.Sprintf("mgr%d", h)))
		b.managers = append(b.managers, m)
		for i := 0; i < spec.guests; i++ {
			rt := host.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 1 << 30},
				guest.DiskConfig{Name: "xvda", CacheConfig: pagecache.Config{
					WakeInterval: 30 * sim.Second, DirtyRatio: 0.9, BackgroundRatio: 0.8,
				}})
			m.EnableGuest(rt)
			// Starts are spread over the first write interval, at
			// microsecond offsets drawn from the seed.
			b.startWriter(k, rt, sim.Millisecond+sim.Duration(stagger.Intn(10_000))*sim.Microsecond)
		}
	}
	return b
}

func (b *simBench) startWriter(k *sim.Kernel, rt *hypervisor.GuestRuntime, offset sim.Duration) {
	d := rt.G.Disk("xvda")
	p := rt.G.NewProcess(1)
	burst := 0
	var write func()
	write = func() {
		if burst == 0 {
			burst = burstWrites
		}
		b.ioCalls++
		if b.timeIO {
			t0 := time.Now()
			d.Write(p, writeBytes, nil)
			b.ioNanos += time.Since(t0).Nanoseconds()
		} else {
			d.Write(p, writeBytes, nil)
		}
		if burst--; burst > 0 {
			k.After(writeInterval, write)
		} else {
			k.After(burstPause, write)
		}
	}
	k.After(offset, write)
}

// buildContend: two hosts on two parallel kernels in dedicated-I/O-core
// mode with socket routing and a small host dispatch bound; guests in a
// gold/silver/bronze mix under all four policies, each running eight
// readahead streams against a 68-request queue.
func buildContend(seed uint64, spec simSpec, _ bool) *simBench {
	rng := stats.NewStream(seed, "orchbench/sim-contend")
	cfg := hypervisor.Config{
		Mode:              hypervisor.ModeDedicated,
		RouteBySocket:     true,
		MaxDeviceInFlight: 8,
		// The G-state controller's latency law reads per-guest host-path
		// latency from the decision-trace recorder.
		Trace: true,
	}
	b := &simBench{spec: spec, phases: make([][]streamPhase, spec.hosts)}
	b.tb = cluster.NewParallelTestbed(spec.hosts, cfg, rng)
	pol := core.Policies{Flush: true, Congestion: true, Cosched: true, GState: true}
	tiers := []gstate.Tier{gstate.Gold, gstate.Silver, gstate.Bronze}
	stagger := rng.Fork("stagger")
	for h := 0; h < spec.hosts; h++ {
		host, k := b.tb.Host(h), b.tb.Kernel(h)
		m := core.NewManager(host, pol, core.ManagerConfig{}, rng.Fork(fmt.Sprintf("mgr%d", h)))
		b.managers = append(b.managers, m)
		for i := 0; i < spec.guests; i++ {
			rt := host.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 2 << 30}, guest.DiskConfig{
				Name:        "xvda",
				QueueConfig: blkio.Config{Limit: 68, MaxMerge: 128 << 10},
				MaxTransfer: 64 << 10,
			})
			// The tier must be declared before the guest is enabled.
			gstate.PublishSLA(host.Store(), rt.G.ID(), tiers[i%len(tiers)], gstate.SLA{})
			m.EnableGuest(rt)
			b.startStreams(h, k, rt, rng.Fork(fmt.Sprintf("streams%d.%d", h, i)),
				sim.Duration(stagger.Intn(50_000))*sim.Microsecond)
		}
	}
	return b
}

// startStreams runs a guest's readers on the fixed on/off cycle. Each
// on-phase is a fresh MultiStream (a stopped one cannot restart).
func (b *simBench) startStreams(h int, k *sim.Kernel, rt *hypervisor.GuestRuntime, rng *stats.Stream, offset sim.Duration) {
	phase := 0
	var on func()
	on = func() {
		ms := workload.NewMultiStream(k, rt.G, rt.G.Disks()[0], streamsPerGuest, 1<<30, 1<<20,
			rng.Fork(strconv.Itoa(phase)))
		phase++
		ms.Start()
		b.phases[h] = append(b.phases[h], streamPhase{start: k.Now(), ops: ms.Ops()})
		k.After(streamsOn, ms.Stop)
		k.After(streamsOn+streamsOff, on)
	}
	k.After(offset, on)
}

// advance runs every kernel to t one epoch per cluster.RunEpochs call;
// onSync fires from RunEpochs's sync callback after each epoch.
func (b *simBench) advance(t sim.Time, onSync func()) {
	var sync func(sim.Time)
	if onSync != nil {
		sync = func(sim.Time) { onSync() }
	}
	ks := b.tb.Kernels()
	for now := ks[0].Now(); now < t; now += b.spec.epoch {
		upto := now + b.spec.epoch
		if upto > t {
			upto = t
		}
		cluster.RunEpochs(ks, upto, b.spec.epoch, sync)
	}
}

// snapshot reads every simulated counter the report uses, through the
// layers' public getters, summed over hosts.
func (b *simBench) snapshot() map[string]float64 {
	c := map[string]float64{}
	for h := 0; h < b.tb.Size(); h++ {
		host, k := b.tb.Host(h), b.tb.Kernel(h)
		c["sim.events"] += float64(k.Executed())
		reads, writes, notifies := host.Store().Stats()
		c["store.reads"] += float64(reads)
		c["store.writes"] += float64(writes)
		c["store.notifies"] += float64(notifies)
		c["bus.notifications"] += float64(host.Bus().Notifications())
		if rec := host.Recorder(); rec != nil {
			c["trace.records"] += float64(rec.Recorded())
		}
		for _, rt := range host.Guests() {
			for _, d := range rt.G.Disks() {
				c["pagecache.throttles"] += float64(d.Cache.Throttles())
				c["blkio.submitted"] += float64(d.Queue.Submitted())
				c["blkio.merged"] += float64(d.Queue.Merged())
				c["blkio.throttled"] += float64(d.Queue.Throttled())
			}
		}
		dev := host.Device()
		c["device.busy_ns"] += dev.UtilFraction(k.Now()) * float64(k.Now())
		if arr, ok := dev.(interface{ Members() []device.BlockDevice }); ok {
			for _, mem := range arr.Members() {
				if bm, ok := mem.(interface{ BytesMoved() float64 }); ok {
					c["device.bytes"] += bm.BytesMoved()
				}
			}
		}
		for name, v := range coreCounterNames(b.managers[h].Counters()) {
			c[name] += v
		}
	}
	c["guest.io_calls"] = float64(b.ioCalls)
	return c
}

func coreCounterNames(c core.Counters) map[string]float64 {
	return map[string]float64{
		"core.flush_orders":     float64(c.FlushNotices),
		"core.flush_timeouts":   float64(c.FlushTimeouts),
		"core.vetoes":           float64(c.Vetoes),
		"core.confirms":         float64(c.Confirms),
		"core.relieves":         float64(c.Relieves),
		"core.release_retries":  float64(c.ReleaseRetries),
		"core.release_timeouts": float64(c.ReleaseTimeouts),
		"core.hold_timeouts":    float64(c.HoldTimeouts),
		"core.cosched_runs":     float64(c.CoschedRuns),
		"core.gstate_demotes":   float64(c.GStateDemotes),
		"core.gstate_promotes":  float64(c.GStatePromotes),
		"core.sla_violations":   float64(c.SLAViolations),
		"core.heartbeat_misses": float64(c.HeartbeatMisses),
		"core.fallbacks":        float64(c.Fallbacks),
	}
}

// spanStats adds the measured-span statistics that are not plain
// counter deltas: device utilization over the span, read-chunk p99 of
// the stream phases started in the span, and the block-queue wait p99
// since the round began.
func (b *simBench) spanStats(c map[string]float64, from sim.Time) {
	spanNs := float64(b.spec.span)
	c["device.util"] = c["device.busy_ns"] / (spanNs * float64(b.tb.Size()))
	delete(c, "device.busy_ns")
	c["device.io_mb_per_s"] = c["device.bytes"] / 1e6 / (spanNs / 1e9)
	delete(c, "device.bytes")
	reads := metrics.NewHistogram()
	for _, ph := range b.phases {
		for _, p := range ph {
			if p.start >= from {
				reads.Merge(p.ops.Latency)
			}
		}
	}
	c["guest.read_p99_ms"] = float64(reads.Percentile(99)) / 1e6
	c["guest.reads"] = float64(reads.Count())
	qwait := metrics.NewHistogram()
	for h := 0; h < b.tb.Size(); h++ {
		for _, rt := range b.tb.Host(h).Guests() {
			for _, d := range rt.G.Disks() {
				qwait.Merge(d.Queue.QueueLatency())
			}
		}
	}
	c["blkio.queue_wait_p99_ms"] = float64(qwait.Percentile(99)) / 1e6
	c["blkio.merge_ratio"] = ratio(c["blkio.merged"], c["blkio.submitted"])
	c["core.veto_ratio"] = ratio(c["core.vetoes"], c["core.vetoes"]+c["core.confirms"])
}

// controlOrders counts control-plane orders issued and those that
// timed out or fell back.
func controlOrders(c map[string]float64) (issued, failed float64) {
	issued = c["core.flush_orders"] + c["core.vetoes"] + c["core.confirms"] + c["core.relieves"] +
		c["core.release_retries"] + c["core.cosched_runs"] + c["core.gstate_demotes"] + c["core.gstate_promotes"]
	failed = c["core.flush_timeouts"] + c["core.release_timeouts"] + c["core.hold_timeouts"] + c["core.fallbacks"]
	return issued, failed
}

// simRound is one measured round.
type simRound struct {
	setup  time.Duration
	wall   time.Duration
	epochs []time.Duration    // wall time of each epoch of the span
	counts map[string]float64 // simulated statistics of the measured span
	cpu    time.Duration
	ioNs   int64
	rss    int64 // peak resident set seen at the round's epoch boundaries
}

func (r simRound) digest() string {
	h := sha256.New()
	for _, k := range sortedKeys(r.counts) {
		fmt.Fprintf(h, "%s=%v\n", k, r.counts[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func runOneSimRound(seed uint64, spec simSpec, build func(uint64, simSpec, bool) *simBench,
	tracing bool, prof *profiler, rt *runtimeDelta, rss *rssProbe) (simRound, error) {
	settle()
	t0 := time.Now()
	b := build(seed, spec, tracing)
	r := simRound{setup: time.Since(t0)}
	sampleRSS := func() { r.rss = max(r.rss, rss.bytes()) }
	sampleRSS()

	b.advance(sim.Time(spec.warmup), sampleRSS)
	before, ioBefore := b.snapshot(), b.ioNanos
	u0, rt0 := readUsage(), readRuntime()
	if tracing {
		if err := prof.start(); err != nil {
			return r, err
		}
	}
	start := time.Now()
	last := start
	b.advance(sim.Time(spec.warmup+spec.span), func() {
		r.epochs = append(r.epochs, time.Since(last))
		sampleRSS()
		last = time.Now()
	})
	r.wall = time.Since(start)
	if tracing {
		if err := prof.stop(); err != nil {
			return r, err
		}
	}
	u1, rt1 := readUsage(), readRuntime()
	rt.add(rt0, rt1)
	r.cpu = u1.cpu - u0.cpu
	r.ioNs = b.ioNanos - ioBefore
	after := b.snapshot()
	r.counts = map[string]float64{}
	for k, v := range after {
		r.counts[k] = v - before[k]
	}
	b.spanStats(r.counts, sim.Time(spec.warmup))
	return r, nil
}

// epochCosts gives, for each epoch of the measured span, the median of
// its wall time (in microseconds) over the rounds. Every round repeats
// the same simulated work epoch for epoch, so the median is the epoch's
// typical cost, its garbage collection included, while a burst of other
// load on a shared machine that slows fewer than half of the rounds at
// that epoch leaves it unchanged.
func epochCosts(rounds []simRound) []float64 {
	costs := make([]float64, len(rounds[0].epochs))
	xs := make([]float64, len(rounds))
	for i := range costs {
		for j, r := range rounds {
			xs[j] = float64(r.epochs[i].Nanoseconds()) / 1e3
		}
		costs[i] = median(xs)
	}
	return costs
}

// runSim runs rounds until the budget is spent (at least one). A traced
// run spends the first half untraced and the second half traced, and
// reports the per-layer metrics of the traced half plus the overhead.
func runSim(opts options, spec simSpec, build func(uint64, simSpec, bool) *simBench,
	checks func(*outcome, map[string]float64)) (*outcome, error) {
	rss, err := openRSSProbe()
	if err != nil {
		return nil, err
	}
	defer rss.close()
	start := time.Now()
	plainUntil := start.Add(opts.budget)
	if opts.trace {
		plainUntil = start.Add(opts.budget / 2)
	}
	var plain, traced []simRound
	var prof profiler
	var rtPlain, rtTraced runtimeDelta
	for len(plain) == 0 || time.Now().Before(plainUntil) {
		r, err := runOneSimRound(opts.seed, spec, build, false, nil, &rtPlain, rss)
		if err != nil {
			return nil, err
		}
		plain = append(plain, r)
	}
	for opts.trace && (len(traced) == 0 || time.Since(start) < opts.budget) {
		r, err := runOneSimRound(opts.seed, spec, build, true, &prof, &rtTraced, rss)
		if err != nil {
			return nil, err
		}
		traced = append(traced, r)
	}
	all := append(append([]simRound(nil), plain...), traced...)

	o := &outcome{}
	first := all[0]
	checks(o, first.counts)
	want := first.digest()
	for i, r := range all[1:] {
		if d := r.digest(); d != want {
			o.check(false, "round %d simulated statistics differ from round 0 (%s vs %s): %v vs %v",
				i+1, d, want, r.counts, first.counts)
		}
	}
	for _, r := range all {
		issued, failed := controlOrders(r.counts)
		o.attempted += uint64(issued)
		o.failed += uint64(failed)
	}

	guests := float64(spec.hosts * spec.guests)
	spanSecs := float64(spec.span) / 1e9
	rates := func(rs []simRound) []float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = guests * spanSecs / r.wall.Seconds()
		}
		return xs
	}
	// rate is the work of one span over the sum of its epoch costs.
	rate := func(costs []float64) float64 {
		var us float64
		for _, c := range costs {
			us += c
		}
		return guests * spanSecs / (us / 1e6)
	}
	var setups []float64
	for _, r := range plain {
		setups = append(setups, r.setup.Seconds())
	}
	// The first round runs on a cold heap and caches; when there are
	// enough rounds it is a warm-up and is left out of the timings.
	timed := plain
	if len(timed) > 2 {
		timed = timed[1:]
	}
	costs := epochCosts(timed)
	var peaks []float64
	for _, r := range timed {
		peaks = append(peaks, float64(r.rss)/1e6)
	}
	peakMB := median(peaks)
	issued, failed := controlOrders(first.counts)
	o.name("guest_s_per_s", rate(costs), "guest-s/s")
	o.name("sim_io_mb_per_s", first.counts["device.io_mb_per_s"], "MB/s")
	o.name("sim_io_p99_ms", first.counts["guest.read_p99_ms"], "ms")
	o.name("setup_s", median(setups), "s")
	o.name("peak_rss_mb", peakMB, "MB")
	o.name("fail_ratio", ratio(failed, issued), "ratio")
	o.name("rounds", float64(len(all)), "count")
	o.name("guests", guests, "count")
	o.name("sim_events", first.counts["sim.events"], "count")
	o.info = map[string]string{
		"sim_digest":  first.digest(),
		"round_rates": fmt.Sprintf("%.0f", rates(plain)),
		"setups_ms":   fmt.Sprintf("%.1f", scaled(setups, 1e3)),
	}

	if !opts.trace {
		o.set("work_per_s", rate(costs), "work/s")
		o.set("step_p50_us", quantile(costs, 0.5), "us")
		o.set("step_p90_us", quantile(costs, 0.9), "us")
		o.set("setup_s", median(setups), "s")
		o.set("peak_rss_mb", peakMB, "MB")
		return o, nil
	}

	c := traced[0].counts
	for _, k := range []string{
		"sim.events", "guest.io_calls", "pagecache.throttles",
		"blkio.submitted", "blkio.merge_ratio", "blkio.throttled", "blkio.queue_wait_p99_ms",
		"device.util", "device.io_mb_per_s", "guest.read_p99_ms",
		"store.reads", "store.writes", "store.notifies", "bus.notifications", "trace.records",
		"core.flush_orders", "core.flush_timeouts", "core.vetoes", "core.confirms", "core.relieves",
		"core.veto_ratio", "core.release_retries", "core.cosched_runs", "core.gstate_demotes",
		"core.gstate_promotes", "core.sla_violations", "core.fallbacks",
	} {
		o.set(k, c[k], unitOf(k))
	}
	var wall, cpu time.Duration
	var events, ioCalls float64
	var ioNs int64
	var tEpochs []time.Duration
	for _, r := range traced {
		wall += r.wall
		cpu += r.cpu
		events += r.counts["sim.events"]
		ioCalls += r.counts["guest.io_calls"]
		ioNs += r.ioNs
		tEpochs = append(tEpochs, r.epochs...)
	}
	o.set("sim.ns_per_event", ratio(float64(wall.Nanoseconds()), events), "ns")
	o.set("guest.io_call_ns", ratio(float64(ioNs), ioCalls), "ns")
	o.set("cluster.epoch_ms_p50", durQuantile(tEpochs, 0.5)/1e3, "ms")
	o.set("cluster.epoch_ms_p99", durQuantile(tEpochs, 0.99)/1e3, "ms")
	o.set("process.cpu_util", ratio(cpu.Seconds(), wall.Seconds()*float64(runtime.NumCPU())), "ratio")
	o.set("bench.trace_overhead_pct", 100*(ratio(rate(costs), rate(epochCosts(traced)))-1), "%")
	prof.att.report(o)
	rtTraced.report(o, "event", events)
	return o, nil
}
