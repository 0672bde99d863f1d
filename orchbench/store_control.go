package main

// The store-control workload: the paper's publish→react loop over the
// real wire. An in-process netstore.Server with default options is
// reached over a Unix socket by two connections in a closed loop, one
// operation per frame:
//
//   - the guest driver (domain 1) writes its stat keys, and every 8 ops
//     does one read and one list of its stats subtree; it watches its own
//     orders subtree;
//   - the Dom0 manager watches /local/domain, reads the guest's stat
//     keys and writes orders back into the guest's orders subtree.
//
// Every value carries a sequence number and its send time, so a watch
// callback on the other connection measures notify latency, and the
// checks can tell which write a read or event reflects.

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iorchestra/internal/netstore"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
)

const (
	guestDom      = store.DomID(1)
	statKeys      = 8
	orderKeys     = 4
	setupRepeats  = 15
	storeWarmup   = 500 * time.Millisecond
	storeWindow   = 500 * time.Millisecond
	maxWindows    = 1 << 10
	replayOps     = 200_000
	settleTimeout = 5 * time.Second
)

// Op classes, for per-class round-trip times.
const (
	opWrite = iota
	opRead
	opList
	opClasses
)

var classNames = [opClasses]string{"write", "read", "list"}

// storeInputs is everything the seed decides: the order in which each
// connection visits keys, and the payload padding of every value.
type storeInputs struct {
	guestKeys []int    // stat key the guest touches at op n (mod len)
	dom0Keys  []int    // stat key Dom0 reads / order key it writes
	pads      []string // value padding, by sequence number (mod len)
}

func newStoreInputs(seed uint64) storeInputs {
	rng := stats.NewStream(seed, "orchbench/store-control")
	in := storeInputs{}
	for i := 0; i < 4096; i++ {
		in.guestKeys = append(in.guestKeys, rng.Intn(statKeys))
		in.dom0Keys = append(in.dom0Keys, rng.Intn(statKeys*orderKeys))
	}
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	for i := 0; i < 257; i++ {
		b := make([]byte, 16+rng.Intn(113))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		in.pads = append(in.pads, string(b))
	}
	return in
}

// The guest's keys, built once so the loops spend nothing on paths.
var (
	statsDir              = store.DomainPath(guestDom) + "/stats"
	statPaths, orderPaths = keyPaths("stats/k", statKeys), keyPaths("orders/o", orderKeys)
)

func keyPaths(prefix string, n int) []string {
	ps := make([]string, n)
	for i := range ps {
		ps[i] = fmt.Sprintf("%s/%s%d", store.DomainPath(guestDom), prefix, i)
	}
	return ps
}

// encodeValue stamps a value with its sequence number and send time.
func encodeValue(seq uint64, sent time.Duration, pad string) string {
	return strconv.FormatUint(seq, 10) + ":" + strconv.FormatInt(int64(sent), 10) + ":" + pad
}

func decodeValue(v string) (seq uint64, sent time.Duration, ok bool) {
	a, rest, ok1 := strings.Cut(v, ":")
	b, _, ok2 := strings.Cut(rest, ":")
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	s, err1 := strconv.ParseUint(a, 10, 64)
	t, err2 := strconv.ParseInt(b, 10, 64)
	return s, time.Duration(t), err1 == nil && err2 == nil
}

// Window kinds: what a measurement window's records count toward.
const (
	unmeasured = iota // warm-up and the gaps between spans
	plainSpan
	tracedSpan
	spanKinds
)

// connRecord is one connection's measurements. Its loop goroutine writes
// ops and rtt; its watch callback writes notify, under testbed.mu.
type connRecord struct {
	ops    []uint64 // completed ops per window
	rtt    [spanKinds][opClasses]latHist
	notify [spanKinds]latHist
}

// testbed is one set-up server with its two connections.
type testbed struct {
	srv    *netstore.Server
	served chan struct{}
	guest  *netstore.Client
	dom0   *netstore.Client

	epoch time.Time     // send times are offsets from here
	phase atomic.Int64  // window index; -1 stops the loops
	kinds []int         // window kind, set before the window starts
	seq   atomic.Uint64 // global value sequence

	guestRec, dom0Rec          connRecord
	mu                         sync.Mutex
	seenByDom0, seenByGuest    map[string]string // latest value per path
	lastStat                   [statKeys]string  // guest's last write per key
	lastOrder                  [orderKeys]string // Dom0's last write per key
	errs, mismatches, attempts atomic.Uint64
	problems                   []string
}

func (tb *testbed) since() time.Duration { return time.Since(tb.epoch) }

func setupTestbed(sockPath string, in storeInputs) (*testbed, error) {
	tb := &testbed{
		epoch:       time.Now(),
		served:      make(chan struct{}),
		kinds:       make([]int, maxWindows),
		guestRec:    connRecord{ops: make([]uint64, maxWindows)},
		dom0Rec:     connRecord{ops: make([]uint64, maxWindows)},
		seenByDom0:  map[string]string{},
		seenByGuest: map[string]string{},
	}
	os.Remove(sockPath)
	l, err := net.Listen("unix", sockPath)
	if err != nil {
		return nil, err
	}
	tb.srv = netstore.NewServer(netstore.Options{})
	go func() {
		tb.srv.Serve(l)
		close(tb.served)
	}()
	if tb.guest, err = netstore.Dial("unix", sockPath, guestDom, ""); err != nil {
		tb.close()
		return nil, err
	}
	if tb.dom0, err = netstore.Dial("unix", sockPath, store.Dom0, ""); err != nil {
		tb.close()
		return nil, err
	}
	// The guest creates every key it owns, orders included: a node Dom0
	// created under the guest's subtree would be invisible to the
	// guest's watch.
	for k := 0; k < statKeys; k++ {
		tb.lastStat[k] = encodeValue(0, 0, in.pads[0])
		if err := tb.guest.Write(statPaths[k], tb.lastStat[k]); err != nil {
			tb.close()
			return nil, err
		}
	}
	for k := 0; k < orderKeys; k++ {
		tb.lastOrder[k] = encodeValue(0, 0, in.pads[0])
		if err := tb.guest.Write(orderPaths[k], tb.lastOrder[k]); err != nil {
			tb.close()
			return nil, err
		}
	}
	guestPrefix := store.DomainPath(guestDom)
	if _, err := tb.guest.Watch(guestPrefix+"/orders", func(path, value string) {
		tb.observe(&tb.guestRec, tb.seenByGuest, path, value)
	}); err != nil {
		tb.close()
		return nil, err
	}
	if _, err := tb.dom0.Watch(store.Root, func(path, value string) {
		if strings.HasPrefix(path, guestPrefix+"/stats/") {
			tb.observe(&tb.dom0Rec, tb.seenByDom0, path, value)
		}
	}); err != nil {
		tb.close()
		return nil, err
	}
	return tb, nil
}

// observe is a watch callback: it records notify latency against the
// window it fired in and remembers the latest value per path.
func (tb *testbed) observe(rec *connRecord, seen map[string]string, path, value string) {
	now := tb.since()
	seq, sent, ok := decodeValue(value)
	tb.mu.Lock()
	defer tb.mu.Unlock()
	seen[path] = value
	if p := tb.phase.Load(); ok && seq > 0 && p >= 0 {
		rec.notify[tb.kinds[p]].add(now - sent)
	}
}

func (tb *testbed) close() {
	if tb.guest != nil {
		tb.guest.Close()
	}
	if tb.dom0 != nil {
		tb.dom0.Close()
	}
	if tb.srv != nil {
		tb.srv.Close()
		<-tb.served
	}
}

// guestLoop is the guest driver's closed loop.
func (tb *testbed) guestLoop(in storeInputs, done *sync.WaitGroup) {
	defer done.Done()
	for n := 0; ; n++ {
		p := tb.phase.Load()
		if p < 0 {
			return
		}
		k := in.guestKeys[n%len(in.guestKeys)]
		class := opWrite
		switch n % 8 {
		case 6:
			class = opRead
		case 7:
			class = opList
		}
		tb.attempts.Add(1)
		t0 := time.Now()
		var err error
		switch class {
		case opWrite:
			seq := tb.seq.Add(1)
			v := encodeValue(seq, tb.since(), in.pads[seq%uint64(len(in.pads))])
			t0 = time.Now()
			if err = tb.guest.Write(statPaths[k], v); err == nil {
				tb.lastStat[k] = v
			}
		case opRead:
			var v string
			if v, err = tb.guest.Read(statPaths[k]); err == nil && v != tb.lastStat[k] {
				tb.mismatch("guest read %s = %.40q, last written %.40q", statPaths[k], v, tb.lastStat[k])
			}
		case opList:
			var names []string
			if names, err = tb.guest.List(statsDir); err == nil && len(names) != statKeys {
				tb.mismatch("guest list of stats returned %d names, want %d", len(names), statKeys)
			}
		}
		tb.record(&tb.guestRec, p, class, time.Since(t0), err)
	}
}

// dom0Loop is the manager's closed loop: read a guest stat key, then
// write an order.
func (tb *testbed) dom0Loop(in storeInputs, done *sync.WaitGroup) {
	defer done.Done()
	var lastRead [statKeys]uint64
	for n := 0; ; n++ {
		p := tb.phase.Load()
		if p < 0 {
			return
		}
		pick := in.dom0Keys[(n/2)%len(in.dom0Keys)]
		tb.attempts.Add(1)
		var err error
		var t0 time.Time
		class := opRead
		if n%2 == 0 {
			k := pick % statKeys
			t0 = time.Now()
			var v string
			if v, err = tb.dom0.Read(statPaths[k]); err == nil {
				seq, _, ok := decodeValue(v)
				switch {
				case !ok:
					tb.mismatch("dom0 read %s: malformed value %.40q", statPaths[k], v)
				case seq < lastRead[k] || seq > tb.seq.Load():
					tb.mismatch("dom0 read %s: sequence %d outside [%d, %d]", statPaths[k], seq, lastRead[k], tb.seq.Load())
				default:
					lastRead[k] = seq
				}
			}
		} else {
			class = opWrite
			k := pick % orderKeys
			seq := tb.seq.Add(1)
			v := encodeValue(seq, tb.since(), in.pads[seq%uint64(len(in.pads))])
			t0 = time.Now()
			if err = tb.dom0.Write(orderPaths[k], v); err == nil {
				tb.lastOrder[k] = v
			}
		}
		tb.record(&tb.dom0Rec, p, class, time.Since(t0), err)
	}
}

// record counts a completed op against the window it started in.
func (tb *testbed) record(rec *connRecord, p int64, class int, d time.Duration, err error) {
	if err != nil {
		tb.errs.Add(1)
		return
	}
	rec.ops[p]++
	rec.rtt[tb.kinds[p]][class].add(d)
}

func (tb *testbed) mismatch(format string, args ...any) {
	if tb.mismatches.Add(1) <= 5 {
		tb.mu.Lock()
		tb.problems = append(tb.problems, fmt.Sprintf(format, args...))
		tb.mu.Unlock()
	}
}

// settleFinal waits until each side's watch has delivered the other
// side's final value of every key it wrote during the run.
func (tb *testbed) settleFinal() []string {
	deadline := time.Now().Add(settleTimeout)
	for {
		var missing []string
		tb.mu.Lock()
		for k, last := range tb.lastStat {
			if seq, _, _ := decodeValue(last); seq > 0 && tb.seenByDom0[statPaths[k]] != last {
				missing = append(missing, "dom0 never saw the final value of "+statPaths[k])
			}
		}
		for k, last := range tb.lastOrder {
			if seq, _, _ := decodeValue(last); seq > 0 && tb.seenByGuest[orderPaths[k]] != last {
				missing = append(missing, "guest never saw the final value of "+orderPaths[k])
			}
		}
		tb.mu.Unlock()
		if len(missing) == 0 || time.Now().After(deadline) {
			return missing
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// storeSpan aggregates the windows of one kind.
type storeSpan struct {
	kind    int
	windows []int
	durs    []time.Duration
	rates   []float64 // ops/s of each window
	rtt     [opClasses]latHist
	all     latHist // every op class
	notify  latHist
	ops     uint64
	wall    time.Duration
}

func (s *storeSpan) collect(tb *testbed) {
	for _, rec := range []*connRecord{&tb.guestRec, &tb.dom0Rec} {
		for c := range s.rtt {
			s.rtt[c].merge(&rec.rtt[s.kind][c])
			s.all.merge(&rec.rtt[s.kind][c])
		}
		s.notify.merge(&rec.notify[s.kind])
	}
	for i, p := range s.windows {
		ops := tb.guestRec.ops[p] + tb.dom0Rec.ops[p]
		s.ops += ops
		s.wall += s.durs[i]
		s.rates = append(s.rates, float64(ops)/s.durs[i].Seconds())
	}
}

func runStoreControl(opts options) (*outcome, error) {
	in := newStoreInputs(opts.seed)
	if err := os.MkdirAll(opts.sockDir, 0o755); err != nil {
		return nil, err
	}
	sockPath := filepath.Join(opts.sockDir, fmt.Sprintf("store-%d.sock", os.Getpid()))
	defer os.Remove(sockPath)

	start := time.Now()
	var setups []float64
	var tb *testbed
	for i := 0; i < setupRepeats; i++ {
		if tb != nil {
			tb.close()
		}
		settle()
		t0 := time.Now()
		var err error
		if tb, err = setupTestbed(sockPath, in); err != nil {
			return nil, fmt.Errorf("store-control setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer tb.close()

	var wg sync.WaitGroup
	wg.Add(2)
	go tb.guestLoop(in, &wg)
	go tb.dom0Loop(in, &wg)
	stop := func() {
		tb.phase.Store(-1)
		wg.Wait()
	}
	defer stop() // on early return; runs before tb.close
	time.Sleep(storeWarmup)

	budget := opts.budget - time.Since(start)
	plainBudget, tracedBudget := budget, time.Duration(0)
	if opts.trace {
		plainBudget, tracedBudget = budget/2, budget-budget/2
	}
	plain, traced := storeSpan{kind: plainSpan}, storeSpan{kind: tracedSpan}
	var prof profiler
	var rtd runtimeDelta
	var srv0, srv1 netstore.Counters
	var u0, u1 usage
	p := 0
	// measure runs back-to-back windows for about budget (at least one),
	// then moves the loops to an unmeasured gap window. A window lasts
	// from the instant the phase counter moved to it until it moved on.
	measure := func(span *storeSpan, budget time.Duration) {
		end := time.Now().Add(budget)
		for n := 0; (n == 0 || time.Now().Before(end)) && p+2 < maxWindows; n++ {
			p++
			tb.kinds[p] = span.kind
			t0 := time.Now()
			tb.phase.Store(int64(p))
			time.Sleep(storeWindow)
			span.windows = append(span.windows, p)
			span.durs = append(span.durs, time.Since(t0))
		}
		p++
		tb.phase.Store(int64(p))
	}
	measure(&plain, plainBudget)
	if opts.trace {
		srv0, u0 = tb.srv.Counters(), readUsage()
		rt0 := readRuntime()
		if err := prof.start(); err != nil {
			return nil, err
		}
		measure(&traced, tracedBudget)
		if err := prof.stop(); err != nil {
			return nil, err
		}
		rtd.add(rt0, readRuntime())
		srv1, u1 = tb.srv.Counters(), readUsage()
	}
	stop()
	missing := tb.settleFinal()
	tb.mu.Lock()
	plain.collect(tb)
	traced.collect(tb)
	tb.mu.Unlock()

	o := &outcome{attempted: tb.attempts.Load()}
	o.failed = tb.errs.Load() + tb.mismatches.Load()
	o.problems = append(o.problems, tb.problems...)
	o.problems = append(o.problems, missing...)
	ctr := tb.srv.Counters()
	o.check(ctr.Evicted == 0, "store-control: server evicted %d connections", ctr.Evicted)
	o.check(tb.errs.Load() == 0, "store-control: %d failed operations", tb.errs.Load())
	o.check(tb.guest.Err() == nil, "store-control: guest transport error: %v", tb.guest.Err())
	o.check(tb.dom0.Err() == nil, "store-control: dom0 transport error: %v", tb.dom0.Err())
	o.check(plain.ops > 0, "store-control: no operation completed")

	o.name("ops_per_s", median(plain.rates), "ops/s")
	o.name("op_p50_us", plain.all.quantileUs(0.5), "us")
	o.name("op_p90_us", plain.all.quantileUs(0.9), "us")
	o.name("op_p99_us", plain.all.quantileUs(0.99), "us")
	o.name("notify_p50_us", plain.notify.quantileUs(0.5), "us")
	o.name("notify_p90_us", plain.notify.quantileUs(0.9), "us")
	o.name("notifications", float64(plain.notify.n), "count")
	rss := peakRSSMB()
	o.name("setup_s", median(setups), "s")
	o.name("peak_rss_mb", rss, "MB")
	o.name("fail_ratio", ratio(float64(o.failed), float64(o.attempted)), "ratio")
	o.name("windows", float64(len(plain.windows)+len(traced.windows)), "count")
	o.info = map[string]string{
		"window_rates": fmt.Sprintf("%.0f", plain.rates),
		"setups_ms":    fmt.Sprintf("%.2f", scaled(setups, 1e3)),
	}

	if !opts.trace {
		o.set("work_per_s", median(plain.rates), "work/s")
		o.set("step_p50_us", plain.all.quantileUs(0.5), "us")
		o.set("step_p90_us", plain.all.quantileUs(0.9), "us")
		o.set("setup_s", median(setups), "s")
		o.set("peak_rss_mb", rss, "MB")
		return o, nil
	}

	for c, name := range classNames {
		o.set("netstore.rtt_p50_us."+name, traced.rtt[c].quantileUs(0.5), "us")
		o.set("netstore.rtt_p99_us."+name, traced.rtt[c].quantileUs(0.99), "us")
	}
	o.set("netstore.notify_p50_us", traced.notify.quantileUs(0.5), "us")
	o.set("netstore.notify_p90_us", traced.notify.quantileUs(0.9), "us")
	events, coalesced := float64(srv1.Events-srv0.Events), float64(srv1.Coalesced-srv0.Coalesced)
	o.set("netstore.events", events, "count")
	o.set("netstore.coalesce_ratio", ratio(coalesced, events+coalesced), "ratio")
	o.set("netstore.store_writes", float64(srv1.StoreWrites-srv0.StoreWrites), "count")
	o.set("netstore.store_notifies", float64(srv1.StoreNotifies-srv0.StoreNotifies), "count")
	o.set("netstore.evicted", float64(srv1.Evicted), "count")
	ops := float64(traced.ops)
	o.set("process.csw_per_op", ratio(float64(u1.csw-u0.csw), ops), "count")
	o.set("process.cpu_util", ratio((u1.cpu-u0.cpu).Seconds(), traced.wall.Seconds()*float64(runtime.NumCPU())), "ratio")
	o.set("bench.trace_overhead_pct", 100*(ratio(median(plain.rates), median(traced.rates))-1), "%")
	prof.att.report(o)
	rtd.report(o, "op", ops)
	w, r, l, err := replayStore(in)
	if err != nil {
		return nil, fmt.Errorf("store replay: %w", err)
	}
	o.set("store.write_ns", w, "ns")
	o.set("store.read_ns", r, "ns")
	o.set("store.list_ns", l, "ns")
	return o, nil
}

// replayStore replays store-control's operation sequence against an
// in-process store.Store with the same watches, timing each public call.
// Watch notifications are delivered between calls, untimed, as the
// server's store loop does.
func replayStore(in storeInputs) (writeNs, readNs, listNs float64, err error) {
	k := sim.NewKernel()
	st := store.New(k, 0)
	st.EnsureRoot()
	st.AddDomain(guestDom)
	pad := in.pads[0]
	for i := 0; i < statKeys; i++ {
		if err := st.Write(guestDom, statPaths[i], encodeValue(0, 0, pad)); err != nil {
			return 0, 0, 0, err
		}
	}
	for i := 0; i < orderKeys; i++ {
		if err := st.Write(guestDom, orderPaths[i], encodeValue(0, 0, pad)); err != nil {
			return 0, 0, 0, err
		}
	}
	var delivered int
	if _, err := st.Watch(guestDom, store.DomainPath(guestDom)+"/orders", func(string, string) { delivered++ }); err != nil {
		return 0, 0, 0, err
	}
	if _, err := st.Watch(store.Dom0, store.Root, func(string, string) { delivered++ }); err != nil {
		return 0, 0, 0, err
	}
	k.Run()
	var sum [opClasses]time.Duration
	var n [opClasses]int
	timed := func(class int, fn func() error) {
		t0 := time.Now()
		e := fn()
		sum[class] += time.Since(t0)
		n[class]++
		k.Run()
		if e != nil && err == nil {
			err = e
		}
	}
	for i := 0; i < replayOps; i++ {
		seq := uint64(i + 1)
		v := encodeValue(seq, time.Duration(i), in.pads[seq%uint64(len(in.pads))])
		gk := in.guestKeys[i%len(in.guestKeys)]
		switch i % 8 {
		case 6:
			timed(opRead, func() error { _, err := st.Read(guestDom, statPaths[gk]); return err })
		case 7:
			timed(opList, func() error { _, err := st.List(guestDom, statsDir); return err })
		default:
			timed(opWrite, func() error { return st.Write(guestDom, statPaths[gk], v) })
		}
		pick := in.dom0Keys[(i/2)%len(in.dom0Keys)]
		if i%2 == 0 {
			timed(opRead, func() error { _, err := st.Read(store.Dom0, statPaths[pick%statKeys]); return err })
		} else {
			timed(opWrite, func() error { return st.Write(store.Dom0, orderPaths[pick%orderKeys], v) })
		}
	}
	if err == nil && delivered == 0 {
		err = fmt.Errorf("no watch notification delivered")
	}
	avg := func(c int) float64 { return ratio(float64(sum[c].Nanoseconds()), float64(n[c])) }
	return avg(opWrite), avg(opRead), avg(opList), err
}
