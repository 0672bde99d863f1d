// Command netstore-load drives an iorchestra-stored server (in-process
// by default, or an external one via -addr) with a fleet of concurrent
// clients and appends a run to the benchmark trajectory.
//
// The fleet is live clients plus deliberately stalled watchers: each
// live client registers a watch over its own subtree and hammers the
// store with writes, reads, lists — singly or in batched frames
// (-batch) — and the server may shard its store (-shards). The
// bench passes when every live client survives with zero transport
// errors while the server evicts every stalled one — the slow-client
// isolation property the wire protocol exists to provide.
//
// Trajectory schema (BENCH_netstore.json, schema 2 — append-only; see
// docs/PERFORMANCE.md for the methodology and the regression runbook):
//
//	{
//	  "bench": "netstore",
//	  "schema": 2,
//	  "runs": [
//	    {
//	      "time": "2026-08-08T12:00:00Z",    // wall-clock stamp of the run
//	      "git_sha": "c2d9603",              // HEAD when the run was taken
//	      "config": {
//	        "clients": 64,                   // live clients
//	        "stalled_clients": 4,            // never-reading watchers
//	        "duration_ms": 2000,             // op-loop wall time
//	        "keys_per_client": 32,           // keys in each client's subtree
//	        "value_bytes": 256,              // payload size per write
//	        "notify_queue": 256,             // historical: server per-conn event bound
//	        "write_timeout_ms": 500,         // server eviction window
//	        "network": "unix",               // transport
//	        "batch": 32,                     // ops per frame (1 = unbatched)
//	        "shards": 4,                     // server store shards
//	        "proto": 2                       // client protocol version
//	      },
//	      "results": {
//	        "ops": 123456,                   // completed client operations
//	        "ops_per_sec": 61728.0,
//	        "op_errors": 0,                  // failed operations (live clients)
//	        "latency_us": {                  // all ops; batched ops count the
//	          "mean": 81.2, "p50": 64.0,     // frame RTT once per member op
//	          "p90": 120.0, "p99": 310.0, "max": 1520.0
//	        },
//	        "op_latency_us": {               // same, split by op class
//	          "write": { ... }, "read": { ... }, "list": { ... }
//	        },
//	        "events_received": 4096,         // watch events seen by live clients
//	        "evicted": 4,                    // connections the server evicted
//	        "live_client_failures": 0,       // live clients with transport errors
//	        "server": { ... }                // netstore.Counters snapshot
//	      },
//	      "pass": true                       // live clean AND stalled evicted
//	    }
//	  ]
//	}
//
// A run whose config matches a previous run is additionally gated:
// throughput more than 20% below the best prior comparable run fails
// the bench (disable with -gate=false). Pre-schema-2 single-run reports
// are migrated into the trajectory on first append.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iorchestra/internal/metrics"
	"iorchestra/internal/netstore"
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
)

type config struct {
	Clients    int   `json:"clients"`
	Stalled    int   `json:"stalled_clients"`
	DurationMS int64 `json:"duration_ms"`
	Keys       int   `json:"keys_per_client"`
	ValueBytes int   `json:"value_bytes"`
	// NotifyQueue is the per-connection event bound servers had before
	// eviction became write-progress only; it is kept so older entries
	// round-trip unchanged, and new runs leave it unset.
	NotifyQueue  int    `json:"notify_queue,omitempty"`
	WriteTimeout int64  `json:"write_timeout_ms"`
	Network      string `json:"network"`
	Batch        int    `json:"batch"`
	Shards       int    `json:"shards"`
	Proto        uint8  `json:"proto"`
	GOGC         int    `json:"gogc,omitempty"`
}

type latencies struct {
	MeanUS float64 `json:"mean"`
	P50US  float64 `json:"p50"`
	P90US  float64 `json:"p90"`
	P99US  float64 `json:"p99"`
	MaxUS  float64 `json:"max"`
}

type results struct {
	Ops            uint64               `json:"ops"`
	OpsPerSec      float64              `json:"ops_per_sec"`
	OpErrors       uint64               `json:"op_errors"`
	Latency        latencies            `json:"latency_us"`
	OpLatency      map[string]latencies `json:"op_latency_us,omitempty"`
	EventsReceived uint64               `json:"events_received"`
	Evicted        uint64               `json:"evicted"`
	LiveFailures   int                  `json:"live_client_failures"`
	Server         netstore.Counters    `json:"server"`
}

// benchRun is one trajectory entry; the file accumulates them so the
// hot path's history stays reviewable alongside the code that moved it.
type benchRun struct {
	Time    string  `json:"time"`
	GitSHA  string  `json:"git_sha"`
	Config  config  `json:"config"`
	Results results `json:"results"`
	Pass    bool    `json:"pass"`
	// Note carries provenance for hand-migrated entries (e.g. the
	// pre-trajectory seed measurement); the tool itself never writes it.
	Note string `json:"note,omitempty"`
}

type trajectory struct {
	Bench  string     `json:"bench"`
	Schema int        `json:"schema"`
	Runs   []benchRun `json:"runs"`
}

// legacyReport is the pre-trajectory (schema 1) single-run layout,
// accepted on read so old reports migrate instead of being clobbered.
type legacyReport struct {
	Bench   string  `json:"bench"`
	Config  config  `json:"config"`
	Results results `json:"results"`
	Pass    bool    `json:"pass"`
}

func main() {
	clients := flag.Int("clients", 64, "live clients")
	stalled := flag.Int("stalled", 4, "stalled clients that never read their watch stream")
	duration := flag.Duration("duration", 2*time.Second, "op-loop duration")
	keys := flag.Int("keys", 32, "keys per client subtree")
	valueBytes := flag.Int("value-bytes", 256, "write payload size")
	batch := flag.Int("batch", 1, "operations per wire frame (1 = unbatched)")
	shards := flag.Int("shards", 1, "in-process server: store shards")
	proto := flag.Int("proto", int(netstore.ProtocolVersion), "client protocol version to negotiate")
	writeTimeout := flag.Duration("write-timeout", 500*time.Millisecond, "in-process server: eviction window")
	addr := flag.String("addr", "", "external server URL (tcp://host:port or unix:///path); empty = spawn in-process")
	out := flag.String("out", "BENCH_netstore.json", "trajectory path (runs are appended)")
	gate := flag.Bool("gate", true, "fail if throughput drops >20% below the best comparable tracked run")
	gogc := flag.Int("gogc", 0, "GC percent for this process, 0 = runtime default (recorded in the run config)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here (regression triage; see docs/PERFORMANCE.md)")
	flag.Parse()

	if *gogc > 0 {
		debug.SetGCPercent(*gogc)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *batch < 1 || *batch > netstore.MaxBatchOps {
		fatal(fmt.Errorf("-batch %d out of range [1, %d]", *batch, netstore.MaxBatchOps))
	}
	if *proto < int(netstore.ProtocolV1) || *proto > int(netstore.ProtocolVersion) {
		fatal(fmt.Errorf("-proto %d out of range [%d, %d]", *proto, netstore.ProtocolV1, netstore.ProtocolVersion))
	}
	cfg := config{
		Clients: *clients, Stalled: *stalled, DurationMS: duration.Milliseconds(),
		Keys: *keys, ValueBytes: *valueBytes,
		WriteTimeout: writeTimeout.Milliseconds(),
		Batch:        *batch, Shards: *shards, Proto: uint8(*proto), GOGC: *gogc,
	}

	var srv *netstore.Server
	network, address := "", ""
	if *addr != "" {
		var ok bool
		if address, ok = strings.CutPrefix(*addr, "tcp://"); ok {
			network = "tcp"
		} else if address, ok = strings.CutPrefix(*addr, "unix://"); ok {
			network = "unix"
		} else {
			fatal(fmt.Errorf("bad -addr %q: want tcp:// or unix://", *addr))
		}
	} else {
		srv = netstore.NewServer(netstore.Options{
			WriteTimeout: *writeTimeout,
			Shards:       *shards,
		})
		defer srv.Close()
		dir, err := os.MkdirTemp("", "netstore-load")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		network, address = "unix", filepath.Join(dir, "store.sock")
		l, err := net.Listen(network, address)
		if err != nil {
			fatal(err)
		}
		go srv.Serve(l)
	}
	cfg.Network = network

	res, err := run(network, address, cfg, *duration)
	if err != nil {
		fatal(err)
	}
	if srv != nil {
		res.Server = srv.Counters()
		res.Evicted = res.Server.Evicted
	}

	entry := benchRun{
		Time:    time.Now().UTC().Format(time.RFC3339),
		GitSHA:  gitSHA(),
		Config:  cfg,
		Results: *res,
	}
	entry.Pass = res.LiveFailures == 0 && res.OpErrors == 0 &&
		(cfg.Stalled == 0 || res.Evicted >= uint64(cfg.Stalled))

	traj := loadTrajectory(*out)
	best, bestSHA := bestComparable(traj, cfg)
	traj.Runs = append(traj.Runs, entry)
	blob, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		fatal(err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("netstore-load: %d ops (%.0f/s), p50 %.0fµs p99 %.0fµs, batch %d, %d shards, proto v%d, %d events, %d evicted, %d live failures → %s (run %d)\n",
		res.Ops, res.OpsPerSec, res.Latency.P50US, res.Latency.P99US,
		cfg.Batch, cfg.Shards, cfg.Proto,
		res.EventsReceived, res.Evicted, res.LiveFailures, *out, len(traj.Runs))
	if !entry.Pass {
		fmt.Fprintln(os.Stderr, "netstore-load: FAIL (live clients must stay clean and stalled clients must be evicted)")
		os.Exit(1)
	}
	if *gate && best > 0 && res.OpsPerSec < 0.8*best {
		fmt.Fprintf(os.Stderr,
			"netstore-load: REGRESSION — %.0f ops/s is %.0f%% below the best comparable tracked run (%.0f ops/s at %s)\n",
			res.OpsPerSec, 100*(1-res.OpsPerSec/best), best, bestSHA)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netstore-load:", err)
	os.Exit(1)
}

// gitSHA stamps runs with the commit they measured; empty outside a
// checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// loadTrajectory reads the existing trajectory, migrating a legacy
// single-run report into the first entry. A missing or unreadable file
// starts a fresh trajectory.
func loadTrajectory(path string) trajectory {
	traj := trajectory{Bench: "netstore", Schema: 2}
	blob, err := os.ReadFile(path)
	if err != nil {
		return traj
	}
	var t trajectory
	if err := json.Unmarshal(blob, &t); err == nil && t.Schema >= 2 {
		t.Bench, t.Schema = "netstore", 2
		return t
	}
	var legacy legacyReport
	if err := json.Unmarshal(blob, &legacy); err == nil && legacy.Bench == "netstore" {
		// Schema 1 predates batching/sharding; those runs were unbatched
		// v1 against a single store loop.
		if legacy.Config.Batch == 0 {
			legacy.Config.Batch = 1
		}
		if legacy.Config.Shards == 0 {
			legacy.Config.Shards = 1
		}
		if legacy.Config.Proto == 0 {
			legacy.Config.Proto = 1
		}
		traj.Runs = append(traj.Runs, benchRun{
			Config: legacy.Config, Results: legacy.Results, Pass: legacy.Pass,
		})
	}
	return traj
}

// bestComparable finds the highest passing throughput among tracked
// runs with the identical workload config — the bar the regression gate
// holds new runs to.
func bestComparable(traj trajectory, cfg config) (float64, string) {
	var best float64
	sha := "?"
	for _, r := range traj.Runs {
		if r.Config == cfg && r.Pass && r.Results.OpsPerSec > best {
			best = r.Results.OpsPerSec
			if r.GitSHA != "" {
				sha = r.GitSHA
			}
		}
	}
	return best, sha
}

// opClasses are the latency buckets; batched ops record the frame RTT
// once per member op in the member's class, so class percentiles stay
// comparable across batch sizes (each op's latency is the time its
// caller waited).
var opClasses = []string{"write", "read", "list"}

type classHists struct {
	write, read, list *metrics.Histogram
}

func newClassHists() *classHists {
	return &classHists{
		write: metrics.NewHistogram(),
		read:  metrics.NewHistogram(),
		list:  metrics.NewHistogram(),
	}
}

func (h *classHists) of(class string) *metrics.Histogram {
	switch class {
	case "read":
		return h.read
	case "list":
		return h.list
	default:
		return h.write
	}
}

// mixClass is the fixed op mix: 6 writes, 1 read, 1 list per 8 ops.
func mixClass(n int) string {
	switch n % 8 {
	case 6:
		return "read"
	case 7:
		return "list"
	default:
		return "write"
	}
}

// run executes the fleet and aggregates results.
func run(network, address string, cfg config, duration time.Duration) (*results, error) {
	payload := strings.Repeat("x", cfg.ValueBytes)
	var (
		ops      atomic.Uint64
		opErrs   atomic.Uint64
		events   atomic.Uint64
		failures atomic.Int64
	)
	hists := make([]*classHists, cfg.Clients)

	// Stalled watchers first, so their tree-wide watches are installed
	// before the write storm starts filling their queues.
	for i := 0; i < cfg.Stalled; i++ {
		c, err := netstore.DialStalled(network, address, store.Dom0, store.Root)
		if err != nil {
			return nil, fmt.Errorf("stalled watcher %d: %w", i, err)
		}
		defer c.Close()
	}

	deadline := time.Now().Add(duration)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		dom := store.DomID(i + 1)
		h := newClassHists()
		hists[i] = h
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := netstore.DialVersion(network, address, dom, "", cfg.Proto)
			if err != nil {
				failures.Add(1)
				return
			}
			defer c.Close()
			base := store.DomainPath(dom)
			for k := 0; k < cfg.Keys; k++ {
				if err := c.Write(fmt.Sprintf("%s/k%d", base, k), "0"); err != nil {
					failures.Add(1)
					return
				}
			}
			if _, err := c.Watch(base, func(string, string) { events.Add(1) }); err != nil {
				failures.Add(1)
				return
			}
			key := func(n int) string { return fmt.Sprintf("%s/k%d", base, n%cfg.Keys) }
			for n := 0; time.Now().Before(deadline); {
				if cfg.Batch <= 1 {
					class := mixClass(n)
					t0 := time.Now()
					var err error
					switch class {
					case "read":
						_, err = c.Read(key(n))
					case "list":
						_, err = c.List(base)
					default:
						err = c.Write(key(n), payload)
					}
					n++
					if err != nil {
						opErrs.Add(1)
						continue
					}
					h.of(class).Record(sim.Time(time.Since(t0).Nanoseconds()))
					ops.Add(1)
					continue
				}
				// Batched: the same mix packed into one frame. The RTT is
				// every member's latency — each op waited exactly that long.
				b := c.NewBatch()
				classes := make([]string, cfg.Batch)
				for j := 0; j < cfg.Batch; j++ {
					classes[j] = mixClass(n)
					switch classes[j] {
					case "read":
						b.Read(key(n))
					case "list":
						b.List(base)
					default:
						b.Write(key(n), payload)
					}
					n++
				}
				t0 := time.Now()
				res, err := b.Run()
				rtt := sim.Time(time.Since(t0).Nanoseconds())
				if err != nil {
					opErrs.Add(uint64(cfg.Batch))
					continue
				}
				for j, r := range res {
					if r.Err != nil {
						opErrs.Add(1)
						continue
					}
					h.of(classes[j]).Record(rtt)
					ops.Add(1)
				}
			}
			// The live-client health check: a final round trip and a clean
			// transport after the storm.
			if err := c.Ping(); err != nil {
				failures.Add(1)
				return
			}
			if err := c.Err(); err != nil {
				failures.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	all := metrics.NewHistogram()
	perClass := map[string]*metrics.Histogram{}
	for _, class := range opClasses {
		perClass[class] = metrics.NewHistogram()
	}
	for _, h := range hists {
		for _, class := range opClasses {
			perClass[class].Merge(h.of(class))
			all.Merge(h.of(class))
		}
	}
	res := &results{
		Ops:            ops.Load(),
		OpsPerSec:      float64(ops.Load()) / elapsed.Seconds(),
		OpErrors:       opErrs.Load(),
		EventsReceived: events.Load(),
		LiveFailures:   int(failures.Load()),
		Latency:        summarize(all),
		OpLatency:      map[string]latencies{},
	}
	for _, class := range opClasses {
		res.OpLatency[class] = summarize(perClass[class])
	}
	return res, nil
}

func summarize(h *metrics.Histogram) latencies {
	us := func(t sim.Time) float64 { return float64(t) / 1e3 }
	if h.Count() == 0 {
		return latencies{}
	}
	return latencies{
		MeanUS: us(h.Mean()),
		P50US:  us(h.Percentile(50)),
		P90US:  us(h.Percentile(90)),
		P99US:  us(h.Percentile(99)),
		MaxUS:  us(h.Max()),
	}
}
