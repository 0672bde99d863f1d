package netstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iorchestra/internal/fault"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// Options configures a Server. The zero value is usable.
type Options struct {
	// WriteTimeout is the write-progress window and the only eviction
	// rule: a connection whose socket cannot absorb one coalesced write
	// (at most ~48 KiB of frames) within it is evicted, whether the write
	// carries replies or watch events. A consumer that is still draining
	// keeps its stream however large its backlog: a newer event for a
	// (watch, path) still queued replaces the queued one (coalescing,
	// latest value wins — XenStore semantics), so the backlog is bounded
	// by the connection's distinct (watch, path) pairs, not by write
	// volume. Default 2s.
	WriteTimeout time.Duration
	// Dom0Token, when non-empty, is required in the handshake to bind a
	// connection to Dom0. Guest domains authenticate by reachability
	// alone, as on a XenBus transport.
	Dom0Token string
	// TraceCapacity sizes each shard's decision-trace ring
	// (default trace.DefaultRecorderCapacity).
	TraceCapacity int
	// MaxTxns bounds concurrently open transactions per connection.
	// Default 64.
	MaxTxns int
	// Faults is a PR 2 fault-grammar spec (fault.ParseSpec) applied to the
	// server's store: stalewrite/watchdrop/watchdelay clauses exercise
	// clients against a misbehaving store. Empty disables injection.
	Faults string
	// FaultSeed seeds the injector's deterministic stream (default 1).
	FaultSeed uint64
	// Shards is the number of store shards (default 1). Per-domain
	// /local/domain/<id> subtrees are disjoint, so each domain is routed
	// to one shard by store.Router and shards execute independently.
	// Structural paths (/, /local, /local/domain and non-domain subtrees)
	// live on shard 0. With Shards == 1 the server behaves exactly like
	// the pre-sharding implementation.
	Shards int
	// MaxProtocol caps the protocol version the handshake will accept
	// (default ProtocolVersion). Set to ProtocolV1 to emulate an old
	// server for interop testing: v2+ handshakes are then refused exactly
	// as a v1-only binary would refuse them.
	MaxProtocol uint8
}

func (o Options) withDefaults() Options {
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 2 * time.Second
	}
	if o.MaxTxns <= 0 {
		o.MaxTxns = 64
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.MaxProtocol == 0 {
		o.MaxProtocol = ProtocolVersion
	}
	return o
}

// Counters is a snapshot of the server's wire-level accounting, returned
// by OpStats as JSON (and by Server.Counters in-process). Store counters
// are summed across shards.
type Counters struct {
	Accepted  uint64 `json:"accepted"`
	Active    uint64 `json:"active"`
	Evicted   uint64 `json:"evicted"`
	Events    uint64 `json:"events"`
	Coalesced uint64 `json:"coalesced"`

	StoreReads    uint64 `json:"store_reads"`
	StoreWrites   uint64 `json:"store_writes"`
	StoreNotifies uint64 `json:"store_notifies"`

	Shards      uint64 `json:"shards,omitempty"`
	Batches     uint64 `json:"batches,omitempty"`
	BatchOps    uint64 `json:"batch_ops,omitempty"`
	Syncs       uint64 `json:"syncs,omitempty"`
	SyncMatches uint64 `json:"sync_matches,omitempty"`
	SyncDeltas  uint64 `json:"sync_deltas,omitempty"`
	SyncFulls   uint64 `json:"sync_fulls,omitempty"`

	FaultDroppedWrites   uint64 `json:"fault_dropped_writes,omitempty"`
	FaultDroppedNotifies uint64 `json:"fault_dropped_notifies,omitempty"`
	FaultDelayedNotifies uint64 `json:"fault_delayed_notifies,omitempty"`
}

// shard is one independent store: its own simulation kernel, store and
// trace recorder behind one lock. The kernel/store/recorder trio is
// single-threaded, so only the holder of mu ever touches it (doOn is
// the one place mu is taken).
type shard struct {
	idx int
	mu  sync.Mutex
	k   *sim.Kernel
	st  *store.Store
	rec *trace.Recorder
}

// Server hosts one or more store.Store shards behind the wire protocol.
// Create with NewServer, attach listeners with Serve, stop with Close.
//
// Every operation runs to completion on its connection's reader
// goroutine: doOn takes the shard lock, runs the operation's closure,
// drains the shard's private simulation kernel so the watch
// notifications it scheduled are delivered (and queued on the watching
// connections) before the shard's next operation runs, and releases the
// lock. The reader then writes its own reply, never while holding a
// shard lock; a per-connection writer goroutine only carries watch
// events to connections that are not writing already, so the store
// never blocks on a peer's socket. Operations on one shard are
// serialized by its lock; with Shards > 1 there is no cross-shard event
// order, which is safe because per-domain subtrees are disjoint.
type Server struct {
	opts   Options
	router store.Router
	shards []*shard

	// k, st and rec alias shard 0, the home of structural paths and
	// connection-lifecycle trace records.
	k   *sim.Kernel
	st  *store.Store
	rec *trace.Recorder

	quit chan struct{}
	wg   sync.WaitGroup

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[*srvConn]struct{}
	closed    bool
	nextConn  uint64

	accepted  atomic.Uint64
	evicted   atomic.Uint64
	events    atomic.Uint64
	coalesced atomic.Uint64

	batches  atomic.Uint64
	batchOps atomic.Uint64

	syncs       atomic.Uint64
	syncMatches atomic.Uint64
	syncDeltas  atomic.Uint64
	syncFulls   atomic.Uint64

	subMu sync.Mutex
	subs  map[chan []byte]struct{}
	// nsubs mirrors len(subs) so the recorder sink can skip the mutex
	// entirely when nobody is tailing the trace — the common case, paid
	// for on every store mutation otherwise.
	nsubs atomic.Int32
}

// NewServer builds a server around fresh store shards. Each store lives
// on a private simulation kernel with zero notification latency: virtual
// time only orders deliveries; the wire provides the real latency. A
// non-empty Options.Faults spec must parse, or NewServer panics: a store
// silently running without its requested faults would invalidate any
// soak result.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:   opts,
		router: store.NewRouter(opts.Shards),
		quit:   make(chan struct{}),
		conns:  map[*srvConn]struct{}{},
		subs:   map[chan []byte]struct{}{},
	}
	var spec fault.Spec
	var haveFaults bool
	if opts.Faults != "" {
		parsed, err := fault.ParseSpec(opts.Faults)
		if err != nil {
			panic(fmt.Sprintf("netstore: bad fault spec: %v", err))
		}
		spec, haveFaults = parsed, true
	}
	seed := opts.FaultSeed
	if seed == 0 {
		seed = 1
	}
	for i := 0; i < opts.Shards; i++ {
		k := sim.NewKernel()
		s.shards = append(s.shards, &shard{
			idx: i, k: k, st: store.New(k, 0),
			rec: trace.NewRecorder(k, opts.TraceCapacity),
		})
	}
	s.k, s.st, s.rec = s.shards[0].k, s.shards[0].st, s.shards[0].rec
	// Wire each shard under its lock: recorder, fault hooks and trace sink
	// are shard state from the first operation onward, so even these
	// construction-time writes go through doOn (shardsafety-enforced).
	// Nothing is recorded during wiring, so ordering across shards does
	// not matter.
	for _, sh := range s.shards {
		sh := sh
		s.doOn(sh, func() {
			sh.st.SetRecorder(sh.rec)
			if haveFaults {
				// Shard 0 keeps the historical stream name so single-shard
				// fault soaks stay bit-for-bit reproducible across versions.
				name := "netstore/faults"
				if sh.idx > 0 {
					name = fmt.Sprintf("netstore/faults.%d", sh.idx)
				}
				inj := fault.NewInjector(sh.k, spec, stats.NewStream(seed, name))
				inj.SetRecorder(sh.rec)
				if hooks := inj.StoreHooks(); hooks != nil {
					sh.st.SetFaultHooks(hooks)
				}
			}
			sh.rec.SetSink(s.broadcast)
		})
	}
	// Shard 0 owns structural paths; give it the /local/domain spine up
	// front so cross-shard snapshots and lists always find it.
	s.doOn(s.shards[0], func() { s.st.EnsureRoot() })
	return s
}

// Kernel exposes shard 0's private simulation kernel, the clock a
// fault.Injector must be built on so watchdelay draws have a timeline to
// land in. Schedule work on it only via Do.
func (s *Server) Kernel() *sim.Kernel { return s.k }

// ShardCount reports the number of store shards.
func (s *Server) ShardCount() int { return len(s.shards) }

// Do runs fn under each shard's lock in turn (shard 0 first) with
// exclusive access to that shard's store, then drains the watch
// deliveries it scheduled. With one shard this is exactly the
// historical single-store Do; with several, fn observes each shard's
// partition of the tree. It is how out-of-band wiring (fault hooks,
// seeding) composes with the server. It reports false without running fn
// if the server is closed.
func (s *Server) Do(fn func(st *store.Store)) bool {
	for _, sh := range s.shards {
		st := sh.st
		if !s.doOn(sh, func() { fn(st) }) {
			return false
		}
	}
	return true
}

// doOn runs fn on the calling goroutine as a critical section under
// sh's lock, then drains the watch deliveries fn scheduled, so they are
// queued on the watching connections before the shard's next operation
// runs. It reports false without running fn once the server is closed.
// doOn is where the shard lock is taken, so its direct use of the
// shard's kernel is the sanctioned baseline; calling it again for the
// same shard from inside fn self-deadlocks.
//
// storeloop
func (s *Server) doOn(sh *shard, fn func()) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	select {
	case <-s.quit:
		return false
	default:
	}
	fn()
	sh.k.Run()
	return true
}

// shardFor routes a path to its owning shard: the domain's home shard
// for /local/domain/<id> subtrees, shard 0 for structural paths.
func (s *Server) shardFor(path string) *shard {
	i, _ := s.router.PathShard(path)
	return s.shards[i]
}

// sharded reports whether cross-shard merge paths are in play.
func (s *Server) sharded() bool { return len(s.shards) > 1 }

// Serve accepts connections on l until the listener or server closes.
// It blocks; run one goroutine per listener.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrClosed
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
				return err
			}
		}
		s.startConn(c)
	}
}

func (s *Server) startConn(c net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.nextConn++
	sc := &srvConn{
		srv:     s,
		c:       c,
		br:      bufio.NewReaderSize(c, 16<<10),
		id:      s.nextConn,
		watches: map[uint32]*connWatch{},
		txns:    map[uint32]*connTxn{},
		// Built here, not lazily in enqueueEvent: that is the event hot
		// path and a per-call nil check plus literal is an allocation the
		// hotpathalloc pass would rightly flag.
		evIdx: map[eventKey]int{},
	}
	sc.qcond = sync.NewCond(&sc.qmu)
	s.conns[sc] = struct{}{}
	s.mu.Unlock()
	s.accepted.Add(1)
	s.wg.Add(2)
	go sc.readLoop()
	go sc.writeLoop()
}

// Close stops the listeners, evicts every connection and refuses every
// later operation. It is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	listeners := s.listeners
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	for _, c := range conns {
		c.shutdown()
	}
	close(s.quit)
	s.wg.Wait()
}

// Counters snapshots the wire + store accounting (store counters summed
// across shards).
func (s *Server) Counters() Counters {
	var ctr Counters
	ctr.Accepted = s.accepted.Load()
	ctr.Evicted = s.evicted.Load()
	ctr.Events = s.events.Load()
	ctr.Coalesced = s.coalesced.Load()
	ctr.Batches = s.batches.Load()
	ctr.BatchOps = s.batchOps.Load()
	ctr.Syncs = s.syncs.Load()
	ctr.SyncMatches = s.syncMatches.Load()
	ctr.SyncDeltas = s.syncDeltas.Load()
	ctr.SyncFulls = s.syncFulls.Load()
	ctr.Shards = uint64(len(s.shards))
	s.mu.Lock()
	ctr.Active = uint64(len(s.conns))
	s.mu.Unlock()
	s.Do(func(st *store.Store) {
		r, w, n := st.Stats()
		ctr.StoreReads += r
		ctr.StoreWrites += w
		ctr.StoreNotifies += n
		dw, dn, dl := st.FaultStats()
		ctr.FaultDroppedWrites += dw
		ctr.FaultDroppedNotifies += dn
		ctr.FaultDelayedNotifies += dl
	})
	return ctr
}

// --- Live trace streaming ---------------------------------------------------

// broadcast is the recorder sink: it runs under a shard lock, so it only
// marshals and hands off; subscribers that cannot keep up lose records.
func (s *Server) broadcast(rec trace.Record) {
	if s.nsubs.Load() == 0 {
		return
	}
	s.subMu.Lock()
	if len(s.subs) == 0 {
		s.subMu.Unlock()
		return
	}
	line, err := json.Marshal(rec)
	if err == nil {
		line = append(line, '\n')
		for ch := range s.subs {
			select {
			case ch <- line:
			default: // slow trace subscriber: drop, never block the store
			}
		}
	}
	s.subMu.Unlock()
}

// ServeTrace streams NDJSON trace records to every connection accepted
// on l (the iorchestra-trace live-tail endpoint). It blocks like Serve.
func (s *Server) ServeTrace(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrClosed
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
				return err
			}
		}
		s.wg.Add(1)
		go s.serveTraceConn(c)
	}
}

func (s *Server) serveTraceConn(c net.Conn) {
	defer s.wg.Done()
	defer c.Close()
	ch := make(chan []byte, 1024)
	s.subMu.Lock()
	s.subs[ch] = struct{}{}
	s.nsubs.Store(int32(len(s.subs)))
	s.subMu.Unlock()
	defer func() {
		s.subMu.Lock()
		delete(s.subs, ch)
		s.nsubs.Store(int32(len(s.subs)))
		s.subMu.Unlock()
	}()
	// Drain reads so a closing peer is noticed even while idle.
	go func() {
		buf := make([]byte, 256)
		for {
			if _, err := c.Read(buf); err != nil {
				c.Close()
				return
			}
		}
	}()
	for {
		select {
		case line := <-ch:
			if s.opts.WriteTimeout > 0 {
				c.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
			}
			if _, err := c.Write(line); err != nil {
				return
			}
		case <-s.quit:
			return
		}
	}
}

// --- Per-connection state ---------------------------------------------------

type eventKey struct {
	watch uint32
	path  string
}

type outFrame struct {
	payload []byte
	isEvent bool
	key     eventKey
}

// connWatch is one client watch, possibly fanned out across shards: a
// domain-subtree prefix registers on its home shard only; a structural
// prefix (which any shard's writes can match) registers on every shard.
type connWatch struct {
	prefix string
	ids    map[int]store.WatchID // shard index -> store watch id
}

// connTxn is one client transaction. The shard binding is lazy —
// store.Txn.Begin has no side effects, so the transaction binds to the
// shard of the first path it touches; operations on another shard's
// paths fail with StatusBadRequest (cross-shard transactions would need
// two-phase commit, which the disjoint-subtree model deliberately
// avoids).
type connTxn struct {
	sh  *shard
	txn *store.Txn
}

type srvConn struct {
	srv *Server
	c   net.Conn
	id  uint64

	// dom and proto are bound by the handshake, read-only afterwards.
	dom       store.DomID
	proto     uint8
	handshook bool

	// Outbound queue: the reader pushes its replies, and whichever
	// goroutine holds a shard lock pushes watch events. qbase is the
	// absolute index of q[0] so evIdx (event key -> absolute index)
	// survives pops. writing is the writer claim: its holder (the reader
	// until its reply is written, or writeLoop for events) drains the
	// queue, and is the only user of frames, its scratch batch.
	qmu     sync.Mutex
	qcond   *sync.Cond
	q       []outFrame
	qbase   int
	evIdx   map[eventKey]int
	qclosed bool
	writing bool
	frames  []outFrame

	closeOnce sync.Once
	// dead flips when the connection is torn down (evicted or closed); it
	// makes eviction accounting idempotent — a connection torn down once
	// counts at most one eviction, whatever write errors follow.
	dead atomic.Bool

	// watches and txns are confined to the reader goroutine (the doOn
	// closures it runs included), so accesses are serialized without a
	// lock.
	watches map[uint32]*connWatch
	txns    map[uint32]*connTxn
	nextTxn uint32

	// br buffers inbound frames so a burst of pipelined requests costs
	// one read syscall; rbuf is the readLoop's reusable frame buffer
	// (each request is fully decoded — dec copies string bytes out —
	// before the next read).
	br   *bufio.Reader
	rbuf []byte
}

// shutdown tears the connection down; safe from any goroutine, any number
// of times.
func (c *srvConn) shutdown() {
	c.closeOnce.Do(func() {
		c.dead.Store(true)
		c.qmu.Lock()
		c.qclosed = true
		c.qcond.Broadcast()
		c.qmu.Unlock()
		c.c.Close()
	})
}

// send queues a reply frame and, unless a write is already in flight,
// writes the queue out on the calling reader goroutine up to and
// including the reply — after doOn has returned, so no shard lock is
// held across the socket write. Frames queued behind the reply are left
// to writeLoop, so events fanned in from other connections never keep
// the reader from its next request.
//
// hotpath
func (c *srvConn) send(payload []byte) {
	c.qmu.Lock()
	if c.qclosed {
		c.qmu.Unlock()
		return
	}
	c.q = append(c.q, outFrame{payload: payload})
	if c.writing {
		// The claim holder drains until the queue is empty.
		c.qmu.Unlock()
		return
	}
	c.drain(c.qbase + len(c.q) - 1)
}

// enqueueEvent appends a watch-event frame, with delta fan-out: an event
// still queued for the same (watch, path) is replaced by the newer value
// instead of queuing a second frame, so a connection that falls behind
// receives the net change per path, not the history — watch semantics
// promise "something changed here", never every intermediate value.
// It never blocks on the socket and never evicts: a connection that
// stops absorbing writes is evicted by the write deadline in drain.
//
// hotpath
func (c *srvConn) enqueueEvent(key eventKey, payload []byte) {
	c.qmu.Lock()
	if c.qclosed {
		c.qmu.Unlock()
		putBuf(payload)
		return
	}
	if abs, ok := c.evIdx[key]; ok && abs >= c.qbase {
		old := c.q[abs-c.qbase].payload
		c.q[abs-c.qbase].payload = payload
		c.qmu.Unlock()
		putBuf(old)
		c.srv.coalesced.Add(1)
		return
	}
	c.q = append(c.q, outFrame{payload: payload, isEvent: true, key: key})
	c.evIdx[key] = c.qbase + len(c.q) - 1
	if !c.writing {
		c.qcond.Signal()
	}
	c.qmu.Unlock()
	c.srv.events.Add(1)
}

// evict severs a connection that cannot keep up. The caller must hold no
// shard lock: the eviction is recorded on shard 0 through doOn.
func (c *srvConn) evict(reason string) {
	if !c.dead.CompareAndSwap(false, true) {
		c.shutdown()
		return
	}
	c.shutdown()
	c.srv.evicted.Add(1)
	rec := trace.Record{Kind: trace.KindWireConn, Dom: int(c.dom), Value: "evict", Path: reason}
	sh := c.srv.shards[0]
	c.srv.doOn(sh, func() { sh.rec.Record(rec) })
}

// coalesceBudget caps the bytes one drain step merges: frames queued
// while the previous write was on the wire go out together in a single
// syscall, and the combined buffer stays poolable.
const coalesceBudget = 48 << 10

// drain claims the writer and writes queued frames, in queue order,
// until the frame at absolute index until has been written (until < 0:
// until the queue is empty), then releases the claim, handing any frames
// still queued to writeLoop. The caller holds qmu and has seen the claim
// free; drain returns with qmu released. qmu is released around each
// socket write, so producers never wait on the socket. A write that
// does not complete within WriteTimeout fails and evicts the connection.
//
// hotpath
func (c *srvConn) drain(until int) {
	c.writing = true
	var err error
	for err == nil && len(c.q) > 0 && !c.qclosed && (until < 0 || c.qbase <= until) {
		frames := c.frames[:0]
		total := 0
		for _, fr := range c.q {
			if total >= coalesceBudget {
				break
			}
			if fr.isEvent {
				if abs, ok := c.evIdx[fr.key]; ok && abs == c.qbase+len(frames) {
					delete(c.evIdx, fr.key)
				}
			}
			frames = append(frames, fr)
			total += 4 + len(fr.payload)
		}
		clear(c.q[:len(frames)])
		if len(frames) == len(c.q) {
			// Emptied: keep the backing array rather than slicing past
			// it, so the common drain of a short queue never reallocates.
			// A partial batch reslices (O(1)); the array is reused once
			// the backlog empties.
			c.q = c.q[:0]
		} else {
			c.q = c.q[len(frames):]
		}
		c.qbase += len(frames)
		c.frames = frames
		c.qmu.Unlock()
		buf := getBuf(total)
		for i := range frames {
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(frames[i].payload)))
			buf = append(buf, frames[i].payload...)
			putBuf(frames[i].payload)
			frames[i] = outFrame{}
		}
		c.c.SetWriteDeadline(time.Now().Add(c.srv.opts.WriteTimeout))
		_, err = c.c.Write(buf)
		putBuf(buf)
		c.qmu.Lock()
	}
	c.writing = false
	if len(c.q) > 0 {
		c.qcond.Signal()
	}
	c.qmu.Unlock()
	if err != nil {
		c.evict("write stall: " + err.Error())
	}
}

// writeLoop carries watch events to a connection whose reader is not
// writing already: it claims the writer whenever frames are queued and
// the claim is free.
func (c *srvConn) writeLoop() {
	defer c.srv.wg.Done()
	c.qmu.Lock()
	for {
		for (len(c.q) == 0 || c.writing) && !c.qclosed {
			c.qcond.Wait()
		}
		if c.qclosed {
			c.qmu.Unlock()
			return
		}
		c.drain(-1)
		c.qmu.Lock()
	}
}

func (c *srvConn) readLoop() {
	defer c.srv.wg.Done()
	defer func() {
		c.shutdown()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		// Tear down store-side state (watches, open transactions) shard by
		// shard; the connection-close record lands on shard 0 with the
		// rest of the connection lifecycle.
		dom, hs := c.dom, c.handshook
		for _, sh := range c.srv.shards {
			sh := sh
			c.srv.doOn(sh, func() {
				for _, cw := range c.watches {
					if wid, ok := cw.ids[sh.idx]; ok {
						sh.st.Unwatch(wid)
					}
				}
				for _, t := range c.txns {
					if t.txn != nil && t.sh == sh {
						t.txn.Abort()
					}
				}
				if sh.idx == 0 && hs {
					sh.rec.Record(trace.Record{Kind: trace.KindWireConn, Dom: int(dom), Value: "close"})
				}
			})
		}
		c.watches = map[uint32]*connWatch{}
		c.txns = map[uint32]*connTxn{}
	}()
	if err := c.handshake(); err != nil {
		return
	}
	for {
		payload, next, err := readFrameReuse(c.br, c.rbuf)
		c.rbuf = next
		if err != nil {
			return
		}
		d := &dec{b: payload}
		op := Op(d.u8())
		id := d.u32()
		if d.err != nil {
			return // unframeable garbage: drop the connection
		}
		c.handle(op, id, d)
	}
}

// reply builds a reply frame: status, message, then op-specific body.
// The returned buffer is pooled; the queue drain recycles it after the
// socket write.
func reply(id uint32, err error, body func(*enc)) []byte {
	e := &enc{b: getBuf(64)}
	e.op(OpReply, id)
	st := statusOf(err)
	e.u8(uint8(st))
	if err != nil {
		e.str(err.Error())
	} else {
		e.str("")
	}
	if body != nil && err == nil {
		body(e)
	}
	return e.b
}

// handshake reads and answers the binding frame, negotiating the
// protocol version: a v1 hello gets the exact v1 reply (u64 store
// version), a v2+ hello is answered with min(requested, MaxProtocol)
// followed by the version — unless the server is capped at v1, which
// refuses anything newer precisely as an old binary would. Its replies
// go straight to the socket, not through the outbound queue: nothing
// else can be queued yet (requests and watches require a completed
// handshake), and a rejection must reach the peer before the connection
// closes.
func (c *srvConn) handshake() error {
	payload, err := readFrame(c.br)
	if err != nil {
		return err
	}
	d := &dec{b: payload}
	op := Op(d.u8())
	id := d.u32()
	magic := d.u32()
	ver := d.u8()
	dom := store.DomID(d.u32())
	token := d.str()
	refuse := func(cause error) error {
		if wt := c.srv.opts.WriteTimeout; wt > 0 {
			c.c.SetWriteDeadline(time.Now().Add(wt))
		}
		out := reply(id, cause, nil)
		writeFrame(c.c, out)
		putBuf(out)
		return cause
	}
	if err := d.done(); err != nil || op != OpHandshake || magic != Magic {
		return refuse(fmt.Errorf("%w: malformed handshake", ErrBadRequest))
	}
	if ver < ProtocolV1 || (ver > ProtocolV1 && c.srv.opts.MaxProtocol <= ProtocolV1) {
		return refuse(fmt.Errorf("%w: protocol version %d (want %d)", ErrBadRequest, ver, ProtocolV1))
	}
	accepted := ver
	if accepted > c.srv.opts.MaxProtocol {
		accepted = c.srv.opts.MaxProtocol
	}
	if dom == store.Dom0 && c.srv.opts.Dom0Token != "" && token != c.srv.opts.Dom0Token {
		return refuse(fmt.Errorf("%w: dom0 token rejected", ErrAuth))
	}
	c.dom = dom
	c.proto = accepted
	c.handshook = true
	home := c.srv.shards[c.srv.router.ShardOf(dom)]
	var version uint64
	if !c.srv.sharded() {
		if !c.srv.doOn(home, func() {
			home.st.AddDomain(dom)
			version = home.st.Version()
			home.rec.Record(trace.Record{Kind: trace.KindWireConn, Dom: int(dom), Value: "connect"})
		}) {
			return ErrClosed
		}
	} else {
		if !c.srv.doOn(home, func() { home.st.AddDomain(dom) }) {
			return ErrClosed
		}
		for _, sh := range c.srv.shards {
			sh := sh
			var v uint64
			if !c.srv.doOn(sh, func() {
				v = sh.st.Version()
				if sh.idx == 0 {
					sh.rec.Record(trace.Record{Kind: trace.KindWireConn, Dom: int(dom), Value: "connect"})
				}
			}) {
				return ErrClosed
			}
			version += v
		}
	}
	if wt := c.srv.opts.WriteTimeout; wt > 0 {
		c.c.SetWriteDeadline(time.Now().Add(wt))
	}
	out := reply(id, nil, func(e *enc) {
		if accepted >= ProtocolV2 {
			e.u8(accepted)
		}
		e.u64(version)
	})
	err = writeFrame(c.c, out)
	putBuf(out)
	if err != nil {
		return err
	}
	c.c.SetWriteDeadline(time.Time{})
	return nil
}

// handle decodes and executes one request under the owning shard's
// lock, then sends the reply. Malformed bodies produce StatusBadRequest
// rather than dropping the connection, so one bad client request stays
// diagnosable.
func (c *srvConn) handle(op Op, id uint32, d *dec) {
	var out []byte
	// runOn executes fn on one shard, recording the wire.op trace there.
	runOn := func(sh *shard, path string, fn func() (func(*enc), error)) {
		ok := c.srv.doOn(sh, func() {
			sh.rec.Record(trace.Record{
				Kind: trace.KindWireOp, Dom: int(c.dom), Path: path, Value: op.String(),
			})
			body, err := fn()
			out = reply(id, err, body)
		})
		if !ok {
			out = reply(id, ErrClosed, nil)
		}
	}
	// run routes by path and hands fn the owning shard's store.
	run := func(path string, fn func(st *store.Store) (func(*enc), error)) {
		sh := c.srv.shardFor(path)
		runOn(sh, path, func() (func(*enc), error) { return fn(sh.st) })
	}
	switch op {
	case OpPing:
		if err := d.done(); err != nil {
			out = reply(id, err, nil)
			break
		}
		out = reply(id, nil, nil)

	case OpRead:
		path := d.path()
		if err := d.done(); err != nil {
			out = reply(id, err, nil)
			break
		}
		run(path, func(st *store.Store) (func(*enc), error) {
			v, err := st.Read(c.dom, path)
			return func(e *enc) { e.str(v) }, err
		})

	case OpWrite:
		path := d.path()
		value := d.value()
		if err := d.done(); err != nil {
			out = reply(id, err, nil)
			break
		}
		run(path, func(st *store.Store) (func(*enc), error) {
			return nil, st.Write(c.dom, path, value)
		})

	case OpRemove:
		path := d.path()
		if err := d.done(); err != nil {
			out = reply(id, err, nil)
			break
		}
		if c.srv.sharded() && strings.HasPrefix(store.Root, path) {
			// /local and /local/domain are replicated spine on every
			// shard; removing them piecemeal would desynchronize routing.
			out = reply(id, fmt.Errorf("%w: cannot remove structural path %s on a sharded server", ErrBadRequest, path), nil)
			break
		}
		run(path, func(st *store.Store) (func(*enc), error) {
			return nil, st.Remove(c.dom, path)
		})

	case OpList:
		path := d.path()
		if err := d.done(); err != nil {
			out = reply(id, err, nil)
			break
		}
		if c.srv.sharded() && path == store.Root {
			out = c.crossList(id, op, path)
			break
		}
		run(path, func(st *store.Store) (func(*enc), error) {
			names, err := st.List(c.dom, path)
			return func(e *enc) {
				e.u32(uint32(len(names)))
				for _, n := range names {
					e.str(n)
				}
			}, err
		})

	case OpGrant:
		path := d.path()
		target := store.DomID(d.u32())
		perm := store.Perm(d.u8())
		if err := d.done(); err != nil {
			out = reply(id, err, nil)
			break
		}
		if _, owned := c.srv.router.PathShard(path); c.srv.sharded() && !owned {
			// Structural nodes are replicated; apply the grant everywhere
			// it exists so permission checks agree across shards.
			out = c.crossGrant(id, op, path, target, perm)
			break
		}
		run(path, func(st *store.Store) (func(*enc), error) {
			return nil, st.Grant(c.dom, path, target, perm)
		})

	case OpExists:
		path := d.path()
		if err := d.done(); err != nil {
			out = reply(id, err, nil)
			break
		}
		run(path, func(st *store.Store) (func(*enc), error) {
			v := uint8(0)
			if st.Exists(path) {
				v = 1
			}
			return func(e *enc) { e.u8(v) }, nil
		})

	case OpWatch:
		cwid := d.u32()
		prefix := d.path()
		if err := d.done(); err != nil {
			out = reply(id, err, nil)
			break
		}
		out = c.handleWatch(id, op, cwid, prefix)

	case OpUnwatch:
		cwid := d.u32()
		if err := d.done(); err != nil {
			out = reply(id, err, nil)
			break
		}
		cw := c.watches[cwid]
		delete(c.watches, cwid)
		runOn(c.srv.shards[0], "", func() (func(*enc), error) {
			if cw != nil {
				if wid, ok := cw.ids[0]; ok {
					c.srv.shards[0].st.Unwatch(wid)
				}
			}
			return nil, nil
		})
		if cw != nil {
			for _, sh := range c.srv.shards[1:] {
				if wid, ok := cw.ids[sh.idx]; ok {
					sh := sh
					c.srv.doOn(sh, func() { sh.st.Unwatch(wid) })
				}
			}
		}

	case OpTxnBegin:
		if err := d.done(); err != nil {
			out = reply(id, err, nil)
			break
		}
		runOn(c.srv.shards[0], "", func() (func(*enc), error) {
			if len(c.txns) >= c.srv.opts.MaxTxns {
				return nil, fmt.Errorf("%w: %d transactions already open", ErrBadRequest, len(c.txns))
			}
			c.nextTxn++
			tid := c.nextTxn
			c.txns[tid] = &connTxn{}
			return func(e *enc) { e.u32(tid) }, nil
		})

	case OpTxnRead:
		tid := d.u32()
		path := d.path()
		if err := d.done(); err != nil {
			out = reply(id, err, nil)
			break
		}
		c.runTxn(&out, op, id, tid, path, func(t *connTxn) (func(*enc), error) {
			v, err := t.txn.Read(path)
			return func(e *enc) { e.str(v) }, err
		})

	case OpTxnWrite:
		tid := d.u32()
		path := d.path()
		value := d.value()
		if err := d.done(); err != nil {
			out = reply(id, err, nil)
			break
		}
		c.runTxn(&out, op, id, tid, path, func(t *connTxn) (func(*enc), error) {
			return nil, t.txn.Write(path, value)
		})

	case OpTxnRemove:
		tid := d.u32()
		path := d.path()
		if err := d.done(); err != nil {
			out = reply(id, err, nil)
			break
		}
		c.runTxn(&out, op, id, tid, path, func(t *connTxn) (func(*enc), error) {
			return nil, t.txn.Remove(path)
		})

	case OpTxnCommit:
		tid := d.u32()
		if err := d.done(); err != nil {
			out = reply(id, err, nil)
			break
		}
		t, ok := c.txns[tid]
		if !ok {
			out = reply(id, fmt.Errorf("%w: %d", ErrUnknownTxn, tid), nil)
			break
		}
		delete(c.txns, tid)
		sh := c.srv.shards[0]
		if t.sh != nil {
			sh = t.sh
		}
		runOn(sh, "", func() (func(*enc), error) {
			if t.txn == nil {
				return nil, nil // no ops: an empty transaction commits trivially
			}
			return nil, t.txn.Commit()
		})

	case OpTxnAbort:
		tid := d.u32()
		if err := d.done(); err != nil {
			out = reply(id, err, nil)
			break
		}
		t, ok := c.txns[tid]
		if !ok {
			out = reply(id, fmt.Errorf("%w: %d", ErrUnknownTxn, tid), nil)
			break
		}
		delete(c.txns, tid)
		sh := c.srv.shards[0]
		if t.sh != nil {
			sh = t.sh
		}
		runOn(sh, "", func() (func(*enc), error) {
			if t.txn != nil {
				t.txn.Abort()
			}
			return nil, nil
		})

	case OpSnapshot:
		root := d.path()
		if err := d.done(); err != nil {
			out = reply(id, err, nil)
			break
		}
		if _, owned := c.srv.router.PathShard(root); c.srv.sharded() && !owned {
			out = c.crossSnapshot(id, op, root)
			break
		}
		sh := c.srv.shardFor(root)
		runOn(sh, root, func() (func(*enc), error) {
			type pair struct{ p, v string }
			var pairs []pair
			snapshotWalk(sh.st, c.dom, root, func(p, v string) {
				pairs = append(pairs, pair{p, v})
			})
			version := sh.st.Version()
			return func(e *enc) {
				e.u64(version)
				e.u32(uint32(len(pairs)))
				for _, kv := range pairs {
					e.str(kv.p)
					e.str(kv.v)
				}
			}, nil
		})

	case OpStats:
		if err := d.done(); err != nil {
			out = reply(id, err, nil)
			break
		}
		// Counters itself takes every shard lock; build the reply outside
		// runOn to avoid a self-deadlock.
		blob, err := json.Marshal(c.srv.Counters())
		if err != nil {
			out = reply(id, err, nil)
			break
		}
		out = reply(id, nil, func(e *enc) { e.str(string(blob)) })

	case OpBatch:
		out = c.handleBatch(id, d)

	case OpSync:
		out = c.handleSync(id, op, d)

	default:
		out = reply(id, fmt.Errorf("%w: opcode %d", ErrBadRequest, uint8(op)), nil)
	}
	c.send(out)
}

// runTxn executes one transactional path op, binding the transaction to
// the path's shard on first touch (store.Txn.Begin has no side effects,
// so lazy binding is exact).
func (c *srvConn) runTxn(out *[]byte, op Op, id, tid uint32, path string, fn func(*connTxn) (func(*enc), error)) {
	t, ok := c.txns[tid]
	if !ok {
		*out = reply(id, fmt.Errorf("%w: %d", ErrUnknownTxn, tid), nil)
		return
	}
	sh := c.srv.shardFor(path)
	if t.sh != nil && t.sh != sh {
		*out = reply(id, fmt.Errorf("%w: cross-shard transaction: %s is on shard %d, transaction bound to shard %d",
			ErrBadRequest, path, sh.idx, t.sh.idx), nil)
		return
	}
	okDo := c.srv.doOn(sh, func() {
		sh.rec.Record(trace.Record{Kind: trace.KindWireOp, Dom: int(c.dom), Path: path, Value: op.String()})
		if t.txn == nil {
			t.sh = sh
			t.txn = sh.st.Begin(c.dom)
		}
		body, err := fn(t)
		*out = reply(id, err, body)
	})
	if !okDo {
		*out = reply(id, ErrClosed, nil)
	}
}

// handleWatch registers a watch: a domain-subtree prefix on its home
// shard only, a structural prefix on every shard (any shard's writes can
// match it). Event frames carry the client's watch id, so fan-in across
// shards is transparent to the peer.
func (c *srvConn) handleWatch(id uint32, op Op, cwid uint32, prefix string) []byte {
	if _, dup := c.watches[cwid]; dup {
		return reply(id, fmt.Errorf("%w: watch id %d in use", ErrBadRequest, cwid), nil)
	}
	_, owned := c.srv.router.PathShard(prefix)
	targets := c.srv.shards
	if owned || !c.srv.sharded() {
		targets = []*shard{c.srv.shardFor(prefix)}
	}
	cw := &connWatch{prefix: prefix, ids: map[int]store.WatchID{}}
	for i, sh := range targets {
		sh := sh
		cb := func(path, value string) {
			ev := &enc{b: getBuf(64)}
			ev.op(OpEvent, 0)
			ev.u32(cwid)
			ev.str(path)
			ev.str(value)
			c.enqueueEvent(eventKey{watch: cwid, path: path}, ev.b)
		}
		var werr error
		recordHere := i == 0
		ok := c.srv.doOn(sh, func() {
			if recordHere {
				sh.rec.Record(trace.Record{Kind: trace.KindWireOp, Dom: int(c.dom), Path: prefix, Value: op.String()})
			}
			wid, err := sh.st.Watch(c.dom, prefix, cb)
			if err != nil {
				werr = err
				return
			}
			cw.ids[sh.idx] = wid
		})
		if !ok {
			return reply(id, ErrClosed, nil)
		}
		if werr != nil {
			// Roll back partial registrations.
			for idx, wid := range cw.ids {
				shx := c.srv.shards[idx]
				c.srv.doOn(shx, func() { shx.st.Unwatch(wid) })
			}
			return reply(id, werr, nil)
		}
	}
	c.watches[cwid] = cw
	return reply(id, nil, nil)
}

// crossList merges List(/local/domain) across shards: domain children
// live on their home shards, so the union (sorted, deduped) is the
// single-store answer. Shard 0's permission verdict governs — the spine
// is replicated with identical ownership everywhere.
func (c *srvConn) crossList(id uint32, op Op, path string) []byte {
	set := map[string]struct{}{}
	var firstErr error
	for _, sh := range c.srv.shards {
		sh := sh
		ok := c.srv.doOn(sh, func() {
			if sh.idx == 0 {
				sh.rec.Record(trace.Record{Kind: trace.KindWireOp, Dom: int(c.dom), Path: path, Value: op.String()})
			}
			names, err := sh.st.List(c.dom, path)
			if err != nil {
				if sh.idx == 0 {
					firstErr = err
				}
				return
			}
			for _, n := range names {
				set[n] = struct{}{}
			}
		})
		if !ok {
			return reply(id, ErrClosed, nil)
		}
	}
	if firstErr != nil {
		return reply(id, firstErr, nil)
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return reply(id, nil, func(e *enc) {
		e.u32(uint32(len(names)))
		for _, n := range names {
			e.str(n)
		}
	})
}

// crossGrant applies a structural-path grant on every shard where the
// node exists, so permission checks agree regardless of which shard
// evaluates them. Shard 0's verdict is the reply.
func (c *srvConn) crossGrant(id uint32, op Op, path string, target store.DomID, perm store.Perm) []byte {
	var firstErr error
	for _, sh := range c.srv.shards {
		sh := sh
		ok := c.srv.doOn(sh, func() {
			if sh.idx == 0 {
				sh.rec.Record(trace.Record{Kind: trace.KindWireOp, Dom: int(c.dom), Path: path, Value: op.String()})
			}
			if err := sh.st.Grant(c.dom, path, target, perm); err != nil && sh.idx == 0 {
				firstErr = err
			}
		})
		if !ok {
			return reply(id, ErrClosed, nil)
		}
	}
	return reply(id, firstErr, nil)
}

// crossSnapshot walks a structural root across shards: the spine and any
// non-domain subtrees come from shard 0 (pruned at /local/domain), then
// each domain subtree is walked on its home shard in sorted-name order.
// The reported version is the sum of shard versions — monotonic, like
// the handshake version. Node paths, not emission order, are the
// contract; ordering matches a single store except that domain subtrees
// sort after every structural node.
func (c *srvConn) crossSnapshot(id uint32, op Op, root string) []byte {
	type pair struct{ p, v string }
	var pairs []pair
	var version uint64
	coversRoot := strings.HasPrefix(store.Root, root) || root == store.Root
	domainSet := map[string]struct{}{}
	for _, sh := range c.srv.shards {
		sh := sh
		ok := c.srv.doOn(sh, func() {
			version += sh.st.Version()
			if sh.idx == 0 {
				sh.rec.Record(trace.Record{Kind: trace.KindWireOp, Dom: int(c.dom), Path: root, Value: op.String()})
				if coversRoot {
					snapshotWalkPruned(sh.st, c.dom, root, func(p, v string) {
						pairs = append(pairs, pair{p, v})
					})
				} else {
					// Non-domain subtree: shard 0 owns it outright.
					snapshotWalk(sh.st, c.dom, root, func(p, v string) {
						pairs = append(pairs, pair{p, v})
					})
				}
			}
			if coversRoot {
				if names, err := sh.st.List(c.dom, store.Root); err == nil {
					for _, n := range names {
						domainSet[n] = struct{}{}
					}
				}
			}
		})
		if !ok {
			return reply(id, ErrClosed, nil)
		}
	}
	if coversRoot {
		names := make([]string, 0, len(domainSet))
		for n := range domainSet {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			sub := store.Root + "/" + name
			sh := c.srv.shardFor(sub)
			ok := c.srv.doOn(sh, func() {
				snapshotWalk(sh.st, c.dom, sub, func(p, v string) {
					pairs = append(pairs, pair{p, v})
				})
			})
			if !ok {
				return reply(id, ErrClosed, nil)
			}
		}
	}
	return reply(id, nil, func(e *enc) {
		e.u64(version)
		e.u32(uint32(len(pairs)))
		for _, kv := range pairs {
			e.str(kv.p)
			e.str(kv.v)
		}
	})
}

// --- Batched frames (protocol v2) -------------------------------------------

// batchSub is one decoded sub-operation of an OpBatch frame.
type batchSub struct {
	op     Op
	path   string
	value  string
	target store.DomID
	perm   store.Perm
}

// handleBatch executes an OpBatch frame: N sub-ops in, N sub-replies
// out, one round trip. Sub-ops are grouped by owning shard and each
// group runs as a single doOn closure — one lock acquisition and one
// wire.batch trace record per shard touched, which is where the hot-path
// amortization comes from. Results are reassembled in request order;
// per-op failures are per-op statuses, never a dropped frame.
func (c *srvConn) handleBatch(id uint32, d *dec) []byte {
	if c.proto < ProtocolV2 {
		return reply(id, fmt.Errorf("%w: batch requires protocol >= %d", ErrBadRequest, ProtocolV2), nil)
	}
	n := d.u32()
	if d.err == nil && n > MaxBatchOps {
		return reply(id, fmt.Errorf("%w: batch of %d ops exceeds MaxBatchOps", ErrBadRequest, n), nil)
	}
	subs := make([]batchSub, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		so := batchSub{op: Op(d.u8())}
		switch so.op {
		case OpRead, OpRemove, OpList, OpExists:
			so.path = d.path()
		case OpWrite:
			so.path = d.path()
			so.value = d.value()
		case OpGrant:
			so.path = d.path()
			so.target = store.DomID(d.u32())
			so.perm = store.Perm(d.u8())
		case OpPing:
		default:
			return reply(id, fmt.Errorf("%w: opcode %d not batchable", ErrBadRequest, uint8(so.op)), nil)
		}
		subs = append(subs, so)
	}
	if err := d.done(); err != nil {
		return reply(id, err, nil)
	}
	type subRes struct {
		err  error
		body func(*enc)
	}
	results := make([]subRes, len(subs))
	// Group by shard, preserving per-shard request order.
	groups := make([][]int, len(c.srv.shards))
	for i, so := range subs {
		if so.op == OpRemove && c.srv.sharded() && strings.HasPrefix(store.Root, so.path) {
			results[i] = subRes{err: fmt.Errorf("%w: cannot remove structural path %s on a sharded server", ErrBadRequest, so.path)}
			continue
		}
		shardIdx := 0
		if so.op != OpPing {
			shardIdx, _ = c.srv.router.PathShard(so.path)
		}
		groups[shardIdx] = append(groups[shardIdx], i)
	}
	for shardIdx, group := range groups {
		if len(group) == 0 {
			continue
		}
		sh := c.srv.shards[shardIdx]
		group := group
		ok := c.srv.doOn(sh, func() {
			sh.rec.Record(trace.Record{
				Kind: trace.KindWireBatch, Dom: int(c.dom), Value: "batch", Size: int64(len(group)),
			})
			for _, i := range group {
				so := subs[i]
				switch so.op {
				case OpPing:
					results[i] = subRes{}
				case OpRead:
					v, err := sh.st.Read(c.dom, so.path)
					results[i] = subRes{err: err, body: func(e *enc) { e.str(v) }}
				case OpWrite:
					results[i] = subRes{err: sh.st.Write(c.dom, so.path, so.value)}
				case OpRemove:
					results[i] = subRes{err: sh.st.Remove(c.dom, so.path)}
				case OpList:
					names, err := sh.st.List(c.dom, so.path)
					results[i] = subRes{err: err, body: func(e *enc) {
						e.u32(uint32(len(names)))
						for _, nm := range names {
							e.str(nm)
						}
					}}
				case OpExists:
					v := uint8(0)
					if sh.st.Exists(so.path) {
						v = 1
					}
					results[i] = subRes{body: func(e *enc) { e.u8(v) }}
				case OpGrant:
					results[i] = subRes{err: sh.st.Grant(c.dom, so.path, so.target, so.perm)}
				}
			}
		})
		if !ok {
			return reply(id, ErrClosed, nil)
		}
	}
	c.srv.batches.Add(1)
	c.srv.batchOps.Add(uint64(len(subs)))
	return reply(id, nil, func(e *enc) {
		e.u32(uint32(len(results)))
		for _, r := range results {
			e.u8(uint8(statusOf(r.err)))
			if r.err != nil {
				e.str(r.err.Error())
			} else {
				e.str("")
				if r.body != nil {
					r.body(e)
				}
			}
		}
	})
}

// --- Hash-versioned subtree sync (protocol v2) ------------------------------

// handleSync answers an OpSync catch-up request for one domain subtree.
// Three outcomes, cheapest first: the client's hash matches (nothing to
// send), the journal still covers the client's version (send exactly the
// paths that moved), or the client is older than the retained window
// (full permission-filtered walk). The version/hash pair anchors the
// client's next sync.
func (c *srvConn) handleSync(id uint32, op Op, d *dec) []byte {
	if c.proto < ProtocolV2 {
		return reply(id, fmt.Errorf("%w: sync requires protocol >= %d", ErrBadRequest, ProtocolV2), nil)
	}
	root := d.path()
	since := d.u64()
	known := d.u64()
	if err := d.done(); err != nil {
		return reply(id, err, nil)
	}
	if dom, ok := store.PathDomain(root); !ok || root != store.DomainPath(dom) {
		return reply(id, fmt.Errorf("%w: sync root %q is not a domain subtree root", ErrBadRequest, root), nil)
	}
	sh := c.srv.shardFor(root)
	type pair struct {
		p, v    string
		removed bool
	}
	var mode uint8
	var curV, curH uint64
	var pairs []pair
	var out []byte
	ok := c.srv.doOn(sh, func() {
		sh.rec.Record(trace.Record{Kind: trace.KindWireOp, Dom: int(c.dom), Path: root, Value: op.String()})
		curV = sh.st.Version()
		curH = sh.st.SubtreeHash(root)
		prefix := root + "/"
		if known == curH {
			mode = SyncMatch
		} else if deltas, covered := sh.st.DeltasSince(since); covered && since <= curV {
			mode = SyncDelta
			// Prune markers lead the reply so the client drops stale
			// subtrees before applying current values — a path removed and
			// then recreated in the window carries both a marker and a
			// value, in that order.
			var values []pair
			for _, dl := range deltas {
				p := dl.Path
				if p != root && !strings.HasPrefix(p, prefix) {
					continue
				}
				v, err := sh.st.Read(c.dom, p)
				switch {
				case dl.Removed:
					pairs = append(pairs, pair{p: p, removed: true})
					if err == nil {
						values = append(values, pair{p: p, v: v})
					}
				case err == nil:
					values = append(values, pair{p: p, v: v})
				case errors.Is(err, store.ErrNoEntry):
					pairs = append(pairs, pair{p: p, removed: true})
				default:
					// Unreadable for this domain: not part of its view.
				}
			}
			pairs = append(pairs, values...)
		} else {
			mode = SyncFull
			snapshotWalk(sh.st, c.dom, root, func(p, v string) {
				pairs = append(pairs, pair{p: p, v: v})
			})
		}
		out = reply(id, nil, func(e *enc) {
			e.u8(mode)
			e.u64(curV)
			e.u64(curH)
			e.u32(uint32(len(pairs)))
			for _, kv := range pairs {
				e.str(kv.p)
				r := uint8(0)
				if kv.removed {
					r = 1
				}
				e.u8(r)
				e.str(kv.v)
			}
		})
	})
	if !ok {
		return reply(id, ErrClosed, nil)
	}
	c.srv.syncs.Add(1)
	switch mode {
	case SyncMatch:
		c.srv.syncMatches.Add(1)
	case SyncDelta:
		c.srv.syncDeltas.Add(1)
	default:
		c.srv.syncFulls.Add(1)
	}
	return out
}

// snapshotWalk emits every node at or below root readable by dom, in
// deterministic (sorted-children) order. The caller holds the owning
// shard's lock.
//
// storeloop
func snapshotWalk(st *store.Store, dom store.DomID, root string, emit func(path, value string)) {
	if v, err := st.Read(dom, root); err == nil {
		emit(root, v)
	}
	names, err := st.List(dom, root)
	if err != nil {
		return
	}
	base := root
	if base != "/" {
		base += "/"
	}
	for _, name := range names {
		snapshotWalk(st, dom, base+name, emit)
	}
}

// snapshotWalkPruned is snapshotWalk, except it does not descend below
// /local/domain — the cross-shard snapshot walks those subtrees on their
// home shards instead. The caller holds the owning shard's lock.
//
// storeloop
func snapshotWalkPruned(st *store.Store, dom store.DomID, root string, emit func(path, value string)) {
	if v, err := st.Read(dom, root); err == nil {
		emit(root, v)
	}
	if root == store.Root {
		return
	}
	names, err := st.List(dom, root)
	if err != nil {
		return
	}
	base := root
	if base != "/" {
		base += "/"
	}
	for _, name := range names {
		snapshotWalkPruned(st, dom, base+name, emit)
	}
}
