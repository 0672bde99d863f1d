package netstore

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iorchestra/internal/store"
)

// TestSlowSocketIsolation pins the inline-reply execution model: a
// connection whose peer pipelines requests and never reads its replies
// blocks its own reader in the reply write, and that must cost no other
// connection anything — the reader writes only after releasing the
// shard lock. The stalled connection is evicted once its write has
// made no progress for WriteTimeout.
func TestSlowSocketIsolation(t *testing.T) {
	const wt = time.Second
	srv, sock := startServer(t, Options{WriteTimeout: wt})
	const slowDom, liveDom = store.DomID(5), store.DomID(6)
	fatPath := store.DomainPath(slowDom) + "/fat"
	owner := dialT(t, sock, slowDom)
	if err := owner.Write(fatPath, strings.Repeat("f", 32<<10)); err != nil {
		t.Fatal(err)
	}

	// A: handshaken, then pipelines reads of the fat key without ever
	// reading a reply. Its request writes block once the server's reader
	// stops reading, so they run on their own goroutine.
	slow, err := DialStalled("unix", sock, slowDom, store.DomainPath(slowDom)+"/none")
	if err != nil {
		t.Fatalf("stalled dial: %v", err)
	}
	defer slow.Close()
	started := time.Now()
	go func() {
		for i := uint32(0); i < 1024; i++ {
			e := &enc{}
			e.op(OpRead, 100+i)
			e.str(fatPath)
			if writeFrame(slow, e.b) != nil {
				return
			}
		}
	}()

	// B: a live client on another domain (same shard) keeps completing
	// ops for the whole stall, each far faster than A's write window.
	live := dialT(t, sock, liveDom)
	livePath := store.DomainPath(liveDom) + "/k"
	var during int
	var evictedAfter time.Duration
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		t0 := time.Now()
		v := fmt.Sprint(i)
		if err := live.Write(livePath, v); err != nil {
			t.Fatalf("live write %d: %v", i, err)
		}
		if got, err := live.Read(livePath); err != nil || got != v {
			t.Fatalf("live read %d = %q, %v", i, got, err)
		}
		if d := time.Since(t0); d > wt/2 {
			t.Fatalf("live op %d took %v while the slow peer stalled", i, d)
		}
		if srv.Counters().Evicted > 0 {
			evictedAfter = time.Since(started)
			break
		}
		during++
		if time.Now().After(deadline) {
			t.Fatal("slow peer never evicted")
		}
		time.Sleep(time.Millisecond)
	}
	if evictedAfter < wt {
		t.Errorf("slow peer evicted after %v, before its %v write window passed", evictedAfter, wt)
	}
	if during < 10 {
		t.Errorf("only %d live ops completed while the slow peer stalled", during)
	}
	if err := live.Write(livePath, "after"); err != nil || live.Err() != nil {
		t.Fatalf("live client after eviction: %v / %v", err, live.Err())
	}
	if got := srv.Counters().Evicted; got != 1 {
		t.Errorf("evicted %d connections, want 1", got)
	}
}

// refillConn stands in for a peer socket while writers on other
// connections keep fanning events in: each Write first queues one more
// watch event on sc, until refills run out. Writes are serialized by
// sc's writer claim, so writes needs no lock of its own.
type refillConn struct {
	net.Conn
	sc      *srvConn
	refills int
	writes  int
}

func (r *refillConn) Write(b []byte) (int, error) {
	r.writes++
	if r.writes <= r.refills {
		r.sc.enqueueEvent(eventKey{watch: 1, path: fmt.Sprint(r.writes)}, []byte("event"))
	}
	return len(b), nil
}

func (r *refillConn) SetWriteDeadline(time.Time) error { return nil }
func (r *refillConn) Close() error                     { return nil }

// TestReplyWriteYieldsToEventWriter pins that a reader writes only up to
// its own reply: events queued ahead of the reply share its write, and
// events that keep arriving behind it go to writeLoop, so fan-in from
// other connections can never keep the reader from its next request.
func TestReplyWriteYieldsToEventWriter(t *testing.T) {
	srv := NewServer(Options{})
	t.Cleanup(srv.Close)
	rc := &refillConn{refills: 100}
	sc := &srvConn{srv: srv, c: rc, evIdx: map[eventKey]int{}}
	sc.qcond = sync.NewCond(&sc.qmu)
	rc.sc = sc
	defer sc.shutdown()

	sc.enqueueEvent(eventKey{watch: 1, path: "ahead"}, []byte("event"))
	// Stand where writeLoop waits: the reader must wake this waiter when
	// it hands over the frames behind its reply.
	timedOut := false
	watchdog := time.AfterFunc(5*time.Second, func() {
		sc.qmu.Lock()
		timedOut = true
		sc.qcond.Broadcast()
		sc.qmu.Unlock()
	})
	defer watchdog.Stop()
	sc.qmu.Lock()
	go sc.send([]byte("reply"))
	sc.qcond.Wait()
	left, claimed := len(sc.q), sc.writing
	sc.qmu.Unlock()
	if timedOut {
		t.Fatalf("writeLoop never woken: the reader made %d socket writes and left %d frames queued", rc.writes, left)
	}
	if rc.writes != 1 {
		t.Fatalf("reader made %d socket writes for its reply, want 1", rc.writes)
	}
	if left != 1 || claimed {
		t.Fatalf("after the reply: %d frames queued, claim held %v; want 1 frame left for writeLoop, claim free", left, claimed)
	}

	srv.wg.Add(1)
	go sc.writeLoop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sc.qmu.Lock()
		done := len(sc.q) == 0 && !sc.writing
		sc.qmu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writeLoop never drained the events left behind the reply")
		}
		time.Sleep(time.Millisecond)
	}
	if want := rc.refills + 1; rc.writes != want {
		t.Fatalf("%d socket writes in all, want %d", rc.writes, want)
	}
}

// TestWatcherOpsBoundedUnderFanOut has eight guests write distinct keys
// as fast as they can while a Dom0 watcher of the whole tree issues its
// own requests: every one of the watcher's round trips must stay far
// below the write window, and nobody is evicted.
func TestWatcherOpsBoundedUnderFanOut(t *testing.T) {
	const wt = 2 * time.Second
	srv, sock := startServer(t, Options{WriteTimeout: wt})
	const writers = 8
	const span = 500 * time.Millisecond

	watcher := dialT(t, sock, store.Dom0)
	var events atomic.Uint64
	if _, err := watcher.Watch(store.Root, func(string, string) { events.Add(1) }); err != nil {
		t.Fatal(err)
	}

	stop := time.Now().Add(span)
	value := strings.Repeat("v", 1<<10)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 1; i <= writers; i++ {
		wg.Add(1)
		go func(dom store.DomID) {
			defer wg.Done()
			c, err := Dial("unix", sock, dom, "")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			base := store.DomainPath(dom)
			for j := 0; time.Now().Before(stop); j++ {
				if err := c.Write(fmt.Sprintf("%s/k%d", base, j%256), value); err != nil {
					errs <- err
					return
				}
			}
		}(store.DomID(i))
	}

	probe := "/tool/probe"
	var worst time.Duration
	ops := 0
	for ; time.Now().Before(stop); ops++ {
		t0 := time.Now()
		v := fmt.Sprint(ops)
		if err := watcher.Write(probe, v); err != nil {
			t.Fatalf("watcher write %d: %v", ops, err)
		}
		if got, err := watcher.Read(probe); err != nil || got != v {
			t.Fatalf("watcher read %d = %q, %v", ops, got, err)
		}
		worst = max(worst, time.Since(t0))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if worst > wt/4 {
		t.Errorf("slowest watcher round trip took %v under fan-out", worst)
	}
	if ops < 10 || events.Load() == 0 {
		t.Errorf("watcher completed %d round trips and saw %d events", ops, events.Load())
	}
	if got := srv.Counters().Evicted; got != 0 {
		t.Errorf("evicted %d connections under fan-out", got)
	}
}
