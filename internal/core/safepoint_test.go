package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hcsgc/internal/heap"
)

func TestSafepointFastPathNoSTW(t *testing.T) {
	s := newSafepoints()
	tok := s.register("")
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1_000_000; i++ {
			s.poll(tok)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("polling without STW must never block")
	}
	s.unregister(tok)
}

func TestStopTheWorldWaitsForAllMutators(t *testing.T) {
	s := newSafepoints()
	const n = 4
	var inPause atomic.Bool
	var violations atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tok := s.register("")
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.unregister(tok)
			for !stop.Load() {
				s.poll(tok)
				// Outside poll the world must not be stopped: if it is,
				// stopTheWorld returned without this mutator parked.
				if inPause.Load() {
					violations.Add(1)
				}
			}
		}()
	}
	for round := 0; round < 20; round++ {
		s.stopTheWorld(0, nil)
		inPause.Store(true)
		time.Sleep(time.Millisecond)
		inPause.Store(false)
		s.resumeTheWorld()
	}
	stop.Store(true)
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d mutator steps observed an active pause", violations.Load())
	}
}

func TestBlockedMutatorCountsAsStopped(t *testing.T) {
	s := newSafepoints()
	tok := s.register("")
	s.beginBlocked(tok)
	done := make(chan struct{})
	go func() {
		s.stopTheWorld(0, nil) // must not wait for the blocked mutator
		s.resumeTheWorld()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked mutator must count towards the STW quorum")
	}
	s.endBlocked(tok)
	s.unregister(tok)
}

func TestEndBlockedWaitsOutPause(t *testing.T) {
	s := newSafepoints()
	tok := s.register("")
	s.beginBlocked(tok)
	s.stopTheWorld(0, nil)
	resumed := make(chan struct{})
	go func() {
		s.endBlocked(tok) // must block until resume
		close(resumed)
	}()
	select {
	case <-resumed:
		t.Fatal("endBlocked returned during an active pause")
	case <-time.After(20 * time.Millisecond):
	}
	s.resumeTheWorld()
	select {
	case <-resumed:
	case <-time.After(5 * time.Second):
		t.Fatal("endBlocked did not return after resume")
	}
	s.unregister(tok)
}

func TestConsecutivePauses(t *testing.T) {
	s := newSafepoints()
	tok := s.register("")
	stop := make(chan struct{})
	var polls atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				s.poll(tok)
				polls.Add(1)
			}
		}
	}()
	// Let the mutator get going before the pause storm.
	for polls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		s.stopTheWorld(0, nil)
		s.resumeTheWorld()
	}
	close(stop)
	if polls.Load() == 0 {
		t.Fatal("mutator never made progress between pauses")
	}
	// Drain: the goroutine may be parked; one more resume is harmless.
}

func TestRegisterBlocksDuringSTW(t *testing.T) {
	s := newSafepoints()
	tok := s.register("")
	s.beginBlocked(tok)
	s.stopTheWorld(0, nil)
	registered := make(chan struct{})
	go func() {
		s.register("") // must wait for resume
		close(registered)
	}()
	select {
	case <-registered:
		t.Fatal("register completed during a pause")
	case <-time.After(20 * time.Millisecond):
	}
	s.resumeTheWorld()
	select {
	case <-registered:
	case <-time.After(5 * time.Second):
		t.Fatal("register did not complete after resume")
	}
}

func TestMarkPoolPutGet(t *testing.T) {
	p := newMarkPool()
	p.setActive(1)
	p.put(bufOf(1, 2, 3))
	chunk := p.get() // active stays 1 (dec then inc)
	if got := held(chunk); len(got) != 3 {
		t.Fatalf("chunk = %v", got)
	}
	if p.quiescent() {
		t.Fatal("worker holding work is not quiescent")
	}
}

func TestMarkPoolEmptyPutIgnored(t *testing.T) {
	p := newMarkPool()
	p.setActive(0)
	p.put(nil)
	if !p.quiescent() {
		t.Fatal("empty put must not wake anything")
	}
}

func TestMarkPoolTerminateReleasesWaiters(t *testing.T) {
	p := newMarkPool()
	p.setActive(2)
	got := make(chan *markBuf, 2)
	for i := 0; i < 2; i++ {
		go func() { got <- p.get() }()
	}
	time.Sleep(10 * time.Millisecond)
	p.terminate()
	for i := 0; i < 2; i++ {
		select {
		case c := <-got:
			if c != nil {
				t.Fatalf("terminated get returned %v, want nil", held(c))
			}
		case <-time.After(5 * time.Second):
			t.Fatal("terminate did not release waiters")
		}
	}
}

func TestMarkPoolQuiescenceSignal(t *testing.T) {
	p := newMarkPool()
	p.setActive(1)
	p.put(bufOf(42))
	workerDone := make(chan struct{})
	go func() {
		chunk := p.get()
		_ = chunk
		// Simulate processing, then go back for more (becomes waiting).
		go func() {
			p.get()
			close(workerDone)
		}()
	}()
	waited := make(chan struct{})
	go func() {
		p.waitQuiescent()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("waitQuiescent never fired")
	}
	p.terminate()
	<-workerDone
}

func TestMarkPoolWorkStealingOrder(t *testing.T) {
	// Entries come back LIFO (stack discipline): the freshest is last in
	// the buffer get returns, where a worker pops first.
	p := newMarkPool()
	p.setActive(1)
	p.put(bufOf(1))
	p.put(bufOf(2))
	if c := held(p.get()); c[len(c)-1] != 2 {
		t.Fatalf("got %v, want the freshest entry last", c)
	}
}

// TestBlockedMutatorDoesNotStallSTW is the contract multi-threaded
// embedders (the KV server workload) rely on: a mutator idling inside
// Blocked counts as stopped, so another mutator can run a full GC cycle
// without the idler ever polling. Without Blocked this scenario deadlocks
// in stopTheWorld.
func TestBlockedMutatorDoesNotStallSTW(t *testing.T) {
	c, types := testEnv(t, Knobs{})
	node := types.Register("node", 2, []int{0})

	idler := c.NewMutator(4)
	defer idler.Close()
	buildList(idler, node, 100)

	worker := c.NewMutator(4)
	defer worker.Close()
	buildList(worker, node, 100)

	release := make(chan struct{})
	parked := make(chan struct{})
	done := make(chan struct{})
	go func() {
		idler.Blocked(func() {
			close(parked)
			<-release
		})
		close(done)
	}()
	<-parked

	// GC from the worker while the idler is blocked: must complete, and
	// must scan + heal the idler's roots like any other mutator's.
	gcDone := make(chan struct{})
	go func() {
		worker.RequestGC()
		close(gcDone)
	}()
	select {
	case <-gcDone:
	case <-time.After(10 * time.Second):
		t.Fatal("GC deadlocked on a Blocked mutator")
	}

	close(release)
	<-done
	walkList(t, idler, 100)
	walkList(t, worker, 100)
	if c.Cycles() == 0 {
		t.Fatal("no GC cycle ran")
	}
}

// TestBlockedWaitsOutActivePause: leaving a blocked section while the
// world is stopped must park until the resume, not touch the heap.
func TestBlockedWaitsOutActivePause(t *testing.T) {
	s := newSafepoints()
	blockedTok := s.register("") // the blocked mutator
	pollTok := s.register("")    // the polling mutator (parks immediately below)

	entered := make(chan struct{})
	release := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		s.beginBlocked(blockedTok)
		close(entered)
		<-release // hold the blocked section open across the pause
		s.endBlocked(blockedTok)
		close(exited)
	}()
	<-entered

	pollerParked := make(chan struct{})
	pollerStop := make(chan struct{})
	go func() {
		close(pollerParked)
		for {
			s.poll(pollTok)
			select {
			case <-pollerStop:
				return
			default:
			}
		}
	}()
	<-pollerParked

	s.stopTheWorld(0, nil)
	close(release)
	select {
	case <-exited:
		t.Fatal("endBlocked returned while the world was stopped")
	case <-time.After(50 * time.Millisecond):
	}
	s.resumeTheWorld()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("endBlocked never returned after resume")
	}
	close(pollerStop)
}

// TestEveryStopPathFlushesMarkBuf: STW2 ends marking once the pool is
// quiescent with the world stopped, which is sound only if a mutator hands
// its mark buffer to the pool before it counts as stopped, whichever way
// it stops. Each case starts a mutator during a mark with grays in its
// buffer and stops the world once it is parked or blocked: its buffer must
// be empty by then, and its grays in the pool. The test holds cycleMu, so
// RequestGC and the stall stop inside the collector's entry, before a
// cycle can run.
func TestEveryStopPathFlushesMarkBuf(t *testing.T) {
	paths := []struct {
		name string
		stop func(m *Mutator, release <-chan struct{})
	}{
		{"safepoint", func(m *Mutator, release <-chan struct{}) {
			for {
				select {
				case <-release:
					return
				default:
					m.Safepoint()
				}
			}
		}},
		{"blocked", func(m *Mutator, release <-chan struct{}) { m.Blocked(func() { <-release }) }},
		{"request-gc", func(m *Mutator, _ <-chan struct{}) { m.RequestGC() }},
		{"alloc-stall", func(m *Mutator, _ <-chan struct{}) {
			full := true
			m.allocStall(24, func() (uint64, error) {
				if full {
					full = false
					return 0, heap.ErrHeapFull
				}
				return 8, nil // never dereferenced
			})
		}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			c, types := testEnv(t, Knobs{})
			node := types.Register("node", 2, []int{0})
			m := c.NewMutator(1)
			var grays []uint64
			for i := 0; i < 3; i++ {
				obj := m.Alloc(node)
				grays = append(grays, obj.Addr())
				m.markBuf = c.pool.push(m.markBuf, obj.Addr())
			}
			c.phase.Store(uint32(PhaseMark))

			c.cycleMu.Lock()
			release, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				path.stop(m, release)
			}()
			c.sp.stopTheWorld(0, nil)
			left := len(held(m.markBuf))
			c.pool.mu.Lock()
			pooled := slices.Equal(stacked(c.pool), grays)
			c.pool.mu.Unlock()
			c.sp.resumeTheWorld()

			// Back to the relocation era the collector left, so the cycle
			// RequestGC or the stall runs once released starts cleanly.
			c.pool.setActive(0)
			c.phase.Store(uint32(PhaseRelocate))
			c.cycleMu.Unlock()
			close(release)
			<-done
			m.Close()
			if left != 0 || !pooled {
				t.Fatalf("stopped mutator kept %d grays in its mark buffer; its grays in the pool: %v", left, pooled)
			}
		})
	}
}
