package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spToken is one registered mutator's identity in the safepoint protocol.
// The watchdog uses it to name the mutators that have not reached the
// safepoint when a stop-the-world overruns its deadline; all fields are
// guarded by safepoints.mu.
type spToken struct {
	name string
	// stopped mirrors the mutator's contribution to safepoints.stopped:
	// true while parked at a safepoint or inside a blocked section.
	stopped bool
}

// safepoints implements the stop-the-world handshake. Mutators poll
// Safepoint() at allocation sites and loop back-edges; when the collector
// requests a pause, polling mutators park until the world resumes.
// Mutators that block (allocation stalls, detached sections) count as
// stopped for the duration of the blocking region, like JNI native code in
// HotSpot.
type safepoints struct {
	// requested is the fast-path flag mutators poll without locking.
	requested atomic.Bool

	mu        sync.Mutex
	cond      *sync.Cond
	stwActive bool
	// registered is the number of attached mutators; stopped counts those
	// currently parked or blocked, blocked those inside a blocked section.
	registered int
	stopped    int
	blocked    int
	// epoch increments on every resume so parked mutators distinguish
	// consecutive pauses.
	epoch uint64
	// toks are the attached mutators' identity tokens.
	toks map[*spToken]struct{}
	// nameSeq numbers default token names.
	nameSeq uint64
}

func newSafepoints() *safepoints {
	s := &safepoints{toks: make(map[*spToken]struct{})}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// register attaches a mutator to the safepoint protocol and returns its
// identity token. If a pause is pending or active, registration waits it
// out: a mutator attaching mid-pause could otherwise touch the heap while
// the collector assumes the world is stopped.
func (s *safepoints) register(name string) *spToken {
	s.mu.Lock()
	for s.requested.Load() || s.stwActive {
		s.cond.Wait()
	}
	s.registered++
	s.nameSeq++
	if name == "" {
		name = "mutator-" + itoa(s.nameSeq)
	}
	tok := &spToken{name: name}
	s.toks[tok] = struct{}{}
	s.mu.Unlock()
	return tok
}

// itoa renders a small uint without strconv (keeps the lock-held path
// allocation-light and dependency-free).
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// setName renames the token (serving threads label themselves so watchdog
// reports are actionable).
func (s *safepoints) setName(tok *spToken, name string) {
	s.mu.Lock()
	tok.name = name
	s.mu.Unlock()
}

// unregister detaches a mutator. Must be called from running (not parked)
// state; the mutator may not touch the heap afterwards.
func (s *safepoints) unregister(tok *spToken) {
	s.mu.Lock()
	s.registered--
	delete(s.toks, tok)
	s.cond.Broadcast()
	// If a pause is pending, the collector may now have all remaining
	// mutators stopped.
	s.mu.Unlock()
}

// poll parks the caller if a stop-the-world is requested or active. This
// is the safepoint check; the fast path is a single atomic load.
func (s *safepoints) poll(tok *spToken) {
	if s.requested.Load() {
		s.park(tok)
	}
}

// park is poll's slow path: it counts the caller as stopped until no pause
// is requested or active. Mutators that have something to do before they
// park (publish their ledgers) test requested themselves and call park, so
// that one load decides both.
func (s *safepoints) park(tok *spToken) {
	s.mu.Lock()
	for s.requested.Load() || s.stwActive {
		s.stopped++
		tok.stopped = true
		s.cond.Broadcast() // wake the collector waiting for quorum
		epoch := s.epoch
		for (s.requested.Load() || s.stwActive) && s.epoch == epoch {
			s.cond.Wait()
		}
		s.stopped--
		tok.stopped = false
	}
	s.mu.Unlock()
}

// beginBlocked marks the caller as stopped-equivalent for the duration of
// a blocking operation (allocation stall). The caller must not touch the
// heap until endBlocked returns.
func (s *safepoints) beginBlocked(tok *spToken) {
	s.mu.Lock()
	s.stopped++
	s.blocked++
	tok.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// endBlocked re-enters running state, waiting out any active pause.
func (s *safepoints) endBlocked(tok *spToken) {
	s.mu.Lock()
	for s.requested.Load() || s.stwActive {
		s.cond.Wait()
	}
	s.stopped--
	s.blocked--
	tok.stopped = false
	s.mu.Unlock()
}

// running reports whether an attached mutator is outside a blocked section
// (one parked at a safepoint runs on when the pause ends).
func (s *safepoints) running() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blocked < s.registered
}

// stuckLocked names the registered mutators not at the safepoint, sorted.
// Caller holds s.mu.
func (s *safepoints) stuckLocked() []string {
	var out []string
	for tok := range s.toks {
		if !tok.stopped {
			out = append(out, tok.name)
		}
	}
	sort.Strings(out)
	return out
}

// stopTheWorld blocks until every registered mutator is parked or blocked,
// then returns with the world stopped. Only the collector calls this, and
// never reentrantly.
//
// watchdog > 0 arms a wall-clock progress deadline: if quorum has not been
// reached when it expires, onStall is invoked once (outside s.mu) with the
// names of the mutators still running and the registered/stopped counts.
// Wall-clock deliberately — a mutator that never polls freezes the virtual
// timeline, so a virtual-cycle deadline could never fire. The pause keeps
// waiting after the report; the watchdog turns a silent hang into a
// diagnosable one, it does not abort the pause.
//
//hcsgc:wall-clock
func (s *safepoints) stopTheWorld(watchdog time.Duration, onStall func(stuck []string, registered, stopped int)) {
	s.requested.Store(true)
	var timer *time.Timer
	if watchdog > 0 && onStall != nil {
		timer = time.AfterFunc(watchdog, func() {
			s.mu.Lock()
			if s.stopped >= s.registered {
				s.mu.Unlock()
				return
			}
			stuck := s.stuckLocked()
			registered, stopped := s.registered, s.stopped
			s.mu.Unlock()
			onStall(stuck, registered, stopped)
		})
	}
	s.mu.Lock()
	for s.stopped < s.registered {
		s.cond.Wait()
	}
	s.stwActive = true
	s.mu.Unlock()
	if timer != nil {
		timer.Stop()
	}
}

// resumeTheWorld releases all parked mutators.
func (s *safepoints) resumeTheWorld() {
	s.mu.Lock()
	s.stwActive = false
	s.requested.Store(false)
	s.epoch++
	s.cond.Broadcast()
	s.mu.Unlock()
}
