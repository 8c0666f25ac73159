// Package facade plays the runtime facade over rt and drv: a finding that
// needs module-wide knowledge (which locks are blocking locks) inside a
// function that one package alone already puts in mutator context.
package facade

import (
	"drv"
	"rt"
	"sync"
)

// Runtime remembers its mutators under mu.
type Runtime struct {
	mu   sync.Mutex
	d    *drv.Driver
	muts []*rt.Mutator
}

// Close holds mu across a wait whose body lives in another package: that
// makes mu a blocking lock, which only a module-wide call graph can tell.
func (r *Runtime) Close() {
	r.mu.Lock()
	r.d.Stop()
	r.mu.Unlock()
}

// Attach touches a mutator, so context starts here whichever packages are
// in view, and takes the lock Close may be parked under.
func (r *Runtime) Attach(m *rt.Mutator) {
	r.mu.Lock() // want `Lock of facade.Runtime.mu, whose critical section blocks in Attach`
	r.muts = append(r.muts, m)
	r.mu.Unlock()
}
