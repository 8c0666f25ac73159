package heap

// ResetArena empties the process-wide arena, so that a test observes
// first-use behaviour whatever ran before it in the process.
func ResetArena() {
	wordSlabs.reset()
	slotSlabs.reset()
	tableSlabs.reset()
}

func (a *slabs[T]) reset() {
	a.mu.Lock()
	a.free = nil
	a.mu.Unlock()
}
