package heap

import "hcsgc/internal/arena"

// ResetArena empties the process-wide arena, so that a test observes
// first-use behaviour whatever ran before it in the process.
func ResetArena() {
	arena.Words.Reset()
	slotSlabs.Reset()
	tableSlabs.Reset()
}
