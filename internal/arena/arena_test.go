package arena

import (
	"maps"
	"testing"
)

// TestGetReusesWhatPutScrubbed: a slab comes back only at its own length,
// scrubbed up to the dirty bound Put was given, and the free lists hold
// exactly what was handed back and not yet taken out again.
func TestGetReusesWhatPutScrubbed(t *testing.T) {
	var a Slabs[uint64]
	s := a.Get(8)
	for i := range s[:5] {
		s[i] = uint64(i) + 1
	}
	a.Put(s, 5)
	a.Put(a.Get(4), 0)
	if held, want := a.Held(), map[int]int{8: 1, 4: 1}; !maps.Equal(held, want) {
		t.Fatalf("held %v, want %v", held, want)
	}
	if r := a.Get(16); &r[0] == &s[0] {
		t.Fatal("a slab of another length was handed out")
	}
	r := a.Get(8)
	if &r[0] != &s[0] {
		t.Fatal("the slab handed back was not reused")
	}
	for i, w := range r {
		if w != 0 {
			t.Fatalf("word %d reads %d, want 0", i, w)
		}
	}
	if held, want := a.Held(), map[int]int{4: 1}; !maps.Equal(held, want) {
		t.Fatalf("held %v after taking the 8-word slab, want %v", held, want)
	}
	a.Reset()
	if held := a.Held(); len(held) != 0 {
		t.Fatalf("held %v after Reset", held)
	}
}
