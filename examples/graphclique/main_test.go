package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestGenerateIsReproducible: the graph is a function of its seed, so every
// run of the example counts the same triangles and walks the same layout.
// Checked at the source rather than by running the example twice (one run
// simulates ~90M accesses).
func TestGenerateIsReproducible(t *testing.T) {
	if a, b := generate(2000, 12, 3), generate(2000, 12, 3); !reflect.DeepEqual(a, b) {
		t.Error("two calls of generate built different graphs")
	}
}

// TestExampleShowsWhatItSays: the example collects at least once, both
// traversals count the same triangles, and the one that follows the
// relocating one misses the LLC less.
func TestExampleShowsWhatItSays(t *testing.T) {
	var out strings.Builder
	run(&out)
	var triangles, misses [2]int
	var cycles int
	r := strings.NewReader(out.String())
	for i := range triangles {
		var pass int
		if _, err := fmt.Fscanf(r, "pass %d: %d triangles, %d LLC misses\n", &pass, &triangles[i], &misses[i]); err != nil || pass != i+1 {
			t.Fatalf("pass %d line: %v in output:\n%s", i+1, err, out.String())
		}
	}
	if _, err := fmt.Fscanf(r, "GC cycles: %d\n", &cycles); err != nil {
		t.Fatalf("cycles line: %v in output:\n%s", err, out.String())
	}
	if triangles[0] == 0 || triangles[1] != triangles[0] {
		t.Errorf("triangle counts %v: want the same non-zero count on both passes", triangles)
	}
	if cycles < 1 {
		t.Errorf("%d GC cycles: the layout was never reorganised", cycles)
	}
	if misses[1] >= misses[0] {
		t.Errorf("LLC misses pass 1 %d, pass 2 %d: the second traversal should enjoy the first one's layout", misses[0], misses[1])
	}
}
