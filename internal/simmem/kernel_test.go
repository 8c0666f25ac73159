package simmem

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestKernelsMatchGoLoops runs every kernel beside the Go loop it replaces
// over seeded streams and compares the two after every operation: the
// value returned and the whole state left behind (a cache's tags, the
// prefetcher's stream table).
func TestKernelsMatchGoLoops(t *testing.T) {
	if len(kernelsMissing) > 0 {
		t.Skipf("the kernels need %s, which this host lacks", strings.Join(kernelsMissing, ", "))
	}
	for _, ways := range []int{8, 16} {
		cfg := CacheConfig{Name: "k", Size: 16 * ways * LineSize, Ways: ways}
		if !MustNewCache(cfg).kernel {
			t.Fatalf("%d-way cache runs the Go loop, want the kernel", ways)
		}
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("%dway/seed%d", ways, seed)
			t.Run("touch/"+name, func(t *testing.T) { matchCaches(t, cfg, seed, false) })
			t.Run("lookup/"+name, func(t *testing.T) { matchCaches(t, cfg, seed, true) })
		}
	}
	for _, ways := range []int{4, 24} {
		if MustNewCache(CacheConfig{Name: "go", Size: 4 * ways * LineSize, Ways: ways}).kernel {
			t.Errorf("%d-way cache runs the kernel, want the Go loop", ways)
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("prefetcher/seed%d", seed), func(t *testing.T) { matchPrefetchers(t, seed) })
	}
}

// matchCaches drives a kernel cache and a Go-loop cache of one geometry
// with the same seeded operations. The lines come from a range about
// twice the cache, so sets fill, hit at every way and evict. touch runs
// on tags that never carry the prefetched mark, as in the L1 and the LLC;
// lookup mixes demand and prefetch fills, as in the L2.
func matchCaches(t *testing.T, cfg CacheConfig, seed int64, lookup bool) {
	vec, ref := MustNewCache(cfg), MustNewCache(cfg)
	ref.kernel = false
	rng := rand.New(rand.NewSource(seed))
	lines := uint64(2 * ref.sets * uint64(ref.ways))
	for op := 0; op < 20000; op++ {
		ln := 1 + rng.Uint64()%lines
		var got, want uint64
		if lookup {
			fill := ln
			if rng.Intn(3) == 0 {
				fill |= prefetched
			}
			got, want = vec.lookup(ln, fill), ref.lookup(ln, fill)
		} else {
			got, want = b2u(vec.touch(ln)), b2u(ref.touch(ln))
		}
		if got != want || !slices.Equal(vec.tags, ref.tags) {
			set := ref.setOf(ln) * uint64(ref.ways)
			t.Fatalf("op %d, line %#x: kernel returned %#x, Go loop %#x\nkernel set %#x\nGo set     %#x",
				op, ln, got, want, vec.tags[set:set+uint64(ref.ways)], ref.tags[set:set+uint64(ref.ways)])
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// matchPrefetchers drives a kernel prefetcher and a Go-loop one with the
// same seeded miss stream: interleaved forward and backward strided
// streams, more of them than the table has slots, some within each other's
// discovery window, scattered noise,
// streams that run down past line 0 (the next <= 0 edge), repeats of one
// line, and an occasional Reset.
func matchPrefetchers(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	depth := 1 + rng.Intn(8)
	vec, ref := NewPrefetcher(depth), NewPrefetcher(depth)
	ref.kernel = false
	type stream struct{ next, stride int64 }
	streams := make([]stream, 4+rng.Intn(2*maxStreams))
	for i := range streams {
		stride := int64(1 + rng.Intn(6))
		if rng.Intn(2) == 0 {
			stride = -stride
		}
		var start int64
		switch i % 4 {
		case 0:
			start = rng.Int63n(64) // runs down to line 0 and below
		case 1:
			start = rng.Int63n(1 << 20)
		default:
			// Within the window of the stream before it, so that several
			// slots are near one miss and table order decides.
			start = max(streams[i-1].next+rng.Int63n(48)-24, 0)
		}
		streams[i] = stream{start, stride}
	}
	var last uint64
	for op := 0; op < 20000; op++ {
		var addr uint64
		switch r := rng.Intn(100); {
		case r < 70:
			s := &streams[rng.Intn(len(streams))]
			if s.next < 0 {
				s.next = rng.Int63n(1 << 20)
			}
			addr = uint64(s.next) << lineShift
			s.next += s.stride
		case r < 80:
			addr = last // the same line missing again
		case r < 99:
			addr = rng.Uint64() % (1 << 34)
		default:
			vec.Reset()
			ref.Reset()
			continue
		}
		last = addr
		got := slices.Clone(vec.OnMiss(addr))
		want := ref.OnMiss(addr)
		if !slices.Equal(got, want) || vec.tab != ref.tab || vec.issued != ref.issued {
			t.Fatalf("op %d, miss at %#x: kernel issued %#x, Go loop %#x\nkernel table %+v\nGo table     %+v",
				op, addr, got, want, vec.tab, ref.tab)
		}
	}
}
