package simmem

import (
	"math/rand"
	"testing"
)

func TestPrefetcherDisabled(t *testing.T) {
	p := NewPrefetcher(0)
	if p.Enabled() {
		t.Fatal("depth 0 should disable")
	}
	if got := p.OnMiss(0x1000); got != nil {
		t.Fatalf("disabled prefetcher returned targets %v", got)
	}
	var nilP *Prefetcher
	if nilP.Enabled() {
		t.Fatal("nil prefetcher should report disabled")
	}
}

func TestSequentialStreamDetected(t *testing.T) {
	p := NewPrefetcher(4)
	var issued [][]uint64
	for i := uint64(0); i < 8; i++ {
		issued = append(issued, p.OnMiss(i*64))
	}
	// The first miss allocates a tracker; by the confirmThreshold-th
	// same-stride miss the stream is confirmed and prefetches flow.
	late := issued[len(issued)-1]
	if len(late) != 4 {
		t.Fatalf("confirmed +1 stream should issue 4 prefetches, got %d", len(late))
	}
	// Targets must be the next lines in sequence.
	base := uint64(7 * 64)
	for i, tgt := range late {
		want := base + uint64(i+1)*64
		if tgt != want {
			t.Errorf("target[%d] = %#x, want %#x", i, tgt, want)
		}
	}
}

func TestStridedStreamDetected(t *testing.T) {
	p := NewPrefetcher(2)
	stride := uint64(3 * 64) // every 3rd line
	var last []uint64
	for i := uint64(0); i < 8; i++ {
		last = p.OnMiss(0x10000 + i*stride)
	}
	if len(last) != 2 {
		t.Fatalf("strided stream should issue prefetches, got %d", len(last))
	}
	if last[0] != 0x10000+8*stride {
		t.Errorf("first target %#x, want %#x", last[0], 0x10000+8*stride)
	}
}

func TestBackwardStream(t *testing.T) {
	p := NewPrefetcher(2)
	start := uint64(100 * 64)
	var last []uint64
	for i := uint64(0); i < 8; i++ {
		last = p.OnMiss(start - i*64)
	}
	if len(last) != 2 {
		t.Fatalf("backward stream should be detected, got %d targets", len(last))
	}
	// Last miss was at start-7*64 (8 misses, i = 0..7), so the first
	// prefetch target is one stride further: start-8*64.
	if last[0] != start-8*64 {
		t.Errorf("target %#x, want %#x", last[0], start-8*64)
	}
}

func TestRandomMissesIssueFewPrefetches(t *testing.T) {
	p := NewPrefetcher(4)
	rng := rand.New(rand.NewSource(9))
	n := 2000
	for i := 0; i < n; i++ {
		// Spread misses over a large range so accidental streams are rare.
		p.OnMiss(rng.Uint64() % (1 << 34))
	}
	if p.Issued() > uint64(n/4) {
		t.Fatalf("random misses should rarely trigger prefetch; issued %d of %d", p.Issued(), n)
	}
}

func TestRepeatedSameLineMissNoPrefetch(t *testing.T) {
	p := NewPrefetcher(4)
	for i := 0; i < 10; i++ {
		if got := p.OnMiss(0x2000); len(got) != 0 {
			t.Fatalf("same-line repeats must not create a stream, got %v", got)
		}
	}
}

func TestMultipleInterleavedStreams(t *testing.T) {
	// Two interleaved sequential streams far apart must both be tracked.
	p := NewPrefetcher(2)
	var lastA, lastB []uint64
	for i := uint64(0); i < 10; i++ {
		lastA = p.OnMiss(0x100000 + i*64)
		lastB = p.OnMiss(0x900000 + i*64)
	}
	if len(lastA) == 0 || len(lastB) == 0 {
		t.Fatalf("both interleaved streams should confirm; got %d and %d targets", len(lastA), len(lastB))
	}
}

func TestStreamTableEviction(t *testing.T) {
	// More streams than table entries: old ones are evicted, but the
	// tracker must not crash and fresh streams must still confirm.
	p := NewPrefetcher(2)
	for s := uint64(0); s < uint64(maxStreams*3); s++ {
		base := s << 24
		for i := uint64(0); i < 4; i++ {
			p.OnMiss(base + i*64)
		}
	}
	if p.Issued() == 0 {
		t.Fatal("streams should still confirm under table pressure")
	}
}

func TestPrefetcherReset(t *testing.T) {
	p := NewPrefetcher(4)
	for i := uint64(0); i < 8; i++ {
		p.OnMiss(i * 64)
	}
	p.Reset()
	if p.Issued() != 0 {
		t.Fatal("Reset must clear Issued")
	}
	if got := p.OnMiss(0x5000); len(got) != 0 {
		t.Fatal("first miss after reset must not prefetch")
	}
}

func TestNoPrefetchBelowZero(t *testing.T) {
	// A backward stream near address zero must not emit wrapped targets.
	p := NewPrefetcher(8)
	for i := int64(10); i >= 0; i-- {
		p.OnMiss(uint64(i) * 64)
	}
	// All issued targets must have been positive; OnMiss clamps at zero.
	// (Implicitly verified by no panic and by target count < depth on the
	// last misses.)
	last := p.OnMiss(0) // stride -1 from line 0 would go negative
	for _, tgt := range last {
		if int64(tgt) <= 0 {
			t.Fatalf("issued non-positive target %#x", tgt)
		}
	}
}

func TestStreamSurvivesInterleavedNoise(t *testing.T) {
	// A strided stream with unrelated misses interleaved (allocation
	// noise between stream elements) must still confirm: hardware
	// streamers track streams within a page-sized window.
	p := NewPrefetcher(4)
	stride := int64(12) // lines between stream elements
	noise := uint64(1 << 30)
	var last []uint64
	for i := int64(0); i < 10; i++ {
		last = p.OnMiss(uint64(0x100000 + i*stride*64))
		p.OnMiss(noise + uint64(i)*8192) // far-away noise miss
	}
	if len(last) == 0 {
		t.Fatalf("stride-%d stream with interleaved noise did not confirm", stride)
	}
	if want := uint64(0x100000 + 10*stride*64); last[0] != want {
		t.Fatalf("target %#x, want %#x", last[0], want)
	}
}

// TestOnMissZeroAllocations pins the alloc-free contract on the hottest
// simulator path: OnMiss runs on every L1 demand miss, and it used to
// allocate its target slice per confirmed miss. The fix reuses an
// internal buffer; this guards against the regression.
func TestOnMissZeroAllocations(t *testing.T) {
	p := NewPrefetcher(4)
	// Confirm a +1-line stream so the prefetch-issuing branch is the one
	// being measured.
	line := uint64(0x1000)
	for i := 0; i < 4; i++ {
		p.OnMiss(line)
		line += LineSize
	}
	allocs := testing.AllocsPerRun(100, func() {
		p.OnMiss(line)
		line += LineSize
	})
	if allocs != 0 {
		t.Fatalf("OnMiss allocated %.1f objects per confirmed miss; want 0", allocs)
	}
}

// TestOnMissBufferReuse documents the aliasing contract: the slice
// returned by OnMiss is only valid until the next call.
func TestOnMissBufferReuse(t *testing.T) {
	p := NewPrefetcher(2)
	line := uint64(0x1000)
	var first []uint64
	for i := 0; i < 8 && len(first) == 0; i++ {
		first = p.OnMiss(line)
		line += LineSize
	}
	if len(first) == 0 {
		t.Fatal("stream never confirmed")
	}
	want := first[0]
	var second []uint64
	for i := 0; i < 8 && len(second) == 0; i++ {
		second = p.OnMiss(line)
		line += LineSize
	}
	if len(second) == 0 {
		t.Fatal("stream lost confirmation")
	}
	if first[0] == want && &first[0] != &second[0] {
		t.Fatal("OnMiss stopped reusing its buffer; update the aliasing contract docs")
	}
}

// TestPrefetchUsefulness reads the model's count of useful prefetches on
// DefaultConfig. A walk the prefetcher follows, sequential words or a
// 3-line stride, uses nearly every line it prefetched and finds nearly
// every L2 miss covered. A uniform random walk over 64 MB installs no
// prefetch, so both ratios are undefined (-1). With PrefetchDepth 0
// nothing is counted.
func TestPrefetchUsefulness(t *testing.T) {
	const base = 1 << 32
	walk := func(cfg HierarchyConfig, n int, addr func(i int) uint64) CoreStats {
		c := MustNewHierarchy(cfg).NewCore()
		for i := 0; i < n; i++ {
			c.Load(addr(i), 8)
		}
		return c.Stats()
	}
	words := func(i int) uint64 { return base + uint64(i)*8 }
	for _, tc := range []struct {
		name string
		addr func(i int) uint64
	}{
		{"sequential words", words},
		{"3-line stride", func(i int) uint64 { return base + uint64(i)*3*LineSize }},
	} {
		s := walk(DefaultConfig(), 1<<18, tc.addr)
		if acc, cov := s.PrefetchAccuracy(), s.PrefetchCoverage(); acc < 0.99 || cov < 0.99 {
			t.Errorf("%s: accuracy %.4f, coverage %.4f, want both >= 0.99 (%+v)", tc.name, acc, cov, s)
		}
	}

	rng := rand.New(rand.NewSource(3))
	s := walk(DefaultConfig(), 1<<17, func(int) uint64 { return base + uint64(rng.Int63n(64<<20))&^7 })
	if s.L2Prefills != 0 || s.PrefUseful != 0 || s.PrefetchAccuracy() != -1 || s.PrefetchCoverage() != -1 {
		t.Errorf("random walk: %d prefills, %d useful, accuracy %v, coverage %v; want none and -1",
			s.L2Prefills, s.PrefUseful, s.PrefetchAccuracy(), s.PrefetchCoverage())
	}

	off := DefaultConfig()
	off.PrefetchDepth = 0
	if s := walk(off, 1<<16, words); s.PrefIssued != 0 || s.L2Prefills != 0 || s.PrefUseful != 0 {
		t.Errorf("depth 0: issued %d, prefilled %d, useful %d; want 0", s.PrefIssued, s.L2Prefills, s.PrefUseful)
	}
}

// TestMarkedL2HitZeroAllocations pins the alloc-free contract on the path
// the prefetch mark adds to: a Core.Load that misses L1 and hits a line the
// prefetcher installed in L2, counting it useful.
func TestMarkedL2HitZeroAllocations(t *testing.T) {
	c := MustNewHierarchy(DefaultConfig()).NewCore()
	addr := uint64(1 << 32)
	for i := 0; i < 8; i++ { // confirm a +1-line stream
		c.Load(addr, 8)
		addr += LineSize
	}
	before := c.Stats().PrefUseful
	allocs := testing.AllocsPerRun(100, func() {
		c.Load(addr, 8)
		addr += LineSize
	})
	if allocs != 0 {
		t.Fatalf("Core.Load allocated %.1f objects per marked L2 hit; want 0", allocs)
	}
	if used := c.Stats().PrefUseful - before; used < 100 {
		t.Fatalf("%d of the measured loads hit a prefetched line, want all", used)
	}
}
