package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// A miniature profile.proto encoder, enough to build a canned profile.
type pb struct{ bytes.Buffer }

func (b *pb) varint(x uint64) {
	for x >= 0x80 {
		b.WriteByte(byte(x) | 0x80)
		x >>= 7
	}
	b.WriteByte(byte(x))
}
func (b *pb) uint(field int, x uint64) { b.varint(uint64(field)<<3 | 0); b.varint(x) }
func (b *pb) bytesField(field int, p []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(p)))
	b.Write(p)
}
func (b *pb) packed(field int, xs ...uint64) {
	var body pb
	for _, x := range xs {
		body.varint(x)
	}
	b.bytesField(field, body.Bytes())
}

func gz(t *testing.T, raw []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// cannedProfile has four functions and three locations; location 2 is
// sync/atomic's Add inlined into simmem's accessLine (innermost first).
func cannedProfile(t *testing.T) []byte {
	strs := []string{"",
		"hcsgc/internal/simmem.(*Core).accessLine", // 1
		"sync/atomic.(*Uint64).Add",                // 2
		"hcsgc/internal/heap.(*Heap).LoadWord",     // 3
		"hcsgc/internal/workloads.synRunPhase",     // 4
	}
	var p pb
	function := func(id, name uint64) {
		var f pb
		f.uint(1, id)
		f.uint(2, name)
		p.bytesField(5, f.Bytes())
	}
	location := func(id uint64, funcs ...uint64) {
		var l pb
		l.uint(1, id)
		for _, fn := range funcs {
			var line pb
			line.uint(1, fn)
			line.uint(2, 42)
			l.bytesField(4, line.Bytes())
		}
		p.bytesField(4, l.Bytes())
	}
	for id := uint64(1); id <= 4; id++ {
		function(id, id)
	}
	location(1, 1)    // accessLine
	location(2, 2, 1) // Add inlined into accessLine
	location(3, 3)    // LoadWord
	location(4, 4)    // synRunPhase, only ever a caller

	// Packed: leaf accessLine, called from LoadWord, from synRunPhase; 6 samples, 60 ns.
	var s1 pb
	s1.packed(1, 1, 3, 4)
	s1.packed(2, 6, 60)
	p.bytesField(2, s1.Bytes())
	// Unpacked repeated fields, as the runtime writes short ones: leaf is
	// the inlined Add; 1 sample, 10 ns.
	var s2 pb
	s2.uint(1, 2)
	s2.uint(1, 3)
	s2.uint(2, 1)
	s2.uint(2, 10)
	p.bytesField(2, s2.Bytes())
	// Leaf LoadWord; 3 samples, 30 ns.
	var s3 pb
	s3.packed(1, 3, 4)
	s3.packed(2, 3, 30)
	p.bytesField(2, s3.Bytes())

	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	return gz(t, p.Bytes())
}

func TestFlatByFunctionOnCannedProfile(t *testing.T) {
	flat, err := flatByFunction(cannedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"hcsgc/internal/simmem.(*Core).accessLine": 60,
		"sync/atomic.(*Uint64).Add":                10,
		"hcsgc/internal/heap.(*Heap).LoadWord":     30,
	}
	if len(flat) != len(want) {
		t.Errorf("flat = %v, want %v", flat, want)
	}
	for fn, v := range want {
		if flat[fn] != v {
			t.Errorf("flat[%s] = %d, want %d", fn, flat[fn], v)
		}
	}

	shares := hostShares(flat)
	if shares["simmem"] != 60 || shares["heap"] != 30 || shares["go-runtime"] != 10 || shares["workloads"] != 0 {
		t.Errorf("shares = %v", shares)
	}
	var sum float64
	for _, l := range hostLayers {
		sum += shares[l]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
}

func TestFlatByFunctionRejectsDamage(t *testing.T) {
	if _, err := flatByFunction([]byte("not gzip")); err == nil {
		t.Error("plain bytes accepted")
	}
	var p pb
	p.varint(2<<3 | 2)
	p.varint(100) // a sample claiming 100 bytes that are not there
	if _, err := flatByFunction(gz(t, p.Bytes())); err == nil {
		t.Error("truncated message accepted")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hcsgc/internal/simmem.(*Cache).touch":             "simmem",
		"hcsgc/internal/heap.(*ForwardTable).Insert":       "heap",
		"hcsgc/internal/objmodel.FieldAddr":                "heap",
		"hcsgc/internal/core.(*Mutator).barrierSlow":       "core",
		"hcsgc.(*Runtime).ExecSeconds":                     "core",
		"hcsgc/internal/kvstore.(*Store).Get":              "kvstore",
		"hcsgc/internal/loadgen.Generate":                  "loadgen",
		"hcsgc/internal/graphalg.(*HeapGraph).dfs.func1":   "workloads",
		"hcsgc/internal/telemetry/latency.(*Hist).Record":  "planes",
		"hcsgc/internal/contention.(*Mutex).Lock":          "planes",
		"runtime.mallocgc":                                 "go-runtime",
		"runtime/internal/atomic.(*Uint64).Add":            "go-runtime",
		"internal/sync.(*Mutex).TryLock":                   "go-runtime",
		"sync.(*Mutex).Unlock":                             "go-runtime",
		"math/rand.(*Rand).Intn":                           "other",
		"main.runRep":                                      "other",
		"slices.SortFunc[go.shape.[]hcsgc/internal/x.T,x]": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %s, want %s", fn, got, want)
		}
	}
}

// The decoder must also read what the running toolchain actually writes.
func TestFlatByFunctionOnRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	var x uint64
	for start := time.Now(); time.Since(start) < 150*time.Millisecond; {
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink += x
	pprof.StopCPUProfile()
	flat, err := flatByFunction(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range flat {
		total += v
	}
	if total <= 0 {
		t.Skip("profiler delivered no samples in 150 ms")
	}
	if _, ok := flat["(unknown)"]; ok && len(flat) == 1 {
		t.Errorf("no sample resolved to a function name: %v", flat)
	}
}
