package simmem

// The AVX-512 kernels of kernel_amd64.s. Each is a boundary the
// allocation-free proof trusts: its TEXT block makes no call.

// scanSet is the body of touch and lookup for an 8- or 16-way set past
// the most-recently-used check: it finds ln in the set (a tag matches with
// or without the prefetched mark), moves every way in front of the match
// one way down, or the whole set on a miss, and returns the tag found, 0 on
// a miss. Way 0 is left to the caller to write.
//
//go:noescape
//hcsgc:alloc-free
func scanSet(set *uint64, ln uint64, ways int) uint64

// scanStreams compares a miss at line ln with every slot of the stream
// table at once. Bit i of near is set when slot i is live and within the
// discovery window of ln, of same when it is near and on ln itself, and of
// conf when it is near, confirmed and ln is one stride on. When nothing is
// near, victim is the first slot with the least lastUse.
//
//go:noescape
//hcsgc:alloc-free
func scanStreams(t *streamTable, ln int64) (near, same, conf uint32, victim int)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() uint32

// missingFeatures names what the kernels need that this CPU or its
// operating system lacks: AVX-512 F (the 512-bit compares and masked
// stores), DQ (KMOVB), VL (the victim search's 256- and 128-bit steps),
// BMI1 (TZCNT, BLSMSK), and the opmask and ZMM state enabled in XCR0.
func missingFeatures() []string {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var ebx7 uint32
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	// XCR0 bits 1 and 2 (SSE and AVX state), 5 (opmask), 6 and 7 (ZMM).
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	osState := ecx1&(1<<27) != 0 && xgetbv()&zmmState == zmmState
	var missing []string
	for _, f := range []struct {
		name string
		ok   bool
	}{
		{"AVX512F", ebx7&(1<<16) != 0},
		{"AVX512DQ", ebx7&(1<<17) != 0},
		{"AVX512VL", ebx7&(1<<31) != 0},
		{"BMI1", ebx7&(1<<3) != 0},
		{"XCR0 opmask and ZMM state", osState},
	} {
		if !f.ok {
			missing = append(missing, f.name)
		}
	}
	return missing
}
