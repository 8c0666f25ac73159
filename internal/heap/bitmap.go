package heap

import (
	"math/bits"
	"sync/atomic"

	"hcsgc/internal/arena"
)

// Bitmap is an atomic bitmap with one bit per heap word. It backs both the
// livemap (which objects survived marking) and the hotmap (which objects a
// mutator touched since the last GC cycle, §3.1.2 of the paper). All
// mutating operations are safe for concurrent use.
type Bitmap struct {
	words []uint64
	bits  int
}

// NewBitmap returns a bitmap capable of holding the given number of bits,
// all clear. Its words come from the arena when it has that length.
func NewBitmap(bits int) *Bitmap {
	if bits < 0 {
		bits = 0
	}
	return &Bitmap{words: arena.Words.Get((bits + 63) / 64), bits: bits}
}

// release hands the bitmap's words to the arena; the bitmap is unusable
// afterwards. No bit at or above dirtyBits was ever set.
func (b *Bitmap) release(dirtyBits int) {
	arena.Words.Put(b.words, (dirtyBits+63)/64)
	b.words = nil
}

// Len returns the bitmap capacity in bits.
func (b *Bitmap) Len() int { return b.bits }

// TestAndSet atomically sets bit i and reports whether this call changed it
// (true = the bit was previously clear). This is the linearization point
// for "who marked this object first" during parallel marking.
func (b *Bitmap) TestAndSet(i int) bool {
	w, mask := i/64, uint64(1)<<(uint(i)%64)
	for {
		old := atomic.LoadUint64(&b.words[w])
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(&b.words[w], old, old|mask) {
			return true
		}
	}
}

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool {
	return atomic.LoadUint64(&b.words[i/64])&(uint64(1)<<(uint(i)%64)) != 0
}

// Clear resets all bits. Callers must ensure no concurrent writers (it is
// invoked inside or between GC phases with the relevant pages quiescent).
func (b *Bitmap) Clear() {
	for i := range b.words {
		atomic.StoreUint64(&b.words[i], 0)
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	n := 0
	for i := range b.words {
		n += bits.OnesCount64(atomic.LoadUint64(&b.words[i]))
	}
	return n
}

// FirstNotIn returns the index of the first bit set in b but clear in
// other, or -1 when b is a subset of other. The verifier uses it for the
// hotmap ⊆ livemap invariant: a hot bit on an unmarked word means hotness
// survived an object the mark declared dead.
func (b *Bitmap) FirstNotIn(other *Bitmap) int {
	for w := range b.words {
		var o uint64
		if w < len(other.words) {
			o = atomic.LoadUint64(&other.words[w])
		}
		if extra := atomic.LoadUint64(&b.words[w]) &^ o; extra != 0 {
			return w*64 + bits.TrailingZeros64(extra)
		}
	}
	return -1
}

// ForEachSet calls fn with the index of every set bit, in ascending order.
// The iteration reads each word once; bits set concurrently may or may not
// be observed.
func (b *Bitmap) ForEachSet(fn func(i int)) {
	for w := range b.words {
		word := atomic.LoadUint64(&b.words[w])
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			fn(w*64 + bit)
			word &= word - 1
		}
	}
}
