package heap

import (
	"testing"
	"unsafe"
)

// TestHotStructLayout pins Page's host cache-line discipline: what every
// LoadWord reads (start, words), the bump pointer allocators move, and the
// counters markers and relocators bump live on different 64-byte lines, and
// the size is whole lines so neighbouring pages keep the separation.
func TestHotStructLayout(t *testing.T) {
	const hostLine = 64
	var p Page
	top := unsafe.Offsetof(p.top)
	marks := unsafe.Offsetof(p.liveBytes)
	if end := unsafe.Offsetof(p.livemap) + unsafe.Sizeof(p.livemap); end > hostLine {
		t.Errorf("start..livemap end at %d, want within the first line", end)
	}
	if end := unsafe.Offsetof(p.casFwd) + unsafe.Sizeof(p.casFwd); end > top {
		t.Errorf("read-mostly fields end at %d, past top at %d", end, top)
	}
	if top%hostLine != 0 || marks != top+hostLine {
		t.Errorf("top at %d and the mark counters at %d, want each at the start of its own line", top, marks)
	}
	for name, off := range map[string]uintptr{
		"liveBytes": unsafe.Offsetof(p.liveBytes), "hotBytes": unsafe.Offsetof(p.hotBytes),
		"liveObjects": unsafe.Offsetof(p.liveObjects), "remaining": unsafe.Offsetof(p.remaining),
		"fwd": unsafe.Offsetof(p.fwd), "inEC": unsafe.Offsetof(p.inEC), "freed": unsafe.Offsetof(p.freed),
	} {
		if off < marks {
			t.Errorf("%s at %d, before the markers' line at %d", name, off, marks)
		}
	}
	if size := unsafe.Sizeof(p); size%hostLine != 0 {
		t.Errorf("Page is %d bytes, want a multiple of %d", size, hostLine)
	}
}
