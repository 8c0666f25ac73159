package simmem

import (
	"testing"
	"unsafe"
)

// TestHotStructLayout pins the host cache-line discipline of the access
// path's structs: what every access reads, what the owner writes and what
// other goroutines read live on different 64-byte lines, and sizes are
// whole lines so that neighbours in memory keep the separation. A field
// added in the wrong group fails here instead of silently costing a shared
// line.
func TestHotStructLayout(t *testing.T) {
	const hostLine = 64
	var c Core
	if end := unsafe.Offsetof(c.lat) + unsafe.Sizeof(c.lat); unsafe.Offsetof(c.l1) != 0 || end > hostLine {
		t.Errorf("Core header spans [%d, %d), want within the first line", unsafe.Offsetof(c.l1), end)
	}
	if off := unsafe.Offsetof(c.led); off != hostLine {
		t.Errorf("Core.led at %d, want on its own line at %d", off, hostLine)
	}
	if unsafe.Sizeof(c.led) > hostLine {
		t.Errorf("Core.led is %d bytes, want at most one line", unsafe.Sizeof(c.led))
	}
	if off := unsafe.Offsetof(c.pub); off != 2*hostLine {
		t.Errorf("Core.pub at %d, want on its own line at %d", off, 2*hostLine)
	}
	if size := unsafe.Sizeof(c); size%hostLine != 0 {
		t.Errorf("Core is %d bytes, want a multiple of %d", size, hostLine)
	}

	// Two lines per LLC lock: adjacent-line prefetch pairs lines, so one
	// line of padding would still couple neighbouring locks.
	if size := unsafe.Sizeof(llcLock{}); size != 2*hostLine {
		t.Errorf("llcLock is %d bytes, want %d", size, 2*hostLine)
	}
}
