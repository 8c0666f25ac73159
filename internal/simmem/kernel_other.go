//go:build !amd64

package simmem

// The kernels are amd64 assembly; elsewhere every cache and prefetcher
// runs the Go loops, and these stand-ins are never called.

func missingFeatures() []string { return []string{"amd64"} }

func scanSet(*uint64, uint64, int) uint64 { panic("simmem: no set kernel on this architecture") }

func scanStreams(*streamTable, int64) (near, same, conf uint32, victim int) {
	panic("simmem: no stream-table kernel on this architecture")
}
