// Package asm exercises allocfree on assembly functions: an annotated
// body-less declaration is a boundary, proven by its TEXT block making no
// call; an unannotated one stays unprovable.
package asm

// Fast calls only the proven kernel.
//
//hcsgc:alloc-free
func Fast(x uint64) uint64 { return Kernel(x) }

// Kernel's TEXT block makes no call.
//
//hcsgc:alloc-free
func Kernel(x uint64) uint64

// Calls's TEXT block calls a Go function.
//
//hcsgc:alloc-free
func Calls(x uint64) uint64 // want `function Calls calls out of its assembly body \(.*asm\.s:\d+\)`

// TailCalls's TEXT block jumps to another function.
//
//hcsgc:alloc-free
func TailCalls(x uint64) uint64 // want `function TailCalls calls out of its assembly body`

// Missing has no TEXT block at all.
//
//hcsgc:alloc-free
func Missing(x uint64) uint64 // want `function Missing has no TEXT block`

// Raw is unannotated: an annotated caller cannot prove it.
func Raw(x uint64) uint64

//hcsgc:alloc-free
func UsesRaw(x uint64) uint64 {
	return Raw(x) // want `calls Raw, which has no source body to prove`
}
