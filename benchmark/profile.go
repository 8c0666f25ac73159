package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced pass attributes host CPU to layers from a runtime/pprof CPU
// profile. The profile is a gzip-compressed protobuf (profile.proto); only
// the four message kinds needed for flat, per-function attribution are
// decoded here, so the benchmark needs neither `go tool pprof` at run time
// nor a dependency outside the standard library.

// flatByFunction returns the profile's flat samples (last sample value,
// CPU nanoseconds for a CPU profile) keyed by the leaf function's name.
// A location with inlined frames lists the innermost function first, and
// that is the one charged, as `pprof -top` does.
func flatByFunction(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: not gzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: decompress: %w", err)
	}

	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]uint64{} // function id -> string-table index
		strs     []string
	)
	err = eachField(raw, func(num int, varint uint64, body []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var haveLeaf bool
			if err := eachField(body, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, leaf first
					ids, err := repeatedVarint(v, b)
					if err != nil {
						return err
					}
					if !haveLeaf && len(ids) > 0 {
						s.leaf, haveLeaf = ids[0], true
					}
				case 2: // value, one per sample type; the last is CPU time
					vals, err := repeatedVarint(v, b)
					if err != nil {
						return err
					}
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if haveLeaf {
				samples = append(samples, s)
			}
		case 4: // Location
			var id, fn uint64
			var haveLine bool
			if err := eachField(body, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined function
					if haveLine {
						return nil
					}
					haveLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			if err := eachField(body, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	flat := make(map[string]int64)
	for _, s := range samples {
		name := "(unknown)"
		if idx, ok := funcName[locFunc[s.leaf]]; ok && idx < uint64(len(strs)) && strs[idx] != "" {
			name = strs[idx]
		}
		flat[name] += s.value
	}
	return flat, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited body. Fixed
// 32/64-bit fields (profile.proto has none that matter here) are skipped.
func eachField(msg []byte, fn func(num int, varint uint64, body []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n == 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n == 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			body := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, body); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// repeatedVarint decodes a repeated integer field occurrence, which the
// encoder writes either packed (a body of varints) or as a lone varint.
func repeatedVarint(v uint64, body []byte) ([]uint64, error) {
	if body == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(body) > 0 {
		x, n := uvarint(body)
		if n == 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		body = body[n:]
	}
	return out, nil
}

// uvarint decodes one base-128 varint, returning 0 bytes consumed on a
// truncated or over-long encoding.
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// hostLayers are the layers host CPU is attributed to, in report order;
// "other" is the remainder so the shares always sum to 100.
var hostLayers = []string{"simmem", "heap", "core", "kvstore", "loadgen", "workloads", "planes", "go-runtime", "other"}

// layerOfPackage maps an import path to its layer. The repo's modules are
// the layers; helper packages ride with the module that calls them on the
// hot path.
var layerOfPackage = map[string]string{
	"hcsgc/internal/simmem":            "simmem",
	"hcsgc/internal/heap":              "heap",
	"hcsgc/internal/objmodel":          "heap",
	"hcsgc/internal/core":              "core",
	"hcsgc/internal/machine":           "core",
	"hcsgc":                            "core",
	"hcsgc/internal/kvstore":           "kvstore",
	"hcsgc/internal/loadgen":           "loadgen",
	"hcsgc/internal/workloads":         "workloads",
	"hcsgc/internal/graphalg":          "workloads",
	"hcsgc/internal/graphgen":          "workloads",
	"hcsgc/internal/heapdb":            "workloads",
	"hcsgc/internal/telemetry":         "planes",
	"hcsgc/internal/telemetry/latency": "planes",
	"hcsgc/internal/signals":           "planes",
	"hcsgc/internal/contention":        "planes",
	"hcsgc/internal/locality":          "planes",
	"hcsgc/internal/overload":          "planes",
	"hcsgc/internal/faultinject":       "planes",
}

// packageOf extracts the import path from a Go symbol name such as
// "hcsgc/internal/simmem.(*Core).accessLine" or "runtime.mallocgc".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments of a generic instantiation may hold slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf classifies a function. The Go runtime layer takes the runtime
// itself, its internal/ support packages and sync (whose slow paths are
// scheduler work); anything unlisted, including the benchmark's own code,
// is "other".
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if l, ok := layerOfPackage[pkg]; ok {
		return l
	}
	if pkg == "runtime" || pkg == "sync" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "sync/") || strings.HasPrefix(pkg, "internal/") {
		return "go-runtime"
	}
	return "other"
}

// hostShares folds flat per-function samples into percent of host CPU per
// layer. With no samples every share is zero.
func hostShares(flat map[string]int64) map[string]float64 {
	var total int64
	byLayer := make(map[string]int64, len(hostLayers))
	for fn, v := range flat {
		byLayer[layerOf(fn)] += v
		total += v
	}
	shares := make(map[string]float64, len(hostLayers))
	for _, l := range hostLayers {
		if total > 0 {
			shares[l] = 100 * float64(byLayer[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares
}
