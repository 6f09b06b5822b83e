package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The host-time shares come from a runtime/pprof CPU profile. The
// standard library writes profiles but cannot read them, so this file
// decodes the few profile.proto fields the shares need: samples with
// their location stacks and values, locations with their (inlined)
// function lines, functions, and the string table.

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// stackSample is one profile sample: its function names, leaf first,
// and its weight.
type stackSample struct {
	stack  []string
	weight int64
}

// parseProfile decodes a gzipped CPU profile into weighted stacks. The
// weight is the "cpu" value (nanoseconds) when the profile has one, else
// its last value.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		valueTypes []int64 // string index of each sample value's type
		samples    []struct{ locs, vals []uint64 }
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames  = map[uint64]int64{}    // function id -> name string index
		strs       []string
	)
	err = walk(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSampleType:
			return walk(b, func(num int, v uint64, _ []byte) error {
				if num == valueTypeType {
					valueTypes = append(valueTypes, int64(v))
				}
				return nil
			})
		case profSample:
			var s struct{ locs, vals []uint64 }
			err := walk(b, func(num int, v uint64, p []byte) error {
				var err error
				switch num {
				case sampleLocation:
					s.locs, err = appendPacked(s.locs, v, p)
				case sampleValue:
					s.vals, err = appendPacked(s.vals, v, p)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := walk(b, func(num int, v uint64, p []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return walk(p, func(num int, v uint64, _ []byte) error {
						if num == lineFunctionID {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case profFunction:
			var id uint64
			var name int64
			err := walk(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	vi := len(valueTypes) - 1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if vi < 0 || vi >= len(s.vals) {
			return nil, errors.New("profile: sample lacks its value")
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				stack = append(stack, str(funcNames[f]))
			}
		}
		out = append(out, stackSample{stack: stack, weight: int64(s.vals[vi])})
	}
	return out, nil
}

// walk calls fn for every field of one protobuf message: v is the value
// of a varint field, b the bytes of a length-delimited one.
func walk(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n == 0 {
			return errors.New("profile: truncated field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n == 0 {
				return errors.New("profile: truncated varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: truncated bytes")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which the encoder writes
// either one value per field (b == nil) or packed into one byte run.
func appendPacked(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n == 0 {
			return nil, errors.New("profile: truncated packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// uvarint decodes one varint, returning n == 0 if msg ends inside it.
func uvarint(msg []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(msg) && i < 10; i++ {
		x |= uint64(msg[i]&0x7f) << (7 * i)
		if msg[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// hostBuckets are the layers host time is attributed to: the repo's
// modules under internal/, garbage collection, and everything else.
var hostBuckets = []string{"cpu", "cache", "cap", "mem", "vm", "kernel", "rtld", "cc", "fabric", "uaccess", "gc", "other"}

// gcRoots are runtime functions whose presence anywhere in a stack marks
// the sample as garbage-collection work.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
	"runtime.gcMarkDone":     true,
}

// bucketOf names the layer a stack (leaf first) is charged to. A sample
// under a GC root is "gc". Otherwise it goes to the module of the
// innermost frame from the repo, so a standard-library call such as
// sort.Slice or memmove is charged to the module that made it. Modules
// without a bucket of their own (libc, isa, the public API, ...) and
// stacks with no repo frame are "other".
func bucketOf(stack []string) string {
	for _, f := range stack {
		if gcRoots[f] {
			return "gc"
		}
	}
	for _, f := range stack {
		pkg := funcPackage(f)
		if pkg != "cheriabi" && !strings.HasPrefix(pkg, "cheriabi/") {
			continue
		}
		mod, _ := strings.CutPrefix(pkg, "cheriabi/internal/")
		for _, b := range hostBuckets {
			if mod == b {
				return b
			}
		}
		return "other"
	}
	return "other"
}

// funcPackage returns the import path of a profile function name such as
// "cheriabi/internal/cpu.(*CPU).runBlock" or "pkg.F[...]".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// hostShares returns each bucket's share of the profile's total weight.
func hostShares(samples []stackSample) map[string]float64 {
	out := make(map[string]float64, len(hostBuckets))
	for _, b := range hostBuckets {
		out[b] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.weight
	}
	if total == 0 {
		return out
	}
	for _, s := range samples {
		out[bucketOf(s.stack)] += float64(s.weight) / float64(total)
	}
	return out
}
