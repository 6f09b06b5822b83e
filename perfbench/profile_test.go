package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"cheriabi/internal/cap"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"cheriabi/internal/cpu.(*CPU).runBlock":            "cheriabi/internal/cpu",
		"cheriabi/internal/kernel.(*Kernel).Run.func1":     "cheriabi/internal/kernel",
		"cheriabi/internal/driver.MapWith[...]":            "cheriabi/internal/driver",
		"cheriabi/internal/driver.Map[go.shape.struct {}]": "cheriabi/internal/driver",
		"cheriabi.(*System).RunPath":                       "cheriabi",
		"runtime.memmove":                                  "runtime",
		"main.main":                                        "main",
		"sort.Slice":                                       "sort",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"cheriabi/internal/cache.(*Cache).access", "cheriabi/internal/cpu.(*CPU).runBlock"}, "cache"},
		// A standard-library leaf is charged to its caller in the repo.
		{[]string{"sort.insertionSort", "sort.Slice", "cheriabi/internal/vm.(*AddressSpace).sortedVPNs", "cheriabi/internal/kernel.(*Kernel).exitProc"}, "vm"},
		{[]string{"runtime.memmove", "cheriabi/internal/uaccess.(*Space).run", "cheriabi/internal/kernel.sysWrite"}, "uaccess"},
		// Allocation is the caller's cost, but an assist is GC work.
		{[]string{"runtime.mallocgc", "cheriabi/internal/cc.(*parser).expr"}, "cc"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "cheriabi/internal/cc.(*parser).expr"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "gc"},
		// A repo module without a bucket stops the walk.
		{[]string{"cheriabi/internal/libc.memcpy", "cheriabi/internal/kernel.(*Kernel).callNative"}, "other"},
		{[]string{"cheriabi.(*System).Install", "main.runOnClone"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestHostShares(t *testing.T) {
	shares := hostShares([]stackSample{
		{stack: []string{"cheriabi/internal/cpu.(*CPU).runBlock"}, weight: 30},
		{stack: []string{"cheriabi/internal/cache.(*Cache).access"}, weight: 10},
		{stack: []string{"runtime.gcBgMarkWorker"}, weight: 10},
	})
	if len(shares) != len(hostBuckets) {
		t.Fatalf("shares has %d buckets, want %d", len(shares), len(hostBuckets))
	}
	for b, want := range map[string]float64{"cpu": 0.6, "cache": 0.2, "gc": 0.2, "vm": 0} {
		if shares[b] != want {
			t.Errorf("share of %s = %v, want %v", b, shares[b], want)
		}
	}
}

// spinCap keeps a repo package on the CPU: capability dereference checks.
//
//go:noinline
func spinCap(d time.Duration) int {
	denied := 0
	c := cap.Root(4096, 1<<20, cap.PermLoad)
	for start := time.Now(); time.Since(start) < d; {
		for i := uint64(4096 / 64); i < 16000; i++ {
			if c.CheckDeref(i*64, 8, cap.PermLoad) != nil {
				denied++
			}
		}
	}
	return denied
}

// TestParseRealProfile decodes a profile written by runtime/pprof, so the
// decoder is checked against the encoder the benchmark really uses.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spinCap(500 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 10 {
		t.Fatalf("decoded %d samples from a 500 ms spin, want at least 10", len(samples))
	}
	for _, s := range samples {
		if s.weight <= 0 || len(s.stack) == 0 {
			t.Fatalf("sample with weight %d and stack %q", s.weight, s.stack)
		}
	}
	if share := hostShares(samples)["cap"]; share < 0.5 {
		t.Errorf("cap share of a capability spin = %.2f, want most of it", share)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("parseProfile accepted bytes that are not a gzipped profile")
	}
}
