// Command perfbench is the repository's benchmark: the host cost of
// regenerating the paper's evidence on the simulator, end to end and
// attributed to the repo's modules. Run it from the repository root:
//
//	bash perfbench/run.sh --workload fig4 --seed 1 --seconds 30 --trace 0
//
// Every workload regenerates a paper artifact through the public API.
// Images are built and the template machine is booted and snapshotted in
// set-up; a pass then runs every unit once, each on a fresh
// Snapshot.Clone. Passes repeat until --seconds have gone by, and every
// set-up and pass starts after a forced garbage collection, so none pays
// for its predecessor's garbage. Load comes from this one process on one
// goroutine with GOMAXPROCS 1, so figures from one host compare across
// commits; figures from different hosts never do, and the host
// fingerprint printed with every result says which host it was. Even on
// one shared host the speed of unchanged code drifts by tens of percent
// over minutes, so host times are reported in reference seconds, scaled
// by a fixed reference slice of work timed between units (calib.go), and
// commits are best compared with runs interleaved in time.
//
// # Workloads
//
//   - fig4: every workload.Figure4 program under mips64 and CheriABI (34
//     runs). Execute-bound: runBlock and the cache model dominate, and
//     compile is in set-up. Working sets range from a handful of L1D
//     misses (basicmath) to tens of thousands (libquantum, xalancbmk), so
//     a cache change shows both its hit path and its miss path. Superblock
//     chaining fires only in the mips64 half and indirect prediction only
//     in the CheriABI half, so an engine-tier change moves one half only.
//   - bodiag: every 12th case of the 291-case Table 3 corpus, in its 4
//     variants under the 3 environments (mips64, cheriabi, asan), each
//     compiled and run on its own clone as bodiag.RunParallelMode does.
//     Process-lifecycle-bound, the opposite of fig4: exec, mapping and
//     address-space teardown dominate and execution is a few percent.
//     Two thirds of the runs are small processes and one third are asan
//     runs with large shadow mappings, so the median unit measures
//     small-process exec/exit and the 90th percentile large mappings.
//   - loadgen: the cheri-load fleet under CheriABI at the fleet bound of
//     48 connections (6 client machines x 8 connections x 8 requests, the
//     cheri-load default per connection) through driver.RunFleet. The
//     only workload that runs the fabric, fork, poll, AF_INET sockets and
//     the scheduler.
//
// # Verification
//
// Each program run (fig4, bodiag) and each fleet run (loadgen) is one
// attempted unit, run once. A unit fails if its outcome differs from the
// repo's reference path for the same seed: cold-boot workload.Run for
// fig4, the sequential bodiag.Runner's Table 3 slice (and no flagged OK
// variant) for bodiag, workload.LoadGen for loadgen. At the default seed
// every unit must also equal its pin in pins.json: exit status, signal,
// an output digest, instructions, cycles and L2 misses per run, and for
// a fleet the trace hash, packets, bytes, p50/p99 latency, makespan and
// checksums. Refresh the pins with -write-pins when a change sets out to
// change the modelled machine.
//
// # Metrics
//
// With --trace 0 the end-to-end metrics, all host-side and measured with
// tracing off, times in reference seconds: setup_s (median of at least 5
// set-ups made over at least 2 s), wall_s (median pass), sim_mips (guest
// instructions per reference second, median pass), alloc_mb (Go heap
// bytes allocated per pass, median), max_rss_mb (peak RSS of the
// process, read before verification), and unit_ms_p50 and unit_ms_p90
// (nearest-rank percentiles of ms per unit, pooled over the passes; a
// unit is a program run for fig4 and bodiag, from compile to reap on
// bodiag, and a fleet run for loadgen). The host-second figures are
// printed beside them.
//
// With --trace 1 half the time runs untraced passes and half runs traced
// passes under a CPU profile, then one more pass counts the layers' events,
// and the per-layer metrics are printed. Each is listed with the
// end-to-end metric it should move, and on which workload:
//
//   - Host seconds per set-up or per pass in spans around public calls:
//     cc.compile_s (setup_s on fig4/loadgen, unit_ms_p50 on bodiag),
//     kernel.boot_s (setup_s), kernel.clone_s, kernel.install_s and
//     kernel.reap_s (unit_ms_p50 on bodiag), kernel.spawn_s (unit_ms_p90
//     and wall_s on bodiag), kernel.run_s (wall_s and sim_mips on fig4,
//     unit_ms_p90 on bodiag), driver.fleet_s (wall_s on loadgen). Inside
//     a fleet only driver.fleet_s is seen.
//   - Counts per pass: cpu.insts, cpu.cycles, cpu.syscalls, cpu.loads,
//     cpu.stores, cpu.cap_loads and cpu.cap_stores; cpu.threaded_frac,
//     cpu.insts_per_block, cpu.page_decodes, cpu.chains, cpu.indirect_hits
//     and cpu.indirect_hit_rate (sim_mips on fig4); cache.l1i_accesses,
//     cache.l1d_accesses, cache.l1d_misses, cache.l2_misses and
//     cache.l2_writebacks (wall_s on fig4); vm.mapped_pages after spawn
//     (unit_ms_p90 and alloc_mb on bodiag); uaccess.fast_runs and
//     uaccess.slow_runs (wall_s on fig4 and bodiag); fabric.delivered and
//     fabric.data_bytes (wall_s on loadgen). driver.RunFleet exposes only
//     its machines' Stats and the fabric totals, so the decode, cache, vm
//     and uaccess counts read 0 on loadgen.
//   - Host-time shares of the traced passes' CPU profile: host.cpu_frac,
//     host.cache_frac, host.cap_frac, host.mem_frac, host.vm_frac,
//     host.kernel_frac, host.rtld_frac, host.cc_frac, host.fabric_frac,
//     host.uaccess_frac, host.gc_frac and host.other_frac. A faster layer
//     saves at most its share of wall_s on that workload.
//   - trace.overhead_frac: traced minus untraced wall_s over untraced.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

func main() {
	// One processor: the garbage collector then works on the processor
	// the units run on, so its cost lands in their times instead of on a
	// second core whose speed the shared host varies on its own. On the
	// 2-core host this cut the spread of bodiag's and loadgen's unit
	// percentiles across runs from 15-25% to under 5%. No workload runs
	// Go code in parallel today.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A run sets up at least minSetups times and for at least minSetupTime,
// and reports the median set-up.
const (
	minSetups    = 5
	minSetupTime = 2 * time.Second
)

func newBench(name string, seed int64) bench {
	switch name {
	case "fig4":
		return &fig4{seed: seed}
	case "bodiag":
		return &bodiagBench{seed: seed}
	case "loadgen":
		return &loadgen{seed: uint64(seed)}
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig4, bodiag or loadgen")
	seed := fs.Int64("seed", defaultSeed, "workload seed: layout seed for fig4/bodiag machines, fabric seed for loadgen")
	seconds := fs.Int("seconds", 30, "how long to run passes")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	pinPath := fs.String("write-pins", "", "record one pass's outcomes at the default seed as the workload's pins in this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b := newBench(*name, *seed)
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	case b == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want fig4, bodiag or loadgen)\n", *name)
		return 2
	case *seed < 0:
		fmt.Fprintf(stderr, "perfbench: -seed must not be negative (got %d)\n", *seed)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: -seconds must be at least 1 (got %d)\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1 (got %d)\n", *trace)
		return 2
	case *pinPath != "" && *seed != defaultSeed:
		fmt.Fprintf(stderr, "perfbench: pins are recorded at seed %d\n", defaultSeed)
		return 2
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host %s\n", mustJSON(fingerprint()))
	if *pinPath != "" {
		return recordPins(b, *name, *pinPath, stdout, stderr)
	}

	r, err := measure(b, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	// Verification runs after measuring so its reference runs do not
	// count towards the peak RSS.
	refErr := b.reference()
	if refErr != nil {
		fmt.Fprintln(stderr, "perfbench: reference path failed, every unit counts as failed:", refErr)
	}
	attempted, failed := verify(r.passes, b.check, refErr != nil, pins[*name], *seed == defaultSeed, stderr)
	pinned := "pins checked"
	if *seed != defaultSeed {
		pinned = fmt.Sprintf("no pins at seed %d; reference path only", *seed)
	}
	fmt.Fprintf(stdout, "verified %d units in %d passes (%s): %d failed\n", attempted, len(r.passes), pinned, failed)
	for _, m := range r.metrics {
		fmt.Fprintf(stdout, "%-24s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if r.note != "" {
		fmt.Fprintln(stdout, r.note)
	}
	out := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	fmt.Fprintln(stdout, mustJSON(out))
	return 0
}

// verify counts every unit of the passes as attempted, and as failed if
// the reference path failed (refFailed), if check marks it, or if pinned
// and it differs from its pin. Each failure is reported on stderr.
func verify(passes []passResult, check func([]Unit) []bool, refFailed bool, pins []Unit, pinned bool, stderr io.Writer) (attempted, failed int) {
	for _, p := range passes {
		badRef := check(p.units)
		badPin := make([]bool, len(p.units))
		if pinned {
			badPin = mismatches(p.units, pins)
		}
		for i, u := range p.units {
			attempted++
			if !refFailed && !badRef[i] && !badPin[i] {
				continue
			}
			failed++
			why := "differs from its pin"
			if refFailed || badRef[i] {
				why = "differs from the reference path"
			}
			fmt.Fprintf(stderr, "perfbench: unit %s %s: %s\n", u.Name, why, mustJSON(u))
		}
	}
	return attempted, failed
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metric struct {
	name  string
	value float64
	unit  string
}

// measured is one run's passes and the metrics derived from them.
type measured struct {
	passes  []passResult
	metrics []metric
	note    string
}

// timedPass is a pass with its host wall time, which leaves out the
// reference slices run in it, the scale from its host seconds to
// reference seconds, and its Go allocation.
type timedPass struct {
	passResult
	wall  time.Duration
	scale float64
	alloc uint64
}

// refSeconds is the pass's wall time in reference seconds.
func (p timedPass) refSeconds() float64 { return p.wall.Seconds() * p.scale }

// passesFor runs passes until d has gone by, at least one.
func passesFor(b bench, d time.Duration, tr *tracer, c *counters, cal *calibrator) []timedPass {
	var out []timedPass
	var ms runtime.MemStats
	for start := time.Now(); len(out) == 0 || time.Since(start) < d; {
		if c != nil {
			*c = counters{}
		}
		runtime.GC() // each pass starts from the same heap, without its predecessor's garbage
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		cal.start()
		t := time.Now()
		tr.begin("pass")
		p := b.pass(tr, c, cal)
		tr.end()
		wall := time.Since(t) - cal.spent
		scale := cal.finish()
		runtime.ReadMemStats(&ms)
		out = append(out, timedPass{passResult: p, wall: wall, scale: scale, alloc: ms.TotalAlloc - alloc0})
	}
	return out
}

// setUps sets b up at least minSetups times and for minSetupTime, and
// returns the median set-up time in reference seconds. A set-up can be
// shorter than a reference slice, so one scale, from the slices run
// between the set-ups, serves them all.
func setUps(b bench, tr *tracer, cal *calibrator) (float64, error) {
	var times []float64
	cal.start()
	for start := time.Now(); len(times) < minSetups || time.Since(start) < minSetupTime; {
		runtime.GC() // as for passes; it also keeps discarded set-ups out of the peak RSS
		cal.between()
		t := time.Now()
		tr.begin("setup")
		err := b.setUp(tr)
		tr.end()
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	return median(times) * cal.finish(), nil
}

func measure(b bench, d time.Duration, traced bool) (*measured, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	cal := newCalibrator()
	setupS, err := setUps(b, tr, cal)
	if err != nil {
		return nil, err
	}
	if !traced {
		return endToEnd(passesFor(b, d, nil, nil, cal), setupS), nil
	}

	plain := passesFor(b, d/2, nil, nil, cal)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	traced2 := passesFor(b, d/2, tr, nil, cal)
	pprof.StopCPUProfile()
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	// Counting reads every machine's layers after each unit, and the
	// mapped-page count sorts each address space, so it gets a pass of
	// its own outside the profile.
	var c counters
	counted := passesFor(b, 0, nil, &c, cal)
	r := &measured{}
	for _, p := range append(append(plain, traced2...), counted...) {
		r.passes = append(r.passes, p.passResult)
	}
	r.metrics = perLayer(layerSeconds(tr.spans), c, hostShares(samples),
		median(walls(traced2))/median(walls(plain))-1)
	r.note = fmt.Sprintf("traced: %d untraced and %d traced passes, %d profile samples", len(plain), len(traced2), len(samples))
	return r, nil
}

// walls returns the passes' wall times in reference seconds.
func walls(ps []timedPass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.refSeconds()
	}
	return out
}

func endToEnd(passes []timedPass, setupS float64) *measured {
	r := &measured{}
	var mips, alloc, unitMs, host, slice []float64
	for _, p := range passes {
		r.passes = append(r.passes, p.passResult)
		mips = append(mips, float64(p.insts)/p.refSeconds()/1e6)
		alloc = append(alloc, float64(p.alloc)/(1<<20))
		for _, ms := range p.unitMs {
			unitMs = append(unitMs, ms*p.scale)
		}
		host = append(host, p.wall.Seconds())
		slice = append(slice, refSlice.Seconds()*1e3/p.scale)
	}
	var ru syscall.Rusage
	rss := 0.0
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	r.metrics = []metric{
		{"setup_s", setupS, "s"},
		{"wall_s", median(walls(passes)), "s"},
		{"sim_mips", median(mips), "MIPS"},
		{"alloc_mb", median(alloc), "MiB"},
		{"max_rss_mb", rss, "MiB"},
		{"unit_ms_p50", nearestRank(unitMs, 50), "ms"},
		{"unit_ms_p90", nearestRank(unitMs, 90), "ms"},
	}
	r.note = fmt.Sprintf("%d passes, %d units; times in reference seconds (median pass %.4g host s, median reference slice %.4g ms)",
		len(passes), len(unitMs), median(host), median(slice))
	if !tailSupported(len(unitMs), 90) {
		r.note += fmt.Sprintf("; fewer than %d units lie beyond unit_ms_p90", minTail)
	}
	return r
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func perLayer(spans map[string]float64, c counters, shares map[string]float64, overhead float64) []metric {
	var ms []metric
	for _, name := range []string{"cc.compile", "kernel.boot", "kernel.clone", "kernel.install",
		"kernel.spawn", "kernel.run", "kernel.reap", "driver.fleet"} {
		ms = append(ms, metric{name + "_s", spans[name], "s"})
	}
	count := func(name string, v uint64) { ms = append(ms, metric{name, float64(v), "count"}) }
	count("cpu.insts", c.cpu.Instructions)
	count("cpu.cycles", c.cpu.Cycles)
	count("cpu.syscalls", c.cpu.Syscalls)
	count("cpu.loads", c.cpu.Loads)
	count("cpu.stores", c.cpu.Stores)
	count("cpu.cap_loads", c.cpu.CapLoads)
	count("cpu.cap_stores", c.cpu.CapStores)
	ms = append(ms,
		metric{"cpu.threaded_frac", ratio(c.threaded, c.cpu.Instructions), "ratio"},
		metric{"cpu.insts_per_block", ratio(c.threaded, c.blocks), "insts/block"})
	count("cpu.page_decodes", c.decodes)
	count("cpu.chains", c.chains)
	count("cpu.indirect_hits", c.indirectHits)
	ms = append(ms, metric{"cpu.indirect_hit_rate", ratio(c.indirectHits, c.indirectHits+c.indirectMisses), "ratio"})
	count("cache.l1i_accesses", c.l1iAccesses)
	count("cache.l1d_accesses", c.l1dAccesses)
	count("cache.l1d_misses", c.l1dMisses)
	count("cache.l2_misses", c.l2Misses)
	count("cache.l2_writebacks", c.l2Writebacks)
	count("vm.mapped_pages", c.mappedPages)
	count("uaccess.fast_runs", c.uaFast)
	count("uaccess.slow_runs", c.uaSlow)
	count("fabric.delivered", c.delivered)
	count("fabric.data_bytes", c.dataBytes)
	for _, b := range hostBuckets {
		ms = append(ms, metric{"host." + b + "_frac", shares[b], "ratio"})
	}
	return append(ms, metric{"trace.overhead_frac", overhead, "ratio"})
}

// recordPins runs one verified pass at the default seed and stores its
// units as the workload's pins.
func recordPins(b bench, name, path string, stdout, stderr io.Writer) int {
	if err := b.setUp(nil); err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	p := b.pass(nil, nil, nil)
	if err := b.reference(); err != nil {
		fmt.Fprintln(stderr, "perfbench: reference:", err)
		return 1
	}
	for i, bad := range b.check(p.units) {
		if bad {
			fmt.Fprintf(stderr, "perfbench: unit %s differs from the reference path; not pinning\n", p.units[i].Name)
			return 1
		}
	}
	if err := writePins(path, name, p.units); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "pinned %d %s units in %s\n", len(p.units), name, path)
	return 0
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are marshalled
	}
	return string(b)
}
