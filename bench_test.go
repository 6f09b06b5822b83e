// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation (§5). Each benchmark performs a full regeneration of its
// experiment per iteration and reports the headline numbers as custom
// metrics, so `go test -bench=. -benchmem` reproduces the evaluation
// end to end. The cmd/ tools print the full tables; DESIGN.md describes
// the simulator machinery the numbers come from.
package cheriabi_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cheriabi"
	"cheriabi/internal/bodiag"
	"cheriabi/internal/cache"
	"cheriabi/internal/cap"
	"cheriabi/internal/compat"
	"cheriabi/internal/cpu"
	"cheriabi/internal/driver"
	"cheriabi/internal/kernel"
	"cheriabi/internal/mem"
	"cheriabi/internal/testsuite"
	"cheriabi/internal/trace"
	"cheriabi/internal/uaccess"
	"cheriabi/internal/vm"
	"cheriabi/internal/workload"
)

// BenchmarkFigure4 regenerates one Figure 4 bar per sub-benchmark: the
// CheriABI overhead over the mips64 baseline in instructions, cycles, and
// L2 misses.
func BenchmarkFigure4(b *testing.B) {
	for _, w := range workload.Figure4 {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var row workload.Overhead
			var err error
			for i := 0; i < b.N; i++ {
				row, err = workload.Figure4Row(w, []int64{1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.InstPct, "inst-%")
			b.ReportMetric(row.CyclePct, "cycles-%")
			b.ReportMetric(row.L2Pct, "l2miss-%")
		})
	}
}

// BenchmarkSyscallMicro regenerates the §5.2 system-call timings: fork
// slower under CheriABI, select faster.
func BenchmarkSyscallMicro(b *testing.B) {
	for _, name := range []string{"getpid", "read", "write", "select", "fork"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var rows []workload.SyscallResult
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = workload.SyscallMicro([]string{name}, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rows[0].LegacyCycles, "mips64-cyc")
			b.ReportMetric(rows[0].CheriCycles, "cheri-cyc")
			b.ReportMetric(rows[0].DeltaPct, "delta-%")
		})
	}
}

// BenchmarkInitdbMacro regenerates the §5.2 macro-benchmark: CheriABI and
// ASan cycle ratios over the baseline (paper: 1.068x and 3.29x).
func BenchmarkInitdbMacro(b *testing.B) {
	var r workload.InitdbResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = workload.Initdb(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.CheriRatio, "cheri-x")
	b.ReportMetric(r.ASanRatio, "asan-x")
}

// BenchmarkCLCAblation regenerates the §5.2 ISA-extension ablation: code
// size and overhead with and without the large-immediate capability load.
func BenchmarkCLCAblation(b *testing.B) {
	var r workload.CLCResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = workload.CLCAblation("initdb-dynamic", 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.CodeReductionPct, "codesize-%")
	b.ReportMetric(r.OverheadSmallPct, "smallimm-%")
	b.ReportMetric(r.OverheadBigPct, "bigimm-%")
}

// BenchmarkTable1TestSuites regenerates Table 1: the three test suites
// under both ABIs.
func BenchmarkTable1TestSuites(b *testing.B) {
	var rows []testsuite.Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = testsuite.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Suite == "FreeBSD" && r.ABI == "CheriABI" {
			b.ReportMetric(float64(r.Pass), "cheri-pass")
			b.ReportMetric(float64(r.Fail), "cheri-fail")
		}
	}
}

// BenchmarkTable2Compat regenerates Table 2: the lint counts over the
// ported-code corpus.
func BenchmarkTable2Compat(b *testing.B) {
	total := 0
	for i := 0; i < b.N; i++ {
		total = 0
		for _, row := range compat.PaperTable2 {
			counts, err := compat.Analyze(row)
			if err != nil {
				b.Fatal(err)
			}
			for _, n := range counts {
				total += n
			}
		}
	}
	b.ReportMetric(float64(total), "findings")
}

// BenchmarkTable3BOdiag regenerates a representative slice of Table 3 per
// iteration (the full 291x4x3 run lives in cmd/cheri-bodiag).
func BenchmarkTable3BOdiag(b *testing.B) {
	all := bodiag.Generate()
	var subset []bodiag.Case
	for i, c := range all {
		if i%12 == 0 {
			subset = append(subset, c)
		}
	}
	var res *bodiag.Result
	var err error
	for i := 0; i < b.N; i++ {
		r := bodiag.NewRunner()
		res, err = r.Run(subset)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Detected["cheriabi"][0]), "cheri-min")
	b.ReportMetric(float64(res.Detected["mips64"][0]), "mips64-min")
	b.ReportMetric(float64(res.Detected["asan"][0]), "asan-min")
}

// BenchmarkFigure5Trace regenerates the §5.5 abstract-capability
// reconstruction of the secure-server run.
func BenchmarkFigure5Trace(b *testing.B) {
	var col *trace.Collector
	var err error
	for i := 0; i < b.N; i++ {
		col, err = workload.TraceSecureServer(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(col.Count()), "cap-events")
	b.ReportMetric(col.FractionBelow(trace.SourceAll, 1<<10)*100, "le1KiB-%")
}

// BenchmarkSubObjectAblation measures the paper's §6 future-work
// extension (sub-object bounds): the overhead it adds to the most
// struct-dense workload, and the Table 3 intra-object residue it closes
// (the 12 min-misses become detections).
func BenchmarkSubObjectAblation(b *testing.B) {
	w, _ := workload.ByName("spec2006-xalancbmk")
	var intra []bodiag.Case
	for _, c := range bodiag.Generate() {
		if c.Region == bodiag.RegIntra {
			intra = append(intra, c)
		}
	}
	env := []bodiag.Env{{Name: "cheri+subobj", ABI: cheriabi.ABICheri, SubObjectBounds: true}}
	var overheadPct float64
	var caught int
	for i := 0; i < b.N; i++ {
		base, err := workload.Run(w, workload.BuildOptions{ABI: cheriabi.ABICheri}, 1)
		if err != nil {
			b.Fatal(err)
		}
		sub, err := workload.Run(w, workload.BuildOptions{ABI: cheriabi.ABICheri, SubObjectBounds: true}, 1)
		if err != nil {
			b.Fatal(err)
		}
		overheadPct = (float64(sub.Cycles) - float64(base.Cycles)) / float64(base.Cycles) * 100
		res, err := bodiag.NewRunner().RunEnvs(intra, env)
		if err != nil {
			b.Fatal(err)
		}
		caught = res.Detected["cheri+subobj"][0]
	}
	b.ReportMetric(overheadPct, "subobj-cycles-%")
	b.ReportMetric(float64(caught), "intra-min-caught")
	b.ReportMetric(float64(len(intra)), "intra-total")
}

// BenchmarkCopyInOut measures the uaccess kernel-boundary copy engine:
// copyin+copyout of a 64-KiB buffer through a user capability, with the
// page-run bulk fast path on (bulk) and off (bytecopy — the byte loop of
// a Reference CPU). Guest-visible results are bit-identical (the differential
// matrix and TestFastSlowEquivalence enforce it); only host throughput
// changes. The fast path must hold a ≥3× advantage.
func BenchmarkCopyInOut(b *testing.B) {
	const pages = 32
	const copyBytes = 64 << 10
	for _, mode := range []struct {
		name string
		slow bool
	}{
		{"bulk", false},
		{"bytecopy", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			m := mem.New(16<<20, 16)
			sys := vm.NewSystem(m, 1<<20)
			c := cpu.New(m, cache.DefaultHierarchy(), cap.Format128)
			c.Reference = mode.slow
			c.AS = sys.NewAddressSpace()
			const va = 0x40000
			if err := c.AS.Map(va, pages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
				b.Fatal(err)
			}
			u := &uaccess.Space{CPU: c}
			auth := cap.Root(va, pages*vm.PageSize, cap.PermData)
			buf := make([]byte, copyBytes)
			for i := range buf {
				buf[i] = byte(i)
			}
			b.SetBytes(2 * copyBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := u.Write(auth, va, buf); err != nil {
					b.Fatal(err)
				}
				if err := u.Read(auth, va, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSyscallDispatch measures the table-driven syscall path end to
// end: a guest loop of getpid calls (decode, dispatch, charge, return)
// and one of write calls (the same plus copyin through uaccess),
// reported as syscalls per host second.
func BenchmarkSyscallDispatch(b *testing.B) {
	for _, name := range []string{"getpid", "write"} {
		b.Run(name, func(b *testing.B) {
			w := workload.Workload{
				Name: "syscall-dispatch",
				Src:  workload.SrcSyscallMicro,
				Args: []string{name, "2000"},
			}
			// Compile once outside the loop: the metric tracks the
			// dispatch path, not MiniC compile time.
			exe, _, err := workload.Build(w, workload.BuildOptions{ABI: cheriabi.ABICheri})
			if err != nil {
				b.Fatal(err)
			}
			var syscalls uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys := cheriabi.NewSystem(cheriabi.Config{MemBytes: 128 << 20})
				res, err := sys.RunImage(exe, w.Name, name, "2000")
				if err != nil {
					b.Fatal(err)
				}
				if res.ExitCode != 0 {
					b.Fatalf("guest exited %d (output %q)", res.ExitCode, res.Output)
				}
				syscalls += res.Stats.Syscalls
			}
			b.ReportMetric(float64(syscalls)/b.Elapsed().Seconds(), "syscalls/s")
		})
	}
}

// BenchmarkFileIO measures the pluggable file-object layer end to end:
// guest loops of plain and vectored transfers over a regular file, a
// pipe, and /dev/zero — each iteration is open-file dispatch through the
// File interface plus uaccess staging of 512 bytes — reported as
// syscalls per host second.
func BenchmarkFileIO(b *testing.B) {
	for _, target := range []string{"file", "pipe", "zero"} {
		b.Run(target, func(b *testing.B) {
			w := workload.Workload{
				Name: "fileio-bench",
				Src:  workload.SrcFileIOBench,
				Args: []string{target, "1500"},
			}
			exe, _, err := workload.Build(w, workload.BuildOptions{ABI: cheriabi.ABICheri})
			if err != nil {
				b.Fatal(err)
			}
			var syscalls uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys := cheriabi.NewSystem(cheriabi.Config{MemBytes: 128 << 20})
				res, err := sys.RunImage(exe, w.Name, target, "1500")
				if err != nil {
					b.Fatal(err)
				}
				if res.ExitCode != 0 {
					b.Fatalf("guest exited %d (output %q)", res.ExitCode, res.Output)
				}
				syscalls += res.Stats.Syscalls
			}
			b.ReportMetric(float64(syscalls)/b.Elapsed().Seconds(), "syscalls/s")
		})
	}
}

// BenchmarkSocketEcho measures the AF_UNIX stream path end to end:
// 512-byte records round-tripped through a socketpair to a forked echo
// child — each round trip is two wait-queue parks, two wakes, and four
// capability-checked transfers through uaccess — reported as guest
// payload bytes per host second.
func BenchmarkSocketEcho(b *testing.B) {
	const rounds = 400
	w := workload.Workload{
		Name: "socket-echo",
		Src:  workload.SrcSocketEchoBench,
		Args: []string{fmt.Sprint(rounds)},
	}
	exe, _, err := workload.Build(w, workload.BuildOptions{ABI: cheriabi.ABICheri})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(2 * 512 * rounds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := cheriabi.NewSystem(cheriabi.Config{MemBytes: 128 << 20})
		res, err := sys.RunImage(exe, w.Name, fmt.Sprint(rounds))
		if err != nil {
			b.Fatal(err)
		}
		if res.ExitCode != 0 {
			b.Fatalf("guest exited %d (output %q)", res.ExitCode, res.Output)
		}
	}
}

// BenchmarkInetEcho measures the cross-machine socket path: two simulated
// machines joined by the network fabric, one echoing the other's 512-byte
// records. Against BenchmarkSocketEcho (the same record size over an
// AF_UNIX socketpair on one machine) the delta is the cost of the packet
// NIC, the lockstep coordinator, and the seeded link latency. sim-cycles
// is the fleet makespan — the largest per-machine virtual-time delta.
func BenchmarkInetEcho(b *testing.B) {
	const rounds = 200
	var makespan uint64
	b.SetBytes(2 * 512 * rounds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := workload.FleetEcho(cheriabi.ABICheri, 1, rounds, 1)
		if err != nil {
			b.Fatal(err)
		}
		makespan = 0
		for _, n := range res.Nodes {
			if n.ExitCode != 0 || n.Signal != 0 {
				b.Fatalf("node exited %d signal %d (output %q)", n.ExitCode, n.Signal, n.Output)
			}
			if n.Stats.Cycles > makespan {
				makespan = n.Stats.Cycles
			}
		}
	}
	b.ReportMetric(float64(makespan), "sim-cycles")
}

// BenchmarkLoadGen runs the multi-machine load-generator fleet: one echo
// server and four client machines, each forking eight connection workers
// that drive the fixed 64/256/512/1024-byte request mix. Reported
// metrics are the guest-observed latency percentiles in simulated cycles
// and the simulated-time request throughput; MB/s covers the payload
// bytes the fabric moved.
func BenchmarkLoadGen(b *testing.B) {
	spec := workload.LoadGenSpec{
		ABI:      cheriabi.ABICheri,
		Clients:  4,
		Conns:    8,
		Requests: 8,
		Seed:     1,
	}
	var res *workload.LoadGenResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = workload.LoadGen(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(res.Fleet.DataBytes))
	b.ReportMetric(float64(res.P50), "p50-cycles")
	b.ReportMetric(float64(res.P99), "p99-cycles")
	b.ReportMetric(res.RequestsPerSec, "sim-req/s")
	b.ReportMetric(float64(res.Cycles), "sim-cycles")
}

// BenchmarkPollStorm measures wakeup cost against a crowd of idle blocked
// threads: idle children parked forever on silent pipes while one hot
// pipe pair echoes. Boot/fork/teardown scale with the idle count, so the
// per-wake cost is the MARGINAL cost — the same run at two wake counts,
// differenced — and it must stay flat as idle grows: the wait-queue
// scheduler does O(subscribers-of-the-hot-pipe) work per wake, never
// O(blocked) closure re-polling. sim-cycles/wake is deterministic and is
// the gating number; marginal-wakes/s tracks the host-side cost
// (BenchmarkSchedulerRotation in internal/kernel isolates the same
// property allocation-free).
func BenchmarkPollStorm(b *testing.B) {
	const loWakes, hiWakes = 50, 350
	for _, idle := range []int{4, 16, 60} {
		b.Run(fmt.Sprintf("idle=%d", idle), func(b *testing.B) {
			run := func(wakes int) (uint64, time.Duration) {
				w := workload.Workload{
					Name: "poll-storm",
					Src:  workload.SrcPollStormBench,
					Args: []string{fmt.Sprint(idle), fmt.Sprint(wakes)},
				}
				exe, _, err := workload.Build(w, workload.BuildOptions{ABI: cheriabi.ABICheri})
				if err != nil {
					b.Fatal(err)
				}
				sys := cheriabi.NewSystem(cheriabi.Config{MemBytes: 128 << 20})
				start := time.Now()
				res, err := sys.RunImage(exe, append([]string{w.Name}, w.Args...)...)
				host := time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				if res.ExitCode != 0 {
					b.Fatalf("guest exited %d (output %q)", res.ExitCode, res.Output)
				}
				return res.Stats.Cycles, host
			}
			var dCycles float64
			var dHost time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cLo, hLo := run(loWakes)
				cHi, hHi := run(hiWakes)
				dCycles = float64(cHi - cLo)
				dHost += hHi - hLo
			}
			b.ReportMetric(dCycles/(hiWakes-loWakes), "sim-cycles/wake")
			b.ReportMetric(float64((hiWakes-loWakes)*b.N)/dHost.Seconds(), "marginal-wakes/s")
		})
	}
}

// BenchmarkTimedPollStorm measures timer-expiry cost against a crowd of
// concurrent sleepers: n children each cycling a finite-timeout poll on
// staggered 1–4 ms intervals, so the deadline heap holds n live entries
// in mixed order for the whole run. The virtual clock necessarily
// advances by the slept spans, so the per-expiry cost is the MARGINAL
// sim-cycle cost — two round counts differenced, with the pure sleep
// span of the slowest chain subtracted — and it must stay flat as n
// grows: each expiry is one O(log timers) heap pop plus one wake, never
// a scan of the sleeper crowd.
func BenchmarkTimedPollStorm(b *testing.B) {
	const loRounds, hiRounds = 10, 40
	const maxIntervalMS = 4 // the i&3 stagger tops out at 4 ms
	msCycles := uint64(kernel.ClockHz / 1_000)
	for _, n := range []int{4, 16, 48} {
		b.Run(fmt.Sprintf("sleepers=%d", n), func(b *testing.B) {
			run := func(rounds int) (uint64, time.Duration) {
				w := workload.Workload{
					Name: "timed-poll-storm",
					Src:  workload.SrcTimedPollStormBench,
					Args: []string{fmt.Sprint(n), fmt.Sprint(rounds)},
				}
				exe, _, err := workload.Build(w, workload.BuildOptions{ABI: cheriabi.ABICheri})
				if err != nil {
					b.Fatal(err)
				}
				sys := cheriabi.NewSystem(cheriabi.Config{MemBytes: 128 << 20})
				start := time.Now()
				res, err := sys.RunImage(exe, append([]string{w.Name}, w.Args...)...)
				host := time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				if res.ExitCode != 0 {
					b.Fatalf("guest exited %d (output %q)", res.ExitCode, res.Output)
				}
				return res.Stats.Cycles, host
			}
			var dCycles float64
			var dHost time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cLo, hLo := run(loRounds)
				cHi, hHi := run(hiRounds)
				dRounds := uint64(hiRounds - loRounds)
				slept := dRounds * maxIntervalMS * msCycles
				dCycles = float64(cHi - cLo - slept)
				dHost += hHi - hLo
			}
			expiries := float64(n * (hiRounds - loRounds))
			b.ReportMetric(dCycles/expiries, "sim-cycles/expiry")
			b.ReportMetric(expiries*float64(b.N)/dHost.Seconds(), "marginal-expiries/s")
		})
	}
}

// BenchmarkNanosleepChurn measures the pure timer round trip: one thread
// arming, parking on, and being woken by back-to-back 200 us nanosleeps
// with an always-empty runq — every expiry is a tickless skip. The
// reported sim-cycle cost is marginal (two sleep counts differenced,
// slept spans subtracted): the arm/park/skip/fire overhead per sleep.
func BenchmarkNanosleepChurn(b *testing.B) {
	const loSleeps, hiSleeps = 100, 400
	sleptCycles := uint64(200_000 / 10) // 200 us at 10 ns per cycle
	run := func(sleeps int) (uint64, time.Duration) {
		w := workload.Workload{
			Name: "nanosleep-churn",
			Src:  workload.SrcNanosleepChurnBench,
			Args: []string{fmt.Sprint(sleeps)},
		}
		exe, _, err := workload.Build(w, workload.BuildOptions{ABI: cheriabi.ABICheri})
		if err != nil {
			b.Fatal(err)
		}
		sys := cheriabi.NewSystem(cheriabi.Config{MemBytes: 128 << 20})
		start := time.Now()
		res, err := sys.RunImage(exe, w.Name, fmt.Sprint(sleeps))
		host := time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if res.ExitCode != 0 {
			b.Fatalf("guest exited %d (output %q)", res.ExitCode, res.Output)
		}
		return res.Stats.Cycles, host
	}
	var dCycles float64
	var dHost time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cLo, hLo := run(loSleeps)
		cHi, hHi := run(hiSleeps)
		dSleeps := uint64(hiSleeps - loSleeps)
		dCycles = float64(cHi - cLo - dSleeps*sleptCycles)
		dHost += hHi - hLo
	}
	dSleeps := float64(hiSleeps - loSleeps)
	b.ReportMetric(dCycles/dSleeps, "sim-cycles/sleep")
	b.ReportMetric(dSleeps*float64(b.N)/dHost.Seconds(), "marginal-sleeps/s")
}

// BenchmarkSimulator measures raw simulation speed: guest instructions
// executed per host second for a compute-bound workload. sim-cycles pins
// the run, so the headline row is covered by the ledger's drift check.
func BenchmarkSimulator(b *testing.B) {
	w, _ := workload.ByName("auto-basicmath")
	var insts, cycles uint64
	for i := 0; i < b.N; i++ {
		m, err := workload.Run(w, workload.BuildOptions{ABI: cheriabi.ABICheri}, 1)
		if err != nil {
			b.Fatal(err)
		}
		insts, cycles = m.Instructions, m.Cycles
	}
	b.SetBytes(int64(insts)) // bytes/s stands in for guest instructions/s
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// indirectSrc builds a call/return-dense program: a chain of tiny
// functions each calling the next, entered from a hot loop, so CJR/CJALR
// dominates the dynamic control-flow mix the way call/return does in
// real capability code.
func indirectSrc() string {
	var b strings.Builder
	const fns = 8
	fmt.Fprintf(&b, "int leaf%d(int x) { return x + 1; }\n", fns-1)
	for i := fns - 2; i >= 0; i-- {
		fmt.Fprintf(&b, "int leaf%d(int x) { return leaf%d(x) + 1; }\n", i, i+1)
	}
	b.WriteString("int main() {\n  int s = 0;\n  for (int i = 0; i < 20000; i++) {\n")
	b.WriteString("    s = leaf0(s);\n")
	b.WriteString("  }\n  printf(\"%d\\n\", s);\n  return 0;\n}\n")
	return b.String()
}

// BenchmarkIndirectTransfer measures the engine on a call/return-dense
// CheriABI program, where indirect-transfer prediction serves every
// repeated CJR/CJALR from a cached capability proof. Guest-visible results
// match the Reference machine (the differential matrix runs a call-heavy
// case both ways). MB/s stands in for guest instructions/s. The single
// mode keeps its "on" name so its ledger row stays comparable.
func BenchmarkIndirectTransfer(b *testing.B) {
	img, _, err := cheriabi.Compile(cheriabi.CompileOptions{
		Name: "calls", ABI: cheriabi.ABICheri,
	}, indirectSrc())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("on", func(b *testing.B) {
		var insts, cycles, hits uint64
		for i := 0; i < b.N; i++ {
			sys := cheriabi.NewSystem(cheriabi.Config{MemBytes: 128 << 20})
			res, err := sys.RunImage(img, "calls")
			if err != nil {
				b.Fatal(err)
			}
			insts, cycles = res.Stats.Instructions, res.Stats.Cycles
			hits = sys.DecodeCacheStats().IndirectHits
		}
		if hits == 0 {
			b.Fatal("call workload never hit the indirect cache; the benchmark is vacuous")
		}
		b.SetBytes(int64(insts))
		b.ReportMetric(float64(cycles), "sim-cycles")
	})
}

// BenchmarkMiniCCompile measures the MiniC compiler end to end (lex,
// parse, codegen, link, image marshal) on the largest workload source,
// isolated from simulation. bytes/s is source bytes compiled per host
// second.
func BenchmarkMiniCCompile(b *testing.B) {
	w, ok := workload.ByName("initdb-dynamic")
	if !ok {
		b.Fatal("initdb-dynamic workload missing")
	}
	var n int
	for i := 0; i < b.N; i++ {
		exe, libs, err := workload.Build(w, workload.BuildOptions{ABI: cheriabi.ABICheri})
		if err != nil {
			b.Fatal(err)
		}
		n = len(w.Src)
		for _, lib := range libs {
			_ = lib
		}
		_ = exe
		for _, src := range w.Libs {
			n += len(src)
		}
	}
	b.SetBytes(int64(n))
}

// BenchmarkParallelDriver measures the sharded evaluation driver on a
// fixed Table 3 slice at several worker counts. The aggregated result is
// identical for every worker count (TestParallelBodiagDeterminism); only
// wall-clock time changes, and it should scale near-linearly to 4 workers.
func BenchmarkParallelDriver(b *testing.B) {
	all := bodiag.Generate()
	var subset []bodiag.Case
	for i := 0; i < len(all); i += 6 {
		subset = append(subset, all[i])
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res *bodiag.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = bodiag.RunParallel(subset, bodiag.Envs, workers)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Detected["cheriabi"][0]), "cheri-min")
			totalRuns := float64(b.N) * float64(len(subset)*4*len(bodiag.Envs))
			b.ReportMetric(totalRuns/b.Elapsed().Seconds(), "runs/s")
		})
	}
}

// BenchmarkDecodeCache ablates the whole simulator engine: the same
// workload run as workload.Run runs it, on the engine ("on") and on the
// Reference machine ("off": uncached Step, byte-at-a-time uaccess). The
// guest-visible results are bit-identical (TestDifferentialMatrix); only
// host throughput changes. MB/s stands in for guest instructions/s.
func BenchmarkDecodeCache(b *testing.B) {
	w, _ := workload.ByName("auto-basicmath")
	exe, libs, err := workload.Build(w, workload.BuildOptions{ABI: cheriabi.ABICheri})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name      string
		reference bool
	}{
		{"on", false},
		{"off", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var insts, cycles uint64
			for i := 0; i < b.N; i++ {
				sys := cheriabi.NewSystem(cheriabi.Config{MemBytes: 128 << 20, Seed: 1, Reference: mode.reference})
				for _, lib := range libs {
					if _, err := sys.Install(lib); err != nil {
						b.Fatal(err)
					}
				}
				res, err := sys.RunImage(exe, append([]string{w.Name}, w.Args...)...)
				if err != nil {
					b.Fatal(err)
				}
				insts, cycles = res.Stats.Instructions, res.Stats.Cycles
			}
			b.SetBytes(int64(insts))
			b.ReportMetric(float64(cycles), "sim-cycles") // must match across modes
		})
	}
}

// BenchmarkBootSnapshot measures the machine checkpoint path piecewise:
// a full cold kernel boot, capturing a post-boot snapshot, and stamping
// one copy-on-write clone from it. Boot is already cheap here because
// physical memory is lazily chunked (nothing is zeroed eagerly); the
// clone's win is the remaining kernel table construction, and the
// machines/s metric is what bounds fleet fan-out.
func BenchmarkBootSnapshot(b *testing.B) {
	cfg := cheriabi.Config{MemBytes: 128 << 20}
	b.Run("cold-boot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cheriabi.NewSystem(cfg)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "machines/s")
	})
	b.Run("snapshot", func(b *testing.B) {
		sys := cheriabi.NewSystem(cfg)
		for i := 0; i < b.N; i++ {
			if _, err := sys.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "snapshots/s")
	})
	b.Run("clone", func(b *testing.B) {
		snap, err := cheriabi.NewSystem(cfg).Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			snap.Clone(cheriabi.Config{})
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "machines/s")
	})
}

// BenchmarkCloneFanout measures the fleet-runner path end to end: raw
// clone fan-out throughput, and the bodiag short sweep under cold-boot
// versus snapshot provisioning (each run on its own pristine machine
// either way — only how the machine is stamped differs). Guest execution
// dominates each bodiag run, so the snapshot win here is bounded by the
// boot fraction of a run; the runs/s metrics make the actual ratio
// visible on every CI record.
func BenchmarkCloneFanout(b *testing.B) {
	b.Run("clones", func(b *testing.B) {
		snap, err := cheriabi.NewSystem(cheriabi.Config{MemBytes: 192 << 20}).Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				snap.Clone(cheriabi.Config{})
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "machines/s")
	})
	all := bodiag.Generate()
	var subset []bodiag.Case
	for i := 0; i < len(all); i += 24 {
		subset = append(subset, all[i])
	}
	workers := driver.AutoWorkers(len(subset) * 4 * len(bodiag.Envs))
	for _, mode := range []struct {
		name     string
		snapshot bool
	}{
		{"bodiag-short-cold", false},
		{"bodiag-short-snapshot", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var res *bodiag.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = bodiag.RunParallelMode(subset, bodiag.Envs, workers, mode.snapshot)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Detected["cheriabi"][0]), "cheri-min")
			totalRuns := float64(b.N) * float64(len(subset)*4*len(bodiag.Envs))
			b.ReportMetric(totalRuns/b.Elapsed().Seconds(), "runs/s")
		})
	}
}
