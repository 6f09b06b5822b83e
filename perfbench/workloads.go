package main

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"cheriabi"
	"cheriabi/internal/bodiag"
	"cheriabi/internal/driver"
	"cheriabi/internal/fabric"
	"cheriabi/internal/vm"
	"cheriabi/internal/workload"
)

// bench is one workload: set-up builds its inputs, a pass runs every
// unit once, and check compares a pass with the repo's reference path
// for the same seed.
type bench interface {
	// setUp builds the images and boots and snapshots the template
	// machine. It may run several times; the last set-up serves the
	// passes.
	setUp(tr *tracer) error
	// pass runs every unit once on fresh clones, giving cal a chance to
	// run a reference slice after each. c, when non-nil, accumulates the
	// layers' counters.
	pass(tr *tracer, c *counters, cal *calibrator) passResult
	// reference runs the repo's reference path once for the run's seed.
	reference() error
	// check marks the units of a pass that differ from the reference.
	check(units []Unit) []bool
}

// passResult is one pass: its verified units, each unit's host time, and
// the guest instructions it retired on all machines.
type passResult struct {
	units  []Unit
	unitMs []float64
	insts  uint64
	cal    *calibrator
}

// add records a unit that started at t, then lets the calibrator run.
func (r *passResult) add(u Unit, insts uint64, t time.Time) {
	r.units = append(r.units, u)
	r.unitMs = append(r.unitMs, float64(time.Since(t).Nanoseconds())/1e6)
	r.insts += insts
	r.cal.between()
}

// Machine sizes, as the repo's workload and bodiag packages boot them.
const (
	workloadMem = 128 << 20
	bodiagMem   = 192 << 20
)

// counters sums the layers' event counts over one pass.
type counters struct {
	cpu                                 cheriabi.Stats
	threaded, blocks, decodes, chains   uint64
	indirectHits, indirectMisses        uint64
	l1iAccesses, l1dAccesses, l1dMisses uint64
	l2Misses, l2Writebacks              uint64
	uaFast, uaSlow                      uint64
	mappedPages                         uint64
	delivered, dataBytes                uint64
}

func (c *counters) addStats(d cheriabi.Stats) {
	c.cpu.Instructions += d.Instructions
	c.cpu.Cycles += d.Cycles
	c.cpu.Loads += d.Loads
	c.cpu.Stores += d.Stores
	c.cpu.CapLoads += d.CapLoads
	c.cpu.CapStores += d.CapStores
	c.cpu.Syscalls += d.Syscalls
}

// addMachine adds a finished machine's counters. Every unit runs on a
// fresh clone, whose caches and simulator counters start at zero.
func (c *counters) addMachine(sys *cheriabi.System, d cheriabi.Stats) {
	c.addStats(d)
	ds := sys.DecodeCacheStats()
	c.threaded += ds.Threaded
	c.blocks += ds.Blocks
	c.decodes += ds.Decodes
	c.chains += ds.Chains
	c.indirectHits += ds.IndirectHits
	c.indirectMisses += ds.IndirectMisses
	h := sys.Machine.Hier
	c.l1iAccesses += h.L1I.Stats().Accesses
	c.l1dAccesses += h.L1D.Stats().Accesses
	c.l1dMisses += h.L1D.Stats().Misses
	c.l2Misses += h.L2.Stats().Misses
	c.l2Writebacks += h.L2.Stats().Writebacks
	c.uaFast += sys.Machine.UA.Stats.FastRuns
	c.uaSlow += sys.Machine.UA.Stats.SlowRuns
}

// runOnClone runs the installed images' last entry on a fresh clone of
// snap, calling Spawn, RunUntilExit and Reap the way System.RunPath does
// so the outcome is the one RunPath would give. Libraries come first in
// imgs, as workload.Run installs them.
func runOnClone(tr *tracer, c *counters, snap *cheriabi.Snapshot, seed int64, imgs []*cheriabi.Image, argv []string) Run {
	tr.begin("kernel.clone")
	sys := snap.Clone(cheriabi.Config{Seed: seed})
	tr.end()
	tr.begin("kernel.install")
	var path string
	var err error
	for _, img := range imgs {
		if path, err = sys.Install(img); err != nil {
			break
		}
	}
	tr.end()
	if err != nil {
		return Run{Err: "install: " + err.Error()}
	}
	if len(argv) == 0 {
		argv = []string{path}
	}
	before := sys.Machine.CPU.Stats
	tr.begin("kernel.spawn")
	p, err := sys.Kernel.Spawn(path, argv, nil)
	tr.end()
	if err != nil {
		return Run{Err: "spawn: " + err.Error()}
	}
	if c != nil {
		for _, r := range p.AS.Regions() {
			c.mappedPages += (r.End - r.Start) / vm.PageSize
		}
	}
	tr.begin("kernel.run")
	err = sys.Kernel.RunUntilExit(p, 0)
	tr.end()
	if err != nil {
		return Run{Err: "run: " + err.Error()}
	}
	d := cheriabi.DeltaStats(before, sys.Machine.CPU.Stats)
	r := Run{
		Exit:   p.ExitCode(),
		Signal: p.TermSignal(),
		Output: digest(p.Stdout.String()),
		Insts:  d.Instructions,
		Cycles: d.Cycles,
		L2:     sys.L2Misses(),
	}
	tr.begin("kernel.reap")
	sys.Kernel.Reap(p)
	tr.end()
	if c != nil {
		c.addMachine(sys, d)
	}
	return r
}

func abiName(abi cheriabi.ABI) string {
	if abi == cheriabi.ABICheri {
		return "cheriabi"
	}
	return "mips64"
}

// fig4 runs every Figure 4 program under mips64 and CheriABI, each on a
// fresh clone of one template; the images are built in set-up.
type fig4 struct {
	seed  int64
	progs []fig4Prog
	snap  *cheriabi.Snapshot
	ref   []Unit
}

type fig4Prog struct {
	w    workload.Workload
	abi  cheriabi.ABI
	imgs []*cheriabi.Image // libraries, then the executable
}

func (p fig4Prog) name() string { return p.w.Name + "/" + abiName(p.abi) }

func (f *fig4) setUp(tr *tracer) error {
	f.progs = f.progs[:0]
	for _, w := range workload.Figure4 {
		for _, abi := range []cheriabi.ABI{cheriabi.ABILegacy, cheriabi.ABICheri} {
			tr.begin("cc.compile")
			exe, libs, err := workload.Build(w, workload.BuildOptions{ABI: abi})
			tr.end()
			if err != nil {
				return err
			}
			f.progs = append(f.progs, fig4Prog{w: w, abi: abi, imgs: append(libs, exe)})
		}
	}
	tr.begin("kernel.boot")
	snap, err := cheriabi.NewSystem(cheriabi.Config{MemBytes: workloadMem}).Snapshot()
	tr.end()
	f.snap = snap
	return err
}

func (f *fig4) pass(tr *tracer, c *counters, cal *calibrator) passResult {
	res := passResult{cal: cal}
	for _, p := range f.progs {
		t := time.Now()
		r := runOnClone(tr, c, f.snap, f.seed, p.imgs, append([]string{p.w.Name}, p.w.Args...))
		res.add(Unit{Name: p.name(), Runs: []Run{r}}, r.Insts, t)
	}
	return res
}

// reference runs every program through workload.Run, which compiles and
// cold-boots a machine per run.
func (f *fig4) reference() error {
	f.ref = f.ref[:0]
	for _, p := range f.progs {
		m, err := workload.Run(p.w, workload.BuildOptions{ABI: p.abi}, f.seed)
		if err != nil {
			return fmt.Errorf("reference %s: %w", p.name(), err)
		}
		f.ref = append(f.ref, Unit{Name: p.name(), Runs: []Run{{
			Output: digest(m.Output),
			Insts:  m.Instructions,
			Cycles: m.Cycles,
			L2:     m.L2Misses,
		}}})
	}
	return nil
}

func (f *fig4) check(units []Unit) []bool { return mismatches(units, f.ref) }

// bodiagStride picks every stride-th case of the 291-case Table 3 corpus.
const bodiagStride = 12

// bodiagRun is one (case, variant, environment) of the slice.
type bodiagRun struct {
	c   bodiag.Case
	v   bodiag.Variant
	env bodiag.Env
}

func (r bodiagRun) name() string { return fmt.Sprintf("%s-%s-%s", r.c.Name(), r.v, r.env.Name) }

// bodiagSlice returns the slice's runs in the order RunParallelMode
// enumerates them: case, then environment, then variant.
func bodiagSlice() ([]bodiag.Case, []bodiagRun) {
	var cases []bodiag.Case
	var runs []bodiagRun
	all := bodiag.Generate()
	for i := 0; i < len(all); i += bodiagStride {
		c := all[i]
		cases = append(cases, c)
		for _, env := range bodiag.Envs {
			for _, v := range []bodiag.Variant{bodiag.VarOK, bodiag.VarMin, bodiag.VarMed, bodiag.VarLarge} {
				runs = append(runs, bodiagRun{c: c, v: v, env: env})
			}
		}
	}
	return cases, runs
}

// bodiagBench compiles and runs every case of the slice on its own clone,
// as bodiag.RunParallelMode does.
type bodiagBench struct {
	seed  int64
	cases []bodiag.Case
	runs  []bodiagRun
	snap  *cheriabi.Snapshot
	ref   *bodiag.Result
}

func (b *bodiagBench) setUp(tr *tracer) error {
	b.cases, b.runs = bodiagSlice()
	tr.begin("kernel.boot")
	sys := cheriabi.NewSystem(cheriabi.Config{MemBytes: bodiagMem})
	sys.Kernel.FS.Mkdir(bodiag.CwdPath)
	snap, err := sys.Snapshot()
	tr.end()
	b.snap = snap
	return err
}

func (b *bodiagBench) pass(tr *tracer, c *counters, cal *calibrator) passResult {
	res := passResult{cal: cal}
	for _, r := range b.runs {
		t := time.Now()
		tr.begin("cc.compile")
		img, _, err := cheriabi.Compile(cheriabi.CompileOptions{
			Name:            r.name(),
			ABI:             r.env.ABI,
			ASan:            r.env.ASan,
			SubObjectBounds: r.env.SubObjectBounds,
		}, bodiag.Source(r.c, r.v))
		tr.end()
		run := Run{Err: fmt.Sprint("compile: ", err)}
		if err == nil {
			run = runOnClone(tr, c, b.snap, b.seed, []*cheriabi.Image{img}, nil)
		}
		res.add(Unit{Name: r.name(), Runs: []Run{run}}, run.Insts, t)
	}
	return res
}

// reference runs the slice through the sequential bodiag.Runner, which
// reuses one booted machine per environment. Detection is architectural,
// so only the table it produces is comparable.
func (b *bodiagBench) reference() error {
	res, err := bodiag.NewRunner().Run(b.cases)
	b.ref = res
	return err
}

// tally folds a pass into its Table 3 slice: detections per environment
// and variant, and the OK variants that were flagged. A run that did not
// finish counts as neither.
func (b *bodiagBench) tally(units []Unit) (table map[string][3]int, okFlagged []bool) {
	table = map[string][3]int{}
	okFlagged = make([]bool, len(units))
	for i, u := range units {
		r, run := b.runs[i], u.Runs[0]
		hit := run.Err == "" && (run.Signal != 0 || run.Exit == 99)
		counts := table[r.env.Name]
		if r.v == bodiag.VarOK {
			okFlagged[i] = hit
		} else if hit {
			counts[r.v-1]++
		}
		table[r.env.Name] = counts
	}
	return table, okFlagged
}

// check fails a run that did not finish and an OK variant that was
// flagged, and fails every unit of a pass whose Table 3 slice differs
// from the reference's.
func (b *bodiagBench) check(units []Unit) []bool {
	table, failed := b.tally(units)
	same := b.ref != nil && b.ref.OKFailures == 0 && len(table) == len(b.ref.Detected)
	for env, counts := range table {
		same = same && b.ref.Detected[env] == counts
	}
	for i, u := range units {
		failed[i] = failed[i] || !same || u.Runs[0].Err != ""
	}
	return failed
}

// Load-generator fleet size: the fleet bound of 48 connections.
const (
	loadClients  = 6
	loadConns    = 8
	loadRequests = 8
)

// loadgen runs the cheri-load fleet under CheriABI through the pieces
// workload.LoadGen composes, so set-up and fleet time are timed apart.
type loadgen struct {
	seed  uint64
	snap  *cheriabi.Snapshot
	nodes []driver.FleetNode
	ref   Unit
}

func (l *loadgen) setUp(tr *tracer) error {
	tr.begin("cc.compile")
	server, client, err := workload.LoadGenImages(cheriabi.ABICheri)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("kernel.boot")
	l.snap, err = cheriabi.NewSystem(cheriabi.Config{MemBytes: workloadMem}).Snapshot()
	tr.end()
	srvAddr := strconv.FormatUint(fabric.NodeAddr(0), 10)
	l.nodes = []driver.FleetNode{{
		Exe:  server,
		Argv: []string{"loadgen-server", strconv.Itoa(loadClients * loadConns)},
	}}
	for i := 0; i < loadClients; i++ {
		l.nodes = append(l.nodes, driver.FleetNode{
			Exe: client,
			Argv: []string{"loadgen-client", srvAddr,
				strconv.Itoa(loadConns), strconv.Itoa(loadRequests), strconv.Itoa(i)},
		})
	}
	return err
}

func (l *loadgen) pass(tr *tracer, c *counters, cal *calibrator) passResult {
	t := time.Now()
	tr.begin("driver.fleet")
	res, err := driver.RunFleet(driver.FleetConfig{
		Snapshot: l.snap,
		Config:   cheriabi.Config{MemBytes: workloadMem},
		Fabric:   fabric.Config{Seed: l.seed},
	}, l.nodes)
	tr.end()
	u := Unit{Name: "fleet", Runs: []Run{{Err: fmt.Sprint(err)}}}
	var insts uint64
	if err == nil {
		u = fleetUnit(res)
		for _, n := range res.Nodes {
			insts += n.Stats.Instructions
			if c != nil {
				c.addStats(n.Stats)
			}
		}
		if c != nil {
			c.delivered += res.Delivered
			c.dataBytes += res.DataBytes
		}
	}
	out := passResult{cal: cal}
	out.add(u, insts, t)
	return out
}

// fleetUnit summarises a fleet run: every machine's run, the fabric's
// trace, and the request latencies and checksums parsed from the client
// output the way workload.LoadGen parses them.
func fleetUnit(res *driver.FleetResult) Unit {
	u := Unit{Name: "fleet", Fleet: &Fleet{
		TraceHash: res.TraceHash,
		Delivered: res.Delivered,
		DataBytes: res.DataBytes,
	}}
	var lat []uint64
	var sums []string
	for _, n := range res.Nodes {
		u.Runs = append(u.Runs, Run{
			Exit:   n.ExitCode,
			Signal: n.Signal,
			Output: digest(n.Output),
			Insts:  n.Stats.Instructions,
			Cycles: n.Stats.Cycles,
		})
		u.Fleet.Makespan = max(u.Fleet.Makespan, n.Stats.Cycles)
		for _, line := range strings.Split(n.Output, "\n") {
			if v, ok := strings.CutPrefix(line, "L "); ok {
				c, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
				if err != nil {
					u.Runs[len(u.Runs)-1].Err = "bad latency line " + line
				}
				lat = append(lat, c)
			} else if line != "" {
				sums = append(sums, line)
			}
		}
	}
	// workload.LoadGen takes the percentile at index (n-1)*p/100.
	if n := len(lat); n > 0 {
		slices.Sort(lat)
		u.Fleet.P50 = lat[(n-1)*50/100]
		u.Fleet.P99 = lat[(n-1)*99/100]
	}
	u.Fleet.Checksums = digest(strings.Join(sums, "\n"))
	return u
}

// reference runs workload.LoadGen with the same fleet and seed.
func (l *loadgen) reference() error {
	res, err := workload.LoadGen(workload.LoadGenSpec{
		ABI:      cheriabi.ABICheri,
		Clients:  loadClients,
		Conns:    loadConns,
		Requests: loadRequests,
		Seed:     l.seed,
	})
	if err != nil {
		return err
	}
	l.ref = fleetUnit(res.Fleet)
	// The figures LoadGen derives itself must agree with the parse above.
	if f := l.ref.Fleet; f.P50 != res.P50 || f.P99 != res.P99 || f.Makespan != res.Cycles ||
		f.Checksums != digest(strings.Join(res.Checksums, "\n")) {
		return fmt.Errorf("reference: LoadGen figures %d/%d/%d differ from the parsed fleet %d/%d/%d",
			res.P50, res.P99, res.Cycles, f.P50, f.P99, f.Makespan)
	}
	return nil
}

func (l *loadgen) check(units []Unit) []bool { return mismatches(units, []Unit{l.ref}) }
