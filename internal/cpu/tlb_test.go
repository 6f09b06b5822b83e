package cpu

import (
	"testing"

	"cheriabi/internal/cache"
	"cheriabi/internal/cap"
	"cheriabi/internal/isa"
	"cheriabi/internal/mem"
	"cheriabi/internal/vm"
)

// The data micro-TLB is a transparent cache of AddressSpace.Translate.
// These tests cover its invalidation contract directly through the CPU's
// capability-authorized access methods (the same paths guest loads and
// stores take): protection changes, unmap/remap, fork copy-on-write, and
// frames shared between address spaces.

func testDDC() cap.Capability { return cap.Root(0, 1<<40, cap.PermData) }

// TestMicroTLBProtectInvalidates: a cached write translation must die when
// mprotect removes write permission, and revive when it is restored.
func TestMicroTLBProtectInvalidates(t *testing.T) {
	c := newTestCPU(t)
	ddc := testDDC()
	if err := c.StoreVia(ddc, dataVA, 8, 0x11); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.Protect(dataVA, vm.PageSize, vm.ProtRead); err != nil {
		t.Fatal(err)
	}
	err := c.StoreVia(ddc, dataVA, 8, 0x22)
	pf, ok := err.(*vm.PageFault)
	if !ok || pf.Kind != vm.FaultProt {
		t.Fatalf("store after mprotect: want protection fault, got %v", err)
	}
	if v, err := c.LoadVia(ddc, dataVA, 8); err != nil || v != 0x11 {
		t.Fatalf("read-only page: got %#x, %v", v, err)
	}
	if err := c.AS.Protect(dataVA, vm.PageSize, vm.ProtRead|vm.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreVia(ddc, dataVA, 8, 0x33); err != nil {
		t.Fatalf("store after restoring write: %v", err)
	}
	if v, _ := c.LoadVia(ddc, dataVA, 8); v != 0x33 {
		t.Fatalf("got %#x, want 0x33", v)
	}
}

// TestMicroTLBReadEntryDoesNotAuthorizeWrite: an entry proven for reads
// must not satisfy a write on a read-only page (per-access-kind proofs).
func TestMicroTLBReadEntryDoesNotAuthorizeWrite(t *testing.T) {
	c := newTestCPU(t)
	ddc := testDDC()
	roVA := uint64(0x50000)
	if err := c.AS.Map(roVA, vm.PageSize, vm.ProtRead, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadVia(ddc, roVA, 8); err != nil {
		t.Fatal(err)
	}
	err := c.StoreVia(ddc, roVA, 8, 1)
	pf, ok := err.(*vm.PageFault)
	if !ok || pf.Kind != vm.FaultProt {
		t.Fatalf("write through read-proven entry: want protection fault, got %v", err)
	}
}

// TestMicroTLBUnmapRemap: unmap must fault subsequent accesses even with a
// warm entry; remapping the same address must observe the fresh
// demand-zero frame, not the cached translation of the old one.
func TestMicroTLBUnmapRemap(t *testing.T) {
	c := newTestCPU(t)
	ddc := testDDC()
	if err := c.StoreVia(ddc, dataVA, 8, 0xAB); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.Unmap(dataVA, vm.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadVia(ddc, dataVA, 8); err == nil {
		t.Fatal("load of unmapped page served from stale TLB entry")
	}
	if err := c.AS.Map(dataVA, vm.PageSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	if v, err := c.LoadVia(ddc, dataVA, 8); err != nil || v != 0 {
		t.Fatalf("remapped page: got %#x, %v; want demand-zero 0", v, err)
	}
}

// TestMicroTLBForkCOW: fork marks the parent's writable pages
// copy-on-write without replacing the page-table entries the TLB was
// filled from. A post-fork write through a warm TLB entry that skipped the
// COW copy would mutate the frame the child still shares — the Gen bump in
// Fork is what prevents it.
func TestMicroTLBForkCOW(t *testing.T) {
	m := mem.New(16<<20, 16)
	sys := vm.NewSystem(m, 1<<20)
	c := New(m, cache.DefaultHierarchy(), cap.Format128)
	ddc := testDDC()
	as1 := sys.NewAddressSpace()
	if err := as1.Map(dataVA, vm.PageSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	c.AS = as1
	if err := c.StoreVia(ddc, dataVA, 8, 1); err != nil { // warm write entry
		t.Fatal(err)
	}
	as2 := as1.Fork()
	if err := c.StoreVia(ddc, dataVA, 8, 2); err != nil { // must COW first
		t.Fatal(err)
	}
	pa2, pf := as2.Translate(dataVA, vm.ProtRead)
	if pf != nil {
		t.Fatal(pf)
	}
	if v := m.Load(pa2, 8); v != 1 {
		t.Fatalf("child observed parent's post-fork write (%d): stale TLB entry bypassed COW", v)
	}
	if v, _ := c.LoadVia(ddc, dataVA, 8); v != 2 {
		t.Fatalf("parent lost its own write: got %d", v)
	}
}

// TestMicroTLBSharedFrames: two address spaces mapping the same frames see
// each other's writes immediately — per-AS TLB entries must not conflate
// the spaces even when the virtual pages collide in the direct-mapped
// array.
func TestMicroTLBSharedFrames(t *testing.T) {
	m := mem.New(16<<20, 16)
	sys := vm.NewSystem(m, 1<<20)
	c := New(m, cache.DefaultHierarchy(), cap.Format128)
	ddc := testDDC()
	frames := sys.AllocFrames(1)
	as1, as2 := sys.NewAddressSpace(), sys.NewAddressSpace()
	for _, as := range []*vm.AddressSpace{as1, as2} {
		if err := as.MapFrames(dataVA, frames, vm.ProtRead|vm.ProtWrite); err != nil {
			t.Fatal(err)
		}
	}
	// A private page at the same VA in as2: the direct-mapped slot for
	// dataVA is shared between the spaces, so this exercises replacement.
	privVA := uint64(dataVA + dtlbSize*vm.PageSize) // same TLB index as dataVA
	if err := as2.Map(privVA, vm.PageSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	c.AS = as1
	if err := c.StoreVia(ddc, dataVA, 8, 7); err != nil {
		t.Fatal(err)
	}
	c.AS = as2
	if v, err := c.LoadVia(ddc, dataVA, 8); err != nil || v != 7 {
		t.Fatalf("as2 shared view: got %#x, %v", v, err)
	}
	if err := c.StoreVia(ddc, privVA, 8, 9); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreVia(ddc, dataVA, 8, 8); err != nil {
		t.Fatal(err)
	}
	c.AS = as1
	if v, _ := c.LoadVia(ddc, dataVA, 8); v != 8 {
		t.Fatalf("as1 missed as2's write through the shared frame: got %#x", v)
	}
	c.AS = as2
	if v, _ := c.LoadVia(ddc, privVA, 8); v != 9 {
		t.Fatalf("private page clobbered: got %#x", v)
	}
}

// TestMicroTLBSwap: swapping a page out must invalidate its cached
// translation; swap-in lands in a fresh frame the TLB must re-learn.
func TestMicroTLBSwap(t *testing.T) {
	c := newTestCPU(t)
	ddc := testDDC()
	if err := c.StoreVia(ddc, dataVA, 8, 0x77); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.SwapOut(dataVA); err != nil {
		t.Fatal(err)
	}
	if v, err := c.LoadVia(ddc, dataVA, 8); err != nil || v != 0x77 {
		t.Fatalf("after swap round-trip: got %#x, %v", v, err)
	}
}

// TestThreadedMidRunSMC: a store inside a straight-line run that patches a
// later instruction of the *same page* must be observed by the very next
// fetch — the per-instruction generation re-check inside runBlock.
func TestThreadedMidRunSMC(t *testing.T) {
	exec := func(ref bool) (uint64, Stats) {
		c := newTestCPU(t)
		c.Reference = ref
		patched := isa.MustEncode(isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 42})
		prog := storeWordInsts(patched, codeVA+6*isa.InstSize)
		prog = append(prog,
			isa.Inst{Op: isa.NOP},                        // 5: straight-line filler
			isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 1}, // 6: patch target
			isa.Inst{Op: isa.BREAK},                      // 7
		)
		load(t, c, prog)
		run(t, c)
		return c.X[2], c.Stats
	}
	gotOn, statsOn := exec(false)
	gotOff, statsOff := exec(true)
	if gotOn != 42 {
		t.Fatalf("threaded run executed stale instruction after mid-run patch: r2 = %d, want 42", gotOn)
	}
	if gotOff != gotOn || statsOn != statsOff {
		t.Fatalf("engine/Reference diverged: engine r2=%d %+v, Reference r2=%d %+v", gotOn, statsOn, gotOff, statsOff)
	}
}

// TestThreadedLedgerFlushOnTrap: a trap in the middle of a block-threaded
// run must observe fully-flushed Stats — the kernel charges costs and
// reads the cycle clock at trap time, so a deferred ledger would skew
// simulated time. Compare the exact Stats at every trap against the
// Reference machine.
func TestThreadedLedgerFlushOnTrap(t *testing.T) {
	exec := func(ref bool) []Stats {
		c := newTestCPU(t)
		c.Reference = ref
		prog := []isa.Inst{
			{Op: isa.ADDI, Ra: 2, Rb: 0, Imm: 1},
			{Op: isa.ADDI, Ra: 3, Rb: 0, Imm: 2},
			{Op: isa.SYSCALL}, // trap mid-page, mid-run
			{Op: isa.MUL, Ra: 4, Rb: 2, Rc: 3},
			{Op: isa.SYSCALL},
			{Op: isa.ADD, Ra: 5, Rb: 4, Rc: 2},
			{Op: isa.BREAK},
		}
		load(t, c, prog)
		var snaps []Stats
		for {
			tr := c.Run(0)
			if tr == nil {
				t.Fatal("budget expired unexpectedly")
			}
			snaps = append(snaps, c.Stats) // Stats as the kernel would see them
			if tr.Kind == TrapBreak {
				return snaps
			}
			if tr.Kind != TrapSyscall {
				t.Fatalf("unexpected trap %v", tr)
			}
			c.PC += isa.InstSize // kernel-style syscall completion
		}
	}
	on := exec(false)
	off := exec(true)
	if len(on) != len(off) {
		t.Fatalf("trap counts diverged: %d vs %d", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("Stats at trap %d diverged:\n   engine: %+v\nReference: %+v", i, on[i], off[i])
		}
	}
}

// TestThreadedBudgetBoundary: Run(max) must retire exactly max
// instructions whether the boundary lands inside a straight-line run or
// not — the scheduler's quantum accounting depends on it.
func TestThreadedBudgetBoundary(t *testing.T) {
	prog := make([]isa.Inst, 0, 40)
	for i := 0; i < 32; i++ {
		prog = append(prog, isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 1})
	}
	prog = append(prog, isa.Inst{Op: isa.BREAK})
	for max := uint64(1); max <= 8; max++ {
		var got [2]Stats
		for mode, ref := range []bool{false, true} {
			c := newTestCPU(t)
			c.Reference = ref
			load(t, c, prog)
			// Warm the decode latch so the threaded engine engages, then
			// reset the counters for a clean budget window.
			if tr := c.Run(2); tr != nil {
				t.Fatalf("warmup trapped: %v", tr)
			}
			c.PC = codeVA
			c.Stats = Stats{}
			if tr := c.Run(max); tr != nil {
				t.Fatalf("trapped inside budget: %v", tr)
			}
			if c.Stats.Instructions != max {
				t.Fatalf("Reference=%v: retired %d instructions, budget %d", ref, c.Stats.Instructions, max)
			}
			got[mode] = c.Stats
		}
		if got[0] != got[1] {
			t.Fatalf("max=%d: budgeted Stats diverged:\n   engine: %+v\nReference: %+v", max, got[0], got[1])
		}
	}
}
