package cpu

import (
	"testing"

	"cheriabi/internal/cap"
	"cheriabi/internal/isa"
	"cheriabi/internal/vm"
)

const targetVA = codeVA + vm.PageSize // first instruction of code page 1

// callLoop builds a call/return loop: page 0 counts iterations in r4 and
// CJALRs through C12 to page 1, which bumps r2 by inc and CJRs back
// through the C17 link; the loop exits after iters round trips.
func callLoop(iters, inc int32) []isa.Inst {
	prog := []isa.Inst{
		{Op: isa.ADDI, Ra: 4, Rb: 4, Imm: 1},     // 0: iteration counter
		{Op: isa.CJALR, Ra: 17, Rb: 12},          // 1: call page 1
		{Op: isa.ADDI, Ra: 5, Rb: 0, Imm: iters}, // 2
		{Op: isa.BNE, Ra: 4, Rb: 5, Imm: -3},     // 3: loop to 0
		{Op: isa.BREAK},                          // 4
	}
	prog = padTo(prog, instsPerPage)
	return append(prog,
		isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: inc}, // 1024: callee body
		isa.Inst{Op: isa.CJR, Ra: 17},                  // 1025: return
	)
}

// endlessCallLoop is callLoop without an exit: CJALR to page 1, return,
// jump back — three retired instructions per round trip, forever.
func endlessCallLoop() []isa.Inst {
	prog := []isa.Inst{
		{Op: isa.CJALR, Ra: 17, Rb: 12}, // 0: call page 1
		{Op: isa.J, Imm: -1},            // 1: back to the call
	}
	prog = padTo(prog, instsPerPage)
	return append(prog, isa.Inst{Op: isa.CJR, Ra: 17}) // 1024: return
}

// callTarget aims C12 at the callee entry point.
func callTarget(c *CPU) {
	c.C[12] = c.Fmt.SetAddr(c.PCC, targetVA)
}

// TestIndirectCacheServesCallReturnLoop is the positive control: a
// call/return loop must be served by the indirect-transfer cache (and the
// return stack) after the first round trip, and the Reference machine
// must retire it with bit-identical architecture.
func TestIndirectCacheServesCallReturnLoop(t *testing.T) {
	const iters = 20
	c := newTestCPU(t)
	callTarget(c)
	load(t, c, callLoop(iters, 5))
	run(t, c)
	if got := c.X[2]; got != 5*iters {
		t.Fatalf("r2 = %d, want %d", got, 5*iters)
	}
	ds := c.DecodeStats
	if ds.IndirectHits == 0 {
		t.Fatalf("call/return loop never hit the indirect cache: %+v", ds)
	}
	// 2*iters transfers; only the first call and first return may miss.
	if ds.IndirectHits < 2*iters-2 {
		t.Fatalf("IndirectHits = %d, want at least %d: %+v", ds.IndirectHits, 2*iters-2, ds)
	}

	c2 := newTestCPU(t)
	c2.Reference = true
	callTarget(c2)
	load(t, c2, callLoop(iters, 5))
	run(t, c2)
	if c2.DecodeStats.IndirectHits != 0 || c2.DecodeStats.IndirectMisses != 0 {
		t.Fatalf("indirect cache ran on the Reference machine: %+v", c2.DecodeStats)
	}
	if c.X != c2.X || c.C != c2.C || c.Stats != c2.Stats {
		t.Fatalf("engine/Reference diverged:\nengine    %+v\nReference %+v", c.Stats, c2.Stats)
	}
}

// TestIndirectSMCReprovesEntry patches the callee body between calls: the
// cached entry's PageGen proof goes stale, and the next transfer must
// re-prove and execute the re-decoded page, never the stale block.
//
// Iteration 1 calls the original callee (r2 += 5). Iteration 2 patches
// the callee to r2 += 9 and calls again; iteration 3 calls once more. A
// stale cached target would leave r2 = 15.
func TestIndirectSMCReprovesEntry(t *testing.T) {
	patched := isa.MustEncode(isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 9})
	prog := []isa.Inst{
		{Op: isa.ADDI, Ra: 4, Rb: 4, Imm: 1}, // 0: iteration counter
		{Op: isa.ADDI, Ra: 5, Rb: 0, Imm: 2}, // 1
		{Op: isa.BNE, Ra: 4, Rb: 5, Imm: 6},  // 2: skip patch unless iter 2
	}
	prog = append(prog, storeWordInsts(patched, targetVA)...) // 3..7
	prog = append(prog,
		isa.Inst{Op: isa.CJALR, Ra: 17, Rb: 12},       // 8: call page 1
		isa.Inst{Op: isa.ADDI, Ra: 6, Rb: 0, Imm: 3},  // 9
		isa.Inst{Op: isa.BNE, Ra: 4, Rb: 6, Imm: -10}, // 10: loop to 0
		isa.Inst{Op: isa.BREAK},                       // 11
	)
	prog = padTo(prog, instsPerPage)
	prog = append(prog,
		isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 5}, // 1024: patch target
		isa.Inst{Op: isa.CJR, Ra: 17},                // 1025: return
	)

	c := newTestCPU(t)
	callTarget(c)
	load(t, c, prog)
	run(t, c)
	if got := c.X[2]; got != 5+9+9 {
		t.Fatalf("r2 = %d, want 23 (stale cached indirect target executed?)", got)
	}
	ds := c.DecodeStats
	// The post-patch call must have fallen off the hit path.
	if ds.IndirectMisses < 2 {
		t.Fatalf("patched callee was served from the cache: %+v", ds)
	}
	if ds.Decodes < 3 {
		t.Fatalf("patched callee page was not re-decoded: %+v", ds)
	}
}

// TestIndirectMprotectSeversEntry revokes exec permission on (or unmaps)
// the callee page of an established call loop: the next transfer's
// re-proof must fail, the cache slot must be severed, and the fault must
// surface exactly at the callee's first instruction — the PC Step's
// unoptimised fetch would fault at.
func TestIndirectMprotectSeversEntry(t *testing.T) {
	for _, tc := range []struct {
		name   string
		revoke func(c *CPU) error
	}{
		{"mprotect", func(c *CPU) error {
			return c.AS.Protect(targetVA, vm.PageSize, vm.ProtRead|vm.ProtWrite)
		}},
		{"unmap", func(c *CPU) error {
			return c.AS.Unmap(targetVA, vm.PageSize)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCPU(t)
			callTarget(c)
			load(t, c, endlessCallLoop())
			// 101 ≡ 2 (mod 3) instructions park the resume PC on page 0's
			// J — NOT on the callee's CJR, whose fetch would fault before
			// any transfer re-proof could run.
			if tr := c.Run(101); tr != nil {
				t.Fatalf("unexpected trap while priming: %v", tr)
			}
			ds := c.DecodeStats
			if ds.IndirectHits == 0 {
				t.Fatalf("call loop did not prime the indirect cache: %+v", ds)
			}
			slot := &c.icache[indirectIdx(c.C[12])]
			if slot.page == nil {
				t.Fatal("no established cache entry for the callee")
			}
			severs := ds.IndirectSevers

			if err := tc.revoke(c); err != nil {
				t.Fatal(err)
			}
			tr := c.Run(100)
			if tr == nil || tr.Kind != TrapPageFault {
				t.Fatalf("trap = %v, want a page fault on the revoked callee page", tr)
			}
			if tr.PC != targetVA {
				t.Fatalf("fault PC = %x, want %x (first instruction of the callee)", tr.PC, targetVA)
			}
			if got := c.DecodeStats.IndirectSevers; got != severs+1 {
				t.Fatalf("IndirectSevers = %d, want %d", got, severs+1)
			}
			if slot.page != nil {
				t.Fatal("stale indirect entry survived the failed re-proof")
			}
		})
	}
}

// TestIndirectBadCalleeTrapsWithoutFill jumps through a sealed and an
// untagged capability: the transfer must trap at the CJALR itself with
// exec's exact capability fault, and the failed proof must leave no trace
// — no cache fill, no return-stack push, no link-register write.
func TestIndirectBadCalleeTrapsWithoutFill(t *testing.T) {
	sealRoot := cap.Root(1, 100, cap.PermSeal)
	for _, tc := range []struct {
		name string
		mut  func(cap.Capability) cap.Capability
	}{
		{"sealed", func(cb cap.Capability) cap.Capability {
			sealed, err := cb.Seal(sealRoot)
			if err != nil {
				t.Fatalf("sealing callee capability: %v", err)
			}
			return sealed
		}},
		{"untagged", func(cb cap.Capability) cap.Capability {
			return cb.ClearTag()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCPU(t)
			callTarget(c)
			c.C[12] = tc.mut(c.C[12])
			load(t, c, []isa.Inst{
				{Op: isa.NOP}, // keeps the CJALR on the threaded path
				{Op: isa.CJALR, Ra: 17, Rb: 12},
				{Op: isa.BREAK},
			})
			tr := c.Run(100)
			if tr == nil || tr.Kind != TrapCapFault {
				t.Fatalf("trap = %v, want a capability fault", tr)
			}
			if tr.PC != codeVA+isa.InstSize {
				t.Fatalf("fault PC = %x, want %x (the CJALR itself)", tr.PC, codeVA+isa.InstSize)
			}
			if ds := c.DecodeStats; ds.IndirectMisses == 0 {
				t.Fatalf("CJALR did not reach the indirect miss path: %+v", ds)
			} else if ds.IndirectHits != 0 {
				t.Fatalf("bad callee hit the indirect cache: %+v", ds)
			}
			for i := range c.icache {
				if c.icache[i].page != nil {
					t.Fatalf("failed proof filled cache slot %d", i)
				}
			}
			if c.rsp != 0 {
				t.Fatal("failed proof pushed a return prediction")
			}
			if c.C[17].Tag() {
				t.Fatal("failed proof wrote the link register")
			}
		})
	}
}

// TestIndirectNarrowerCapabilityMisses re-runs a call through a
// differently-bounded capability to the same target address: the entry is
// keyed by the full capability value, so the narrower capability must
// re-prove from scratch rather than ride the wider capability's proof.
func TestIndirectNarrowerCapabilityMisses(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.NOP},                   // 0: keeps the CJALR on the threaded path
		{Op: isa.CJALR, Ra: 17, Rb: 12}, // 1: call page 1
		{Op: isa.BREAK},                 // 2
	}
	prog = padTo(prog, instsPerPage)
	prog = append(prog,
		isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 1}, // 1024
		isa.Inst{Op: isa.CJR, Ra: 17},                // 1025
	)

	c := newTestCPU(t)
	callTarget(c)
	wide := c.C[12]
	load(t, c, prog)
	run(t, c)
	slotW := &c.icache[indirectIdx(wide)]
	if slotW.page == nil || slotW.cp != wide {
		t.Fatalf("call did not fill the wide capability's entry: %+v", c.DecodeStats)
	}
	misses := c.DecodeStats.IndirectMisses

	// Same cursor, page-narrow bounds: bit-different value, own proof.
	narrow := cap.Root(targetVA, vm.PageSize, cap.PermCode)
	if !narrow.Authorizes(targetVA, isa.InstSize, cap.PermExecute) {
		t.Fatal("narrow capability does not authorize the callee fetch")
	}
	c.C[12] = narrow
	c.PC = codeVA
	c.PCC = cap.Root(codeVA, 4*vm.PageSize, cap.PermCode|cap.PermSystemRegs)
	run(t, c)
	if got := c.X[2]; got != 2 {
		t.Fatalf("r2 = %d, want 2", got)
	}
	if got := c.DecodeStats.IndirectMisses; got < misses+1 {
		t.Fatalf("narrower capability rode the wider entry's proof: misses %d, want > %d",
			got, misses)
	}
}

// TestIndirectForkInvalidatesEntries forks the address space mid-loop:
// the fork bumps the parent's generation (its writable pages went
// copy-on-write), so every cached transfer proof must fall stale — the
// next call re-proves, refills, and the loop resumes hitting.
func TestIndirectForkInvalidatesEntries(t *testing.T) {
	c := newTestCPU(t)
	callTarget(c)
	load(t, c, endlessCallLoop())
	if tr := c.Run(100); tr != nil {
		t.Fatalf("unexpected trap while priming: %v", tr)
	}
	ds := c.DecodeStats
	if ds.IndirectHits == 0 {
		t.Fatalf("call loop did not prime the indirect cache: %+v", ds)
	}
	hits, misses := ds.IndirectHits, ds.IndirectMisses

	c.AS.Fork() // parent-side generation bump is the point

	if tr := c.Run(100); tr != nil {
		t.Fatalf("unexpected trap after fork: %v", tr)
	}
	ds = c.DecodeStats
	if ds.IndirectMisses == misses {
		t.Fatalf("no transfer re-proved after the fork bumped AS.Gen: %+v", ds)
	}
	if ds.IndirectHits <= hits+1 {
		t.Fatalf("loop did not resume hitting after the refill: %+v", ds)
	}
}
