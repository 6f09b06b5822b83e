package cpu

import (
	"testing"

	"cheriabi/internal/isa"
	"cheriabi/internal/vm"
)

// Cross-page control flow on the engine: leaving a page exits the threaded
// run, and Step's checked fetch proves the next page. The TestSuperblock*
// names date from superblock chaining, which once carried these
// transitions inside the run; they are kept as stable test identities,
// and each scenario now checks the engine against the Reference machine.

// instsPerPage is how many instruction slots one page holds.
const instsPerPage = int(vm.PageSize / isa.InstSize)

// padTo appends NOPs until the program is n instructions long.
func padTo(prog []isa.Inst, n int) []isa.Inst {
	for len(prog) < n {
		prog = append(prog, isa.Inst{Op: isa.NOP})
	}
	return prog
}

// runBoth runs prog to its BREAK on the engine and on the Reference
// machine (setup, if non-nil, prepares each CPU before loading), requires
// identical registers, PC, and Stats, and returns the engine CPU.
func runBoth(t *testing.T, prog []isa.Inst, setup func(*CPU)) *CPU {
	t.Helper()
	var cpus [2]*CPU
	for i, ref := range []bool{false, true} {
		c := newTestCPU(t)
		c.Reference = ref
		if setup != nil {
			setup(c)
		}
		load(t, c, prog)
		run(t, c)
		cpus[i] = c
	}
	eng, ref := cpus[0], cpus[1]
	if eng.X != ref.X || eng.C != ref.C || eng.PC != ref.PC || eng.Stats != ref.Stats {
		t.Fatalf("engine and Reference diverged:\nengine    %+v\nReference %+v", eng.Stats, ref.Stats)
	}
	if ref.DecodeStats.Threaded != 0 || ref.DecodeStats.Decodes != 0 {
		t.Fatalf("Reference machine used the engine: %+v", ref.DecodeStats)
	}
	return eng
}

// TestSuperblockChainsAcrossPages: straight-line code walking off the end of a
// page leaves the threaded run, and Step's checked fetch carries it into
// the next page, with the same architecture as the Reference machine.
func TestSuperblockChainsAcrossPages(t *testing.T) {
	prog := make([]isa.Inst, 0, instsPerPage+1)
	for i := 0; i < instsPerPage; i++ {
		prog = append(prog, isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 1})
	}
	prog = append(prog, isa.Inst{Op: isa.BREAK})

	c := runBoth(t, prog, nil)
	if got := c.X[2]; got != uint64(instsPerPage) {
		t.Fatalf("r2 = %d, want %d", got, instsPerPage)
	}
	if ds := c.DecodeStats; ds.Threaded == 0 || ds.Decodes < 2 {
		t.Fatalf("the engine did not run both pages: %+v", ds)
	}
}

// TestSuperblockSMCReprovesLink stores into the next code page after it has
// been decoded, then falls through into it: the patched page must be
// re-decoded, never executed from the stale block.
//
// Iteration 1 skips the patch and executes the original target (r2 += 5).
// Iteration 2 patches the target to r2 += 9 from the preceding page, then
// falls through into it. Iteration 3 falls through once more. A stale
// block would leave r2 = 15.
func TestSuperblockSMCReprovesLink(t *testing.T) {
	const targetVA = codeVA + vm.PageSize // first instruction of page 1
	patched := isa.MustEncode(isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 9})

	prog := []isa.Inst{
		{Op: isa.ADDI, Ra: 4, Rb: 4, Imm: 1}, // 0: iteration counter
		{Op: isa.ADDI, Ra: 5, Rb: 0, Imm: 2}, // 1
		{Op: isa.BNE, Ra: 4, Rb: 5, Imm: 6},  // 2: skip patch unless iter 2
	}
	prog = append(prog, storeWordInsts(patched, targetVA)...) // 3..7
	prog = padTo(prog, instsPerPage)                          // fallthrough
	prog = append(prog,
		isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 5},    // 1024: patch target
		isa.Inst{Op: isa.ADDI, Ra: 6, Rb: 0, Imm: 3},    // 1025
		isa.Inst{Op: isa.BNE, Ra: 4, Rb: 6, Imm: -1026}, // 1026: loop to 0
		isa.Inst{Op: isa.BREAK},                         // 1027
	)

	c := runBoth(t, prog, nil)
	if got := c.X[2]; got != 5+9+9 {
		t.Fatalf("r2 = %d, want 23 (stale decoded block executed?)", got)
	}
	if ds := c.DecodeStats; ds.Decodes < 3 {
		t.Fatalf("patched successor page was not re-decoded: %+v", ds)
	}
}

// crossPageLoop builds an endless two-page loop with a fixed iteration
// length of instsPerPage+2 retired instructions: page 0 counts in r2 and
// falls through; page 1 counts in r3 and jumps back.
func crossPageLoop() []isa.Inst {
	prog := []isa.Inst{{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 1}}
	prog = padTo(prog, instsPerPage)
	return append(prog,
		isa.Inst{Op: isa.ADDI, Ra: 3, Rb: 3, Imm: 1},
		isa.Inst{Op: isa.J, Imm: -(int32(instsPerPage) + 1)},
	)
}

// TestSuperblockMprotectSeversLink drops exec permission on (or unmaps) the
// second page of a hot two-page loop while the PC is mid-way through the
// first: the fault must surface exactly at the first instruction of the
// revoked page, with the same Stats as on the Reference machine.
func TestSuperblockMprotectSeversLink(t *testing.T) {
	iter := uint64(instsPerPage + 2)
	for _, tc := range []struct {
		name   string
		revoke func(c *CPU) error
	}{
		{"mprotect", func(c *CPU) error {
			return c.AS.Protect(codeVA+vm.PageSize, vm.PageSize, vm.ProtRead|vm.ProtWrite)
		}},
		{"unmap", func(c *CPU) error {
			return c.AS.Unmap(codeVA+vm.PageSize, vm.PageSize)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stats [2]Stats
			for i, ref := range []bool{false, true} {
				c := newTestCPU(t)
				c.Reference = ref
				load(t, c, crossPageLoop())

				// Three laps warm both pages; 100 extra instructions park
				// the PC mid-way through page 0.
				if tr := c.Run(3*iter + 100); tr != nil {
					t.Fatalf("unexpected trap while priming: %v", tr)
				}
				if !ref && c.DecodeStats.Threaded == 0 {
					t.Fatalf("loop never ran threaded: %+v", c.DecodeStats)
				}
				if err := tc.revoke(c); err != nil {
					t.Fatal(err)
				}
				tr := c.Run(10 * iter)
				if tr == nil || tr.Kind != TrapPageFault {
					t.Fatalf("Reference=%v: trap = %v, want a page fault on the revoked page", ref, tr)
				}
				if tr.PC != codeVA+vm.PageSize {
					t.Fatalf("Reference=%v: fault PC = %x, want %x (first instruction of the revoked page)",
						ref, tr.PC, codeVA+vm.PageSize)
				}
				stats[i] = c.Stats
			}
			if stats[0] != stats[1] {
				t.Fatalf("engine and Reference diverged:\nengine    %+v\nReference %+v", stats[0], stats[1])
			}
		})
	}
}

// TestSuperblockCJRLandsOnPatchedChainTarget patches a code page the run has already
// executed and then enters it through CJALR instead of fallthrough: the
// transfer must re-prove and re-decode the page, never serving the stale
// block.
func TestSuperblockCJRLandsOnPatchedChainTarget(t *testing.T) {
	const targetVA = codeVA + vm.PageSize
	patched := isa.MustEncode(isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 9})

	prog := []isa.Inst{
		{Op: isa.ADDI, Ra: 4, Rb: 4, Imm: 1}, // 0: iteration counter
		{Op: isa.ADDI, Ra: 5, Rb: 0, Imm: 2}, // 1
		{Op: isa.BNE, Ra: 4, Rb: 5, Imm: 8},  // 2: skip patch+call unless iter 2
	}
	prog = append(prog, storeWordInsts(patched, targetVA)...) // 3..7
	prog = append(prog,
		isa.Inst{Op: isa.CJALR, Ra: 17, Rb: 12}, // 8: jump to the patched target
		isa.Inst{Op: isa.BREAK},                 // 9: unreachable
	)
	prog = padTo(prog, instsPerPage) // 10..1023: fallthrough on iter 1
	prog = append(prog,
		isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 5},    // 1024: patch target
		isa.Inst{Op: isa.BNE, Ra: 4, Rb: 5, Imm: -1025}, // 1025: loop unless iter 2
		isa.Inst{Op: isa.BREAK},                         // 1026
	)

	c := runBoth(t, prog, func(c *CPU) { c.C[12] = c.Fmt.SetAddr(c.PCC, targetVA) })
	if got := c.X[2]; got != 5+9 {
		t.Fatalf("r2 = %d, want 14 (CJALR landed on a stale decoded block?)", got)
	}
	if c.DecodeStats.Decodes < 3 {
		t.Fatalf("CJALR target page was not re-decoded after the patch: %+v", c.DecodeStats)
	}
}
