package cpu

import (
	"cheriabi/internal/cap"
	"cheriabi/internal/isa"
	"cheriabi/internal/vm"
)

// Indirect-transfer prediction. Under CheriABI every inter-function
// transfer is a CJR or CJALR through a code capability. Without
// prediction the threaded engine (threaded.go) must exit on exactly those
// instructions, because they replace PCC, so the hottest control-flow
// edge in capability code — call/return — would pay a full latch rebuild
// through Step (capability re-proof plus a translate(ProtExec) walk) per
// transfer.
//
// The indirect-target cache removes that exit. Each entry records a fully
// validated transfer:
//
//   - cp, the code capability EXACTLY as it passed its execute proof. The
//     proof (CheckDeref: tag set, unsealed, PermExecute, cursor in bounds
//     for one instruction) is a pure function of the capability value, so
//     a bit-identical capability re-proves by identity compare alone. A
//     different capability to the same address — narrower bounds, fewer
//     permissions, cleared tag, a seal — compares unequal and re-proves
//     from scratch. The cursor is part of the value, so the compare also
//     keys the entry by target address.
//   - the decoded target page (page, vaPage, paPage) and the generations
//     the translation proof was taken at (as, asGen, plus page.gen checked
//     against mem.PageGen per traversal) — exactly the revalidation
//     contract of the engine's latch: AS identity, AS.Gen, and target
//     PageGen compared on EVERY traversal, so mprotect, munmap, fork,
//     COW, swap, and self-modifying code invalidate cached transfers the
//     same way they invalidate the latch.
//
// A traversal whose generation compares fail falls through to the miss
// path, which re-proves the capability and the translation (severing the
// entry if the walk faults, leaving Step to raise the identical fault at
// the identical PC). Entries are filled only on the miss path after both
// proofs succeed, and only at a point where the unoptimised machine would
// perform the same walk as its very next action (threaded.go).
//
// On top of the cache, the return edge is specialised: CJALR pushes the
// link capability it wrote — which carries the same by-construction
// execute proof, verified at push time — onto a small return stack
// latching the current (already proven) page, so the matching CJR return
// predicts without even probing the cache. A mismatched or stale top is
// simply a prediction miss; the cache and then the full re-proof back it
// up.

// indirectSize is the number of direct-mapped indirect-target cache
// entries.
const indirectSize = 256

// retStackSize is the depth of the return-prediction stack. Deeper
// recursion wraps and overwrites; a lost entry only costs a cache probe.
const retStackSize = 8

// indirectEnt is one validated indirect-transfer proof (see the package
// comment above). The zero value (page == nil) is an empty slot.
type indirectEnt struct {
	cp     cap.Capability // the code capability exactly as proven
	page   *instPage      // decoded target page
	as     *vm.AddressSpace
	asGen  uint64
	vaPage uint64 // virtual page base of the target
	paPage uint64 // physical page base it translated to at asGen
}

// indirectIdx maps a code capability to its direct-mapped cache slot. The
// cursor is the target VA; mixing in the base distinguishes same-address
// transfers through differently-bounded capabilities so they do not
// thrash one slot.
func indirectIdx(cb cap.Capability) uint64 {
	h := cb.Addr() >> 2 // targets are instruction-aligned
	h ^= cb.Base() >> 7
	h ^= h >> 16
	return h & (indirectSize - 1)
}

// valid reports whether the entry's translation proof still stands for
// the CPU's current address space (the capability identity compare is the
// caller's, so the two checks read as one contract at the probe sites).
func (e *indirectEnt) valid(c *CPU) bool {
	return e.page != nil && e.as == c.AS && e.asGen == c.AS.Gen &&
		c.Mem.PageGen(e.paPage) == e.page.gen
}

// pushReturn records a return prediction: the link capability a CJALR
// just wrote, latched to the (currently proven) page it returns into.
// The entry must carry the same proof an indirect-cache fill does, so it
// is recorded only if the constructed link capability authorizes the
// return fetch by itself — SetAddr can clear the tag on unrepresentable
// cursors, and a call from the last in-bounds instruction makes the
// return address out of bounds; both must re-prove (and fault) through
// the full path.
func (c *CPU) pushReturn(lc cap.Capability, page *instPage, vaPage, paPage, asGen uint64) {
	if lc.Addr()-vaPage >= vm.PageSize || !lc.Authorizes(lc.Addr(), 4, cap.PermExecute) {
		return
	}
	c.rstack[c.rsp%retStackSize] = indirectEnt{
		cp: lc, page: page, as: c.AS, asGen: asGen, vaPage: vaPage, paPage: paPage,
	}
	c.rsp++
}

// runState carries the threaded engine's run-local page state across the
// out-of-line indirect-transfer handler (runBlock keeps these in locals;
// the handler lives out of line so its capability-typed temporaries never
// join the hot loop's register allocation).
type runState struct {
	pc     uint64
	page   *instPage
	vaPage uint64
	paPage uint64
	asGen  uint64
}

// indirectTransfer executes one CJR/CJALR inside the threaded engine.
//
// On a hit (return-stack top or cache slot whose identity and generation
// proofs stand) it performs the transfer and swaps rs to the cached
// target page: inRun true. On a miss it performs exec's exact check
// sequence — a failed CheckDeref returns the error with NO state changed,
// so the caller traps identically to exec — then performs the transfer
// and, only when canFetch says the fetch at the target is provably the
// machine's next action (budget left, aligned target; otherwise walking
// the tables here could resolve a soft fault the in-order machine never
// reaches), re-proves the translation, fills the cache slot, and
// continues the run. A translate fault severs the slot and exits the run
// (inRun false) with no error: Step repeats the walk and raises the
// identical fault at the identical PC.
func (c *CPU) indirectTransfer(in isa.Inst, rs *runState, canFetch bool) (inRun bool, err error) {
	var cb cap.Capability
	if in.Op == isa.CJR {
		cb = c.C[in.Ra]
	} else {
		cb = c.C[in.Rb]
	}
	var hit *indirectEnt
	if in.Op == isa.CJR && c.rsp > 0 {
		if top := &c.rstack[(c.rsp-1)%retStackSize]; top.cp == cb && top.valid(c) {
			hit = top
			c.rsp--
		}
	}
	slot := &c.icache[indirectIdx(cb)]
	if hit == nil && slot.cp == cb && slot.valid(c) {
		hit = slot
	}
	if hit != nil {
		// A bit-identical capability passed CheckDeref when the entry was
		// filled (a pure function of the value), and the recorded
		// translation still stands — exec's sequence with both proofs
		// served from cache.
		if in.Op == isa.CJALR {
			lc := c.Fmt.SetAddr(c.PCC, rs.pc+isa.InstSize)
			c.setC(in.Ra, lc)
			c.pushReturn(lc, rs.page, rs.vaPage, rs.paPage, rs.asGen)
		}
		c.PCC = cb
		*rs = runState{pc: cb.Addr(), page: hit.page, vaPage: hit.vaPage,
			paPage: hit.paPage, asGen: hit.asGen}
		c.DecodeStats.IndirectHits++
		return true, nil
	}
	// Miss: the full architectural proof in exec's exact order. Nothing
	// is filled on a failed check.
	c.DecodeStats.IndirectMisses++
	if err := cb.CheckDeref(cb.Addr(), isa.InstSize, cap.PermExecute); err != nil {
		return false, err
	}
	if in.Op == isa.CJALR {
		lc := c.Fmt.SetAddr(c.PCC, rs.pc+isa.InstSize)
		c.setC(in.Ra, lc)
		c.pushReturn(lc, rs.page, rs.vaPage, rs.paPage, rs.asGen)
	}
	c.PCC = cb
	rs.pc = cb.Addr()
	if !canFetch || rs.pc%isa.InstSize != 0 {
		return false, nil // Step performs the next fetch (and any walk) itself
	}
	// The very next architectural action is the fetch at rs.pc, so this
	// translate is the walk Step would perform — including any soft-fault
	// resolution, which is why AS.Gen is re-read after it for the proof.
	pa, pf := c.translate(rs.pc, vm.ProtExec)
	if pf != nil {
		slot.page = nil
		c.DecodeStats.IndirectSevers++
		return false, nil // Step repeats the walk and raises the identical fault
	}
	tva := rs.pc &^ uint64(pageOffMask)
	tpa := pa &^ uint64(pageOffMask)
	*slot = indirectEnt{cp: cb, page: c.pageFor(tpa), as: c.AS,
		asGen: c.AS.Gen, vaPage: tva, paPage: tpa}
	rs.page, rs.vaPage, rs.paPage, rs.asGen = slot.page, tva, tpa, c.AS.Gen
	return true, nil
}
