package cpu

import (
	"encoding/binary"

	"cheriabi/internal/cap"
	"cheriabi/internal/isa"
	"cheriabi/internal/mem"
	"cheriabi/internal/vm"
)

// The decoded-instruction cache removes the three per-instruction fetch
// costs that dominate simulator time — the PCC dereference check, the
// virtual-to-physical walk, and isa.Decode — without changing anything a
// guest can observe. On first execution of a page the whole page is
// decoded into a block keyed by its physical page number. Step's checked
// fetch arms a latch on that block, and the threaded engine (threaded.go)
// executes from the block while the latch conditions prove that the
// checked fetch would have produced the same result:
//
//   - the PCC register is bit-identical to the one the latch was set
//     under, so the (already passed) tag/seal/permission checks still
//     hold and only the bounds compare depends on PC;
//   - the address space and its mutation generation are unchanged, so the
//     cached translation is the one Translate would return (the same
//     discipline as the micro-TLB, which bumps vm.AddressSpace.Gen on
//     every map, unmap, protect, demand-zero, COW, and swap event);
//   - the physical page's write generation (mem.Physical.PageGen) is
//     unchanged, so the decoded block still mirrors the bytes in memory.
//     Every layer that can change executable bytes funnels through the
//     mem.Physical mutators — guest stores (self-modifying code), kernel
//     image loading, rtld relocation, COW copies, and swap-in — and each
//     of those bumps the page counter.
//
// The I-cache cycle charge is NOT skipped: the threaded engine issues the
// same cache.Hierarchy fetches as Step, so cycle counts, miss counts, and
// LRU state are bit-identical with the engine on or off.

// instPage is one decoded physical page: PageSize/InstSize instructions
// plus the mem write generation the decode was taken at.
type instPage struct {
	gen   uint64
	insts [vm.PageSize / isa.InstSize]isa.Inst
}

// fetchLatch caches everything needed to prove the threaded engine sound
// for the current (PCC, address space, page) triple.
type fetchLatch struct {
	page   *instPage
	as     *vm.AddressSpace
	asGen  uint64
	pcc    cap.Capability
	vaPage uint64 // virtual page base of PC
	paPage uint64 // physical page base it translates to
}

// DecodeStats counts decode-cache and threaded-engine events. These are
// simulator bookkeeping, not architectural state: they are deliberately
// kept out of Stats so runs on the engine and on the reference machine
// report identical Stats. With CPU.Reference set, everything but Flushes
// stays zero.
type DecodeStats struct {
	Decodes uint64 // whole-page decodes (first touch or invalidation)
	Flushes uint64 // explicit SyncICache calls

	// Threaded counts instructions retired inside the block-threaded
	// engine; Blocks counts the straight-line runs they were grouped into.
	Threaded uint64
	Blocks   uint64

	// Chains is always 0. It counted superblock link traversals, an
	// engine tier that has since been removed; the field stays so
	// existing readers of DecodeStats keep building.
	Chains uint64

	// IndirectHits counts CJR/CJALR transfers served by the
	// indirect-target cache or the return stack (the run stayed inside
	// the threaded engine); IndirectMisses counts transfers that
	// re-proved from scratch; IndirectSevers counts cache entries dropped
	// because the re-proof's translate walk faulted (indirect.go).
	IndirectHits   uint64
	IndirectMisses uint64
	IndirectSevers uint64
}

const pageOffMask = vm.PageSize - 1

// pageFor returns the decoded block for the physical page containing pa,
// (re)decoding it if the page's bytes changed since the last decode.
func (c *CPU) pageFor(paPage uint64) *instPage {
	gen := c.Mem.PageGen(paPage)
	p := c.decoded[paPage]
	if p != nil && p.gen == gen {
		return p
	}
	if p == nil {
		p = &instPage{}
		if c.decoded == nil {
			c.decoded = map[uint64]*instPage{}
		}
		c.decoded[paPage] = p
	}
	var raw [vm.PageSize]byte
	c.Mem.ReadBytes(paPage, raw[:])
	for i := range p.insts {
		p.insts[i] = isa.Decode(binary.LittleEndian.Uint32(raw[i*isa.InstSize:]))
	}
	p.gen = gen
	c.DecodeStats.Decodes++
	return p
}

// SyncICache drops every decoded block and the fetch latch, modelling an
// explicit instruction-cache synchronisation. The generation checks make
// the cache self-invalidating, so this is defence in depth: the kernel
// calls it after building a process image and the run-time linker after
// relocation, the points where a real OS would sync the I-cache. The
// indirect-target cache and return stack hold decoded pages too, so they
// drop with the map.
func (c *CPU) SyncICache() {
	c.decoded = nil
	c.latch = fetchLatch{}
	c.icache = [indirectSize]indirectEnt{}
	c.rstack = [retStackSize]indirectEnt{}
	c.rsp = 0
	c.DecodeStats.Flushes++
}

// fetchInst performs the instruction fetch for Step: PCC check,
// translation, I-cache cycle charge, and decode. With the engine on
// (Reference unset) an aligned fetch decodes through the page's block and
// re-arms the latch, so the next runBlock can take over from the page.
func (c *CPU) fetchInst() (isa.Inst, *Trap) {
	if err := c.PCC.CheckDeref(c.PC, isa.InstSize, cap.PermExecute); err != nil {
		return isa.Inst{}, c.capTrap(isa.Inst{}, err)
	}
	pa, pf := c.translate(c.PC, vm.ProtExec)
	if pf != nil {
		return isa.Inst{}, &Trap{Kind: TrapPageFault, PC: c.PC, Page: pf}
	}
	c.Stats.Cycles += c.Hier.Fetch(pa, isa.InstSize) - 1 // L1I hit is pipelined
	if c.Reference || c.PC%isa.InstSize != 0 {
		// Misaligned PCs fetch the word at the raw address, which is not
		// one of the page's aligned slots; decode it directly.
		return isa.Decode(uint32(c.Mem.Load(pa, isa.InstSize))), nil
	}
	paPage := pa &^ uint64(pageOffMask)
	page := c.pageFor(paPage)
	c.latch = fetchLatch{
		page:   page,
		as:     c.AS,
		asGen:  c.AS.Gen,
		pcc:    c.PCC,
		vaPage: c.PC &^ uint64(pageOffMask),
		paPage: paPage,
	}
	return page.insts[(pa&pageOffMask)/isa.InstSize], nil
}

// Compile-time guarantee that the generation-tracking page in mem matches
// the MMU page: the decode cache keys blocks by vm page but validates them
// with mem page generations.
var _ [0]struct{} = [vm.PageShift - mem.PageShift]struct{}{}
