// Package cache models the memory hierarchy of the paper's FPGA platform:
// split 32-KiB set-associative L1 instruction and data caches and a shared
// 256-KiB L2, in front of a fixed-latency DRAM ("Our FPGA system has
// 32-KiB L1 caches and a shared 256-KiB L2 cache, all set-associative,
// similar to widely shipped CPUs such as many ARM Cortex A53
// implementations, although without pre-fetching").
//
// Tags travel with cache lines (the tag controller is folded into the line
// fill), so capability-width accesses cost the same as data accesses of
// the same size; the purecap overhead emerges from the doubled pointer
// footprint, exactly as in the paper.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	Name       string
	Size       uint64 // total bytes
	LineSize   uint64 // bytes per line
	Ways       uint64 // associativity
	HitLatency uint64 // cycles charged on hit at this level
}

// Stats counts accesses at one level.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// Hits returns the number of hits.
func (s Stats) Hits() uint64 { return s.Accesses - s.Misses }

type line struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64 // larger = more recently used
}

// Cache is one set-associative, write-back, write-allocate cache level
// with LRU replacement. Line size and set count are powers of two (as in
// all modelled hardware), so addressing is shift and mask.
type Cache struct {
	cfg   Config
	sets  [][]line
	clock uint64
	stats Stats

	lineShift uint
	lineMask  uint64
	setMask   uint64

	// Last-hit latch: the most recently accessed line. Consecutive
	// accesses to one line (the common case for instruction fetch and
	// stack traffic) skip the set scan. Every fill re-points the latch at
	// the line it wrote and Flush clears it, so a non-nil latch always
	// holds a valid line and the tag compare alone proves a hit; the
	// latch never changes hit/miss outcomes, only the cost of computing
	// them.
	last *line

	// Pending same-line hit repeats, deferred onto the latch: a hit on
	// last only increments pendN (recording whether any was a write)
	// instead of ticking the clock, the access counter, and the LRU
	// stamp. flushPend applies all of them at once before anything can
	// observe cache state — any access to another line, a set scan, an
	// eviction, a stats read, or a flush — leaving every observable
	// bit-identical to immediate application, because the intermediate
	// clock values and LRU stamps of a run of same-line hits are never
	// read (a miss, the only LRU reader, flushes first).
	pendN     uint64
	pendDirty bool
}

func isPowerOfTwo(n uint64) bool { return n != 0 && n&(n-1) == 0 }

// New builds a cache from cfg. Size must be divisible by LineSize*Ways,
// and LineSize and the resulting set count must be powers of two.
func New(cfg Config) *Cache {
	nsets := cfg.Size / (cfg.LineSize * cfg.Ways)
	if cfg.Size%(cfg.LineSize*cfg.Ways) != 0 || !isPowerOfTwo(cfg.LineSize) || !isPowerOfTwo(nsets) {
		panic(fmt.Sprintf("cache %s: bad geometry %+v", cfg.Name, cfg))
	}
	sets := make([][]line, nsets)
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		lineShift: uint(bits.TrailingZeros64(cfg.LineSize)),
		lineMask:  cfg.LineSize - 1,
		setMask:   nsets - 1,
	}
}

// lineAddr maps a physical address to its line index.
func (c *Cache) lineAddr(pa uint64) uint64 { return pa >> c.lineShift }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the access statistics.
func (c *Cache) Stats() Stats {
	c.flushPend()
	return c.stats
}

// ResetStats zeroes the statistics (the contents stay warm). Deferred
// accesses happened before the reset, so they are applied first.
func (c *Cache) ResetStats() {
	c.flushPend()
	c.stats = Stats{}
}

// latchHit joins n accesses to line la onto the deferred batch when la is
// the latched line and reports true; otherwise it changes nothing and
// reports false. This is the only latch probe.
func (c *Cache) latchHit(la, n uint64, write bool) bool {
	if l := c.last; l == nil || l.tag != la {
		return false
	}
	c.pendN += n
	c.pendDirty = c.pendDirty || write
	return true
}

// flushPend applies the deferred same-line hits accumulated on the latch
// (see the pendN field comment). Every path that can observe cache state
// calls it first.
func (c *Cache) flushPend() {
	if c.pendN != 0 {
		c.clock += c.pendN
		c.stats.Accesses += c.pendN
		c.last.lru = c.clock
		if c.pendDirty {
			c.last.dirty = true
		}
		c.pendN, c.pendDirty = 0, false
	}
}

// access looks up the line containing pa; on miss it allocates, evicting
// LRU, and latches the filled line. Returns hit and whether a dirty line
// was written back.
func (c *Cache) access(pa uint64, write bool) (hit, writeback bool) {
	la := c.lineAddr(pa)
	if c.latchHit(la, 1, write) {
		return true, false
	}
	c.flushPend() // the scan and the eviction below read LRU stamps
	c.clock++
	c.stats.Accesses++
	set := c.sets[la&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == la {
			set[i].lru = c.clock
			if write {
				set[i].dirty = true
			}
			c.last = &set[i]
			return true, false
		}
	}
	c.stats.Misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		writeback = true
		c.stats.Writebacks++
	}
	set[victim] = line{valid: true, dirty: write, tag: la, lru: c.clock}
	c.last = &set[victim]
	return false, writeback
}

// Flush invalidates all lines (e.g. between benchmark repetitions).
func (c *Cache) Flush() {
	c.flushPend() // the deferred accesses happened before the flush
	for _, set := range c.sets {
		for i := range set {
			set[i] = line{}
		}
	}
	c.last = nil
}

// Hierarchy is the full memory system: split L1s over a shared L2 over
// DRAM. Access methods return the cycle cost of the access.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	DRAMLatency  uint64
	dramAccesses uint64
}

// DefaultHierarchy reproduces the paper's FPGA geometry: 32-KiB 4-way L1s,
// 256-KiB 8-way shared L2, 64-byte lines.
func DefaultHierarchy() *Hierarchy {
	return &Hierarchy{
		L1I:         New(Config{Name: "L1I", Size: 32 << 10, LineSize: 64, Ways: 4, HitLatency: 1}),
		L1D:         New(Config{Name: "L1D", Size: 32 << 10, LineSize: 64, Ways: 4, HitLatency: 1}),
		L2:          New(Config{Name: "L2", Size: 256 << 10, LineSize: 64, Ways: 8, HitLatency: 9}),
		DRAMLatency: 50,
	}
}

// DRAMAccesses returns the number of line fills that reached DRAM.
func (h *Hierarchy) DRAMAccesses() uint64 { return h.dramAccesses }

// walk charges an access of size bytes at pa through l1, one line access
// per line the bytes span, in address order.
func (h *Hierarchy) walk(l1 *Cache, pa, size uint64, write bool) uint64 {
	if size == 0 {
		size = 1
	}
	var cycles uint64
	for la, last := l1.lineAddr(pa), l1.lineAddr(pa+size-1); la <= last; la++ {
		cycles += h.accessLevel(l1, la, write)
	}
	return cycles
}

// accessLevel walks one line access through L1 -> L2 -> DRAM.
func (h *Hierarchy) accessLevel(l1 *Cache, la uint64, write bool) uint64 {
	pa := la << l1.lineShift
	hit, wb := l1.access(pa, write)
	if hit {
		return l1.cfg.HitLatency
	}
	cycles := l1.cfg.HitLatency + h.L2.cfg.HitLatency
	hit2, wb2 := h.L2.access(pa, false)
	if !hit2 {
		cycles += h.DRAMLatency
		h.dramAccesses++
	}
	// Dirty evictions drain through a write buffer; charge a small constant.
	if wb || wb2 {
		cycles += 2
	}
	return cycles
}

// Fetch models an instruction fetch of size bytes at pa.
func (h *Hierarchy) Fetch(pa, size uint64) uint64 { return h.walk(h.L1I, pa, size, false) }

// FetchLine returns the L1I line index containing pa, for callers that
// detect same-line instruction fetches and batch them with FetchRepeats.
func (h *Hierarchy) FetchLine(pa uint64) uint64 { return h.L1I.lineAddr(pa) }

// FetchRepeats applies n instruction fetches of the L1I line lineAddr,
// which must be the line the most recent L1I access ended on: the caller
// has just fetched it (filling it if needed) and has issued no other L1I
// access or Flush since. Nothing but instruction fetches touches L1I
// state, so each fetch would be a latch hit whose only effects are the
// clock tick, the access count, and the LRU stamp; the n of them join the
// deferred batch, which applies them with exactly those effects. Returns
// the cycle charge, n times the L1I hit latency.
func (h *Hierarchy) FetchRepeats(lineAddr, n uint64) uint64 {
	c := h.L1I
	if !c.latchHit(lineAddr, n, false) {
		panic("cache: FetchRepeats on a line other than the last fetched")
	}
	return n * c.cfg.HitLatency
}

// DataHit attempts a data access as a latch hit alone: a non-spanning
// access to the latched line joins the deferred batch and returns its hit
// latency with ok true; anything else returns ok false having changed
// nothing, and the caller issues the access through Data. It is the CPU's
// probe on its scalar access path, small enough to inline there, where a
// call per retired memory instruction is measurable.
func (c *Cache) DataHit(pa, size uint64, write bool) (cycles uint64, ok bool) {
	if pa&c.lineMask+size > c.cfg.LineSize || !c.latchHit(pa>>c.lineShift, 1, write) {
		return 0, false
	}
	return c.cfg.HitLatency, true
}

// Data models a data access of size bytes at pa. Bulk movers (the uaccess
// page-run walker) pass whole runs; each spanned line is one access.
func (h *Hierarchy) Data(pa, size uint64, write bool) uint64 { return h.walk(h.L1D, pa, size, write) }

// Flush invalidates the whole hierarchy.
func (h *Hierarchy) Flush() {
	h.L1I.Flush()
	h.L1D.Flush()
	h.L2.Flush()
}

// ResetStats zeroes statistics at every level.
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.dramAccesses = 0
}
