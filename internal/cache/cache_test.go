package cache

import "testing"

func TestColdMissThenHit(t *testing.T) {
	c := New(Config{Name: "t", Size: 1 << 10, LineSize: 64, Ways: 2, HitLatency: 1})
	if hit, _ := c.access(0x100, false); hit {
		t.Fatal("cold access hit")
	}
	if hit, _ := c.access(0x100, false); !hit {
		t.Fatal("warm access missed")
	}
	if hit, _ := c.access(0x13F, false); !hit {
		t.Fatal("same line access missed")
	}
	if hit, _ := c.access(0x140, false); hit {
		t.Fatal("next line hit while cold")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Misses != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 64B lines, 2 sets -> 256B cache.
	c := New(Config{Name: "t", Size: 256, LineSize: 64, Ways: 2, HitLatency: 1})
	// Three lines mapping to set 0 (stride 128).
	c.access(0x000, false)
	c.access(0x080, false)
	c.access(0x000, false) // touch A so B is LRU
	c.access(0x100, false) // evicts B
	if hit, _ := c.access(0x000, false); !hit {
		t.Fatal("A should still be resident")
	}
	if hit, _ := c.access(0x080, false); hit {
		t.Fatal("B should have been evicted")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := New(Config{Name: "t", Size: 128, LineSize: 64, Ways: 1, HitLatency: 1})
	c.access(0x000, true)                     // dirty
	if _, wb := c.access(0x080, false); !wb { // conflict evicts dirty line
		t.Fatal("dirty eviction did not write back")
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := DefaultHierarchy()
	// Cold: L1 miss + L2 miss -> 1 + 9 + 50.
	if got := h.Data(0x1000, 8, false); got != 60 {
		t.Fatalf("cold access cost %d, want 60", got)
	}
	// Warm: L1 hit -> 1.
	if got := h.Data(0x1000, 8, false); got != 1 {
		t.Fatalf("warm access cost %d, want 1", got)
	}
	if h.DRAMAccesses() != 1 {
		t.Fatalf("dram accesses = %d", h.DRAMAccesses())
	}
}

func TestStraddlingAccessTouchesTwoLines(t *testing.T) {
	h := DefaultHierarchy()
	cost := h.Data(0x103C, 8, false) // crosses the 0x1040 line boundary
	if cost != 120 {
		t.Fatalf("straddling cold access cost %d, want 120", cost)
	}
}

func TestL2SharedBetweenIAndD(t *testing.T) {
	h := DefaultHierarchy()
	h.Fetch(0x2000, 4)                              // fills L2
	if got := h.Data(0x2000, 4, false); got != 10 { // L1D miss, L2 hit
		t.Fatalf("L2 shared access cost %d, want 10", got)
	}
}

func TestFlushAndReset(t *testing.T) {
	h := DefaultHierarchy()
	h.Data(0x1000, 8, false)
	h.Flush()
	h.ResetStats()
	if got := h.Data(0x1000, 8, false); got != 60 {
		t.Fatalf("post-flush access cost %d, want 60", got)
	}
	if h.L1D.Stats().Accesses != 1 {
		t.Fatalf("stats not reset")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"size not a multiple of a set", Config{Size: 100, LineSize: 64, Ways: 4}},
		{"no sets", Config{Size: 0, LineSize: 64, Ways: 4}},
		{"line size not a power of two", Config{Size: 2 * 48 * 4, LineSize: 48, Ways: 4}},
		{"set count not a power of two", Config{Size: 3 * 64 * 4, LineSize: 64, Ways: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%+v) did not panic", tc.cfg)
				}
			}()
			tc.cfg.Name = "bad"
			New(tc.cfg)
		})
	}
	// Associativity need not be a power of two: only line and set
	// addressing are shift/mask.
	New(Config{Name: "3-way", Size: 4 * 64 * 3, LineSize: 64, Ways: 3})
}

// refCache is the oracle for one cache level: every access scans its set
// and updates the clock, counters, LRU stamp and dirty bit on the spot.
// It has no latch and no deferred batch, and addresses by division.
type refCache struct {
	cfg   Config
	sets  [][]line
	clock uint64
	stats Stats
}

func newRefCache(cfg Config) *refCache {
	sets := make([][]line, cfg.Size/(cfg.LineSize*cfg.Ways))
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &refCache{cfg: cfg, sets: sets}
}

func (c *refCache) access(pa uint64, write bool) (hit, writeback bool) {
	la := pa / c.cfg.LineSize
	set := c.sets[la%uint64(len(c.sets))]
	c.clock++
	c.stats.Accesses++
	for i := range set {
		if set[i].valid && set[i].tag == la {
			set[i].lru = c.clock
			set[i].dirty = set[i].dirty || write
			return true, false
		}
	}
	c.stats.Misses++
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := range set {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
		if set[victim].dirty {
			writeback = true
			c.stats.Writebacks++
		}
	}
	set[victim] = line{valid: true, dirty: write, tag: la, lru: c.clock}
	return false, writeback
}

// refHierarchy is the oracle hierarchy: the L1 -> L2 -> DRAM walk of
// Hierarchy over refCache levels.
type refHierarchy struct {
	l1i, l1d, l2 *refCache
	dramLatency  uint64
	dramAccesses uint64
}

func (h *refHierarchy) access(l1 *refCache, pa, size uint64, write bool) uint64 {
	if size == 0 {
		size = 1
	}
	ls := l1.cfg.LineSize
	var cycles uint64
	for la := pa / ls; la <= (pa+size-1)/ls; la++ {
		cycles += l1.cfg.HitLatency
		hit, wb := l1.access(la*ls, write)
		if hit {
			continue
		}
		cycles += h.l2.cfg.HitLatency
		hit2, wb2 := h.l2.access(la*ls, false)
		if !hit2 {
			cycles += h.dramLatency
			h.dramAccesses++
		}
		if wb || wb2 {
			cycles += 2
		}
	}
	return cycles
}

// fuzzGeometries are the hierarchies FuzzHierarchy drives: two small ones
// whose few sets make conflict evictions common (the second with L1 lines
// narrower than L2's), and the paper's.
var fuzzGeometries = []func() *Hierarchy{
	func() *Hierarchy {
		return &Hierarchy{
			L1I:         New(Config{Name: "L1I", Size: 256, LineSize: 64, Ways: 2, HitLatency: 1}),
			L1D:         New(Config{Name: "L1D", Size: 256, LineSize: 64, Ways: 2, HitLatency: 1}),
			L2:          New(Config{Name: "L2", Size: 1024, LineSize: 64, Ways: 4, HitLatency: 9}),
			DRAMLatency: 50,
		}
	},
	func() *Hierarchy {
		return &Hierarchy{
			L1I:         New(Config{Name: "L1I", Size: 128, LineSize: 32, Ways: 2, HitLatency: 1}),
			L1D:         New(Config{Name: "L1D", Size: 192, LineSize: 16, Ways: 3, HitLatency: 2}),
			L2:          New(Config{Name: "L2", Size: 512, LineSize: 64, Ways: 2, HitLatency: 7}),
			DRAMLatency: 40,
		}
	},
	DefaultHierarchy,
}

// Fuzz operations: each is fuzzOpLen input bytes [op, addr lo, addr hi,
// size, flags].
const (
	opFetch = iota
	opFetchRepeats
	opData
	opDataHit
	opStats
	opResetStats
	opFlush
	numOps

	fuzzOpLen = 5
)

func fuzzOp(op byte, addr uint64, size, flags byte) []byte {
	return []byte{op, byte(addr), byte(addr >> 8), size, flags}
}

// fuzzInput encodes a geometry index and a sequence of operations.
func fuzzInput(geom byte, ops ...[]byte) []byte {
	b := []byte{geom}
	for _, op := range ops {
		b = append(b, op...)
	}
	return b
}

// FuzzHierarchy drives Hierarchy and the refHierarchy oracle through the
// same interleaving of Fetch, FetchRepeats, Data, DataHit, Stats,
// ResetStats and Flush, and requires every returned cycle count, every
// Stats read, DRAMAccesses and the final contents of every set (tags,
// dirty bits and LRU stamps, hence LRU order) to match.
func FuzzHierarchy(f *testing.F) {
	const a, b = 0x100, 0x140 // adjacent lines
	var sameLine [][]byte
	sameLine = append(sameLine, fuzzOp(opFetch, a, 4, 0), fuzzOp(opFetchRepeats, 0, 15, 0),
		fuzzOp(opFetch, a+0x3e, 4, 0), fuzzOp(opFetchRepeats, 0, 3, 0))
	for i := uint64(0); i < 8; i++ {
		sameLine = append(sameLine, fuzzOp(opDataHit, a+8*i, 8, byte(i&1)), fuzzOp(opData, a+4*i, 4, 0))
	}
	sameLine = append(sameLine, fuzzOp(opStats, 0, 0, 0), fuzzOp(opDataHit, a+0x3c, 8, 0), fuzzOp(opStats, 0, 0, 0))
	var pingPong [][]byte
	for i := 0; i < 8; i++ {
		pingPong = append(pingPong, fuzzOp(opData, a, 8, byte(i&1)), fuzzOp(opDataHit, b+8, 8, 0),
			fuzzOp(opData, b, 8, 0), fuzzOp(opFetch, a, 4, 0), fuzzOp(opFetch, b, 4, 0))
	}
	pingPong = append(pingPong, fuzzOp(opStats, 0, 0, 0))
	// Geometry 0's L1D has 2 sets of 2 ways, so lines 0x000, 0x080 and
	// 0x100 share set 0: the third fill evicts the dirty first line.
	dirtyEvict := [][]byte{
		fuzzOp(opData, 0x000, 8, 1), fuzzOp(opData, 0x080, 8, 0), fuzzOp(opStats, 0, 0, 0),
		fuzzOp(opData, 0x100, 8, 0), fuzzOp(opStats, 0, 0, 0), fuzzOp(opData, 0x000, 8, 0),
		fuzzOp(opData, 0x008, 8, 0), fuzzOp(opResetStats, 0, 0, 0), fuzzOp(opData, 0x0f8, 16, 1),
		fuzzOp(opData, 0x108, 8, 1), fuzzOp(opFlush, 0, 0, 0), fuzzOp(opData, 0x000, 8, 0),
		fuzzOp(opData, 0x080, 8, 0), fuzzOp(opStats, 0, 0, 0),
	}
	for geom := byte(0); geom < byte(len(fuzzGeometries)); geom++ {
		f.Add(fuzzInput(geom, sameLine...))
		f.Add(fuzzInput(geom, pingPong...))
		f.Add(fuzzInput(geom, dirtyEvict...))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		h := fuzzGeometries[int(in[0])%len(fuzzGeometries)]()
		ref := &refHierarchy{
			l1i:         newRefCache(h.L1I.cfg),
			l1d:         newRefCache(h.L1D.cfg),
			l2:          newRefCache(h.L2.cfg),
			dramLatency: h.DRAMLatency,
		}
		check := func(what string, got, want uint64) {
			t.Helper()
			if got != want {
				t.Fatalf("%s = %d, oracle %d", what, got, want)
			}
		}
		checkStats := func() {
			t.Helper()
			for _, lv := range []struct {
				c   *Cache
				ref *refCache
			}{{h.L1I, ref.l1i}, {h.L1D, ref.l1d}, {h.L2, ref.l2}} {
				if got, want := lv.c.Stats(), lv.ref.stats; got != want {
					t.Fatalf("%s stats = %+v, oracle %+v", lv.c.cfg.Name, got, want)
				}
			}
			check("DRAMAccesses", h.DRAMAccesses(), ref.dramAccesses)
		}

		// The L1I line the last Fetch ended on, the only line FetchRepeats
		// may name, and the last L1D line accessed, which DataHit must hit
		// exactly when a non-spanning access names it.
		var fetchLine, dataLine uint64
		haveFetch, haveData := false, false
		for ops := in[1:]; len(ops) >= fuzzOpLen; ops = ops[fuzzOpLen:] {
			addr := (uint64(ops[1]) | uint64(ops[2])<<8) & 0x3fff
			size, flags := uint64(ops[3]), ops[4]
			write := flags&1 != 0
			switch ops[0] % numOps {
			case opFetch:
				size = 1 + size%16
				check("Fetch", h.Fetch(addr, size), ref.access(ref.l1i, addr, size, false))
				fetchLine, haveFetch = h.FetchLine(addr+size-1), true
			case opFetchRepeats:
				if !haveFetch {
					continue
				}
				n := 1 + size%32
				var want uint64
				for i := uint64(0); i < n; i++ {
					want += ref.access(ref.l1i, fetchLine*h.L1I.cfg.LineSize, 1, false)
				}
				check("FetchRepeats", h.FetchRepeats(fetchLine, n), want)
			case opData:
				if flags&2 != 0 {
					size *= 37 // multi-line runs, as uaccess issues
				}
				check("Data", h.Data(addr, size, write), ref.access(ref.l1d, addr, size, write))
				dataLine, haveData = h.L1D.lineAddr(addr+max(size, 1)-1), true
			case opDataHit:
				size = 1 + size%16
				ls := h.L1D.cfg.LineSize
				want := haveData && addr%ls+size <= ls && addr/ls == dataLine
				cycles, ok := h.L1D.DataHit(addr, size, write)
				if ok != want {
					t.Fatalf("DataHit(%#x, %d) ok = %v, want %v (last L1D line %#x)", addr, size, ok, want, dataLine)
				}
				if !ok {
					cycles = h.Data(addr, size, write)
				}
				check("DataHit", cycles, ref.access(ref.l1d, addr, size, write))
				dataLine, haveData = h.L1D.lineAddr(addr+size-1), true
			case opStats:
				checkStats()
			case opResetStats:
				h.ResetStats()
				ref.l1i.stats, ref.l1d.stats, ref.l2.stats = Stats{}, Stats{}, Stats{}
				ref.dramAccesses = 0
			case opFlush:
				h.Flush()
				for _, rc := range []*refCache{ref.l1i, ref.l1d, ref.l2} {
					for _, set := range rc.sets {
						clear(set)
					}
				}
				haveFetch, haveData = false, false
			}
		}
		checkStats()
		for _, lv := range []struct {
			c   *Cache
			ref *refCache
		}{{h.L1I, ref.l1i}, {h.L1D, ref.l1d}, {h.L2, ref.l2}} {
			for i, set := range lv.c.sets {
				for w := range set {
					if set[w] != lv.ref.sets[i][w] {
						t.Fatalf("%s set %d way %d = %+v, oracle %+v", lv.c.cfg.Name, i, w, set[w], lv.ref.sets[i][w])
					}
				}
			}
		}
	})
}
