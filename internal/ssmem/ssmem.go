// Package ssmem is a durable, epoch-based memory manager for
// fixed-size nodes in simulated persistent memory, modelled on the
// ssmem allocator the paper adopts from Zuriel et al. (Section 9).
//
// Nodes are allocated from designated areas: large, cache-line aligned
// regions carved out of the persistent heap, zeroed and persisted on
// creation so that never-used slots are ignored by recovery
// procedures. A persistent area registry lets recovery enumerate every
// slot that was ever handed to the data structure. Each thread owns a
// volatile free list; reclamation is deferred through a three-epoch
// EBR scheme so that a node is only reused once no operation that
// might still reference it is in flight.
//
// Unlike Zuriel et al.'s per-thread-only design, the pool also keeps a
// shared stack of drained limbo buckets. A thread that only retires
// (a broker consumer) would otherwise pile up free slots that no
// allocating thread (a broker producer) ever sees, and the producer
// would carve and zero fresh areas forever. Once a retiring thread's
// free list holds a small reserve, each further bucket that matures is
// pushed whole onto the shared stack, and an allocating thread whose
// free list and area are both empty steals one bucket before it
// carves a new area. A bucket reaches the stack only through the same
// two-epoch test that would put it on the retiring thread's free list,
// so the hand-off changes which thread reuses a slot, never when.
package ssmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/pmem"
)

// Config parameterizes a Pool.
type Config struct {
	// SlotBytes is the node size; it must be a multiple of the cache
	// line size (all queues in this repository use exactly one line
	// per node, per the paper's footnote 3).
	SlotBytes int
	// SlotsPerArea is the number of nodes per designated area
	// (default 4096).
	SlotsPerArea int
	// Threads is the number of thread ids that will use the pool.
	Threads int
	// RootSlot is the pmem root slot that anchors the persistent
	// area registry, so recovery can find it after a crash.
	RootSlot int
	// InitTid is the thread id NewPool charges its construction
	// persists to (registry allocation, root-slot anchor). Default 0 —
	// fine for quiescent construction; a pool created while other
	// threads run (e.g. a broker topic created on a live system) must
	// use a tid owned by the constructing goroutine, because fences are
	// per-thread. Must be in [0, Threads).
	InitTid int
}

const (
	maxAreas       = 4096
	regEntryWords  = 2 // base, slots (slot size is in the pool config)
	retireAdvanceN = 64
	ebrIdle        = ^uint64(0)
	// freeReserve is how many free slots a retiring thread keeps for
	// itself before it hands matured limbo buckets to the shared stack.
	freeReserve = 2 * retireAdvanceN
)

type ebrSlot struct {
	announce atomic.Uint64
	_        [56]byte
}

type limboBucket struct {
	epoch uint64
	addrs []pmem.Addr
}

type threadState struct {
	free     []pmem.Addr
	areaNext pmem.Addr
	areaEnd  pmem.Addr
	limbo    []limboBucket
	retires  uint64
	_        [40]byte
}

// Pool is a durable fixed-size allocator. Methods taking a tid are
// safe for concurrent use as long as each tid is driven by one
// goroutine at a time.
type Pool struct {
	h       *pmem.Heap
	cfg     Config
	regAddr pmem.Addr
	areaMu  sync.Mutex
	epoch   atomic.Uint64
	slots   []ebrSlot
	per     []threadState
	// shared holds matured slot buckets any thread may allocate from:
	// the cross-thread return path. Touched once per bucket, not once
	// per slot, so a mutex is cheap enough.
	sharedMu sync.Mutex
	shared   [][]pmem.Addr
}

func validate(cfg *Config) {
	if cfg.SlotBytes <= 0 || cfg.SlotBytes%pmem.CacheLineBytes != 0 {
		panic(fmt.Sprintf("ssmem: SlotBytes %d must be a positive multiple of %d", cfg.SlotBytes, pmem.CacheLineBytes))
	}
	if cfg.SlotsPerArea == 0 {
		cfg.SlotsPerArea = 4096
	}
	if cfg.Threads <= 0 {
		panic("ssmem: Threads must be positive")
	}
	if cfg.InitTid < 0 || cfg.InitTid >= cfg.Threads {
		panic(fmt.Sprintf("ssmem: InitTid %d out of range [0,%d)", cfg.InitTid, cfg.Threads))
	}
}

// NewPool creates a fresh pool anchored at cfg.RootSlot. The root slot
// must be empty (use RecoverPool after a crash).
func NewPool(h *pmem.Heap, cfg Config) *Pool {
	validate(&cfg)
	p := newPoolCommon(h, cfg)
	tid := cfg.InitTid
	root := h.RootAddr(cfg.RootSlot)
	if h.Load(tid, root) != 0 {
		panic("ssmem: NewPool on a non-empty root slot (did you mean RecoverPool?)")
	}
	regBytes := int64((1 + maxAreas*regEntryWords) * pmem.WordBytes)
	regBytes = (regBytes + pmem.CacheLineBytes - 1) &^ (pmem.CacheLineBytes - 1)
	p.regAddr = h.AllocRaw(tid, regBytes, pmem.CacheLineBytes)
	h.InitRange(tid, p.regAddr, regBytes)
	h.Store(tid, root, uint64(p.regAddr))
	h.Persist(tid, root)
	return p
}

// RecoverPool re-attaches to the pool anchored at cfg.RootSlot after a
// crash and restart. live reports whether a slot is still owned by the
// recovered data structure; every non-live slot is pushed onto the
// shared stack in buckets of retireAdvanceN, so whichever thread
// allocates first reuses them. live is invoked exactly once per slot
// ever allocated from the registry's areas.
func RecoverPool(h *pmem.Heap, cfg Config, live func(pmem.Addr) bool) *Pool {
	validate(&cfg)
	p := newPoolCommon(h, cfg)
	root := h.RootAddr(cfg.RootSlot)
	p.regAddr = pmem.Addr(h.Load(0, root))
	if p.regAddr == 0 {
		panic("ssmem: RecoverPool on an empty root slot")
	}
	var bucket []pmem.Addr
	p.forEachSlot(func(a pmem.Addr) {
		if live(a) {
			return
		}
		bucket = append(bucket, a)
		if len(bucket) == retireAdvanceN {
			p.shared = append(p.shared, bucket)
			bucket = nil
		}
	})
	if len(bucket) > 0 {
		p.shared = append(p.shared, bucket)
	}
	return p
}

func newPoolCommon(h *pmem.Heap, cfg Config) *Pool {
	p := &Pool{
		h:     h,
		cfg:   cfg,
		slots: make([]ebrSlot, cfg.Threads),
		per:   make([]threadState, cfg.Threads),
	}
	for i := range p.slots {
		p.slots[i].announce.Store(ebrIdle)
	}
	return p
}

// Heap returns the underlying persistent heap.
func (p *Pool) Heap() *pmem.Heap { return p.h }

// SlotBytes returns the configured node size.
func (p *Pool) SlotBytes() int { return p.cfg.SlotBytes }

// Enter begins an EBR-protected operation for tid. Every data
// structure operation must be bracketed by Enter/Exit so reclaimed
// nodes are not reused while the operation may still reference them.
func (p *Pool) Enter(tid int) {
	p.slots[tid].announce.Store(p.epoch.Load())
}

// Exit ends tid's EBR-protected operation.
func (p *Pool) Exit(tid int) {
	p.slots[tid].announce.Store(ebrIdle)
}

// Alloc returns a node slot for tid: from tid's free list, else the
// rest of tid's current area, else a bucket stolen from the shared
// stack, else a fresh area. Freshly created areas are zeroed and
// persisted (a single fence per area), so first-time slots are
// persistently zero; reused slots retain their previous contents, as
// on real hardware.
func (p *Pool) Alloc(tid int) pmem.Addr {
	ts := &p.per[tid]
	if len(ts.free) == 0 {
		if ts.areaNext < ts.areaEnd {
			a := ts.areaNext
			ts.areaNext += pmem.Addr(p.cfg.SlotBytes)
			return a
		}
		if !p.steal(ts) {
			p.newArea(tid)
			a := ts.areaNext
			ts.areaNext += pmem.Addr(p.cfg.SlotBytes)
			return a
		}
	}
	n := len(ts.free)
	a := ts.free[n-1]
	ts.free = ts.free[:n-1]
	p.clearSlotState(a)
	return a
}

// steal moves one bucket from the shared stack onto ts's (empty) free
// list and reports whether there was one.
func (p *Pool) steal(ts *threadState) bool {
	p.sharedMu.Lock()
	n := len(p.shared)
	if n == 0 {
		p.sharedMu.Unlock()
		return false
	}
	b := p.shared[n-1]
	p.shared[n-1] = nil
	p.shared = p.shared[:n-1]
	p.sharedMu.Unlock()
	ts.free = b
	return true
}

// clearSlotState resets the cache-simulation state of a recycled
// slot's lines: re-populating a recycled node is an allocation cold
// miss common to all algorithms, not a post-flush access.
func (p *Pool) clearSlotState(a pmem.Addr) {
	for off := 0; off < p.cfg.SlotBytes; off += pmem.CacheLineBytes {
		p.h.ClearLineState(a + pmem.Addr(off))
	}
}

// Retire hands a node to the EBR machinery; once two epoch advances
// prove no concurrent operation can still hold a reference, it
// reappears on tid's free list or, if that already holds its reserve,
// on the shared stack.
func (p *Pool) Retire(tid int, a pmem.Addr) {
	ts := &p.per[tid]
	e := p.epoch.Load()
	p.drainLimbo(ts, e)
	if n := len(ts.limbo); n == 0 || ts.limbo[n-1].epoch != e {
		ts.limbo = append(ts.limbo, limboBucket{epoch: e})
	}
	b := &ts.limbo[len(ts.limbo)-1]
	b.addrs = append(b.addrs, a)
	ts.retires++
	if ts.retires%retireAdvanceN == 0 {
		p.tryAdvance()
	}
}

// FreeImmediate returns a node straight to tid's free list. Only safe
// when no concurrent operation can reference it (e.g. during
// single-threaded recovery).
func (p *Pool) FreeImmediate(tid int, a pmem.Addr) {
	p.per[tid].free = append(p.per[tid].free, a)
}

func (p *Pool) drainLimbo(ts *threadState, e uint64) {
	for len(ts.limbo) > 0 && ts.limbo[0].epoch+2 <= e {
		if len(ts.free) < freeReserve {
			ts.free = append(ts.free, ts.limbo[0].addrs...)
		} else {
			p.sharedMu.Lock()
			p.shared = append(p.shared, ts.limbo[0].addrs)
			p.sharedMu.Unlock()
		}
		ts.limbo = ts.limbo[1:]
	}
}

func (p *Pool) tryAdvance() {
	e := p.epoch.Load()
	for i := range p.slots {
		a := p.slots[i].announce.Load()
		if a != ebrIdle && a != e {
			return
		}
	}
	p.epoch.CompareAndSwap(e, e+1)
}

func (p *Pool) newArea(tid int) {
	p.areaMu.Lock()
	defer p.areaMu.Unlock()
	size := int64(p.cfg.SlotBytes) * int64(p.cfg.SlotsPerArea)
	base := p.h.AllocRaw(tid, size, pmem.CacheLineBytes)
	p.h.InitRange(tid, base, size)

	count := p.h.Load(tid, p.regAddr)
	if count >= maxAreas {
		panic("ssmem: area registry full")
	}
	entry := p.regAddr + pmem.Addr((1+count*regEntryWords)*pmem.WordBytes)
	p.h.Store(tid, entry, uint64(base))
	p.h.Store(tid, entry+pmem.WordBytes, uint64(p.cfg.SlotsPerArea))
	p.h.Flush(tid, entry)
	p.h.Flush(tid, entry+pmem.WordBytes)
	p.h.Fence(tid)
	p.h.Store(tid, p.regAddr, count+1)
	p.h.Persist(tid, p.regAddr)

	ts := &p.per[tid]
	ts.areaNext = base
	ts.areaEnd = base + pmem.Addr(size)
}

// ForEachSlot invokes fn for every slot in every registered area,
// reading the registry from the (restarted) heap. Intended for
// recovery scans; call only while the pool's heap is quiescent.
func (p *Pool) ForEachSlot(fn func(pmem.Addr)) { p.forEachSlot(fn) }

func (p *Pool) forEachSlot(fn func(pmem.Addr)) {
	count := p.h.Load(0, p.regAddr)
	for i := uint64(0); i < count; i++ {
		entry := p.regAddr + pmem.Addr((1+i*regEntryWords)*pmem.WordBytes)
		base := pmem.Addr(p.h.Load(0, entry))
		slots := p.h.Load(0, entry+pmem.WordBytes)
		for s := uint64(0); s < slots; s++ {
			fn(base + pmem.Addr(s*uint64(p.cfg.SlotBytes)))
		}
	}
}

// AreaCount reports how many designated areas have been registered.
func (p *Pool) AreaCount() int { return int(p.h.Load(0, p.regAddr)) }

// Area describes one registered designated area.
type Area struct {
	Base  pmem.Addr
	Slots int
}

// Areas reads the persistent area registry anchored at cfg.RootSlot
// without constructing a pool. Recovery procedures that must validate
// untrusted node addresses before deciding slot liveness use this to
// break the pool/liveness ordering cycle.
func Areas(h *pmem.Heap, cfg Config) []Area {
	validate(&cfg)
	regAddr := pmem.Addr(h.Load(0, h.RootAddr(cfg.RootSlot)))
	if regAddr == 0 {
		return nil
	}
	count := h.Load(0, regAddr)
	out := make([]Area, 0, count)
	for i := uint64(0); i < count; i++ {
		entry := regAddr + pmem.Addr((1+i*regEntryWords)*pmem.WordBytes)
		out = append(out, Area{
			Base:  pmem.Addr(h.Load(0, entry)),
			Slots: int(h.Load(0, entry+pmem.WordBytes)),
		})
	}
	return out
}

// ValidSlot reports whether a is a properly aligned slot address
// inside one of the areas.
func ValidSlot(areas []Area, slotBytes int, a pmem.Addr) bool {
	for _, ar := range areas {
		end := ar.Base + pmem.Addr(ar.Slots*slotBytes)
		if a >= ar.Base && a < end && (a-ar.Base)%pmem.Addr(slotBytes) == 0 {
			return true
		}
	}
	return false
}

// FreeLen reports the length of tid's free list (excluding limbo and
// the shared stack). Intended for tests.
func (p *Pool) FreeLen(tid int) int { return len(p.per[tid].free) }

// SharedLen reports how many slots wait on the shared stack. Intended
// for tests.
func (p *Pool) SharedLen() int {
	p.sharedMu.Lock()
	defer p.sharedMu.Unlock()
	n := 0
	for _, b := range p.shared {
		n += len(b)
	}
	return n
}
