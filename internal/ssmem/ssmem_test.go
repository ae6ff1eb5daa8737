package ssmem

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pmem"
)

func newHeap(t testing.TB, mode pmem.Mode) *pmem.Heap {
	t.Helper()
	return pmem.New(pmem.Config{Bytes: 8 << 20, Mode: mode, MaxThreads: 8})
}

func TestAllocDistinctAlignedZeroed(t *testing.T) {
	h := newHeap(t, pmem.ModePerf)
	p := NewPool(h, Config{SlotBytes: 64, SlotsPerArea: 16, Threads: 2, RootSlot: 0})
	seen := map[pmem.Addr]bool{}
	for i := 0; i < 100; i++ {
		a := p.Alloc(0)
		if a%64 != 0 {
			t.Fatalf("slot %d not line aligned", a)
		}
		if seen[a] {
			t.Fatalf("slot %d allocated twice", a)
		}
		seen[a] = true
		for w := pmem.Addr(0); w < 64; w += 8 {
			if h.Load(0, a+w) != 0 {
				t.Fatalf("fresh slot %d not zeroed at +%d", a, w)
			}
		}
	}
	if p.AreaCount() < 100/16 {
		t.Fatalf("expected multiple areas, got %d", p.AreaCount())
	}
}

func TestRetireReuseAfterEpochs(t *testing.T) {
	h := newHeap(t, pmem.ModePerf)
	p := NewPool(h, Config{SlotBytes: 64, SlotsPerArea: 8, Threads: 1, RootSlot: 0})
	a := p.Alloc(0)
	p.Enter(0)
	p.Retire(0, a)
	p.Exit(0)
	// Cycle enough retire/advance rounds for the limbo to mature.
	for i := 0; i < 10*retireAdvanceN; i++ {
		p.Enter(0)
		b := p.Alloc(0)
		p.Retire(0, b)
		p.Exit(0)
	}
	if p.FreeLen(0) == 0 {
		t.Fatal("nothing was ever reclaimed")
	}
}

func TestEBRBlocksReuseWhileActive(t *testing.T) {
	h := newHeap(t, pmem.ModePerf)
	p := NewPool(h, Config{SlotBytes: 64, SlotsPerArea: 8, Threads: 2, RootSlot: 0})
	victim := p.Alloc(1)

	p.Enter(0) // thread 0 holds an epoch open, as if mid-operation
	p.Enter(1)
	p.Retire(1, victim)
	p.Exit(1)

	// Thread 1 churns; the victim must never be handed out while
	// thread 0 is still inside its operation.
	for i := 0; i < 5*retireAdvanceN; i++ {
		p.Enter(1)
		b := p.Alloc(1)
		if b == victim {
			t.Fatal("victim reused while another thread was active in an older epoch")
		}
		p.Retire(1, b)
		p.Exit(1)
	}
	p.Exit(0)
	// Now reuse must eventually happen.
	reused := false
	for i := 0; i < 20*retireAdvanceN && !reused; i++ {
		p.Enter(1)
		b := p.Alloc(1)
		if b == victim {
			reused = true
		}
		p.Retire(1, b)
		p.Exit(1)
	}
	if !reused {
		t.Fatal("victim never reclaimed after all threads exited")
	}
}

func TestConcurrentAllocNoDoubleHandout(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 32 << 20, MaxThreads: 8})
	const threads, per = 4, 2000
	p := NewPool(h, Config{SlotBytes: 64, SlotsPerArea: 128, Threads: threads, RootSlot: 0})
	var mu sync.Mutex
	seen := map[pmem.Addr]int{}
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			local := make([]pmem.Addr, 0, per)
			for i := 0; i < per; i++ {
				p.Enter(tid)
				local = append(local, p.Alloc(tid))
				p.Exit(tid)
			}
			mu.Lock()
			for _, a := range local {
				seen[a]++
			}
			mu.Unlock()
		}(tid)
	}
	wg.Wait()
	for a, n := range seen {
		if n != 1 {
			t.Fatalf("slot %d handed out %d times", a, n)
		}
	}
	if len(seen) != threads*per {
		t.Fatalf("expected %d distinct slots, got %d", threads*per, len(seen))
	}
}

func TestRecoverPoolRebuildsFreeLists(t *testing.T) {
	h := newHeap(t, pmem.ModeCrash)
	cfg := Config{SlotBytes: 64, SlotsPerArea: 16, Threads: 2, RootSlot: 0}
	p := NewPool(h, cfg)
	liveSet := map[pmem.Addr]bool{}
	for i := 0; i < 40; i++ {
		a := p.Alloc(0)
		if i%3 == 0 {
			liveSet[a] = true // pretend these are still in the structure
		}
	}
	total := p.AreaCount() * cfg.SlotsPerArea

	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(1)))
	h.Restart()

	seen := 0
	rp := RecoverPool(h, cfg, func(a pmem.Addr) bool {
		seen++
		return liveSet[a]
	})
	if seen != total {
		t.Fatalf("live() saw %d slots, want %d", seen, total)
	}
	free := rp.FreeLen(0) + rp.FreeLen(1) + rp.SharedLen()
	if free != total-len(liveSet) {
		t.Fatalf("recovered free slots = %d, want %d", free, total-len(liveSet))
	}
	// Recovered free slots must be usable and disjoint from live ones.
	for i := 0; i < free; i++ {
		a := rp.Alloc(i % 2)
		if liveSet[a] {
			t.Fatalf("recovery handed out live slot %d", a)
		}
	}
}

func TestRecoverPoolSurvivesCrashBeforeAnyArea(t *testing.T) {
	h := newHeap(t, pmem.ModeCrash)
	cfg := Config{SlotBytes: 64, SlotsPerArea: 16, Threads: 1, RootSlot: 3}
	NewPool(h, cfg)
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(2)))
	h.Restart()
	rp := RecoverPool(h, cfg, func(pmem.Addr) bool { return false })
	if rp.AreaCount() != 0 {
		t.Fatalf("expected 0 areas, got %d", rp.AreaCount())
	}
	if a := rp.Alloc(0); a == 0 {
		t.Fatal("Alloc after empty recovery returned nil addr")
	}
}

func TestNewPoolPanicsOnUsedRootSlot(t *testing.T) {
	h := newHeap(t, pmem.ModePerf)
	cfg := Config{SlotBytes: 64, Threads: 1, RootSlot: 0}
	NewPool(h, cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool on used root slot did not panic")
		}
	}()
	NewPool(h, cfg)
}

func TestFreshSlotsArePersistentlyZero(t *testing.T) {
	// The paper relies on designated areas being zeroed *in NVRAM* so
	// recovery ignores never-used slots even right after a crash.
	h := newHeap(t, pmem.ModeCrash)
	p := NewPool(h, Config{SlotBytes: 64, SlotsPerArea: 8, Threads: 1, RootSlot: 0})
	a := p.Alloc(0)
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(3)))
	for w := pmem.Addr(0); w < 64; w += 8 {
		if h.RawImg(a+w) != 0 {
			t.Fatalf("fresh slot not zero in NVRAM image at +%d", w)
		}
	}
}
