package ssmem

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/pmem"
)

// TestSplitAllocRetirePlateau is the broker's producer/consumer shape:
// every slot is allocated on tid 0 and retired on tid 1. Without the
// shared bucket stack tid 0 never sees a recycled slot and carves one
// area per SlotsPerArea pairs; with it the area count plateaus.
func TestSplitAllocRetirePlateau(t *testing.T) {
	h := newHeap(t, pmem.ModePerf)
	const slotsPerArea = 256
	p := NewPool(h, Config{SlotBytes: 64, SlotsPerArea: slotsPerArea, Threads: 2, RootSlot: 0})
	for i := 0; i < 20*slotsPerArea; i++ {
		p.Enter(0)
		a := p.Alloc(0)
		p.Exit(0)
		p.Enter(1)
		p.Retire(1, a)
		p.Exit(1)
	}
	if n := p.AreaCount(); n > 2 {
		t.Fatalf("split alloc/retire carved %d areas over %d pairs, want <= 2", n, 20*slotsPerArea)
	}
	if p.FreeLen(1) > freeReserve+retireAdvanceN {
		t.Fatalf("retire-only tid holds %d free slots, want at most its reserve", p.FreeLen(1))
	}
}

// TestQuickHandoffKeepsTwoEpochRule drives random alloc/retire traffic
// split across tids 0 and 2 while tid 1 repeatedly parks inside an
// EBR-protected operation. While tid 1 is parked at announced epoch P,
// no slot retired at epoch >= P may be handed out by any tid: the
// shared stack must not shortcut the grace period the per-thread free
// list enforces.
func TestQuickHandoffKeepsTwoEpochRule(t *testing.T) {
	handedOff := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := pmem.New(pmem.Config{Bytes: 8 << 20, MaxThreads: 4})
		p := NewPool(h, Config{SlotBytes: 64, SlotsPerArea: 64, Threads: 3, RootSlot: 0})
		retiredAt := map[pmem.Addr]uint64{}
		retiredBy := map[pmem.Addr]int{}
		held := map[pmem.Addr]bool{}
		var order []pmem.Addr
		parked, parkEpoch := false, uint64(0)
		for i := 0; i < 4000; i++ {
			switch r := rng.Intn(100); {
			case r < 3:
				if parked {
					p.Exit(1)
					parked = false
				} else {
					p.Enter(1)
					parked, parkEpoch = true, p.epoch.Load()
				}
			case r < 50 && len(order) > 0:
				k := rng.Intn(len(order))
				a := order[k]
				order[k] = order[len(order)-1]
				order = order[:len(order)-1]
				delete(held, a)
				tid := 2
				if rng.Intn(4) == 0 {
					tid = 0
				}
				p.Enter(tid)
				retiredAt[a], retiredBy[a] = p.epoch.Load(), tid
				p.Retire(tid, a)
				p.Exit(tid)
			default:
				p.Enter(0)
				a := p.Alloc(0)
				p.Exit(0)
				if held[a] {
					t.Logf("seed %d: slot %d handed out twice", seed, a)
					return false
				}
				if e, ok := retiredAt[a]; ok {
					if parked && e >= parkEpoch {
						t.Logf("seed %d: slot %d retired at epoch %d reused while tid 1 is parked at %d", seed, a, e, parkEpoch)
						return false
					}
					if retiredBy[a] != 0 {
						handedOff++
					}
					delete(retiredAt, a)
				}
				held[a] = true
				order = append(order, a)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	if handedOff == 0 {
		t.Fatal("no slot retired on another tid was ever reused: the hand-off was not exercised")
	}
}

// TestSplitHandoffConcurrent runs one alloc-only and one retire-only
// goroutine (meant for -race) and checks that no slot is handed out
// while a previous owner still holds it.
func TestSplitHandoffConcurrent(t *testing.T) {
	h := newHeap(t, pmem.ModePerf)
	const slotsPerArea, n = 256, 50_000
	p := NewPool(h, Config{SlotBytes: 64, SlotsPerArea: slotsPerArea, Threads: 2, RootSlot: 0})
	var mu sync.Mutex
	out := map[pmem.Addr]bool{}
	ch := make(chan pmem.Addr, slotsPerArea)
	errc := make(chan pmem.Addr, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(ch)
		for i := 0; i < n; i++ {
			p.Enter(0)
			a := p.Alloc(0)
			p.Exit(0)
			mu.Lock()
			dup := out[a]
			out[a] = true
			mu.Unlock()
			if dup {
				errc <- a
				return
			}
			ch <- a
		}
	}()
	go func() {
		defer wg.Done()
		for a := range ch {
			mu.Lock()
			delete(out, a)
			mu.Unlock()
			p.Enter(1)
			p.Retire(1, a)
			p.Exit(1)
		}
	}()
	wg.Wait()
	select {
	case a := <-errc:
		t.Fatalf("slot %d handed out while still held", a)
	default:
	}
	// In flight at once: the channel, the retirer's reserve and limbo,
	// one stolen bucket. Without the hand-off this would be n/slotsPerArea.
	if got := p.AreaCount(); got > 8 {
		t.Fatalf("split traffic carved %d areas over %d pairs, want a plateau (<= 8)", got, n)
	}
}

// TestRecoverPoolFeedsAnyTid: after recovery every dead slot is
// reachable from one allocating tid, so a pool whose other tid only
// retires strands none of them and carves no new area until they run
// out.
func TestRecoverPoolFeedsAnyTid(t *testing.T) {
	h := newHeap(t, pmem.ModeCrash)
	cfg := Config{SlotBytes: 64, SlotsPerArea: 64, Threads: 2, RootSlot: 0}
	p := NewPool(h, cfg)
	for i := 0; i < 5*cfg.SlotsPerArea; i++ {
		p.Alloc(0)
	}
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(4)))
	h.Restart()
	rp := RecoverPool(h, cfg, func(pmem.Addr) bool { return false })
	areas := rp.AreaCount()
	for i := 0; i < areas*cfg.SlotsPerArea; i++ {
		rp.Alloc(0)
	}
	if rp.AreaCount() != areas {
		t.Fatalf("tid 0 carved %d new areas while recovered slots were free", rp.AreaCount()-areas)
	}
}
