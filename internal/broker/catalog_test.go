package broker

import (
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

// TestCatalogCorruptionErrors: a corrupted or truncated catalog log
// must surface as an error from Open, never a panic deep in the
// simulator. Offsets target the log's layout (header line, commit
// line, allocator line, records).
func TestCatalogCorruptionErrors(t *testing.T) {
	newCrashed := func(t *testing.T) *pmem.Heap {
		h := pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
		b := openWith(t, pmem.NewSetOf(h), Options{Threads: 2}, 0, twoTopics()...)
		b.Topic("events").Publish(0, U64(1))
		h.CrashNow()
		h.FinalizeCrash(rand.New(rand.NewSource(3)))
		h.Restart()
		return h
	}
	expectErr := func(t *testing.T, h *pmem.Heap, what string) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: Open panicked: %v", what, r)
			}
		}()
		if _, err := Open(pmem.NewSetOf(h), Options{Threads: 2}); err == nil {
			t.Fatalf("%s: Open succeeded on a corrupted catalog", what)
		}
	}
	// On a 1-heap set the log is header (line 0), commit (line 1), one
	// allocator line (line 2), then the records from line 3.
	const recLine = logHeaderLines + 1

	t.Run("bad magic", func(t *testing.T) {
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, reg, 0xdead)
		expectErr(t, h, "bad magic")
	})
	t.Run("header field corrupted", func(t *testing.T) {
		// Any flipped header word — here the thread bound — must fail
		// the header checksum.
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, reg+16, 1<<40)
		expectErr(t, h, "header field")
	})
	t.Run("absurd commit count", func(t *testing.T) {
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, reg+pmem.CacheLineBytes, 1<<40)
		expectErr(t, h, "absurd commit count")
	})
	t.Run("commit count past the written tail", func(t *testing.T) {
		// A commit word claiming one more record than was ever appended
		// points replay at virgin lines, which fail record validation.
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, reg+pmem.CacheLineBytes, h.Load(0, reg+pmem.CacheLineBytes)+1)
		expectErr(t, h, "commit past tail")
	})
	t.Run("committed record corrupted", func(t *testing.T) {
		// Flipping any word of a committed record — here topic 0's shard
		// count — must fail the record checksum.
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, reg+recLine*pmem.CacheLineBytes+16, 1)
		expectErr(t, h, "committed record")
	})
	t.Run("placement out of range", func(t *testing.T) {
		// Rewrite topic 0's first placement word to heap 7 of a 1-heap
		// set WITH a recomputed checksum: the record validates, so the
		// layer that must catch it is replay's placement check.
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		hdrA := reg + recLine*pmem.CacheLineBytes
		placeA := hdrA + 2*pmem.CacheLineBytes // header, name line, placements
		h.Store(0, placeA, packLoc(shardLoc{heap: 7, base: 1}))
		var sum []uint64
		for w := 0; w < 7; w++ {
			sum = append(sum, h.Load(0, hdrA+pmem.Addr(w*8)))
		}
		for l := 1; l <= 2; l++ {
			for w := 0; w < 8; w++ {
				sum = append(sum, h.Load(0, hdrA+pmem.Addr(l*pmem.CacheLineBytes+w*8)))
			}
		}
		h.Store(0, hdrA+7*pmem.WordBytes, catChecksum(sum))
		expectErr(t, h, "placement heap")
	})
	t.Run("high-water mark lags committed windows", func(t *testing.T) {
		// An allocator mark below what the committed records claim means
		// the log and the allocator disagree: corruption, not debris.
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, reg+logHeaderLines*pmem.CacheLineBytes, 1)
		expectErr(t, h, "lagging mark")
	})
	t.Run("anchor near uint64 wraparound", func(t *testing.T) {
		// A corrupt anchor in [2^64-8, 2^64) must hit the truncation
		// error, not wrap past the bounds check into an index panic.
		h := newCrashed(t)
		h.Store(0, h.RootAddr(slotAnchor), ^uint64(0)-3)
		expectErr(t, h, "wraparound anchor")
	})
	t.Run("short v4 log near heap end", func(t *testing.T) {
		h := newCrashed(t)
		// A validly checksummed v4 header whose body runs off the heap:
		// the commit-line read must hit the truncation error.
		tail := pmem.Addr(h.Bytes()) - pmem.CacheLineBytes
		hdr := []uint64{catMagicV4, 2, 1, 1, 1024, 1, 0}
		for i, w := range hdr {
			h.Store(0, tail+pmem.Addr(i*8), w)
		}
		h.Store(0, tail+7*pmem.WordBytes, catChecksum(hdr))
		h.Store(0, h.RootAddr(slotAnchor), uint64(tail))
		expectErr(t, h, "short v4 log")
	})
}
