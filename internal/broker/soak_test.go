package broker

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pmem"
)

// Soak tier: a producer tid and a consumer tid push many times a small
// heap's capacity of 1 KiB messages through one acked blobq topic. The
// producer only allocates and the consumer only retires, so the heap
// stays bounded only if retired slots flow back to the producer.

const (
	soakHeapBytes = 6 << 20
	soakPayload   = 1024
	soakBatch     = 8
	soakCredit    = 8 * soakBatch // published-but-unacked bound
	// soakMsgs carries ten times the heap's capacity in payload bytes.
	soakMsgs = 10 * soakHeapBytes / soakPayload
	// brkAddr is where pmem keeps the persistent heap break.
	brkAddr = pmem.Addr(8)
)

func soakMessage(id int) []byte {
	p := bytes.Repeat([]byte{byte(id*7 + 1)}, soakPayload)
	binary.LittleEndian.PutUint64(p, uint64(id))
	return p
}

// openSoak opens (or recovers) the broker on hs. fresh creates the
// acked 1 KiB topic and its lease region first.
func openSoak(t *testing.T, hs *pmem.HeapSet, fresh bool) (*Topic, *Consumer) {
	t.Helper()
	b, err := Open(hs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fresh {
		if _, err := b.CreateTopic(0, TopicConfig{Name: "soak", Shards: 1, Acked: true, MaxPayload: soakPayload}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.CreateAckGroup(0, AckGroupConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.NewGroupAcked([]string{"soak"}, 1, LeaseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return b.Topic("soak"), g.Consumer(0)
}

// soakRun publishes ids [first, last) in batches from tid 0 while tid 1
// polls and acks them, checking FIFO order and payload bytes. After
// every ack it calls onAck with the number of ids acked so far; if
// onAck returns true the consumer crashes the heap set and both sides
// stop. It returns how many ids were confirmed published and acked.
func soakRun(t *testing.T, hs *pmem.HeapSet, tp *Topic, c *Consumer, first, last int, onAck func(acked int) bool) (published, acked int) {
	t.Helper()
	var pubN, ackN atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ps := make([][]byte, soakBatch)
		pmem.Protect(func() {
			for id := first; id < last; id += soakBatch {
				for int64(id+soakBatch-first)-ackN.Load() > soakCredit {
					if hs.Crashed() {
						return
					}
					runtime.Gosched()
				}
				ps = ps[:min(soakBatch, last-id)]
				for k := range ps {
					ps[k] = soakMessage(id + k)
				}
				if err := tp.PublishBatch(0, ps); err != nil {
					t.Errorf("PublishBatch at id %d: %v", id, err)
					return
				}
				pubN.Add(int64(len(ps)))
			}
		})
	}()
	var bad string
	pmem.Protect(func() {
		next := first
		for next < last {
			ms := c.PollBatch(1, soakBatch)
			if len(ms) == 0 {
				runtime.Gosched()
				continue
			}
			for _, m := range ms {
				if !bytes.Equal(m.Payload, soakMessage(next)) {
					bad = "delivered out of order or corrupted"
					hs.CrashNow()
					return
				}
				next++
			}
			if _, err := c.Ack(1); err != nil {
				bad = err.Error()
				hs.CrashNow()
				return
			}
			ackN.Store(int64(next - first))
			if onAck(next - first) {
				hs.CrashNow()
				return
			}
		}
	})
	wg.Wait()
	if bad != "" {
		t.Fatalf("soak consumer: %s (after %d acked)", bad, ackN.Load())
	}
	return int(pubN.Load()), int(ackN.Load())
}

// TestSoakSplitBlobqHeapPlateaus pushes ten times the heap's capacity
// through a split producer/consumer topic: no panic, every message
// delivered once in order, and the heap break frozen after the first
// tenth of the traffic.
func TestSoakSplitBlobqHeapPlateaus(t *testing.T) {
	hs := pmem.NewSet(1, pmem.Config{Bytes: soakHeapBytes, MaxThreads: 2})
	tp, c := openSoak(t, hs, true)
	h := hs.Heap(0)
	var brkTenth uint64
	_, acked := soakRun(t, hs, tp, c, 0, soakMsgs, func(acked int) bool {
		if brkTenth == 0 && acked >= soakMsgs/10 {
			brkTenth = h.RawMem(brkAddr)
		}
		return false
	})
	if acked != soakMsgs {
		t.Fatalf("acked %d of %d messages", acked, soakMsgs)
	}
	if end := h.RawMem(brkAddr); end != brkTenth {
		t.Fatalf("heap break grew from %d after the first tenth of the traffic to %d at the end", brkTenth, end)
	}
}

// TestSoakSplitBlobqCrashRecover crashes the same shape mid-soak, then
// reopens and drains: exactly the unacked backlog comes back, once and
// in order. The consumer crashes right after an ack returns, so only
// the producer's in-flight batch is undecided. A second soak on the
// recovered broker must reuse the slots recovery found dead instead of
// growing the heap.
func TestSoakSplitBlobqCrashRecover(t *testing.T) {
	hs := pmem.NewSet(1, pmem.Config{Bytes: soakHeapBytes, Mode: pmem.ModeCrash, MaxThreads: 2})
	tp, c := openSoak(t, hs, true)
	const crashAt = soakMsgs / 4
	published, acked := soakRun(t, hs, tp, c, 0, soakMsgs, func(acked int) bool { return acked >= crashAt })
	if !hs.Crashed() || acked < crashAt {
		t.Fatalf("soak ended without the armed crash (acked %d)", acked)
	}
	hs.FinalizeCrash(rand.New(rand.NewSource(91)))
	hs.Restart()

	tp, c = openSoak(t, hs, false)
	next := acked
	for {
		ms := c.PollBatch(1, soakBatch)
		if len(ms) == 0 {
			break
		}
		for _, m := range ms {
			if !bytes.Equal(m.Payload, soakMessage(next)) {
				t.Fatalf("redelivery %d: got id %d, want %d once and in order",
					next-acked, binary.LittleEndian.Uint64(m.Payload), next)
			}
			next++
		}
		if _, err := c.Ack(1); err != nil {
			t.Fatal(err)
		}
	}
	// Every confirmed publish past the acked prefix comes back; at most
	// the batch in flight at the crash may add to it.
	if next < published || next > published+soakBatch {
		t.Fatalf("redelivered ids [%d, %d), want [%d, %d) plus at most the in-flight batch", acked, next, acked, published)
	}

	h := hs.Heap(0)
	brk := h.RawMem(brkAddr)
	start := (next + soakBatch) &^ (soakBatch - 1)
	soakRun(t, hs, tp, c, start, start+soakMsgs/4, func(int) bool { return false })
	if end := h.RawMem(brkAddr); end != brk {
		t.Fatalf("heap break grew from %d to %d after recovery: recovered slots were not reused", brk, end)
	}
}
