package main

import (
	"fmt"
	"runtime"

	"repro/internal/blobq"
	"repro/internal/dheap"
	"repro/internal/pmem"
	"repro/internal/queues"
	"repro/internal/ssmem"
)

// The layer probes time each layer's public functions from outside,
// each on a heap of its own with the broker's latency model, so a
// per-layer number does not depend on the layers above it.

// Probe sizes: enough calls for a steady median, few enough that all
// probes together take well under a second.
const (
	fenceReps       = 400 // timed groups of fenceGroup fences
	fenceGroup      = 64
	ssmemPairs      = 100_000 // alloc/retire pairs per ssmem probe
	ssmemGroup      = 64
	queueIters      = 20_000
	blobIters       = 2_000
	dheapIters      = 20_000
	ssmemGrowthUnit = 100_000 // area growth is reported per this many pairs
)

func probeHeap(bytes int64) *pmem.Heap {
	return pmem.New(pmem.Config{Bytes: bytes, MaxThreads: threads, Latency: pmem.DefaultLatency()})
}

// runProbes sets the pmem.fence_ns, ssmem.*, queues.*, blobq.* and
// dheap.* metrics. splitTids selects the ssmem timing probe whose
// allocs and retires run on different thread ids.
func runProbes(cfg runConfig, splitTids bool, out *outcome) error {
	out.set("pmem.fence_ns", "ns", probeFence())

	splitNs, splitGrowth := probeSSMem(0, 1)
	sameNs, sameGrowth := probeSSMem(0, 0)
	timing := sameNs
	if splitTids {
		timing = splitNs
	}
	out.set("ssmem.alloc_ns", "ns", timing[0])
	out.set("ssmem.retire_ns", "ns", timing[1])
	out.set("ssmem.split_area_growth", "count", splitGrowth)
	out.set("ssmem.same_area_growth", "count", sameGrowth)

	enq, deq, ack, err := probeQueue()
	if err != nil {
		return err
	}
	out.set("queues.enqueue_batch_ns", "ns", enq)
	out.set("queues.dequeue_batch_ns", "ns", deq)
	out.set("queues.ack_ns", "ns", ack)

	enq, deq, err = probeBlobq(cfg.seed)
	if err != nil {
		return err
	}
	out.set("blobq.enqueue_batch_ns", "ns", enq)
	out.set("blobq.dequeue_batch_ns", "ns", deq)

	push, pop, allocs, err := probeDheap(cfg.seed)
	if err != nil {
		return err
	}
	out.set("dheap.push_batch_ns", "ns", push)
	out.set("dheap.pop_batch_ns", "ns", pop)
	out.set("dheap.allocs_per_msg", "count", allocs)
	return nil
}

// probeFence times Fence on an idle heap: with nothing flushed it costs
// the model's fixed fence latency, so it tracks the spin calibration.
func probeFence() float64 {
	h := probeHeap(1 << 20)
	per := make([]float64, fenceReps)
	for i := range per {
		t0 := now()
		for k := 0; k < fenceGroup; k++ {
			h.Fence(0)
		}
		per[i] = float64(now()-t0) / fenceGroup
	}
	return median(per)
}

// probeSSMem runs ssmemPairs alloc/retire pairs, allocating on
// allocTid and retiring on retireTid, in groups of ssmemGroup. It
// returns the median ns per alloc and per retire and the area count
// growth per ssmemGrowthUnit pairs.
func probeSSMem(allocTid, retireTid int) ([2]float64, float64) {
	h := probeHeap(16 << 20)
	p := ssmem.NewPool(h, ssmem.Config{SlotBytes: pmem.CacheLineBytes, SlotsPerArea: 4096, Threads: threads})
	areas0 := p.AreaCount()
	addrs := make([]pmem.Addr, ssmemGroup)
	var allocs, retires []float64
	for done := 0; done < ssmemPairs; done += ssmemGroup {
		t0 := now()
		for i := range addrs {
			addrs[i] = p.Alloc(allocTid)
		}
		t1 := now()
		for _, a := range addrs {
			p.Retire(retireTid, a)
		}
		t2 := now()
		allocs = append(allocs, float64(t1-t0)/ssmemGroup)
		retires = append(retires, float64(t2-t1)/ssmemGroup)
	}
	growth := float64(p.AreaCount()-areas0) * ssmemGrowthUnit / float64(len(allocs)*ssmemGroup)
	return [2]float64{median(allocs), median(retires)}, growth
}

// probeQueue drives an acked OptUnlinkedQ with batches of 8 on one
// thread id: EnqueueBatch → DequeueLeased → AckTo.
func probeQueue() (enq, deq, ack float64, err error) {
	h := probeHeap(16 << 20)
	q := queues.NewOptUnlinkedQAcked(h, threads)
	vs := make([]uint64, batch)
	var es, ds, as []int64
	for i := 0; i < queueIters; i++ {
		for k := range vs {
			vs[k] = uint64(i*batch + k + 1)
		}
		t0 := now()
		q.EnqueueBatch(0, vs)
		t1 := now()
		got, idxs := q.DequeueLeased(0, batch)
		t2 := now()
		if len(got) != batch || got[0] != vs[0] {
			return 0, 0, 0, fmt.Errorf("queues probe: dequeued %v after enqueueing %v", got, vs)
		}
		q.AckTo(0, idxs[len(idxs)-1])
		t3 := now()
		es, ds, as = append(es, t1-t0), append(ds, t2-t1), append(as, t3-t2)
	}
	return nsQuantile(es, 0.5), nsQuantile(ds, 0.5), nsQuantile(as, 0.5), nil
}

// probeBlobq drives an acked blobq with 1 KiB payloads in batches of 8,
// enqueueing on tid 0 and dequeueing and acking on tid 1, as split-1k
// does.
func probeBlobq(seed int64) (enq, deq float64, err error) {
	h := probeHeap(32 << 20)
	q := blobq.New(h, blobq.Config{Threads: threads, MaxPayload: 1024, Acked: true})
	codec := newCodec(newRand(seed, -2), 1024)
	ps := codec.newBatch()
	var es, ds []int64
	for i := 0; i < blobIters; i++ {
		for k := range ps {
			codec.put(ps[k], i*batch+k)
		}
		t0 := now()
		q.EnqueueBatch(0, ps)
		t1 := now()
		got, idxs := q.DequeueLeased(1, batch)
		t2 := now()
		if len(got) != batch || codec.id(got[0]) != i*batch {
			return 0, 0, fmt.Errorf("blobq probe: batch %d came back wrong (%d payloads)", i, len(got))
		}
		q.AckTo(1, idxs[len(idxs)-1])
		es, ds = append(es, t1-t0), append(ds, t2-t1)
	}
	return nsQuantile(es, 0.5), nsQuantile(ds, 0.5), nil
}

// probeDheap drives a dheap at delay-heap's standing depth: each tick
// pushes 8 entries due 1..delaySpan ticks later and pops at most 16
// ready ones. allocs is Go heap allocations per popped message.
func probeDheap(seed int64) (push, pop, allocs float64, err error) {
	h := probeHeap(16 << 20)
	q := dheap.New(h, dheap.Config{Threads: 1})
	rng := newRand(seed, -3)
	codec := newCodec(rng, 8)
	ps := codec.newBatch()
	keys := make([]uint64, batch)
	var pushes, pops []int64
	var popped int
	var ms runtime.MemStats
	var mallocs0 uint64
	for tick := uint64(1); tick <= delaySpan+dheapIters; tick++ {
		if tick == delaySpan+1 {
			// The depth has reached its standing level; time from here.
			runtime.ReadMemStats(&ms)
			mallocs0 = ms.Mallocs
		}
		timed := tick > delaySpan
		for k := range keys {
			codec.put(ps[k], int(tick)*batch+k)
			keys[k] = tick + 1 + uint64(rng.Intn(delaySpan))
		}
		t0 := now()
		if err := q.PushBatch(0, keys, ps); err != nil {
			return 0, 0, 0, fmt.Errorf("dheap probe: %w", err)
		}
		t1 := now()
		got, gotKeys := q.PopReadyBatch(0, tick, delayDequeue)
		t2 := now()
		for _, k := range gotKeys {
			if k > tick {
				return 0, 0, 0, fmt.Errorf("dheap probe: key %d popped at tick %d", k, tick)
			}
		}
		if timed {
			pushes = append(pushes, t1-t0)
			pops = append(pops, t2-t1)
			popped += len(got)
		}
	}
	runtime.ReadMemStats(&ms)
	return nsQuantile(pushes, 0.5), nsQuantile(pops, 0.5), float64(ms.Mallocs-mallocs0) / float64(popped), nil
}
