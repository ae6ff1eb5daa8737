package broker

import (
	"fmt"

	"repro/internal/pmem"
)

// Delivery state is transactional state (Gray, "Queues Are
// Databases") and must be as durable as the payload. The lease region
// is where the broker keeps it: one durable region per consumer-group
// allocation (CreateAckGroup), placed like a shard — the catalog
// records its (heapID, anchorSlot) and its capacity — and holding one
// cache line per global shard ordinal up to that capacity. Capacity is fixed at region creation: groups may
// only subscribe topics whose shards' global ordinals fall below it,
// so a region minted before a dynamically created topic either has
// headroom for it or refuses the binding with an error.
// A consumer's PollBatch writes the shard's
// lease line (owner, unacked index range, deadline) and fences it
// BEFORE returning messages, so a crashed-then-recovered observer can
// always tell an in-flight message from a processed one; Consumer.Ack
// advances the per-thread acked-index lines inside each shard queue
// (see queues.OptUnlinked ack mode), which are the source of truth
// for the processed frontier.
//
// Region layout (all single cache lines, so each write persists with
// one flush riding the operation's fence):
//
//	line 0 (header):      [leaseMagic, capacity, groupIndex, 0...]
//	line 1+g (shard g):   one packed lease line (see packLease)
//
// Lease line layout:
//
//	[w0 = active<<63 | owner, w1 = lo, w2 = hi, w3 = deadline,
//	 w4 = seq, w5 = epoch, w6 = 0, w7 = checksum(w0..w6)]
//
// [lo, hi] is the leased, unacknowledged index range of the shard's
// queue; deadline is in the group's clock units (LeaseConfig.Now); seq
// increments per rewrite; epoch is the shard's fencing token, bumped
// on every takeover (see membership.go). The checksum — which always
// covered the then-spare w5, so pre-epoch (v<=4) regions need no
// format change and decode as epoch 0 — makes a torn line (a crash
// mid-write landed only part of the stores) detectable: torn or
// corrupt lines decode as invalid and are treated as carrying no
// lease — safe, because the acked-index lines, not the leases, decide
// what recovery redelivers. An all-zero line is a virgin line (the
// region is allocated zeroed): valid, no lease, epoch 0.

// Lease is one decoded per-shard lease record.
type Lease struct {
	// Active reports whether the line carries a live lease; the zero
	// Lease means "no lease".
	Active bool
	// Owner is the group member index holding the lease.
	Owner int
	// Lo and Hi delimit the leased, unacknowledged queue-index range
	// [Lo, Hi] of the shard at the time the lease was written. Lo may
	// lag the true acked frontier (acknowledgments do not rewrite the
	// lease); takeover clamps it against the queue's durable frontier.
	Lo, Hi uint64
	// Deadline is the expiry instant in the owning group's clock units.
	Deadline uint64
	// Seq increments on every rewrite of the line.
	Seq uint64
	// Epoch is the shard's fencing token: bumped on every takeover
	// (Reassign, Scan, Steal), so a presumed-dead owner that resurfaces
	// holds a stale epoch and its acknowledgments are refused
	// (ErrFenced). Lines written before the epoch word existed (v<=4
	// regions) decode as epoch 0, which is valid.
	Epoch uint64
}

const (
	leaseMagic  = 0x4c7352656731 // "LsReg1"
	leaseActive = uint64(1) << 63

	// maxCatAckGroups caps the catalog's ack-group count, like the
	// other catalog sanity caps: a corrupted count is rejected before
	// it is used to compute addresses.
	maxCatAckGroups = 1 << 10
)

// leaseChecksum mixes words 0..6 of a lease line into the guard word.
func leaseChecksum(w [8]uint64) uint64 { return checksum(leaseMagic, w[:7]) }

// packLease lays a lease out as one cache line of words.
func packLease(l Lease) [8]uint64 {
	var w [8]uint64
	w[0] = uint64(l.Owner)
	if l.Active {
		w[0] |= leaseActive
	}
	w[1], w[2], w[3], w[4], w[5] = l.Lo, l.Hi, l.Deadline, l.Seq, l.Epoch
	w[7] = leaseChecksum(w)
	return w
}

// unpackLease decodes a lease line. ok is false for a torn or corrupt
// line (checksum mismatch); an all-zero line is a valid empty lease.
func unpackLease(w [8]uint64) (Lease, bool) {
	zero := true
	for _, x := range w {
		if x != 0 {
			zero = false
			break
		}
	}
	if zero {
		return Lease{}, true
	}
	if w[7] != leaseChecksum(w) {
		return Lease{}, false
	}
	return Lease{
		Active:   w[0]&leaseActive != 0,
		Owner:    int(w[0] &^ leaseActive),
		Lo:       w[1],
		Hi:       w[2],
		Deadline: w[3],
		Seq:      w[4],
		Epoch:    w[5],
	}, true
}

// leaseRegion is the volatile handle of one group's durable lease
// region.
type leaseRegion struct {
	h    *pmem.Heap // member heap hosting the region
	heap int        // its index in the set (the fence domain)
	slot int        // root slot anchoring the region (rewritten by compaction)
	base pmem.Addr  // region base (header line)
	cap  int        // global shard ordinals the region covers: [0, cap)
}

func (lr leaseRegion) lineAddr(global int) pmem.Addr {
	return lr.base + pmem.Addr(1+global)*pmem.CacheLineBytes
}

// writeLeaseLine stores a packed lease into shard global's line and
// issues the asynchronous flush; the caller's fence on the region's
// heap makes it durable.
func (lr leaseRegion) writeLeaseLine(tid, global int, l Lease) {
	a := lr.lineAddr(global)
	w := packLease(l)
	for i, x := range w {
		lr.h.Store(tid, a+pmem.Addr(i*pmem.WordBytes), x)
	}
	lr.h.Flush(tid, a)
}

// readLeaseLine loads and decodes shard global's line.
func (lr leaseRegion) readLeaseLine(global int) (Lease, bool) {
	a := lr.lineAddr(global)
	var w [8]uint64
	for i := range w {
		w[i] = lr.h.Load(0, a+pmem.Addr(i*pmem.WordBytes))
	}
	return unpackLease(w)
}

// initLeaseRegion allocates, zeroes and persists group's lease region
// on h and anchors it at the given root slot, charging the persists to
// tid (regions are created on live brokers; see CreateAckGroup).
func initLeaseRegion(h *pmem.Heap, tid, heapIdx, slot, group, capacity int) leaseRegion {
	bytes := int64(1+capacity) * pmem.CacheLineBytes
	base := h.AllocRaw(tid, bytes, pmem.CacheLineBytes)
	h.InitRange(tid, base, bytes)
	h.Store(tid, base, leaseMagic)
	h.Store(tid, base+8, uint64(capacity))
	h.Store(tid, base+16, uint64(group))
	h.Persist(tid, base)
	h.Store(tid, h.RootAddr(slot), uint64(base))
	h.Persist(tid, h.RootAddr(slot))
	return leaseRegion{h: h, heap: heapIdx, slot: slot, base: base, cap: capacity}
}

// readLeaseRegion re-discovers group's lease region at (heap, slot)
// and validates it against the catalog's expectation. Every read is
// bounds-checked (catReader), so a truncated or absurd region yields
// an error, never a panic; a missing or foreign region — blank anchor,
// wrong magic, wrong capacity, wrong group — errors instead of
// letting a consumer mis-scan another group's (or nobody's) leases.
func readLeaseRegion(h *pmem.Heap, heapIdx, slot, group, capacity int) (leaseRegion, error) {
	r := &catReader{h: h}
	base := pmem.Addr(r.word(h.RootAddr(slot)))
	if r.err != nil {
		return leaseRegion{}, r.err
	}
	if base == 0 {
		return leaseRegion{}, fmt.Errorf("broker: lease region %d missing (nothing anchored at heap %d slot %d)",
			group, heapIdx, slot)
	}
	magic := r.word(base)
	st := r.word(base + 8)
	gi := r.word(base + 16)
	// Touch the last line too, so a region whose body runs off the end
	// of the heap is rejected up front.
	r.word(base + pmem.Addr(capacity)*pmem.CacheLineBytes)
	if r.err != nil {
		return leaseRegion{}, r.err
	}
	if magic != leaseMagic {
		return leaseRegion{}, fmt.Errorf("broker: lease region %d magic %#x invalid (foreign or corrupt region)", group, magic)
	}
	if st != uint64(capacity) || gi != uint64(group) {
		return leaseRegion{}, fmt.Errorf("broker: lease region at heap %d slot %d covers %d shards as group %d, catalog expects %d shards as group %d",
			heapIdx, slot, st, gi, capacity, group)
	}
	return leaseRegion{h: h, heap: heapIdx, slot: slot, base: base, cap: capacity}, nil
}
