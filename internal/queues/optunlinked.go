package queues

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/pmem"
	"repro/internal/ssmem"
)

// OptUnlinked is the second-amendment queue of Section 6.1 and
// Appendix B (Figure 4): one blocking persist per operation and zero
// accesses to explicitly flushed content. Its items are of type T,
// laid out in NVRAM by a Codec: OptUnlinkedQ holds one uint64 word per
// node, package blobq's codec spans items over sealed side lines (the
// paper's footnote 3). The protocol below never branches on the codec.
//
// Every logical node is split in two. The Persistent part
// [item, index, linked] lives in simulated NVRAM, is flushed exactly
// once by its enqueuer, and is never read again except by recovery.
// The Volatile part (a Go object, standing in for the DRAM copy) holds
// duplicated item/index plus the next link and a pointer to the
// Persistent part, and serves all normal-path reads. The global head
// index of UnlinkedQ becomes a per-thread head index written with
// non-temporal stores (Section 6.3), so dequeues never touch a flushed
// line either.
type OptUnlinked[T any] struct {
	h     *pmem.Heap
	codec Codec[T]
	pool  *ssmem.Pool
	head  atomic.Pointer[ouNode[T]]
	tail  atomic.Pointer[ouNode[T]]
	// localBase anchors one persistent cache line per thread holding
	// that thread's head index; recovery takes the maximum.
	localBase pmem.Addr
	per       []ouThread[T]
	// plainStoreLocal replaces the movnti write of the local head
	// index with an ordinary store + flush (the pre-Section-6.3
	// design); ablation only.
	plainStoreLocal bool

	// Ack mode (acked constructors): dequeues become leases. A leased
	// dequeue issues no persist instructions at all; the dequeued node
	// stays durable until AckTo covers its index, and recovery
	// resurrects everything beyond the maximum per-thread *acked* index
	// (the ackBase lines) instead of everything beyond the dequeued
	// frontier — so unacknowledged items are redelivered after a crash
	// and acknowledged items never reappear.
	acked   bool
	ackBase pmem.Addr
	// ackMu guards the in-flight list and the ack frontier. It is
	// uncontended under the one-consumer-per-queue discipline package
	// broker maintains, but keeps concurrent dequeuers (the generic
	// harnesses drive them) coherent.
	ackMu      sync.Mutex
	inflight   []*ouNode[T] // dequeued, unacknowledged; retired only once covered by a durable ack
	ackDurable uint64       // highest acked index covered by a completed fence
}

// OptUnlinkedQ is the paper's queue of uint64 items, one word per node.
type OptUnlinkedQ = OptUnlinked[uint64]

// Codec is an OptUnlinked queue's item format. The queue owns the
// index and linked words of every node line; the codec owns the rest
// of the line and any side storage an item needs. Each method runs at
// one fixed point of the protocol, so a codec cannot add a fence.
type Codec[T any] interface {
	// Write stores v into node line pn and its side storage before the
	// node is linked, issuing asynchronous flushes only: the
	// operation's single fence covers them. It returns the Volatile
	// copy every normal-path read is served from, and the side storage
	// handle (0 for none).
	Write(tid int, pn pmem.Addr, v T) (item T, side pmem.Addr)
	// Release frees the side storage of a node being retired.
	Release(tid int, side pmem.Addr)
	// Load validates and loads the item of a linked node beyond the
	// recovered frontier. ok false discards the node as a torn
	// enqueue: its operation was pending at the crash.
	Load(pn pmem.Addr) (item T, side pmem.Addr, ok bool)
	// Recover runs scan, the node-pool scan that calls Load, between
	// the codec's own recovery steps (boot epoch, side pools).
	Recover(scan func())
}

// ouNode is the Volatile half of a node.
type ouNode[T any] struct {
	item  T
	index uint64
	next  atomic.Pointer[ouNode[T]]
	pnode pmem.Addr
	side  pmem.Addr // the codec's side storage, 0 for none
}

// ouThread keeps one thread's hot dequeue/ack state; the field order
// (uint64s before the bools) plus the tail padding keep the struct at
// exactly one cache line, so adjacent per-thread entries never share a
// line (false sharing would skew the persist-cost measurements).
type ouThread[T any] struct {
	nodeToRetire *ouNode[T]
	// pendingRetire accumulates the nodes unlinked by an unfenced batch
	// dequeue; they are handed to the allocator only by CompleteBatch,
	// after the caller's fence made the covering head index durable (a
	// slot reused and overwritten before that fence could lose a message
	// whose dequeue never became durable).
	pendingRetire []*ouNode[T]
	// lastPersisted is the head index this thread most recently made
	// durable (NTStore + completed fence) in its local line. A failing
	// dequeue that observes the same index again elides its persist:
	// re-persisting an already-durable value cannot change what recovery
	// sees, so the empty response stays durably linearized for free.
	lastPersisted uint64
	// pendingIdx is the head index NTStored by an unfenced batch dequeue
	// but not yet covered by a fence; promoted to lastPersisted by
	// CompleteBatch.
	pendingIdx uint64
	// pendingAckIdx is the acked index NTStored into this thread's ack
	// line by an unfenced AckToUnfenced but not yet covered by a fence;
	// promoted (and its in-flight nodes retired) by CompleteAck.
	pendingAckIdx   uint64
	pendingDirty    bool
	pendingAckDirty bool
	_               [6]byte
}

// Persistent node layout: the queue's two protocol words. Word 0 and
// words 3..7 belong to the codec.
const (
	ouIndex  = pmem.Addr(8)
	ouLinked = pmem.Addr(16)
)

// wordCodec is OptUnlinkedQ's item format: the uint64 itself in word 0.
type wordCodec struct{ h *pmem.Heap }

func (c wordCodec) Write(tid int, pn pmem.Addr, v uint64) (uint64, pmem.Addr) {
	c.h.Store(tid, pn, v) // line 112
	return v, 0
}

func (wordCodec) Release(int, pmem.Addr) {}

func (c wordCodec) Load(pn pmem.Addr) (uint64, pmem.Addr, bool) { return c.h.Load(0, pn), 0, true }

func (wordCodec) Recover(scan func()) { scan() }

// Word8 returns the codec of 8-byte payloads: the payload's
// little-endian word is the node's word 0, byte for byte the node an
// OptUnlinkedQ writes for that uint64. Write panics on any other
// payload length.
func Word8(h *pmem.Heap) Codec[[]byte] { return word8Codec{h} }

type word8Codec struct{ h *pmem.Heap }

func (c word8Codec) Write(tid int, pn pmem.Addr, p []byte) ([]byte, pmem.Addr) {
	if len(p) != 8 {
		panic(fmt.Sprintf("queues: Word8 payload must be 8 bytes, got %d", len(p)))
	}
	c.h.Store(tid, pn, binary.LittleEndian.Uint64(p))
	return append([]byte(nil), p...), 0
}

func (word8Codec) Release(int, pmem.Addr) {}

func (c word8Codec) Load(pn pmem.Addr) ([]byte, pmem.Addr, bool) {
	return binary.LittleEndian.AppendUint64(nil, c.h.Load(0, pn)), 0, true
}

func (word8Codec) Recover(scan func()) { scan() }

// NewOptUnlinkedQ creates an empty OptUnlinkedQ.
func NewOptUnlinkedQ(h *pmem.Heap, threads int) *OptUnlinkedQ {
	return NewOptUnlinkedQAs(h, threads, 0)
}

// NewOptUnlinkedQAs creates an empty OptUnlinkedQ, charging the
// construction persists (local-line region, pool registry, dummy node)
// to tid instead of thread 0. Fences are per-thread: a queue created
// while other threads run — a broker topic created on a live system —
// must construct under a tid owned by the constructing goroutine, or
// its fences would race another goroutine's pending-persist state.
func NewOptUnlinkedQAs(h *pmem.Heap, threads, tid int) *OptUnlinkedQ {
	return NewOptUnlinked[uint64](h, threads, tid, false, wordCodec{h})
}

// NewOptUnlinked creates an empty queue of items laid out by c,
// charging the construction persists to tid (see NewOptUnlinkedQAs);
// acked selects acknowledgment mode (see NewOptUnlinkedQAcked).
func NewOptUnlinked[T any](h *pmem.Heap, threads, tid int, acked bool, c Codec[T]) *OptUnlinked[T] {
	q := &OptUnlinked[T]{
		h:     h,
		codec: c,
		pool:  newNodePoolAs(h, threads, tid),
		per:   make([]ouThread[T], threads),
		acked: acked,
	}
	q.localBase = h.AllocRaw(tid, int64(threads)*pmem.CacheLineBytes, pmem.CacheLineBytes)
	h.InitRange(tid, q.localBase, int64(threads)*pmem.CacheLineBytes)
	h.Store(tid, h.RootAddr(slotLocal), uint64(q.localBase))
	h.Persist(tid, h.RootAddr(slotLocal))

	pn := q.pool.Alloc(tid) // fresh slot: zero index, unset linked
	dummy := &ouNode[T]{pnode: pn}
	q.head.Store(dummy)
	q.tail.Store(dummy)

	if acked {
		size := int64(threads) * pmem.CacheLineBytes
		q.ackBase = h.AllocRaw(tid, size, pmem.CacheLineBytes)
		h.InitRange(tid, q.ackBase, size)
		h.Store(tid, h.RootAddr(slotAck), uint64(q.ackBase))
		h.Persist(tid, h.RootAddr(slotAck))
	}
	return q
}

// NewOptUnlinkedQPlainStore is the Section 6.3 ablation: local head
// indices are written with ordinary stores plus flushes instead of
// non-temporal stores, reintroducing writes to flushed lines.
func NewOptUnlinkedQPlainStore(h *pmem.Heap, threads int) *OptUnlinkedQ {
	q := NewOptUnlinkedQ(h, threads)
	q.plainStoreLocal = true
	return q
}

// NewOptUnlinkedQAcked creates an empty queue in acknowledgment mode:
// a dequeue only leases its item (DequeueLeased, no persist
// instructions at all — durability of the delivery is the caller's
// concern, e.g. a broker lease record), and the item stays in NVRAM
// until an AckTo covering its index is durable. Recovery takes the
// maximum of the per-thread acked indices as the consumption frontier,
// exactly as the plain queue takes the maximum head index, so
// unacknowledged items are redelivered and acknowledged items never
// reappear. Dequeue/DequeueBatch remain usable and acknowledge
// immediately (lease + ack in one step, one fence).
func NewOptUnlinkedQAcked(h *pmem.Heap, threads int) *OptUnlinkedQ {
	return NewOptUnlinkedQAckedAs(h, threads, 0)
}

// NewOptUnlinkedQAckedAs is NewOptUnlinkedQAcked charging construction
// persists to tid (see NewOptUnlinkedQAs).
func NewOptUnlinkedQAckedAs(h *pmem.Heap, threads, tid int) *OptUnlinkedQ {
	return NewOptUnlinked[uint64](h, threads, tid, true, wordCodec{h})
}

// Acked reports whether the queue is in acknowledgment mode.
func (q *OptUnlinked[T]) Acked() bool { return q.acked }

// DequeueLeased removes up to max items without issuing a single
// persist instruction: the dequeued nodes stay durable in NVRAM and
// will be resurrected by recovery until an acknowledgment covers them,
// so across a crash the items are redelivered rather than lost. idxs
// are the items' queue indices (contiguous and ascending under the
// one-consumer-per-queue discipline); pass the last one to AckTo once
// the items are processed. Ack mode only.
func (q *OptUnlinked[T]) DequeueLeased(tid, max int) (vs []T, idxs []uint64) {
	if !q.acked {
		panic("optunlinkedq: DequeueLeased on a queue without ack mode")
	}
	if max <= 0 {
		return nil, nil
	}
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	var takens []*ouNode[T]
	for len(vs) < max {
		taken, _, ok := q.dequeueOne(tid)
		if !ok {
			break
		}
		// The unlinked previous head is not retired here: it entered the
		// in-flight list when it was dequeued itself (or it is the
		// original dummy, which is simply abandoned). Retirement happens
		// in CompleteAck, once a durable ack covers the node's index —
		// only then can a reused slot's stale contents (linked flag and
		// index surviving a crash mid-reuse) be filtered by recovery.
		vs = append(vs, taken.item)
		idxs = append(idxs, taken.index)
		takens = append(takens, taken)
	}
	if len(takens) > 0 {
		q.ackMu.Lock()
		q.inflight = append(q.inflight, takens...)
		q.ackMu.Unlock()
	}
	return vs, idxs
}

func (q *OptUnlinked[T]) ackLineAddr(tid int) pmem.Addr {
	return q.ackBase + pmem.Addr(tid)*pmem.CacheLineBytes
}

// AckToUnfenced acknowledges every dequeued item with index <= idx:
// one NTStore of idx into tid's ack line. dirty reports whether a
// covering Fence (followed by CompleteAck) is still owed; a redundant
// ack — idx already durably acknowledged — issues nothing and costs
// nothing. Sound for the same reason as the head-index amortization:
// per-thread ack indices are monotone and recovery takes the maximum,
// so the last index covers every earlier one.
func (q *OptUnlinked[T]) AckToUnfenced(tid int, idx uint64) (dirty bool) {
	if !q.acked {
		panic("optunlinkedq: AckToUnfenced on a queue without ack mode")
	}
	t := &q.per[tid]
	q.ackMu.Lock()
	redundant := idx <= q.ackDurable
	q.ackMu.Unlock()
	if redundant {
		return t.pendingAckDirty
	}
	// The soundness argument requires the ack line to be monotone: an
	// unfenced window that already NTStored a covering index must not
	// overwrite it with a lower one (CompleteAck would still promote
	// and retire to the higher index, and a crash would then resurrect
	// slots the durable line no longer filters).
	if t.pendingAckDirty && idx <= t.pendingAckIdx {
		return true
	}
	q.h.NTStore(tid, q.ackLineAddr(tid), idx)
	t.pendingAckIdx = idx
	t.pendingAckDirty = true
	return true
}

// CompleteAck finishes an unfenced acknowledgment after the caller's
// fence: it promotes the acked frontier and retires every in-flight
// node the now-durable ack covers. Slot reuse strictly after the
// covering fence keeps recovery sound: a crash while a reused slot is
// half-written can at worst resurrect the slot's stale contents, whose
// index is <= the durable acked frontier and is therefore filtered.
func (q *OptUnlinked[T]) CompleteAck(tid int) {
	t := &q.per[tid]
	if !t.pendingAckDirty {
		return
	}
	t.pendingAckDirty = false
	q.ackMu.Lock()
	if t.pendingAckIdx > q.ackDurable {
		q.ackDurable = t.pendingAckIdx
	}
	live := q.inflight[:0]
	for _, n := range q.inflight {
		if n.index <= q.ackDurable {
			q.retire(tid, n)
		} else {
			live = append(live, n)
		}
	}
	q.inflight = live
	q.ackMu.Unlock()
}

// AckTo is the fenced form of AckToUnfenced: one NTStore plus one
// blocking persist acknowledges the whole batch of items up to idx
// (zero of either when the ack is redundant).
func (q *OptUnlinked[T]) AckTo(tid int, idx uint64) {
	if q.AckToUnfenced(tid, idx) {
		q.h.Fence(tid)
	}
	q.CompleteAck(tid)
}

// AckedTo reports the durably acknowledged index frontier.
func (q *OptUnlinked[T]) AckedTo() uint64 {
	q.ackMu.Lock()
	defer q.ackMu.Unlock()
	return q.ackDurable
}

// Unacked snapshots the dequeued-but-unacknowledged items in index
// order — the redelivery set a lease takeover hands to a new consumer.
// Call only while no dequeue or ack runs on this queue.
func (q *OptUnlinked[T]) Unacked() (vs []T, idxs []uint64) {
	q.ackMu.Lock()
	defer q.ackMu.Unlock()
	ns := append([]*ouNode[T](nil), q.inflight...)
	sort.Slice(ns, func(i, j int) bool { return ns[i].index < ns[j].index })
	for _, n := range ns {
		vs = append(vs, n.item)
		idxs = append(idxs, n.index)
	}
	return vs, idxs
}

func (q *OptUnlinked[T]) localHeadIdxAddr(tid int) pmem.Addr {
	return q.localBase + pmem.Addr(tid)*pmem.CacheLineBytes
}

// writeLocalHeadIdx issues the (asynchronous) write of idx into tid's
// persistent local line; a subsequent Fence by the same thread makes
// it durable.
func (q *OptUnlinked[T]) writeLocalHeadIdx(tid int, idx uint64) {
	a := q.localHeadIdxAddr(tid)
	if q.plainStoreLocal {
		q.h.Store(tid, a, idx) // pays NVM read latency once flushed
		q.h.Flush(tid, a)
	} else {
		q.h.NTStore(tid, a, idx) // movnti: bypasses the cache entirely
	}
}

// enqueueOne runs the enqueue protocol of Figure 4 (lines 107-121) up
// to but not including the blocking fence: allocate, write item and
// index, link via CAS, set the linked flag and issue the asynchronous
// flush. It returns the tail observed at link time and the new node so
// the caller can order its fence and tail advance; EnqueueBatch (which
// Enqueue wraps) advances immediately and rides one fence for the
// whole batch.
func (q *OptUnlinked[T]) enqueueOne(tid int, v T) (tail, vn *ouNode[T]) {
	h := q.h
	pn := q.pool.Alloc(tid)
	// linked is cleared before the codec writes: a reused slot whose
	// stale linked flag and index survive a crash mid-write then never
	// pairs them with the new item's words (Assumption 1 orders stores
	// to one line).
	h.Store(tid, pn+ouLinked, 0) // line 113
	vn = &ouNode[T]{pnode: pn}
	vn.item, vn.side = q.codec.Write(tid, pn, v)
	for {
		tail = q.tail.Load()
		if next := tail.next.Load(); next == nil {
			idx := tail.index + 1                  // volatile read (line 117)
			h.Store(tid, pn+ouIndex, idx)          // Persistent copy
			vn.index = idx                         // Volatile copy (line 118)
			if tail.next.CompareAndSwap(nil, vn) { // line 119
				h.Store(tid, pn+ouLinked, 1) // line 120
				h.Flush(tid, pn)             // line 121
				return tail, vn
			}
		} else {
			q.tail.CompareAndSwap(tail, next) // line 124
		}
	}
}

// Enqueue appends v (Figure 4, lines 107-124): the one-element batch.
// One fence, zero post-flush accesses: the tail's index is read from
// the Volatile object, never from the flushed Persistent line.
func (q *OptUnlinked[T]) Enqueue(tid int, v T) {
	q.EnqueueBatch(tid, []T{v})
}

// EnqueueBatch appends vs in order, riding a single fence for the
// whole batch: every node is written, linked and asynchronously
// flushed exactly as in Enqueue, but the blocking SFENCE is issued
// once at the end. This amortization is sound because the algorithm
// already tolerates an enqueuer whose node is linked but not yet
// durable — any helper may advance the tail past it and append (and
// fence) later nodes; recovery sorts surviving nodes by index and
// accepts gaps, dropping exactly the unacknowledged enqueues. The
// batch is acknowledged as a whole when EnqueueBatch returns: at that
// point all of its nodes are durable.
func (q *OptUnlinked[T]) EnqueueBatch(tid int, vs []T) {
	if len(vs) == 0 {
		return
	}
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	for _, v := range vs {
		tail, vn := q.enqueueOne(tid, v)
		q.tail.CompareAndSwap(tail, vn)
	}
	q.h.Fence(tid) // the batch's single blocking persist
}

// EnqueueBatchUnfenced is the issue phase of EnqueueBatch alone: every
// node is written, linked and asynchronously flushed, but the blocking
// SFENCE is left to the caller. It is the pipelined-persist primitive:
// a producer may issue window N+1 while window N's flushed lines are
// still draining, then pay one fence covering both the residue and the
// new window's lines.
//
// Soundness is the same per-thread ordering argument as EnqueueBatch's:
// a fence by this thread covers *all* its earlier flushes, so a later
// Fence(tid) durably acknowledges every window issued before it, in
// order. Until that fence, the window's nodes are linked but possibly
// not durable — exactly the state any helper already tolerates, and
// recovery drops such nodes as unacknowledged enqueues (it sorts by
// index and accepts gaps). The caller must therefore not report the
// batch as acknowledged until it has issued a covering Fence on this
// queue's heap with the same tid.
func (q *OptUnlinked[T]) EnqueueBatchUnfenced(tid int, vs []T) {
	if len(vs) == 0 {
		return
	}
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	for _, v := range vs {
		tail, vn := q.enqueueOne(tid, v)
		q.tail.CompareAndSwap(tail, vn)
	}
}

// dequeueOne runs the dequeue protocol of Figure 4 (lines 90-99) up to
// but not including the blocking persist: CAS the head past the oldest
// node. On success it returns the node holding the dequeued item (now
// the queue's dummy) and the unlinked previous head, whose retirement
// the caller must defer until a covering head index is durable. On an
// empty observation ok is false and taken is the observed head, whose
// index the caller persists (or elides) to durably linearize the empty
// response.
func (q *OptUnlinked[T]) dequeueOne(tid int) (taken, old *ouNode[T], ok bool) {
	for {
		head := q.head.Load()
		next := head.next.Load()
		if next == nil {
			return head, nil, false
		}
		if q.head.CompareAndSwap(head, next) {
			return next, head, true
		}
	}
}

// retireAfterPersist hands old to the deferred-retirement cell (Figure
// 4, lines 102-105), releasing the previously deferred node. Call only
// after a fence covering old's dequeue.
func (q *OptUnlinked[T]) retireAfterPersist(tid int, old *ouNode[T]) {
	if r := q.per[tid].nodeToRetire; r != nil {
		q.retire(tid, r)
	}
	q.per[tid].nodeToRetire = old
}

// retire hands n's slot and side storage back for reuse.
func (q *OptUnlinked[T]) retire(tid int, n *ouNode[T]) {
	q.pool.Retire(tid, n.pnode)
	if n.side != 0 {
		q.codec.Release(tid, n.side)
	}
}

// Dequeue removes the oldest item (Figure 4, lines 90-106): the
// one-element batch dequeue, so the fence accounting — one NTStore +
// one fence on success, full elision on an already-durable empty
// observation — lives in DequeueBatchUnfenced alone. One fence, zero
// post-flush accesses.
func (q *OptUnlinked[T]) Dequeue(tid int) (v T, ok bool) {
	vs := q.DequeueBatch(tid, 1)
	if len(vs) == 0 {
		return v, false
	}
	return vs[0], true
}

// DequeueBatch removes up to max items in FIFO order, riding a single
// blocking persist for the whole batch: every dequeue CASes the head
// exactly as in Dequeue, but only the final head index is written to
// this thread's local line (one NTStore) and fenced once. The
// amortization is sound because the per-thread head index is monotone
// — recovery takes the maximum over all local lines, so persisting the
// last index covers every earlier one. The batch is acknowledged as a
// whole when DequeueBatch returns, exactly dual to EnqueueBatch: a
// crash mid-batch redelivers (or, if the unfenced NTStore happened to
// land, consumes) only items of the unacknowledged window. An empty
// result means the queue was observed empty.
func (q *OptUnlinked[T]) DequeueBatch(tid, max int) []T {
	if q.acked {
		// Lease + immediate acknowledgment: the batch is processed the
		// moment it is returned, riding the ack's single fence. An empty
		// observation issues nothing — emptiness is durable exactly when
		// the dequeues that emptied the queue are acknowledged.
		vs, idxs := q.DequeueLeased(tid, max)
		if len(vs) > 0 {
			q.AckTo(tid, idxs[len(idxs)-1])
		}
		return vs
	}
	vs, dirty := q.DequeueBatchUnfenced(tid, max)
	if dirty {
		q.h.Fence(tid) // the batch's single blocking persist
		q.CompleteBatch(tid)
	}
	return vs
}

// DequeueBatchUnfenced is DequeueBatch with the blocking persist left
// to the caller, so several queues sharing one heap can ride a single
// fence (package broker drains many shards per poll this way; a fence
// is per-thread and covers all of that thread's outstanding NTStores
// regardless of which line they target). It performs the CASes and the
// one NTStore of the final head index, but neither fences nor retires.
// dirty reports whether an NTStore is outstanding; if so the caller
// must issue a Fence for tid on the same heap and then call
// CompleteBatch before treating the items (or the empty observation)
// as durable. No other operation may run on this queue with this tid
// in between.
func (q *OptUnlinked[T]) DequeueBatchUnfenced(tid, max int) (vs []T, dirty bool) {
	if q.acked {
		panic("optunlinkedq: DequeueBatchUnfenced on an acked queue (use DequeueLeased/AckTo)")
	}
	if max <= 0 {
		return nil, q.per[tid].pendingDirty
	}
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	t := &q.per[tid]
	var last *ouNode[T]
	for len(vs) < max {
		taken, old, ok := q.dequeueOne(tid)
		if !ok {
			if last == nil {
				// Pure empty observation: persist the observed index
				// unless it is already durable or already NTStored.
				if taken.index > t.lastPersisted && !(t.pendingDirty && taken.index <= t.pendingIdx) {
					q.writeLocalHeadIdx(tid, taken.index)
					t.pendingIdx = taken.index
					t.pendingDirty = true
				}
				return nil, t.pendingDirty
			}
			break
		}
		vs = append(vs, taken.item)
		t.pendingRetire = append(t.pendingRetire, old)
		last = taken
	}
	q.writeLocalHeadIdx(tid, last.index) // one NTStore covers the batch
	t.pendingIdx = last.index
	t.pendingDirty = true
	return vs, true
}

// CompleteBatch finishes an unfenced batch dequeue after the caller's
// fence: it promotes the pending head index to lastPersisted and
// retires the unlinked nodes in one sweep (keeping the newest in the
// deferred cell, as in Dequeue).
func (q *OptUnlinked[T]) CompleteBatch(tid int) {
	t := &q.per[tid]
	if t.pendingDirty {
		t.lastPersisted = t.pendingIdx
		t.pendingDirty = false
	}
	for _, old := range t.pendingRetire {
		q.retireAfterPersist(tid, old)
	}
	t.pendingRetire = t.pendingRetire[:0]
}

// RecoverOptUnlinkedQ rebuilds the queue after a crash (Section 6.1).
// The head index is the maximum of the per-thread head indices; every
// Persistent object marked linked with a larger index is resurrected;
// matching Volatile objects are materialized and chained in index
// order.
func RecoverOptUnlinkedQ(h *pmem.Heap, threads int) *OptUnlinkedQ {
	return RecoverOptUnlinked[uint64](h, threads, false, wordCodec{h})
}

// RecoverOptUnlinkedQAcked rebuilds an ack-mode queue after a crash.
// The consumption frontier is the maximum of the per-thread *acked*
// indices, so every linked node beyond it — including items that were
// leased out and possibly delivered, but never acknowledged — is
// resurrected for redelivery. Acknowledged items never reappear.
func RecoverOptUnlinkedQAcked(h *pmem.Heap, threads int) *OptUnlinkedQ {
	return RecoverOptUnlinked[uint64](h, threads, true, wordCodec{h})
}

// RecoverOptUnlinked rebuilds a queue of items laid out by c after a
// crash: every linked Persistent object beyond the recovered frontier
// that c validates is resurrected, and the matching Volatile objects
// are chained in index order. acked must match the mode the queue was
// created in; a mismatch is refused rather than silently mis-scanned.
func RecoverOptUnlinked[T any](h *pmem.Heap, threads int, acked bool, c Codec[T]) *OptUnlinked[T] {
	ackBase := pmem.Addr(h.Load(0, h.RootAddr(slotAck)))
	if acked != (ackBase != 0) {
		panic(fmt.Sprintf("optunlinkedq: recovery with acked=%v, but the heap holds an acked=%v queue",
			acked, ackBase != 0))
	}
	localBase := pmem.Addr(h.Load(0, h.RootAddr(slotLocal)))
	perThread := make([]ouThread[T], threads)
	// The frontier is the maximum per-thread acked index in ack mode,
	// else the maximum per-thread head index.
	lines := localBase
	if acked {
		lines = ackBase
	}
	var headIdx uint64
	for t := 0; t < threads; t++ {
		v := h.Load(0, lines+pmem.Addr(t)*pmem.CacheLineBytes)
		if !acked {
			// Seed the elision cache with what this thread provably
			// persisted before the crash; its next failing dequeue at a
			// higher index will persist again.
			perThread[t].lastPersisted = v
		}
		if v > headIdx {
			headIdx = v
		}
	}

	var live []*ouNode[T]
	var pool *ssmem.Pool
	c.Recover(func() {
		pool = recoverNodePool(h, threads, func(a pmem.Addr) bool {
			if h.Load(0, a+ouLinked) != 1 {
				return false
			}
			idx := h.Load(0, a+ouIndex)
			if idx <= headIdx {
				return false
			}
			item, side, ok := c.Load(a)
			if ok {
				live = append(live, &ouNode[T]{item: item, index: idx, pnode: a, side: side})
			}
			return ok
		})
	})
	sort.Slice(live, func(i, j int) bool { return live[i].index < live[j].index })
	for i := 1; i < len(live); i++ {
		if live[i].index == live[i-1].index {
			panic(fmt.Sprintf("optunlinkedq recovery: duplicate index %d", live[i].index))
		}
	}

	q := &OptUnlinked[T]{
		h: h, codec: c, pool: pool, localBase: localBase, per: perThread,
		acked: acked, ackBase: ackBase,
	}
	if acked {
		q.ackDurable = headIdx
	}
	dummyPn := pool.Alloc(0)
	h.Store(0, dummyPn+ouLinked, 0)
	h.Store(0, dummyPn+ouIndex, headIdx)
	prev := &ouNode[T]{index: headIdx, pnode: dummyPn}
	q.head.Store(prev)
	for _, n := range live {
		prev.next.Store(n)
		prev = n
	}
	q.tail.Store(prev)
	return q
}
