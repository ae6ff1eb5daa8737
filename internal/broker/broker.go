// Package broker is a durably linearizable, sharded, multi-topic
// message broker composed from the paper's second-amendment queues —
// the use case the paper's introduction motivates (IBM MQ, Oracle
// Tuxedo MQ, RabbitMQ keep FIFO queues at their core, today structured
// for block storage; NVRAM queues remove the marshaling and
// file-system layers), treated as a first-class recoverable system in
// the spirit of Gray's "Queues Are Databases".
//
// A Broker manages N topics, each split into M shards, spread over a
// pmem.HeapSet — an ordered set of independent NVRAM domains (NUMA
// sockets / DIMM sets). Every shard is an independent durable queue —
// a queues.OptUnlinked of byte payloads, whose codec stores a fixed
// 8-byte payload as the node's item word and a variable payload in
// blobq blobs — living in its own root-slot window of one member heap
// (see pmem.View). Shard placement is pluggable: the
// default round-robin policy spreads load evenly across domains, the
// block policy keeps contiguous shard ranges on one domain so that a
// consumer owning them fences a single domain per poll (heap-affine
// consumption; pair with NewGroupAffine). Producers route messages to
// shards round-robin or by key hash, and may amortize durability cost
// with a batch-publish path that rides one SFENCE per batch. Consumers
// form groups; each shard is owned by exactly one group member, so
// per-shard FIFO order is preserved end-to-end.
//
// The broker is administered live: Open brings up an empty (or
// recovered) broker and CreateTopic/CreateAckGroup append checksummed
// records to a durable catalog log at runtime, each creation made
// visible only by its anchor stamp's persist (see admin.go and
// cataloglog.go). The lifecycle is complete: DeleteTopic retires a
// topic with a tombstone record under the same ordered-persist
// discipline and returns its root-slot windows to a size-bucketed
// free list that CreateTopic reuses, so churning workloads reach a
// steady-state NVRAM footprint; CompactCatalog rewrites the live
// records into a fresh log generation when tombstone debris
// accumulates (and doubles as the log's resize path).
//
// The broker is observable without being perturbed: Options.Observer
// accepts an obs.Observer that receives per-op latency samples
// (publish/poll/ack/admin), per-topic message counters, per-group
// per-shard lag, and trace events. Observation issues no persist
// instructions — enabling it adds zero fences, zero NTStores and zero
// flushes to every operation — and with no observer each
// instrumentation site costs one predictable branch. Group.Subscribe's
// concurrency rules are a hard contract: acked groups may be
// subscribed while members poll; plain groups must be quiescent (see
// Subscribe).
//
// Acked groups manage their own membership: lease lines carry fencing
// epochs bumped on every takeover, so a member displaced by the expiry
// scanner (Group.Scan, or the background Janitor), by a partial
// split (Group.Reassign) or by work-stealing (Consumer.Steal) has its
// stale acknowledgments refused with ErrFenced instead of corrupting
// the exactly-once frontier; Consumer.Heartbeat keeps a healthy
// member's leases alive at zero persist cost when its durable
// deadlines still cover the TTL (see membership.go).
//
// The tail-latency layer rides on the same paths without changing
// their contracts. Topic.NewPublisher buffers payloads into
// batch.Policy-sized windows (Fixed, or AIMD adapting between
// per-message and max-batch from arrival rate and fill), each window
// one batch publish — one fence — and under PublisherConfig.Pipeline
// the window's fence is deferred into the next flush so the
// write-pending queue drains while the producer keeps working
// (acknowledgment trails by one window; fence count is unchanged).
// Consumer.AckAsync defers an acknowledgment's covering fence the same
// way, traded against a documented at-least-once window on crash or
// takeover during the deferral. Poller services a consumer as a
// level-triggered event loop — drain everything ready, then park on an
// exponentially backed-off timer — so idle consumers cost ~0 CPU and
// ~0 persists instead of a spinning core (see poller.go).
//
// Durability contract: a publish is acknowledged when the call
// returns; from that point the message survives any crash of any
// subset of the heap set (the set shares one power supply, so a crash
// on one domain downs them all). With a pipelined Publisher the
// acknowledgment is the int returned by Publish/Flush — the same
// guarantee, reported one window later. The durable catalog, anchored at
// heap 0's root slot 0, records every topic's name, shard count,
// payload kind and every shard's (heapID, baseSlot) placement; every
// other member heap carries a membership stamp so recovery can tell a
// mis-assembled set from the real one. Recovery is two-phase: replay
// the catalog on heap 0, then replay the paper's per-queue recovery
// heap by heap (the per-heap phases run in parallel — domains are
// independent). A delivery is durable when PollBatch returns: the winning
// dequeue's persist covers it, so a delivered message is never
// re-delivered after a crash (delivered-or-recovered exactly once for
// acknowledged publishes).
package broker

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/blobq"
	"repro/internal/dheap"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/queues"
)

// slotsPerShard is the root-slot window width handed to each FIFO
// shard's queue. Eight covers the highest slot it uses: the queue
// takes slots 2 and 3 (node pool, local lines) plus 4 in ack mode, and
// a sized topic's blobq codec adds 6 and 7 (blob pool, boot epoch).
const slotsPerShard = 8

// heapTopicSlots is the window width of a delay/priority shard: slot
// 0 anchors the dheap region, slot 1 is reserved for the per-group
// heap-cursor follow-on. Heap topics are the first window kind
// narrower than slotsPerShard, so re-creating one over a retired FIFO
// window exercises the free list's split-bucket path.
const heapTopicSlots = 2

// slotsForKind maps a topic kind to its shard-window width.
func slotsForKind(k TopicKind) int {
	if k == KindFIFO {
		return slotsPerShard
	}
	return heapTopicSlots
}

// TopicKind selects a topic's delivery order.
type TopicKind int

const (
	// KindFIFO is the default: per-shard FIFO order on the paper's
	// OptUnlinked queue.
	KindFIFO TopicKind = iota
	// KindDelay orders delivery by deadline: PublishAt(deadline)
	// publishes, DequeueReady(now) delivers pop-min among messages
	// whose deadline has passed. Backed by a dheap.Q.
	KindDelay
	// KindPriority orders delivery by ascending priority value;
	// every message is always ready. Backed by a dheap.Q.
	KindPriority
)

func (k TopicKind) String() string {
	switch k {
	case KindFIFO:
		return "fifo"
	case KindDelay:
		return "delay"
	case KindPriority:
		return "priority"
	default:
		return fmt.Sprintf("TopicKind(%d)", int(k))
	}
}

// heapKind reports whether k is one of the dheap-backed kinds.
func (k TopicKind) heapKind() bool { return k == KindDelay || k == KindPriority }

// slotAnchor is root slot 0 of every member heap: on heap 0 it anchors
// the durable catalog, on every other member the heap's membership
// stamp.
const slotAnchor = 0

// TopicConfig describes one topic.
type TopicConfig struct {
	// Name identifies the topic; at most 32 bytes, unique per broker.
	Name string
	// Shards is the number of independent durable queues the topic is
	// split over (>= 1). More shards mean more enqueue/dequeue
	// parallelism at the cost of ordering only per shard.
	Shards int
	// MaxPayload selects the shard queue's payload codec: 0 means fixed
	// 8-byte payloads held in the node's item word, the NVRAM layout of
	// an OptUnlinkedQ (the cheapest path); > 0 means variable payloads
	// up to MaxPayload bytes in sealed blobq blobs. Both kinds run the
	// same queue protocol.
	MaxPayload int
	// Acked makes the topic's shards ack-mode queues: delivery is a
	// durable lease (written before PollBatch returns) and a message is
	// consumed only when a Consumer.Ack covers it, so unacknowledged
	// messages are redelivered across both consumer crashes (lease
	// takeover, see Group.Reassign) and whole-broker crashes (recovery
	// resurrects everything beyond the acked frontier). Acked topics
	// are consumed through groups created with NewGroupAcked; plain
	// groups still work but acknowledge every delivery immediately.
	Acked bool
	// Kind selects the delivery order (default KindFIFO). Delay and
	// priority topics are heap-ordered (see heaptopic.go): they are
	// published with PublishAt/PublishPriority and consumed with
	// DequeueReady, require Shards == 1, and are incompatible with
	// Acked (heap delivery is its own durable consume protocol).
	Kind TopicKind
}

// PlacementPolicy chooses the member heap for one shard at topic
// creation time. topic and shard identify the shard, global is its
// ordinal in creation order across all topics, shards the topic's
// shard count and heaps the set size; the returned index must be in
// [0, heaps). The policy only runs inside CreateTopic — the catalog
// records the resulting (heapID, baseSlot) per shard, so recovery
// never needs the policy and custom policies are free to use any
// volatile state.
type PlacementPolicy func(topic, shard, global, shards, heaps int) int

// RoundRobinPlacement (the default) deals shards across the heap set
// in global creation order, balancing shard count per domain.
func RoundRobinPlacement(topic, shard, global, shards, heaps int) int {
	return global % heaps
}

// BlockPlacement keeps each topic's shards in contiguous runs per
// heap: shard s of a topic with n shards lands on heap s*heaps/n.
// Consumers that own contiguous shard ranges (see NewGroupAffine) then
// touch — and fence — a single persistence domain per poll.
func BlockPlacement(topic, shard, global, shards, heaps int) int {
	return shard * heaps / shards
}

// Broker is a sharded multi-topic durable message broker over a heap
// set. Methods taking a tid are safe for concurrent use as long as
// each tid is driven by at most one goroutine at a time.
//
// The broker has two planes. The data plane — Topic lookup, publish,
// poll — reads an immutable topic snapshot swapped atomically, so it
// is wait-free with respect to administration. The admin plane —
// CreateTopic, CreateAckGroup — appends records to the durable
// catalog log under an internal mutex and publishes a new snapshot;
// it may run concurrently with data-plane traffic as long as its tid
// is owned by the calling goroutine, like any other operation.
type Broker struct {
	hs        *pmem.HeapSet
	threads   int
	placement PlacementPolicy

	// obs is the optional observability sink (Options.Observer), fixed
	// for the broker's lifetime at Open. Invariant: when obs is non-nil,
	// every Topic carries its ostats and every group ref its cursor, so
	// the hot paths test only this one pointer. Observation never
	// touches pmem — an enabled observer adds zero fences, zero
	// NTStores and zero flushes (pinned by TestObserverZeroPersistCost).
	obs *obs.Observer

	// snap is the copy-on-write topic snapshot the data plane reads.
	snap atomic.Pointer[topicSet]

	// adminMu serializes administrative operations; cat is the
	// catalog log, never nil (Open creates or replays it).
	adminMu sync.Mutex
	cat     *catalogLog

	// Durable lease regions for acked consumer groups; regionMu guards
	// the slices (CreateAckGroup appends) and the bound flags, which
	// mark regions claimed by a live NewGroupAcked.
	regionMu sync.Mutex
	regions  []leaseRegion
	bound    []bool
}

// topicSet is one immutable data-plane snapshot: the live topics in
// catalog order, the name index, and the global shard-ordinal
// frontier (the next topic's first global shard ordinal). shardTotal
// is monotone — a deleted topic's ordinals are never reissued, so a
// stale lease line can never be adopted by a new topic's shard.
type topicSet struct {
	list       []*Topic
	byName     map[string]*Topic
	shardTotal int
}

// shard wraps one durable queue together with its placement: heap is
// the member index (the fence domain), h the shard's root-slot view of
// it. A FIFO shard's queue is the same type for both payload kinds;
// only the codec it was built with differs (see newFIFO).
type shard struct {
	q     *queues.OptUnlinked[[]byte] // KindFIFO
	heapq *dheap.Q                    // KindDelay / KindPriority
	heap  int
	h     *pmem.Heap
	acked bool
}

// newFIFO creates a FIFO shard's queue under tid. A fixed topic's
// 8-byte payload is the node's item word, byte for byte an
// OptUnlinkedQ's node; a sized topic's payload lives in blobq blobs.
func newFIFO(view *pmem.Heap, threads, tid int, tc TopicConfig) *queues.OptUnlinked[[]byte] {
	if tc.MaxPayload == 0 {
		return queues.NewOptUnlinked(view, threads, tid, tc.Acked, queues.Word8(view))
	}
	return blobq.New(view, blobq.Config{
		Threads: threads, MaxPayload: tc.MaxPayload, Acked: tc.Acked, InitTid: tid,
	}).OptUnlinked
}

// recoverFIFO rebuilds a FIFO shard's queue built by newFIFO.
func recoverFIFO(view *pmem.Heap, threads int, tc TopicConfig) *queues.OptUnlinked[[]byte] {
	if tc.MaxPayload == 0 {
		return queues.RecoverOptUnlinked(view, threads, tc.Acked, queues.Word8(view))
	}
	return blobq.Recover(view, blobq.Config{
		Threads: threads, MaxPayload: tc.MaxPayload, Acked: tc.Acked,
	}).OptUnlinked
}

// consumeBatchUnfenced dequeues up to max messages, recording the
// shard's new head index with one NTStore but leaving the blocking
// fence (and the node retires) to the caller, so one fence per touched
// *heap* can cover several shards' dequeues in a single poll. dirty
// reports an outstanding NTStore; the caller must fence the tid on the
// shard's heap and then call q.CompleteBatch. On an acked shard the
// batch is instead leased and acknowledged immediately (self-fenced,
// one fence per shard): amortized acked consumption goes through
// leased groups, not this path.
func (s *shard) consumeBatchUnfenced(tid, max int) ([][]byte, bool) {
	if s.acked {
		return s.q.DequeueBatch(tid, max), false
	}
	return s.q.DequeueBatchUnfenced(tid, max)
}

// U64 encodes v as the 8-byte payload of a fixed topic.
func U64(v uint64) []byte {
	p := make([]byte, 8)
	binary.LittleEndian.PutUint64(p, v)
	return p
}

// AsU64 decodes a fixed-topic payload.
func AsU64(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }

// validateTopic checks one topic's configuration, shared by
// CreateTopic and recovery.
func validateTopic(tc TopicConfig) error {
	if tc.Name == "" || len(tc.Name) > catNameBytes {
		return fmt.Errorf("broker: topic name %q must be 1..%d bytes", tc.Name, catNameBytes)
	}
	if tc.Shards <= 0 || tc.Shards > maxCatShards {
		return fmt.Errorf("broker: topic %q shard count %d out of range [1,%d]", tc.Name, tc.Shards, maxCatShards)
	}
	if tc.MaxPayload < 0 || uint64(tc.MaxPayload) >= uint64(1)<<catKindShift {
		return fmt.Errorf("broker: topic %q has invalid MaxPayload %d", tc.Name, tc.MaxPayload)
	}
	if tc.Kind < KindFIFO || tc.Kind > KindPriority {
		return fmt.Errorf("broker: topic %q has invalid kind %d", tc.Name, int(tc.Kind))
	}
	if tc.Kind.heapKind() {
		if tc.Shards != 1 {
			return fmt.Errorf("broker: %s topic %q must have exactly 1 shard (heap order is global), got %d",
				tc.Kind, tc.Name, tc.Shards)
		}
		if tc.Acked {
			return fmt.Errorf("broker: %s topic %q cannot be acked (heap delivery is its own durable consume protocol)",
				tc.Kind, tc.Name)
		}
	}
	return nil
}

// checkSet verifies the heap set can host a broker with the given
// thread bound: every member must admit at least that many thread ids.
func checkSet(hs *pmem.HeapSet, threads int) error {
	for i := 0; i < hs.Len(); i++ {
		if mt := hs.Heap(i).MaxThreads(); mt < threads {
			return fmt.Errorf("broker: heap %d admits %d threads, broker needs %d", i, mt, threads)
		}
	}
	return nil
}

// build constructs the volatile broker skeleton over a replayed
// layout and recovers each shard's queue on its root-slot view of its
// member heap. Shards are recovered heap by heap, the per-heap phases
// in parallel: member heaps are independent simulators with their own
// per-thread state, so tid 0 may run on each concurrently. This is the
// second phase of recovery.
func build(hs *pmem.HeapSet, threads int, lay layoutInfo) (*Broker, error) {
	b := &Broker{hs: hs, threads: threads, placement: RoundRobinPlacement, cat: lay.cat}
	snap := &topicSet{byName: map[string]*Topic{}, shardTotal: lay.nextGlobal}
	type job struct {
		t   *Topic
		si  int
		loc shardLoc
	}
	perHeap := make([][]job, hs.Len())
	for ti, tc := range lay.topics {
		t := &Topic{b: b, cfg: tc, base: lay.bases[ti], locs: lay.locs[ti], shards: make([]*shard, tc.Shards)}
		for si, loc := range t.locs {
			perHeap[loc.heap] = append(perHeap[loc.heap], job{t: t, si: si, loc: loc})
		}
		snap.list = append(snap.list, t)
		snap.byName[tc.Name] = t
	}
	var errMu sync.Mutex
	var firstErr error
	fanOut(perHeap, func(hi int, jobs []job) {
		h := hs.Heap(hi)
		for _, j := range jobs {
			tc := j.t.cfg
			view := h.View(j.loc.base, slotsForKind(tc.Kind))
			s := &shard{heap: hi, h: view, acked: tc.Acked}
			switch {
			case tc.Kind.heapKind():
				q, err := dheap.Recover(view, threads)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("broker: topic %q: %w", tc.Name, err)
					}
					errMu.Unlock()
				}
				s.heapq = q
			default:
				s.q = recoverFIFO(view, threads, tc)
			}
			j.t.shards[j.si] = s
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	b.snap.Store(snap)
	return b, nil
}

// testHookFanOut, when non-nil, runs at the start of each fanOut
// worker with its heap index — where a crash must still reach the
// caller's pmem.Protect. Tests only.
var testHookFanOut func(hi int)

// fanOut runs fn(hi, jobs) on its own goroutine for every heap index
// with jobs and waits for all of them. A panic in a worker, a simulated
// crash included, is re-raised on the caller's goroutine once every
// worker has stopped, so a pmem.Protect around the caller sees it
// instead of it killing the process.
func fanOut[T any](perHeap [][]T, fn func(hi int, jobs []T)) {
	var wg sync.WaitGroup
	var once sync.Once
	var raised any
	for hi, jobs := range perHeap {
		if len(jobs) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { raised = r })
				}
			}()
			if testHookFanOut != nil {
				testHookFanOut(hi)
			}
			fn(hi, jobs)
		}()
	}
	wg.Wait()
	if raised != nil {
		panic(raised)
	}
}

// set returns the current data-plane topic snapshot.
func (b *Broker) set() *topicSet { return b.snap.Load() }

// Topic returns the named topic, or nil if the broker has none.
func (b *Broker) Topic(name string) *Topic { return b.set().byName[name] }

// Topics lists the broker's topics in catalog order. The returned
// slice is the caller's to keep: it is a copy, never an alias of
// broker state.
func (b *Broker) Topics() []*Topic {
	s := b.set()
	return append([]*Topic(nil), s.list...)
}

// TopicNames lists the broker's topic names, sorted.
func (b *Broker) TopicNames() []string {
	s := b.set()
	names := make([]string, len(s.list))
	for i, t := range s.list {
		names[i] = t.Name()
	}
	sort.Strings(names)
	return names
}

// Threads reports the configured thread-id bound.
func (b *Broker) Threads() int { return b.threads }

// Heaps reports the size of the heap set the broker spans.
func (b *Broker) Heaps() int { return b.hs.Len() }

// AckGroups reports the number of consumer-group lease regions (each
// usable by one NewGroupAcked at a time).
func (b *Broker) AckGroups() int {
	b.regionMu.Lock()
	defer b.regionMu.Unlock()
	return len(b.regions)
}

// ShardTotal reports the global shard-ordinal frontier: one past the
// highest ordinal any topic — live or deleted — ever held. Global
// shard ordinals (catalog creation order) index the lease regions;
// the frontier is monotone so a retired topic's lease lines are never
// adopted by a new one.
func (b *Broker) ShardTotal() int { return b.set().shardTotal }

// CatalogGeneration reports the catalog log's generation — bumped by
// every CompactCatalog.
func (b *Broker) CatalogGeneration() uint64 {
	b.adminMu.Lock()
	defer b.adminMu.Unlock()
	return b.cat.gen
}

// SlotFootprint reports the broker's root-slot footprint: used is the
// total number of slots below the per-heap high-water marks (the
// anchor slots excluded) — the durable NVRAM the broker has ever
// claimed for shard windows and lease regions — and free how many of
// those currently sit on the free list awaiting reuse. A churning
// workload whose deletes balance its creates holds used steady while
// free oscillates.
func (b *Broker) SlotFootprint() (used, free int) {
	b.adminMu.Lock()
	defer b.adminMu.Unlock()
	for _, m := range b.cat.marks {
		used += m - 1 // slot 0 is the anchor, never allocator-owned
	}
	return used, b.cat.freeSlots()
}

// HeapSet returns the heap set the broker spans.
func (b *Broker) HeapSet() *pmem.HeapSet { return b.hs }

// Observer returns the observability sink the broker was opened with,
// nil when observation is disabled.
func (b *Broker) Observer() *obs.Observer { return b.obs }
