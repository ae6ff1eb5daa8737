package broker

import (
	"fmt"
	"runtime"

	"repro/internal/dheap"
	"repro/internal/obs"
	"repro/internal/pmem"
)

// Live broker administration. Open brings up a broker — empty on a
// fresh heap set, fully recovered on a set carrying a catalog — and
// CreateTopic/CreateAckGroup append to the durable catalog log at
// runtime, so a production deployment never has to declare its whole
// topic universe up front. DeleteTopic and CompactCatalog complete
// the lifecycle: topics retire behind tombstone records, their shard
// windows return through a free list, and the log itself is rewritten
// into a fresh generation when debris accumulates. Every operation is
// crash-atomic through the second amendment's ordered-persist
// discipline (allocate → fence, initialize, append → fence, anchor;
// see cataloglog.go): a crash at any point either recovers the
// operation completely or as if it was never attempted.

// Options parameterizes Open.
type Options struct {
	// Threads bounds the thread ids that may call broker operations.
	// Required (positive) when Open creates a fresh broker; on
	// recovery, 0 adopts the recorded bound and any other value must
	// match it.
	Threads int
	// Placement chooses each shard's member heap at CreateTopic time;
	// nil means RoundRobinPlacement. Never consulted for recovered
	// topics (the catalog records their placements).
	Placement PlacementPolicy
	// CatalogLines is the record capacity of the catalog log in cache
	// lines when Open creates a fresh broker (default 1024 — a few
	// hundred typical topics; a topic record spans 2 + shards/8 lines).
	// Ignored on recovery: the log's recorded capacity is adopted, and
	// CompactCatalog is the way to grow it.
	CatalogLines int
	// Observer, when non-nil, receives per-op latency samples, topic
	// and group gauges, and trace events for the broker's lifetime. Its
	// thread bound must cover the broker's. Observation costs no
	// persist instructions; with Observer nil each instrumentation site
	// costs one predictable branch. The same observer may be handed to
	// a recovered broker: topic gauge state is re-registered by name,
	// so counters span crashes of the observed process's broker.
	Observer *obs.Observer
}

// Open brings up a broker on the heap set, and is the only way to: a
// set whose anchor heap hosts a catalog is recovered, an empty set
// gets a fresh broker with no topics — create them at runtime with
// CreateTopic. The anchor stamp is the last persist of creation, so a
// crash inside Open leaves no broker. Call while no other thread
// operates; Open itself uses thread id 0.
func Open(hs *pmem.HeapSet, opts Options) (*Broker, error) {
	h := hs.Heap(0)
	if h.Load(0, h.RootAddr(slotAnchor)) == 0 {
		return openFresh(hs, opts)
	}
	return openExisting(hs, opts)
}

// openFresh creates an empty broker: membership stamps on heaps 1..,
// then the catalog log header, zero commit line and virgin high-water
// marks on heap 0, fenced before the anchor names them.
func openFresh(hs *pmem.HeapSet, opts Options) (*Broker, error) {
	if opts.Threads <= 0 {
		return nil, fmt.Errorf("broker: Threads must be positive to create a broker")
	}
	if opts.CatalogLines == 0 {
		opts.CatalogLines = defaultCatalogLines
	}
	maxCap := maxCatalogLines - logHeaderLines - allocLinesFor(hs.Len())
	if opts.CatalogLines < 1 || opts.CatalogLines > maxCap {
		return nil, fmt.Errorf("broker: CatalogLines %d out of range [1,%d]", opts.CatalogLines, maxCap)
	}
	if err := checkSet(hs, opts.Threads); err != nil {
		return nil, err
	}
	for i := 0; i < hs.Len(); i++ {
		if err := checkMemberEmpty(hs.Heap(i), i); err != nil {
			return nil, err
		}
	}
	b := &Broker{hs: hs, threads: opts.Threads, placement: opts.Placement}
	if b.placement == nil {
		b.placement = RoundRobinPlacement
	}
	b.cat = createCatalogLog(hs, 0, opts.Threads, opts.CatalogLines)
	b.snap.Store(&topicSet{byName: map[string]*Topic{}})
	if err := b.observe(opts.Observer); err != nil {
		return nil, err
	}
	return b, nil
}

// observe installs the observer on a newly opened broker: the
// heap-stat provider, plus gauge state for every topic the broker
// already has (recovery re-registers by name, so an observer that
// outlives the broker keeps its counters). Establishes the invariant
// the hot paths rely on: b.obs != nil ⇒ every topic has ostats.
func (b *Broker) observe(o *obs.Observer) error {
	if o == nil {
		return nil
	}
	if o.Threads() < b.threads {
		return fmt.Errorf("broker: observer admits %d thread ids, broker needs %d", o.Threads(), b.threads)
	}
	b.obs = o
	hs := b.hs
	o.SetHeapStats(func() []pmem.Stats {
		out := make([]pmem.Stats, hs.Len())
		for i := range out {
			out[i] = hs.Heap(i).TotalStats()
		}
		return out
	})
	for _, t := range b.set().list {
		t.ostats = o.RegisterTopic(t.Name(), t.Shards())
	}
	return nil
}

// openExisting recovers the broker anchored on the set. Recovery is
// two-phase: phase one replays the catalog log on heap 0 and verifies
// every other member's stamp against it — a set missing a catalogued
// heap, containing a blank or foreign heap, or assembled in the wrong
// order is an error, never a silent mis-scan. Phase two replays the
// paper's per-queue recovery for every shard, heap by heap in
// parallel, then re-binds the lease regions.
//
// opts.Threads must equal the bound the broker was created with (it
// sizes the per-thread head-index regions recovery scans), or be 0 to
// adopt the recorded bound. A mismatch is an error, never silent
// corruption.
func openExisting(hs *pmem.HeapSet, opts Options) (*Broker, error) {
	lay, err := readCatalog(hs)
	if err != nil {
		return nil, err
	}
	threads := opts.Threads
	if threads == 0 {
		threads = lay.threads
	} else if threads != lay.threads {
		return nil, fmt.Errorf("broker: Open with %d threads, but the broker was created with %d",
			threads, lay.threads)
	}
	if threads <= 0 {
		return nil, fmt.Errorf("broker: catalog records non-positive thread bound %d", lay.threads)
	}
	if err := checkSet(hs, threads); err != nil {
		return nil, err
	}
	// Replay checks each record's fields and placements; the per-kind
	// rules (heap topics: one shard, never acked) are validateTopic's.
	for _, tc := range lay.topics {
		if err := validateTopic(tc); err != nil {
			return nil, err
		}
	}
	b, err := build(hs, threads, lay)
	if err != nil {
		return nil, err
	}
	for g, loc := range lay.leaseLocs {
		lr, err := readLeaseRegion(hs.Heap(loc.heap), loc.heap, loc.base, g, lay.leaseCaps[g])
		if err != nil {
			return nil, err
		}
		b.regions = append(b.regions, lr)
	}
	b.bound = make([]bool, len(b.regions))
	if opts.Placement != nil {
		b.placement = opts.Placement
	}
	if err := b.observe(opts.Observer); err != nil {
		return nil, err
	}
	return b, nil
}

// CreateTopic creates a topic on a live broker, durably: the shard
// windows are claimed in the catalog's high-water slot allocator and
// the marks fenced (a window handed out before a crash is never
// reused), the shard queues are initialized on the member heaps the
// placement policy chose, a checksummed record is appended to the
// catalog log and fenced, and only then does the commit stamp's
// persist make the topic visible. A crash anywhere before that last
// persist recovers as if CreateTopic was never called; after it, the
// topic recovers fully, empty or with whatever was published.
//
// The catalog-protocol cost is a pinned three blocking persists
// (allocator marks, record, commit stamp) plus the per-shard queue
// initialization — independent of how many topics the broker already
// has. When every shard window is reused from the free list the marks
// never move and their persist is skipped: two blocking persists.
//
// tid follows the usual rule: it must be owned by the calling
// goroutine for the duration, and may be any id in [0, Threads).
// CreateTopic may run concurrently with data-plane traffic on other
// tids; concurrent CreateTopic calls serialize internally. Groups do
// not subscribe new topics automatically — subscribe an existing
// group with Group.Subscribe, or create a new group.
func (b *Broker) CreateTopic(tid int, tc TopicConfig) (*Topic, error) {
	b.adminMu.Lock()
	defer b.adminMu.Unlock()
	o := b.obs
	var startNs int64
	if o != nil {
		startNs = obs.Now()
	}
	if err := validateTopic(tc); err != nil {
		return nil, err
	}
	snap := b.set()
	if snap.byName[tc.Name] != nil {
		return nil, fmt.Errorf("broker: duplicate topic %q", tc.Name)
	}
	if len(snap.list)+1 > maxCatTopics {
		return nil, fmt.Errorf("broker: broker already has %d topics (max %d)", len(snap.list), maxCatTopics)
	}
	// Reserve log space up front so a full log cannot leak windows.
	if err := b.cat.checkRoom(topicRecLines(tc.Shards)); err != nil {
		return nil, err
	}
	if snap.shardTotal+tc.Shards > maxCatShards {
		return nil, fmt.Errorf("broker: global shard ordinal space exhausted (%d of %d; ordinals of deleted topics are never reissued)",
			snap.shardTotal, maxCatShards)
	}

	// 1. Allocate: run the placement policy against a scratch copy of
	// the high-water marks, taking free-list windows (retired by
	// earlier deletes) before bumping a mark, then claim the fresh
	// windows and fence the marks. On error the popped free windows go
	// back — nothing durable has happened yet.
	width := slotsForKind(tc.Kind)
	tmp := append([]int(nil), b.cat.marks...)
	locs := make([]shardLoc, tc.Shards)
	reused := make([]bool, tc.Shards)
	var popped []shardLoc
	unpop := func() {
		for _, loc := range popped {
			b.cat.releaseSlots(loc.heap, loc.base, width)
		}
	}
	for si := range locs {
		hi := b.placement(len(snap.list), si, snap.shardTotal+si, tc.Shards, b.hs.Len())
		if hi < 0 || hi >= b.hs.Len() {
			unpop()
			return nil, fmt.Errorf("broker: placement policy put topic %q shard %d on heap %d of %d",
				tc.Name, si, hi, b.hs.Len())
		}
		if base, ok := b.cat.takeFree(hi, width); ok {
			locs[si] = shardLoc{heap: hi, base: base}
			reused[si] = true
			popped = append(popped, locs[si])
			continue
		}
		if tmp[hi]+width > b.hs.Heap(hi).RootSlots() {
			unpop()
			return nil, fmt.Errorf("broker: heap %d out of root slots (topic %q shard %d needs %d, %d left)",
				hi, tc.Name, si, width, b.hs.Heap(hi).RootSlots()-tmp[hi])
		}
		locs[si] = shardLoc{heap: hi, base: tmp[hi]}
		tmp[hi] += width
	}
	marksDirty := false
	for hi := range tmp {
		if tmp[hi] != b.cat.marks[hi] {
			b.cat.marks[hi] = tmp[hi]
			b.cat.h.Store(tid, b.cat.markAddr(hi), uint64(tmp[hi]))
			marksDirty = true
		}
	}
	if marksDirty {
		b.cat.persistMarks(tid)
	}

	// 2. Initialize the shard queues, heap by heap in parallel (the
	// same tid may run on every member concurrently: per-thread
	// simulator state is per heap).
	t := &Topic{b: b, cfg: tc, base: snap.shardTotal, locs: locs, shards: make([]*shard, tc.Shards)}
	perHeap := make([][]int, b.hs.Len())
	for si, loc := range locs {
		perHeap[loc.heap] = append(perHeap[loc.heap], si)
	}
	fanOut(perHeap, func(hi int, shards []int) {
		h := b.hs.Heap(hi)
		for _, si := range shards {
			view := h.View(locs[si].base, width)
			if reused[si] {
				// Scrub a free-list window's root slots before building
				// on it: the retired queue's slots (acked frontier,
				// epoch...) would otherwise survive wherever the new
				// queue kind does not overwrite them and mislead the
				// recovery dispatch. The constructor's own persist on
				// this heap orders the scrub durably before the
				// record's anchor, so a crash never sees a committed
				// topic on an unscrubbed window.
				for slot := 0; slot < width; slot++ {
					view.Store(tid, view.RootAddr(slot), 0)
					view.Flush(tid, view.RootAddr(slot))
				}
			}
			var s *shard
			switch {
			case tc.Kind.heapKind():
				s = &shard{heapq: dheap.New(view, dheap.Config{
					Threads: b.threads, MaxPayload: tc.MaxPayload, InitTid: tid,
				})}
			default:
				s = &shard{q: newFIFO(view, b.threads, tid, tc)}
			}
			s.heap = hi
			s.h = view
			s.acked = tc.Acked
			t.shards[si] = s
		}
	})

	// 3 + 4. Append the record, fence, anchor. Visible only after the
	// commit persist; a crash in between recovers as "never existed"
	// (the popped free windows then come back through replay's
	// allocator simulation, just as they come back here on error).
	hdr, body := topicRecord(b.cat.records+1, tc, locs, snap.shardTotal)
	if err := b.cat.appendRecord(tid, hdr, body); err != nil {
		unpop()
		return nil, err
	}
	if o != nil {
		// Registered before the snapshot swap publishes the topic, so
		// the hot-path invariant (visible topic ⇒ ostats set) holds.
		t.ostats = o.RegisterTopic(tc.Name, tc.Shards)
	}

	ns := &topicSet{
		list:       append(append([]*Topic(nil), snap.list...), t),
		byName:     make(map[string]*Topic, len(snap.byName)+1),
		shardTotal: snap.shardTotal + tc.Shards,
	}
	for n, tp := range snap.byName {
		ns.byName[n] = tp
	}
	ns.byName[tc.Name] = t
	b.snap.Store(ns)
	if o != nil {
		o.Lat(tid, obs.OpAdmin, startNs)
		o.Event(tid, obs.OpAdmin, t.ostats, -1)
	}
	return t, nil
}

// AckGroupConfig parameterizes CreateAckGroup.
type AckGroupConfig struct {
	// Capacity is the number of global shard ordinals the region's
	// lease lines cover: consumer groups bound to the region may only
	// subscribe topics whose shards fall below it. It must be at least
	// the broker's current shard total; 0 selects the current shard
	// total plus 256 ordinals of headroom for topics created later.
	Capacity int
}

// defaultLeaseHeadroom is the growth headroom (in global shard
// ordinals) CreateAckGroup adds over the current shard total when
// AckGroupConfig.Capacity is zero: room for topics created after the
// region.
const defaultLeaseHeadroom = 256

// CreateAckGroup allocates a durable consumer-group lease region on a
// live broker and records it in the catalog log, following the same
// allocate → initialize → append → anchor discipline as CreateTopic
// (the same crash atomicity holds). Regions are dealt round-robin
// across the heap set. Returns the region index to pass as
// LeaseConfig.Region to NewGroupAcked.
func (b *Broker) CreateAckGroup(tid int, cfg AckGroupConfig) (int, error) {
	b.adminMu.Lock()
	defer b.adminMu.Unlock()
	o := b.obs
	var startNs int64
	if o != nil {
		startNs = obs.Now()
	}
	snap := b.set()
	capacity := cfg.Capacity
	if capacity == 0 {
		capacity = snap.shardTotal + defaultLeaseHeadroom
	}
	if capacity < snap.shardTotal {
		return 0, fmt.Errorf("broker: lease capacity %d below the current shard total %d", capacity, snap.shardTotal)
	}
	if capacity > maxCatShards {
		return 0, fmt.Errorf("broker: lease capacity %d out of range [1,%d]", capacity, maxCatShards)
	}
	b.regionMu.Lock()
	group := len(b.regions)
	b.regionMu.Unlock()
	if group+1 > maxCatAckGroups {
		return 0, fmt.Errorf("broker: broker already has %d ack groups (max %d)", group, maxCatAckGroups)
	}
	if err := b.cat.checkRoom(1); err != nil {
		return 0, err
	}

	hi := group % b.hs.Len()
	loc, err := b.cat.allocSlots(tid, hi, 1, b.hs, fmt.Sprintf("lease region %d", group))
	if err != nil {
		return 0, err
	}
	b.cat.persistMarks(tid)
	lr := initLeaseRegion(b.hs.Heap(hi), tid, hi, loc.base, group, capacity)
	if err := b.cat.appendRecord(tid, ackGroupRecord(b.cat.records+1, capacity, loc), nil); err != nil {
		return 0, err
	}
	b.regionMu.Lock()
	b.regions = append(b.regions, lr)
	b.bound = append(b.bound, false)
	b.regionMu.Unlock()
	if o != nil {
		o.Lat(tid, obs.OpAdmin, startNs)
		o.Event(tid, obs.OpAdmin, nil, -1)
	}
	return group, nil
}

// DeleteTopic retires the named topic durably and reclaims its NVRAM:
// the topic is unpublished from the data plane (every *Topic handle
// turns into ErrTopicDeleted, in-flight operations are drained), a
// checksummed tombstone record is appended to the catalog log and
// anchored exactly like a creation, and only after that anchor persist
// do the topic's shard windows return to the free-list allocator for
// CreateTopic to reuse. A crash anywhere before the anchor recovers as
// "the topic still exists" — with every message it held — and a crash
// after it recovers the delete completely, so a window is never
// reusable in any execution where the topic could come back.
//
// Messages still in the topic are dropped with it: drain first (group
// consumption or DequeueShard) if they matter. Consumer groups that
// subscribed the topic keep working on their other topics — polls skip
// the deleted refs — and the topic's global shard ordinals are never
// reissued, so its stale lease lines can never be adopted by a new
// topic.
//
// The catalog-protocol cost is at most three blocking persists; the
// common path is two (tombstone record, commit stamp — the high-water
// marks never move backward). When tombstone debris has accumulated
// past half the log's record space, DeleteTopic compacts the log in
// the same call (see CompactCatalog) — amortized, the cost bound
// still holds.
func (b *Broker) DeleteTopic(tid int, name string) error {
	b.adminMu.Lock()
	defer b.adminMu.Unlock()
	o := b.obs
	var startNs int64
	if o != nil {
		startNs = obs.Now()
	}
	snap := b.set()
	t := snap.byName[name]
	if t == nil {
		return fmt.Errorf("broker: no topic %q", name)
	}
	if t.cfg.Kind.heapKind() {
		// The dheap's entry region is AllocRaw'd from the member heap,
		// which has no free path, so retiring the window would strand the
		// region and a re-created heap topic would leak one arena per
		// churn cycle. Refused until dheap regions are recyclable (see
		// the ROADMAP follow-on).
		return fmt.Errorf("broker: DeleteTopic on %s topic %q not supported (heap-topic deletion is a ROADMAP follow-on)",
			t.cfg.Kind, name)
	}
	// Reserve log space up front. A log too full for a tombstone but
	// holding debris is compacted instead — the new generation simply
	// omits the topic, which is the same atomic flip.
	errFull := b.cat.checkRoom(tombstoneLines)
	if errFull != nil && b.cat.deadLines == 0 {
		return errFull
	}

	// 1. Unpublish: swap a snapshot without the topic, flip its deleted
	// flag, and drain the data plane — after this loop no operation is
	// inside a shard and none can get in.
	ns := &topicSet{
		byName:     make(map[string]*Topic, len(snap.byName)-1),
		shardTotal: snap.shardTotal,
	}
	for _, tp := range snap.list {
		if tp != t {
			ns.list = append(ns.list, tp)
			ns.byName[tp.Name()] = tp
		}
	}
	b.snap.Store(ns)
	t.deleted.Store(true)
	for t.inflight.Load() != 0 {
		runtime.Gosched()
	}

	// 2 + 3. Tombstone: append, fence, anchor. Visible (the topic gone)
	// only after the commit persist; a crash in between recovers the
	// topic.
	if errFull != nil {
		if err := b.compactLocked(tid, 0); err != nil {
			// Nothing durable changed; resurrect the volatile state.
			t.deleted.Store(false)
			b.snap.Store(snap)
			return err
		}
	} else {
		hdr, body := tombstoneRecord(b.cat.records+1, name)
		if err := b.cat.appendRecord(tid, hdr, body); err != nil {
			t.deleted.Store(false)
			b.snap.Store(snap)
			return err
		}
		b.cat.deadLines += topicRecLines(len(t.locs)) + tombstoneLines
	}

	// 4. Reclaim: only now — the tombstone (or the generation that
	// omits the topic) is anchored — do the windows return. The view
	// claims go back to the member heaps so CreateTopic can re-view the
	// same slots, and the windows join the free list.
	for si, loc := range t.locs {
		b.hs.Heap(loc.heap).ReleaseView(t.shards[si].h)
		b.cat.releaseSlots(loc.heap, loc.base, slotsForKind(t.cfg.Kind))
	}

	// Debris past half the record space triggers reclamation of the log
	// itself.
	if b.cat.deadLines*2 > b.cat.totalLines-b.cat.recStart() {
		if err := b.compactLocked(tid, 0); err != nil {
			return fmt.Errorf("broker: topic %q deleted, but compaction failed: %w", name, err)
		}
	}
	if o != nil {
		o.Lat(tid, obs.OpAdmin, startNs)
		o.Event(tid, obs.OpAdmin, nil, -1)
	}
	return nil
}

// CompactCatalog rewrites the catalog log's live records into a fresh
// next-generation region, dropping tombstone debris, and flips the
// root-slot anchor to it — one single-word persist, so recovery on
// either side of the flip reads exactly one complete generation.
// capacityLines resizes the log's record space (0 keeps the current
// capacity), which makes compaction the log-full escape hatch: a
// broker that outgrew Options.CatalogLines compacts into a larger
// generation without restarting.
//
// Cost: one fence covering the whole new generation plus the anchor
// persist — independent of how many dead records are dropped.
// DeleteTopic calls this automatically when debris exceeds half the
// record space; explicit calls are for resizing or for reclaiming
// eagerly.
func (b *Broker) CompactCatalog(tid, capacityLines int) error {
	b.adminMu.Lock()
	defer b.adminMu.Unlock()
	o := b.obs
	var startNs int64
	if o != nil {
		startNs = obs.Now()
	}
	maxCap := maxCatalogLines - logHeaderLines - b.cat.allocLines
	if capacityLines < 0 || capacityLines > maxCap {
		return fmt.Errorf("broker: CatalogLines %d out of range [0,%d]", capacityLines, maxCap)
	}
	if err := b.compactLocked(tid, capacityLines); err != nil {
		return err
	}
	if o != nil {
		o.Lat(tid, obs.OpAdmin, startNs)
		o.Event(tid, obs.OpAdmin, nil, -1)
	}
	return nil
}

// compactLocked gathers the live catalog contents — the current
// snapshot's topics with their ordinal bases, every lease region —
// and hands them to the log's generation writer. Caller holds adminMu.
func (b *Broker) compactLocked(tid, capacityLines int) error {
	snap := b.set()
	topics := make([]liveTopic, len(snap.list))
	for i, t := range snap.list {
		topics[i] = liveTopic{tc: t.cfg, locs: t.locs, base: t.base}
	}
	b.regionMu.Lock()
	leaseLocs := make([]shardLoc, len(b.regions))
	leaseCaps := make([]int, len(b.regions))
	for g, lr := range b.regions {
		leaseLocs[g] = shardLoc{heap: lr.heap, base: lr.slot}
		leaseCaps[g] = lr.cap
	}
	b.regionMu.Unlock()
	return b.cat.compact(tid, b.threads, capacityLines, topics, leaseLocs, leaseCaps, snap.shardTotal)
}
