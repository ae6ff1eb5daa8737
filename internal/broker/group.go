package broker

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrNotQuiescent reports a plain-group Subscribe attempted while a
// member was inside PollBatch. The plain poll path reads
// member assignments without locks (that is what makes an idle plain
// poll free), so Subscribe-while-polling would be a data race;
// detection turns the race into this typed refusal. Detection is
// best-effort in the way that matters: a poll *observed* in flight is
// always refused, so a caller that retries until success and itself
// guarantees no *new* polls start (the documented quiescence contract)
// is safe.
var ErrNotQuiescent = errors.New("broker: plain group not quiescent (member inside PollBatch)")

// ErrLeaseCapacity reports a topic whose shards' global ordinals
// exceed the lease region's recorded capacity. Both binding paths —
// NewGroupAcked at construction and Subscribe afterwards — wrap this
// sentinel with the same diagnostic (topic, shard, ordinal, region,
// capacity), so callers test errors.Is(err, ErrLeaseCapacity) and
// react by minting a roomier region (CreateAckGroup) regardless of
// which path refused.
var ErrLeaseCapacity = errors.New("broker: lease region capacity exceeded")

// Message is one delivered payload with its provenance.
type Message struct {
	Topic   string
	Shard   int
	Payload []byte
}

// ShardRef names one shard of one topic.
type ShardRef struct {
	Topic string
	Shard int
}

// Group is a consumer group over a set of topics. Every shard of
// every subscribed topic is assigned to exactly one member, so the
// group collectively consumes each message once. Shard ownership means
// per-shard FIFO order is preserved end-to-end.
//
// Plain groups (NewGroup, NewGroupAffine) are at-least-once across
// crashes: a delivery is durable when the poll returns, and a member
// that crashed mid-poll leaves its window to be recovered. Acked
// groups (NewGroupAcked) separate delivery from processing: a poll
// writes a durable lease record before returning messages and the
// messages are consumed only when Consumer.Ack covers them, giving
// exactly-once *processing* across consumer crashes (lease takeover
// redelivers the unacked suffix, see Reassign) and broker crashes
// (recovery redelivers everything beyond the acked frontier).
type Group struct {
	consumers []*Consumer
	b         *Broker
	topics    map[string]bool // subscribed topic names

	// ostats is the group's gauge state (per-shard lag cursors),
	// non-nil exactly when the broker has an observer.
	ostats *obs.GroupStats

	// Acked-group state (zero for plain groups).
	leased    bool
	region    leaseRegion
	regionIdx int // the region's index (LeaseConfig.Region), for diagnostics
	ttl       uint64
	now       func() uint64
	cache     []leaseCache // one per global shard ordinal, owner-accessed
	recovered []RecoveredLease
	mu        sync.Mutex // serializes Reassign/Scan and Subscribe against each other

	// epochs holds the current fencing token per global shard ordinal —
	// the volatile authority mirrored into every lease line's epoch
	// word. Seeded from the durable lines at bind (pre-epoch regions
	// seed 0), bumped under g.mu on every takeover. See membership.go.
	epochs []uint64
}

// leaseCache mirrors one durable lease line: durable is the content
// covered by the last completed fence (renewal elision compares
// against it), pending the content staged by an unfenced write.
type leaseCache struct {
	durable Lease
	pending Lease
	seq     uint64
}

// RecoveredLease is a lease found active (or torn) in the durable
// region when an acked group bound it — the in-flight delivery state
// of the group's previous incarnation, which Gray's argument says must
// be as durable as the payloads themselves. The referenced messages
// were never acknowledged, so they are back in their shards awaiting
// redelivery; the record tells an operator who held them and until
// when. Torn records (a crash mid-lease-write) decode as the zero
// Lease.
type RecoveredLease struct {
	Shard ShardRef
	Lease Lease
}

func (b *Broker) collectRefs(topicNames []string) ([]*consumerShard, error) {
	var refs []*consumerShard
	for _, name := range topicNames {
		t := b.Topic(name)
		if t == nil {
			return nil, fmt.Errorf("broker: unknown topic %q", name)
		}
		if t.cfg.Kind != KindFIFO {
			return nil, t.kindErr("group subscription", KindFIFO)
		}
		for s := 0; s < t.Shards(); s++ {
			refs = append(refs, &consumerShard{t: t, shard: s, global: t.base + s})
		}
	}
	return refs, nil
}

func (b *Broker) newGroup(topicNames []string, refs []*consumerShard, n int, deal func(g *Group, refs []*consumerShard)) (*Group, error) {
	if n <= 0 {
		return nil, fmt.Errorf("broker: group needs at least one consumer")
	}
	g := &Group{consumers: make([]*Consumer, n), b: b, topics: map[string]bool{}}
	for _, name := range topicNames {
		g.topics[name] = true
	}
	for i := range g.consumers {
		g.consumers[i] = &Consumer{g: g, id: i}
	}
	deal(g, refs)
	if o := b.obs; o != nil {
		g.ostats = o.RegisterGroup()
		for _, r := range refs {
			r.cur = g.ostats.AddShard(r.t.ostats, r.shard)
		}
	}
	return g, nil
}

// Stats returns the group's observability gauge state — the per-shard
// lag cursors the elastic-groups autoscaler reads — or nil when the
// broker has no observer.
func (g *Group) Stats() *obs.GroupStats { return g.ostats }

// NewGroup subscribes n consumers to the named topics, assigning
// shards to members round-robin across the combined shard list.
// Acked topics may be consumed through a plain group too: every
// delivery is then acknowledged immediately (auto-ack), which keeps
// the at-least-once contract but forfeits both ack amortization and
// crash redelivery of in-flight messages.
func (b *Broker) NewGroup(topicNames []string, n int) (*Group, error) {
	refs, err := b.collectRefs(topicNames)
	if err != nil {
		return nil, err
	}
	return b.newGroup(topicNames, refs, n, func(g *Group, refs []*consumerShard) {
		for i, r := range refs {
			c := g.consumers[i%n]
			c.refs = append(c.refs, r)
		}
	})
}

// NewGroupAffine subscribes n consumers to the named topics with
// heap-affine assignment: the combined shard list is ordered by member
// heap and dealt out in contiguous chunks, so each consumer's shards
// concentrate on as few persistence domains as possible. A PollBatch
// fences once per domain it dequeued from — with block placement
// (BlockPlacement) and consumers >= heaps, each member's fences stay
// on a single domain.
func (b *Broker) NewGroupAffine(topicNames []string, n int) (*Group, error) {
	refs, err := b.collectRefs(topicNames)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(refs, func(i, j int) bool {
		return refs[i].t.locs[refs[i].shard].heap < refs[j].t.locs[refs[j].shard].heap
	})
	return b.newGroup(topicNames, refs, n, func(g *Group, refs []*consumerShard) {
		for i := range g.consumers {
			lo, hi := i*len(refs)/n, (i+1)*len(refs)/n
			g.consumers[i].refs = append(g.consumers[i].refs, refs[lo:hi]...)
		}
	})
}

// LeaseConfig parameterizes an acked consumer group.
type LeaseConfig struct {
	// Region selects which lease region (CreateAckGroup) backs the
	// group; a region serves one live group at a time, and covers only
	// topics whose shards' global ordinals fall below its recorded
	// capacity.
	Region int
	// TTL is the lease duration in clock units; a member whose lease is
	// older than TTL may have its shards taken over (Reassign). Default:
	// one second of wall-clock nanoseconds.
	TTL uint64
	// Now is the group's clock. Default: wall-clock nanoseconds. Tests
	// inject logical clocks for deterministic expiry.
	Now func() uint64
}

// NewGroupAcked subscribes n consumers to the named topics — all of
// which must be Acked — with durable delivery state: every poll writes
// a lease record into the group's region before returning messages,
// Consumer.Ack durably marks them processed, and Reassign moves a
// crashed member's shards (redelivering its unacked suffix) to a
// survivor. Shards are dealt round-robin as in NewGroup.
//
// Binding inspects the region's durable lease lines: records left
// active by a previous incarnation are returned by RecoveredLeases and
// cleared (the messages they cover are unacknowledged and therefore
// already back in their shards). Call while no other thread operates
// on the broker; the bind writes with thread id 0.
func (b *Broker) NewGroupAcked(topicNames []string, n int, lc LeaseConfig) (*Group, error) {
	refs, err := b.collectRefs(topicNames)
	if err != nil {
		return nil, err
	}
	for _, r := range refs {
		if !r.t.Acked() {
			return nil, fmt.Errorf("broker: NewGroupAcked over topic %q, which is not Acked", r.t.Name())
		}
	}
	b.regionMu.Lock()
	if lc.Region < 0 || lc.Region >= len(b.regions) {
		n := len(b.regions)
		b.regionMu.Unlock()
		return nil, fmt.Errorf("broker: lease region %d out of range (broker has %d; use CreateAckGroup)",
			lc.Region, n)
	}
	region := b.regions[lc.Region]
	b.regionMu.Unlock()
	// The region covers global shard ordinals [0, cap): a topic created
	// after the region may exceed it, in which case this group needs a
	// region with more headroom (CreateAckGroup with a larger Capacity).
	for _, r := range refs {
		if r.global >= region.cap {
			return nil, fmt.Errorf("%w: topic %q shard %d (global ordinal %d) exceeds lease region %d's capacity %d",
				ErrLeaseCapacity, r.t.Name(), r.shard, r.global, lc.Region, region.cap)
		}
	}
	g, err := b.newGroup(topicNames, refs, n, func(g *Group, refs []*consumerShard) {
		for i, r := range refs {
			g.consumers[i%n].refs = append(g.consumers[i%n].refs, r)
		}
	})
	if err != nil {
		return nil, err
	}
	// Claim the region only once the group is sure to exist, so a
	// failed construction cannot leak the claim.
	b.regionMu.Lock()
	if b.bound[lc.Region] {
		b.regionMu.Unlock()
		return nil, fmt.Errorf("broker: lease region %d already serves a group", lc.Region)
	}
	b.bound[lc.Region] = true
	b.regionMu.Unlock()
	g.leased = true
	g.region = region
	g.regionIdx = lc.Region
	g.ttl = lc.TTL
	if g.ttl == 0 {
		g.ttl = uint64(time.Second)
	}
	g.now = lc.Now
	if g.now == nil {
		g.now = func() uint64 { return uint64(time.Now().UnixNano()) }
	}
	// Sized to the region's capacity, not the current shard total, so
	// topics subscribed later (Subscribe) index it without growing.
	g.cache = make([]leaseCache, region.cap)
	g.epochs = make([]uint64, region.cap)

	// Bind: seed each ref's frontier from the queue's durable acked
	// index and its fencing token from the durable line (pre-epoch v<=4
	// lines and virgin lines seed epoch 0), surface stale lease
	// records, and clear them — preserving the epoch, so a cleared line
	// still outranks any pre-crash owner. A fresh region (all lines
	// virgin) writes nothing.
	const tid = 0
	w := leaseWriter{g: g, tid: tid}
	for _, r := range refs {
		s := r.t.shards[r.shard]
		floor := s.q.AckedTo()
		r.deliveredTo, r.leasedTo = floor, floor
		l, ok := g.region.readLeaseLine(r.global)
		if ok {
			g.epochs[r.global] = l.Epoch
		}
		r.epoch = g.epochs[r.global]
		if !ok || l.Active {
			g.recovered = append(g.recovered,
				RecoveredLease{Shard: ShardRef{Topic: r.t.Name(), Shard: r.shard}, Lease: l})
			w.write(r.global, Lease{Epoch: l.Epoch})
		}
	}
	w.commit()
	return g, nil
}

// Subscribe adds the named topics' shards to the group — the way a
// group reaches topics created (CreateTopic) after the group was. New
// shards are dealt one by one to the member owning the fewest, so
// load stays balanced; existing assignments never move. On an acked
// group the new shards' frontiers are seeded from the queues' durable
// acked indices and any stale lease records in the region are
// surfaced (appended to RecoveredLeases) and cleared, exactly as at
// bind time; the region must have capacity for the topics' global
// ordinals. Subscribing a topic the group already consumes is an
// error, as is subscribing a non-Acked topic on an acked group.
//
// tid must be owned by the caller (it writes lease records on an
// acked group).
//
// Concurrency is a hard contract, not advice. Acked groups may
// Subscribe while members poll on their own tids: every member op
// takes the consumer's lock, which Subscribe holds for all members.
// Plain groups MUST be quiescent — no member may be inside PollBatch —
// because the plain poll path deliberately reads member
// assignments without locks (that is what makes an idle plain poll
// free); Subscribe on a polling plain group is a data race with
// undefined results, exactly like calling pmem stats readers on
// running threads. Subscribe enforces the contract as far as it can
// see: a plain-group Subscribe that observes any member inside
// PollBatch refuses with ErrNotQuiescent instead of racing. The
// detection is one-sided — it cannot stop a poll that *starts* after
// the check — so the caller must still guarantee members stay
// stopped, but a violation now fails loudly instead of corrupting
// assignments. Nothing can make the plain half fully safe short of
// locking the hot path.
func (g *Group) Subscribe(tid int, topicNames ...string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range g.consumers {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	if !g.leased {
		for _, c := range g.consumers {
			if c.polling.Load() != 0 {
				return fmt.Errorf("%w: member %d", ErrNotQuiescent, c.id)
			}
		}
	}
	call := map[string]bool{}
	for _, name := range topicNames {
		if g.topics[name] {
			return fmt.Errorf("broker: group already subscribes topic %q", name)
		}
		if call[name] {
			return fmt.Errorf("broker: duplicate topic %q in Subscribe", name)
		}
		call[name] = true
	}
	refs, err := g.b.collectRefs(topicNames)
	if err != nil {
		return err
	}
	if g.leased {
		for _, r := range refs {
			if !r.t.Acked() {
				return fmt.Errorf("broker: Subscribe over topic %q, which is not Acked", r.t.Name())
			}
			if r.global >= g.region.cap {
				return fmt.Errorf("%w: topic %q shard %d (global ordinal %d) exceeds lease region %d's capacity %d",
					ErrLeaseCapacity, r.t.Name(), r.shard, r.global, g.regionIdx, g.region.cap)
			}
		}
	}
	var w leaseWriter
	if g.leased {
		w = leaseWriter{g: g, tid: tid}
		for _, r := range refs {
			s := r.t.shards[r.shard]
			floor := s.q.AckedTo()
			r.deliveredTo, r.leasedTo = floor, floor
			l, ok := g.region.readLeaseLine(r.global)
			if ok {
				g.epochs[r.global] = l.Epoch
			}
			r.epoch = g.epochs[r.global]
			if !ok || l.Active {
				g.recovered = append(g.recovered,
					RecoveredLease{Shard: ShardRef{Topic: r.t.Name(), Shard: r.shard}, Lease: l})
				w.write(r.global, Lease{Epoch: l.Epoch})
			}
		}
	}
	for _, r := range refs {
		if g.ostats != nil {
			r.cur = g.ostats.AddShard(r.t.ostats, r.shard)
		}
		min := 0
		for i := 1; i < len(g.consumers); i++ {
			if len(g.consumers[i].refs) < len(g.consumers[min].refs) {
				min = i
			}
		}
		g.consumers[min].refs = append(g.consumers[min].refs, r)
	}
	if g.leased {
		w.commit()
	}
	for _, name := range topicNames {
		g.topics[name] = true
	}
	return nil
}

// RecoveredLeases lists the lease records an acked group found active
// (or torn) at bind time — the previous incarnation's in-flight
// windows. Nil for plain groups and for a first binding.
func (g *Group) RecoveredLeases() []RecoveredLease { return g.recovered }

// Size returns the number of group members.
func (g *Group) Size() int { return len(g.consumers) }

// Consumer returns group member i.
func (g *Group) Consumer(i int) *Consumer { return g.consumers[i] }

type consumerShard struct {
	t      *Topic
	shard  int
	global int // ordinal across all topics, indexes the lease region

	// cur is the shard's lag cursor in the group's gauge state, non-nil
	// exactly when the broker has an observer. Advanced on fresh
	// deliveries only — redeliveries re-serve messages the frontier
	// already passed.
	cur *obs.ShardCursor

	// Acked-group bookkeeping, accessed only by the owning member (or
	// under the involved members' locks during Reassign/Steal).
	deliveredTo uint64 // last queue index returned to the application
	leasedTo    uint64 // high end of the durable lease obligation
	pendingN    int    // queued redeliveries not yet re-served
	unackedN    int    // messages delivered but not yet acknowledged
	epoch       uint64 // fencing token the current owner writes into the lease line
}

// pendingMsg is one message awaiting redelivery: adopted from a
// crashed member or returned by a Nack.
type pendingMsg struct {
	r       *consumerShard
	idx     uint64
	payload []byte
}

// Consumer is one group member. A Consumer must be driven by a single
// goroutine; tid follows the usual one-goroutine-per-tid rule.
type Consumer struct {
	g       *Group
	id      int
	mu      sync.Mutex // serializes member ops against Reassign/Scan (acked groups)
	refs    []*consumerShard
	next    int
	pending []pendingMsg

	// fenced records the shards taken from this member since its last
	// acknowledgment-path op: the member held a now-stale epoch on
	// them. The next Ack/Nack/Renew/Heartbeat is refused with ErrFenced
	// (consuming the record), so a presumed-dead member that resurfaces
	// learns it lost ownership before any of its state reaches the
	// durable frontier. See membership.go.
	fenced []fencedShard

	// polling counts in-flight plain PollBatch calls. It exists
	// only so a plain-group Subscribe can detect a concurrent poll and
	// refuse with ErrNotQuiescent; the cost on the hot path is one
	// uncontended atomic add/sub on a line this member owns.
	polling atomic.Int32

	// asyncAcks lists the shards holding this member's unfenced ack
	// NTStores (AckAsync): the covering fence is owed and will be paid
	// by the next acknowledgment-path op or DrainAcks.
	asyncAcks []*shard
}

// Assigned lists the shards this member owns.
func (c *Consumer) Assigned() []ShardRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardRef, len(c.refs))
	for i, r := range c.refs {
		out[i] = ShardRef{Topic: r.t.Name(), Shard: r.shard}
	}
	return out
}

// Domains lists the distinct member heaps this member's shards live
// on — the number of SFENCEs a full PollBatch sweep pays at most.
func (c *Consumer) Domains() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for _, r := range c.refs {
		h := r.t.locs[r.shard].heap
		seen := false
		for _, d := range out {
			if d == h {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, h)
		}
	}
	sort.Ints(out)
	return out
}

// PollBatch drains up to max messages from the member's shards
// round-robin, riding a single blocking persist per persistence
// domain it dequeued from: each shard's batch dequeue issues one
// NTStore of its new head index, and since a fence is per-thread
// *per-heap* and covers all of that thread's outstanding NTStores on
// that heap regardless of which shard's local line they target, one
// SFENCE per touched heap at the end makes every shard's progress
// durable together. With all of a member's shards on one domain (see
// NewGroupAffine and BlockPlacement) that is a single fence per poll;
// a poll that finds every owned shard empty at an already-persisted
// head index issues no persist instructions at all, so idle consumers
// poll for free.
//
// On a plain group the batch is acknowledged as a whole when PollBatch
// returns: at that point every delivery in it is durable and will
// never be re-delivered after a crash. A crash mid-poll leaves the
// whole window unacknowledged — its messages are redelivered (or, for
// a suffix whose NTStore happened to land without the fence, consumed)
// on recovery, exactly dual to PublishBatch.
//
// On an acked group the poll instead *leases*: the shard dequeues
// issue no persist instructions at all, and what the single fence
// makes durable — before any message is returned — is the lease
// record (owner, unacked range, deadline) in the group's region, so
// delivery state itself survives crashes. Messages queued for
// redelivery (by a takeover or a Nack) are served first, in index order per
// shard; the batch stays redeliverable until Consumer.Ack covers it.
// An empty result means every owned shard was observed empty; such a
// scan advances the cursor once per shard, all the way round, so an
// idle period never biases delivery toward low-numbered shards, and it
// records no latency sample. PollBatch(tid, 1) is the per-message
// poll.
func (c *Consumer) PollBatch(tid, max int) []Message {
	if c.g.leased {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.pollLeased(tid, max)
	}
	c.polling.Add(1)
	defer c.polling.Add(-1)
	if max <= 0 || len(c.refs) == 0 {
		return nil
	}
	o := c.g.b.obs
	var start int64
	if o != nil {
		start = obs.Now()
	}
	var out []Message
	var touched []*shard
	// Topics entered below stay entered until after the covering fence:
	// the dequeues' NTStores must land before DeleteTopic may reclaim
	// (and CreateTopic reuse) the windows they target.
	var entered []*Topic
	defer func() {
		for _, t := range entered {
			t.exit()
		}
	}()
	for scanned := 0; scanned < len(c.refs) && len(out) < max; scanned++ {
		r := c.refs[c.next]
		if !r.t.enter() {
			c.next = (c.next + 1) % len(c.refs)
			continue // topic retired: its shards read as empty
		}
		entered = append(entered, r.t)
		s := r.t.shards[r.shard]
		ps, dirty := s.consumeBatchUnfenced(tid, max-len(out))
		if dirty {
			touched = append(touched, s)
		}
		if o != nil && len(ps) > 0 {
			r.t.ostats.Delivered(len(ps))
			r.cur.Advance(len(ps))
			o.Event(tid, obs.OpPoll, r.t.ostats, r.shard)
		}
		for _, p := range ps {
			out = append(out, Message{Topic: r.t.Name(), Shard: r.shard, Payload: p})
		}
		// Advance past the shard even when it filled the batch: the
		// next poll then starts at the following shard, so one
		// continuously hot shard cannot starve the others.
		c.next = (c.next + 1) % len(c.refs)
	}
	if len(touched) > 0 {
		// One fence per distinct domain covers every touched shard's
		// NTStores there.
		var fenced []int
		for _, s := range touched {
			done := false
			for _, hi := range fenced {
				if hi == s.heap {
					done = true
					break
				}
			}
			if !done {
				s.h.Fence(tid)
				fenced = append(fenced, s.heap)
			}
		}
		for _, s := range touched {
			s.q.CompleteBatch(tid)
		}
	}
	if o != nil && len(out) > 0 {
		o.Lat(tid, obs.OpPoll, start)
	}
	return out
}

func (c *Consumer) pollLeased(tid, max int) []Message {
	if max <= 0 || len(c.refs) == 0 {
		return nil
	}
	c.drainAcks(tid)
	o := c.g.b.obs
	var start int64
	if o != nil {
		start = obs.Now()
	}
	var out []Message
	// Redeliveries first: adopted or nacked messages are already
	// covered by a durable lease, so serving them costs nothing.
	for len(out) < max && len(c.pending) > 0 {
		p := c.pending[0]
		c.pending = c.pending[1:]
		if p.r.t.Deleted() {
			// Retired with the topic: a deleted topic's messages are
			// dropped, redeliveries included (see DeleteTopic).
			p.r.pendingN--
			continue
		}
		out = append(out, Message{Topic: p.r.t.Name(), Shard: p.r.shard, Payload: p.payload})
		p.r.deliveredTo = p.idx
		p.r.pendingN--
		p.r.unackedN++
		if o != nil {
			// A re-serve counts as delivered and redelivered; the lag
			// frontier already passed this message, so it stays put.
			p.r.t.ostats.Delivered(1)
			p.r.t.ostats.Redelivered(1)
		}
	}
	w := leaseWriter{g: c.g, tid: tid}
	deadline := c.g.now() + c.g.ttl
	for scanned := 0; scanned < len(c.refs) && len(out) < max; scanned++ {
		r := c.refs[c.next]
		c.next = (c.next + 1) % len(c.refs)
		if r.pendingN > 0 {
			// Per-shard FIFO: no fresh dequeues ahead of queued
			// redeliveries of the same shard.
			continue
		}
		if !r.t.enter() {
			continue // topic retired: its shards read as empty
		}
		s := r.t.shards[r.shard]
		ps, idxs := s.q.DequeueLeased(tid, max-len(out))
		r.t.exit()
		if len(ps) == 0 {
			continue
		}
		for _, p := range ps {
			out = append(out, Message{Topic: r.t.Name(), Shard: r.shard, Payload: p})
		}
		if o != nil {
			r.t.ostats.Delivered(len(ps))
			r.cur.Advance(len(ps))
			o.Event(tid, obs.OpPoll, r.t.ostats, r.shard)
		}
		r.deliveredTo = idxs[len(idxs)-1]
		r.leasedTo = r.deliveredTo
		r.unackedN += len(ps)
		w.write(r.global, Lease{
			Active: true, Owner: c.id, Epoch: r.epoch,
			Lo: s.q.AckedTo() + 1, Hi: r.leasedTo,
			Deadline: deadline,
		})
	}
	// The leases are durable before any message is exposed; a crash
	// before this fence redelivers the whole window on recovery.
	w.commit()
	if o != nil && len(out) > 0 {
		o.Lat(tid, obs.OpPoll, start)
	}
	return out
}

// Ack durably acknowledges every message this member has been handed
// so far: for each owned shard, one NTStore of the delivered index
// into the shard queue's per-thread ack line, then a single fence per
// touched persistence domain — the whole ack batch rides one blocking
// persist per domain, and an Ack with nothing new to acknowledge costs
// nothing. Acknowledged messages are never redelivered, by any path:
// recovery takes the maximum acked index per thread exactly as it does
// for head indices. Returns the number of newly acknowledged messages.
//
// If this member was fenced off any of its shards since its last
// acknowledgment-path op (Scan, Reassign or Steal took them — the
// member held a stale epoch), Ack refuses the whole call with
// ErrFenced and acknowledges nothing: the member must treat its
// outstanding window as lost (it will be redelivered elsewhere) and
// re-poll. The refusal consumes the fencing record, so subsequent
// calls proceed on the shards the member still owns.
func (c *Consumer) Ack(tid int) (int, error) {
	if !c.g.leased {
		panic("broker: Ack on a group without acknowledgments (use NewGroupAcked)")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drainAcks(tid)
	if err := c.takeFenced(tid); err != nil {
		return 0, err
	}
	o := c.g.b.obs
	var start int64
	if o != nil {
		start = obs.Now()
	}
	n := 0
	var touched []*shard
	// Entered topics are exited only after the covering fence lands the
	// ack NTStores, so DeleteTopic cannot reclaim a window under them.
	var entered []*Topic
	defer func() {
		for _, t := range entered {
			t.exit()
		}
	}()
	for _, r := range c.refs {
		if !r.t.enter() {
			// Retired with the topic: nothing durable left to advance,
			// and the outstanding window is dropped, not acknowledged.
			r.unackedN = 0
			continue
		}
		entered = append(entered, r.t)
		s := r.t.shards[r.shard]
		floor := s.q.AckedTo()
		if r.deliveredTo <= floor {
			continue
		}
		// Count delivered messages, not the index delta: the range may
		// contain gaps where recovery discarded torn enqueues.
		n += r.unackedN
		if o != nil && r.unackedN > 0 {
			r.t.ostats.Acked(r.unackedN)
		}
		r.unackedN = 0
		if s.q.AckToUnfenced(tid, r.deliveredTo) {
			touched = append(touched, s)
		}
	}
	var fenced []int
	for _, s := range touched {
		done := false
		for _, hi := range fenced {
			if hi == s.heap {
				done = true
				break
			}
		}
		if !done {
			s.h.Fence(tid)
			fenced = append(fenced, s.heap)
		}
	}
	for _, s := range touched {
		s.q.CompleteAck(tid)
	}
	// Like an empty poll, an Ack with nothing new to acknowledge costs
	// nothing and records no sample.
	if o != nil && n > 0 {
		o.Lat(tid, obs.OpAck, start)
		o.Event(tid, obs.OpAck, nil, -1)
	}
	return n, nil
}

// AckAsync is the pipelined half of Ack: it issues the same ack
// NTStores but defers the covering fence to this member's *next*
// acknowledgment-path op (Ack, AckAsync, PollBatch, Nack, Renew) or
// an explicit DrainAcks. The fence count per acknowledgment is
// unchanged — each deferred fence is paid exactly once, at the start
// of the next op — but the write-pending queue drains in the
// background during the handler work between the two calls, so the
// fence's blocking residual shrinks toward zero (see
// pmem.LatencyModel.DrainNsPerLine). Returns the number of messages
// newly counted acknowledged, or ErrFenced exactly as Ack does.
//
// The deferral trades the exactly-once guarantee down to at-least-once
// for its window: a crash — or a lease takeover that races the
// deferral — between AckAsync and the covering fence can leave the
// window both redelivered elsewhere and (if the stores land under a
// later fence) marked acked. Callers that need the strict guarantee
// use Ack; callers optimizing the tail call AckAsync from a single
// processing loop where the next op follows promptly.
func (c *Consumer) AckAsync(tid int) (int, error) {
	if !c.g.leased {
		panic("broker: AckAsync on a group without acknowledgments (use NewGroupAcked)")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drainAcks(tid)
	if err := c.takeFenced(tid); err != nil {
		return 0, err
	}
	o := c.g.b.obs
	var start int64
	if o != nil {
		start = obs.Now()
	}
	n := 0
	for _, r := range c.refs {
		if !r.t.enter() {
			r.unackedN = 0 // dropped with the topic, see Ack
			continue
		}
		s := r.t.shards[r.shard]
		floor := s.q.AckedTo()
		if r.deliveredTo <= floor {
			r.t.exit()
			continue
		}
		n += r.unackedN
		if o != nil && r.unackedN > 0 {
			r.t.ostats.Acked(r.unackedN)
		}
		r.unackedN = 0
		if s.q.AckToUnfenced(tid, r.deliveredTo) {
			c.asyncAcks = append(c.asyncAcks, s)
		}
		r.t.exit()
	}
	if o != nil && n > 0 {
		o.Lat(tid, obs.OpAck, start)
		o.Event(tid, obs.OpAck, nil, -1)
	}
	return n, nil
}

// DrainAcks pays any fence deferred by AckAsync, making the staged
// acknowledgments durable. Idempotent; costs nothing when no fence is
// owed. An event-loop consumer calls it before sleeping so the
// deferral window is bounded by the wakeup, not the next arrival.
func (c *Consumer) DrainAcks(tid int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drainAcks(tid)
}

// drainAcks fences the domains holding deferred ack NTStores (one
// fence per distinct heap) and promotes their durable ack frontiers.
// Caller holds c.mu.
func (c *Consumer) drainAcks(tid int) {
	if len(c.asyncAcks) == 0 {
		return
	}
	var fenced []int
	for _, s := range c.asyncAcks {
		done := false
		for _, hi := range fenced {
			if hi == s.heap {
				done = true
				break
			}
		}
		if !done {
			s.h.Fence(tid)
			fenced = append(fenced, s.heap)
		}
	}
	for _, s := range c.asyncAcks {
		s.q.CompleteAck(tid)
	}
	c.asyncAcks = c.asyncAcks[:0]
}

// Nack rescinds every delivered-but-unacknowledged message of this
// member: the messages go back onto the member's redelivery queue (a
// later PollBatch serves them again, in order, before any fresh
// dequeue of the same shard), and each affected shard's lease record
// is rewritten — one store+flush per shard, one fence for the whole
// nack — so the rescission itself is durable delivery state. Returns
// the number of messages queued for redelivery, or ErrFenced (and
// queues nothing) when the member was fenced off shards since its
// last acknowledgment-path op — see Ack.
func (c *Consumer) Nack(tid int) (int, error) {
	if !c.g.leased {
		panic("broker: Nack on a group without acknowledgments (use NewGroupAcked)")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drainAcks(tid)
	if err := c.takeFenced(tid); err != nil {
		return 0, err
	}
	w := leaseWriter{g: c.g, tid: tid}
	deadline := c.g.now() + c.g.ttl
	var nacked []pendingMsg
	for _, r := range c.refs {
		if !r.t.enter() {
			r.unackedN = 0 // dropped with the topic, see Ack
			continue
		}
		s := r.t.shards[r.shard]
		floor := s.q.AckedTo()
		if r.deliveredTo <= floor {
			r.t.exit()
			continue
		}
		ps, idxs := s.q.Unacked()
		r.t.exit()
		for i := range ps {
			if idxs[i] > r.deliveredTo {
				break // not yet re-served redeliveries stay where they are
			}
			nacked = append(nacked, pendingMsg{r: r, idx: idxs[i], payload: ps[i]})
			r.pendingN++
		}
		r.deliveredTo = floor
		r.unackedN = 0
		w.write(r.global, Lease{
			Active: true, Owner: c.id, Epoch: r.epoch,
			Lo: floor + 1, Hi: r.leasedTo,
			Deadline: deadline,
		})
	}
	// Prepending keeps per-shard index order: everything nacked
	// precedes any still-queued redelivery of the same shard.
	c.pending = append(nacked, c.pending...)
	w.commit()
	return len(nacked), nil
}

// Renew extends this member's lease deadlines to the given instant on
// every shard it holds unacknowledged messages of. A renewal whose
// deadline the durable record already covers writes nothing and costs
// nothing — the heartbeat of a healthy consumer is free until the
// deadline actually needs moving; otherwise the rewritten lines ride
// a single fence. A member fenced off shards since its last
// acknowledgment-path op gets ErrFenced and renews nothing (0 fences):
// a stale owner must not refresh deadlines on leases it lost.
func (c *Consumer) Renew(tid int, deadline uint64) error {
	if !c.g.leased {
		panic("broker: Renew on a group without acknowledgments (use NewGroupAcked)")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drainAcks(tid)
	if err := c.takeFenced(tid); err != nil {
		return err
	}
	w := leaseWriter{g: c.g, tid: tid}
	for _, r := range c.refs {
		if !r.t.enter() {
			continue // retired with the topic: no lease to maintain
		}
		s := r.t.shards[r.shard]
		floor := s.q.AckedTo()
		r.t.exit()
		if r.leasedTo <= floor {
			continue // nothing unacknowledged: no lease to maintain
		}
		d := c.g.cache[r.global].durable
		if d.Active && d.Owner == c.id && d.Deadline >= deadline {
			continue // already durably covered
		}
		w.write(r.global, Lease{
			Active: true, Owner: c.id, Epoch: r.epoch,
			Lo: floor + 1, Hi: r.leasedTo,
			Deadline: deadline,
		})
	}
	w.commit()
	return nil
}

// leaseWriter batches lease-line writes that ride one fence on the
// region's domain; commit promotes the write cache only after the
// fence, so renewal elision never trusts an unfenced deadline.
type leaseWriter struct {
	g      *Group
	tid    int
	staged []int
}

func (w *leaseWriter) write(global int, l Lease) {
	c := &w.g.cache[global]
	c.seq++
	l.Seq = c.seq
	w.g.region.writeLeaseLine(w.tid, global, l)
	c.pending = l
	w.staged = append(w.staged, global)
}

func (w *leaseWriter) commit() {
	if len(w.staged) == 0 {
		return
	}
	w.g.region.h.Fence(w.tid)
	for _, gl := range w.staged {
		c := &w.g.cache[gl]
		c.durable = c.pending
	}
	w.staged = w.staged[:0]
}
