package broker

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrTopicDeleted is returned by the data plane — publish paths and
// drain helpers — when the topic has been retired by DeleteTopic. A
// caller holding a *Topic across a delete observes this typed error
// instead of racing a reclaimed shard window; nothing it published
// before the delete is lost (the delete drained nothing — retired
// messages are dropped with the topic, as documented on DeleteTopic).
var ErrTopicDeleted = errors.New("broker: topic deleted")

// ErrWrongTopicKind reports a verb applied to a topic of the wrong
// kind: a FIFO verb (Publish/PublishKey/PublishBatch/NewPublisher,
// group subscription) on a delay/priority topic, or a heap verb
// (PublishAt/PublishPriority/DequeueReady/NackDelayed) on a FIFO
// topic. Every refusing path wraps this sentinel with the same
// diagnostic shape (verb, topic, actual kind, wanted kind) — the
// ErrLeaseCapacity convention — so callers test
// errors.Is(err, ErrWrongTopicKind) regardless of which path refused.
var ErrWrongTopicKind = errors.New("broker: operation does not match topic kind")

// kindErr builds the uniform ErrWrongTopicKind diagnostic.
func (t *Topic) kindErr(verb string, want TopicKind) error {
	return fmt.Errorf("%w: %s on topic %q of kind %s (want a %s topic)",
		ErrWrongTopicKind, verb, t.cfg.Name, t.cfg.Kind, want)
}

// Topic is one named, sharded durable message stream. Publishing is
// safe from any number of producers (each with its own tid); ordering
// is FIFO per shard, so two messages routed to the same shard are
// delivered in publish order. A topic's shards may be spread over
// several member heaps of the broker's set (see PlacementPolicy);
// HeapOf reports each shard's domain.
type Topic struct {
	b      *Broker
	cfg    TopicConfig
	base   int // global ordinal of shard 0 (catalog creation order)
	locs   []shardLoc
	shards []*shard
	rr     atomic.Uint64 // round-robin routing cursor

	// deleted flips exactly once, before the topic's tombstone is
	// appended: the data plane refuses the topic (ErrTopicDeleted) from
	// that point on. inflight counts data-plane operations currently
	// inside a shard; DeleteTopic drains it to zero after flipping
	// deleted and before reclaiming the windows, so no straggler that
	// passed the flag check can race a window's reuse.
	deleted  atomic.Bool
	inflight atomic.Int64

	// ostats is the topic's gauge state, non-nil exactly when the
	// broker has an observer (set before the topic becomes visible).
	ostats *obs.TopicStats
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.cfg.Name }

// Acked reports whether the topic's shards require acknowledgment
// (TopicConfig.Acked).
func (t *Topic) Acked() bool { return t.cfg.Acked }

// Shards returns the topic's shard count.
func (t *Topic) Shards() int { return len(t.shards) }

// Deleted reports whether the topic has been retired by DeleteTopic.
func (t *Topic) Deleted() bool { return t.deleted.Load() }

// enter registers one data-plane operation on the topic, refusing it
// once the topic is retired; every true return must be paired with
// exit. The double flag check brackets the increment, so either the
// operation is visible to DeleteTopic's drain before it touches a
// shard, or it observes the flag and touches nothing.
func (t *Topic) enter() bool {
	if t.deleted.Load() {
		return false
	}
	t.inflight.Add(1)
	if t.deleted.Load() {
		t.inflight.Add(-1)
		return false
	}
	return true
}

func (t *Topic) exit() { t.inflight.Add(-1) }

// HeapOf reports the member heap (persistence domain) shard s lives
// on.
func (t *Topic) HeapOf(s int) int { return t.locs[s].heap }

// MaxPayload reports the payload capacity in bytes (8 for fixed
// topics).
func (t *Topic) MaxPayload() int {
	if t.cfg.MaxPayload == 0 {
		return 8
	}
	return t.cfg.MaxPayload
}

func (t *Topic) checkPayload(p []byte) {
	if t.cfg.MaxPayload == 0 {
		if len(p) != 8 {
			panic(fmt.Sprintf("broker: topic %q is fixed-width; payload must be exactly 8 bytes, got %d",
				t.cfg.Name, len(p)))
		}
		return
	}
	if len(p) > t.cfg.MaxPayload {
		panic(fmt.Sprintf("broker: topic %q payload %d exceeds capacity %d",
			t.cfg.Name, len(p), t.cfg.MaxPayload))
	}
}

// Publish routes payload to the next shard round-robin and enqueues
// it durably. When Publish returns nil the message is acknowledged:
// it survives any subsequent crash. One blocking persist per message,
// on the shard's own heap. Returns ErrTopicDeleted (and publishes
// nothing) once the topic is retired.
func (t *Topic) Publish(tid int, payload []byte) error {
	if t.cfg.Kind != KindFIFO {
		return t.kindErr("Publish", KindFIFO)
	}
	t.checkPayload(payload)
	if !t.enter() {
		return ErrTopicDeleted
	}
	defer t.exit()
	s := int(t.rr.Add(1)-1) % len(t.shards)
	// The disabled-observer cost is exactly this one predictable branch:
	// the fast path below is the whole unobserved operation.
	o := t.b.obs
	if o == nil {
		t.shards[s].q.Enqueue(tid, payload)
		return nil
	}
	start := obs.Now()
	t.shards[s].q.Enqueue(tid, payload)
	o.Lat(tid, obs.OpPublish, start)
	t.ostats.Published(s, 1)
	o.Event(tid, obs.OpPublish, t.ostats, s)
	return nil
}

// PublishKey routes payload by FNV-1a hash of key, so all messages
// with equal keys share a shard and are delivered in publish order.
// Returns ErrTopicDeleted once the topic is retired.
func (t *Topic) PublishKey(tid int, key, payload []byte) error {
	if t.cfg.Kind != KindFIFO {
		return t.kindErr("PublishKey", KindFIFO)
	}
	t.checkPayload(payload)
	if !t.enter() {
		return ErrTopicDeleted
	}
	defer t.exit()
	// FNV-1a inlined: hash.Hash would heap-allocate per publish.
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	s := int(h % uint64(len(t.shards)))
	o := t.b.obs
	if o == nil {
		t.shards[s].q.Enqueue(tid, payload)
		return nil
	}
	start := obs.Now()
	t.shards[s].q.Enqueue(tid, payload)
	o.Lat(tid, obs.OpPublish, start)
	t.ostats.Published(s, 1)
	o.Event(tid, obs.OpPublish, t.ostats, s)
	return nil
}

// PublishBatch routes the whole batch to the next shard round-robin
// and enqueues it with a single blocking persist (see
// queues.OptUnlinked.EnqueueBatch): the amortized publish path. The
// batch is acknowledged as a whole when PublishBatch returns nil; a
// crash before that acknowledges none of it (messages that happened to
// become durable are recovered, which is allowed — they were simply
// never acked). Batch elements stay FIFO relative to each other.
// Returns ErrTopicDeleted (and publishes nothing) once the topic is
// retired.
func (t *Topic) PublishBatch(tid int, payloads [][]byte) error {
	if t.cfg.Kind != KindFIFO {
		return t.kindErr("PublishBatch", KindFIFO)
	}
	if len(payloads) == 0 {
		return nil
	}
	for _, p := range payloads {
		t.checkPayload(p)
	}
	if !t.enter() {
		return ErrTopicDeleted
	}
	defer t.exit()
	s := int(t.rr.Add(1)-1) % len(t.shards)
	o := t.b.obs
	if o == nil {
		t.shards[s].q.EnqueueBatch(tid, payloads)
		return nil
	}
	start := obs.Now()
	t.shards[s].q.EnqueueBatch(tid, payloads)
	o.Lat(tid, obs.OpPublish, start)
	t.ostats.Published(s, len(payloads))
	o.Event(tid, obs.OpPublish, t.ostats, s)
	return nil
}

// Stats returns the topic's observability gauge state — message
// counters and per-shard published heads — or nil when the broker has
// no observer.
func (t *Topic) Stats() *obs.TopicStats { return t.ostats }

// DequeueShard removes the oldest message of one shard. Intended for
// recovery audits and drain tools; normal consumption goes through
// consumer groups, which own shards exclusively. On an acked topic the
// message is acknowledged immediately (lease + ack in one step).
// Reports empty once the topic is retired, and on delay/priority
// topics, whose heap order has no "oldest" (the signature has no error
// slot; use DequeueReady, which returns the typed ErrWrongTopicKind
// from the FIFO side).
func (t *Topic) DequeueShard(tid, shard int) ([]byte, bool) {
	if t.cfg.Kind != KindFIFO {
		return nil, false
	}
	if !t.enter() {
		return nil, false
	}
	defer t.exit()
	return t.shards[shard].q.Dequeue(tid)
}

// Kind reports the topic's delivery-order kind.
func (t *Topic) Kind() TopicKind { return t.cfg.Kind }
