package broker

import (
	"repro/internal/batch"
	"repro/internal/obs"
)

// PublisherConfig parameterizes a Publisher.
type PublisherConfig struct {
	// Policy sizes the flush windows (nil: Fixed{1}, i.e. unbatched).
	// The policy instance becomes owned by the Publisher.
	Policy batch.Policy
	// Pipeline defers each window's blocking fence into the next flush:
	// window N's SFENCE is issued at the start of the flush that writes
	// window N+1 (or by Flush), so the write-pending queue drains in the
	// background while the producer keeps working. Fence *count* is
	// unchanged — one per window — only the overlap moves.
	Pipeline bool
	// MaxDelayNs bounds how long the oldest buffered message may wait
	// for its window to fill: a Publish arriving later than this after
	// the buffer's first message forces a flush regardless of size.
	// This is the arrival-rate half of adaptivity — at low rates the
	// deadline fires before the window fills, the policy observes the
	// short window and shrinks, and latency converges to per-message
	// publishes. Zero disables the deadline (size-triggered only).
	MaxDelayNs int64
	// Now is the clock for MaxDelayNs, in nanoseconds on any monotonic
	// scale. Nil: the package monotonic clock. Tests inject logical
	// clocks to pin the regimes deterministically.
	Now func() int64
}

// Publisher is the adaptive, optionally pipelined publish path of one
// topic: it buffers payloads into policy-sized windows and publishes
// each window as one batch (one fence). A Publisher is owned by a
// single producer goroutine with a fixed tid, like a Consumer.
//
// Durability contract: the int returned by Publish/Flush is the number
// of buffered messages that became *durably acknowledged* during that
// call, in publish order. Without pipelining a window is acknowledged
// by the flush that writes it; with Pipeline the acknowledgment trails
// by one window (issue window N, fence — and thereby acknowledge —
// window N-1). Buffered payload slices must not be mutated until
// acknowledged. A crash acknowledges nothing beyond the last fence:
// issued-but-unfenced windows are dropped or partially recovered as
// unacked messages, exactly as for a crash inside PublishBatch.
//
// A Publisher cannot surface ErrTopicDeleted through its count
// returns, so retiring the topic under a live Publisher is a caller
// bug: quiesce (Flush and stop) publishers before DeleteTopic, or a
// flush whose window lands after the delete panics instead of racing
// the reclaimed shard windows.
type Publisher struct {
	t        *Topic
	tid      int
	pol      batch.Policy
	pipeline bool
	maxDelay int64
	now      func() int64

	buf     [][]byte
	bufAt   int64 // clock reading when buf went from empty to non-empty
	lastPub int64 // clock reading of the previous Publish (0 before the first)
	slow    bool  // an arrival gap in the current window exceeded MaxDelayNs

	// Pipeline state: the window issued but not yet fenced.
	pending  *shard
	npending int
}

// NewPublisher returns a publisher for the topic, bound to the
// producer's tid. Panics on a delay/priority topic: the Publisher's
// count-based acknowledgment contract has no error slot, so binding
// one to a heap topic is a construction-time programmer error (heap
// topics publish through PublishAt/PublishPriority).
func (t *Topic) NewPublisher(tid int, cfg PublisherConfig) *Publisher {
	if t.cfg.Kind != KindFIFO {
		panic(t.kindErr("NewPublisher", KindFIFO).Error())
	}
	pol := cfg.Policy
	if pol == nil {
		pol = batch.Fixed{N: 1}
	}
	now := cfg.Now
	if now == nil {
		now = obs.Now
	}
	return &Publisher{
		t: t, tid: tid, pol: pol,
		pipeline: cfg.Pipeline, maxDelay: cfg.MaxDelayNs, now: now,
	}
}

// Buffered reports the messages waiting for their window to fill.
func (p *Publisher) Buffered() int { return len(p.buf) }

// Pending reports the messages issued but awaiting their covering
// fence (always 0 without Pipeline).
func (p *Publisher) Pending() int { return p.npending }

// Publish buffers payload and flushes the window when the policy size
// is reached or the oldest buffered message has waited past
// MaxDelayNs. Returns the number of messages durably acknowledged by
// this call (see the type comment for the pipelined lag).
//
// The policy's grow signal is gated on arrival rate, not just fill: a
// window only counts as "full" evidence of load when every arrival gap
// in it (including the gap before its first message) stayed under
// MaxDelayNs. Without the gate a size-1 window would always look full
// and an idle producer would ratchet its own batch size up — the exact
// inversion of what the tail needs.
func (p *Publisher) Publish(payload []byte) int {
	p.t.checkPayload(payload)
	now := p.now()
	// The very first publish counts as slow too: assume idle until the
	// arrival rate proves otherwise, matching AIMD's start at Min.
	if p.maxDelay > 0 && (p.lastPub == 0 || now-p.lastPub > p.maxDelay) {
		p.slow = true
	}
	p.lastPub = now
	if len(p.buf) == 0 {
		p.bufAt = now
	}
	p.buf = append(p.buf, payload)
	if len(p.buf) >= p.pol.Size() ||
		(p.maxDelay > 0 && now-p.bufAt >= p.maxDelay) {
		return p.flush()
	}
	return 0
}

// Flush forces the buffered window out and drains the pipeline: when
// it returns, every message ever passed to Publish is durably
// acknowledged. Returns the number acknowledged by this call.
func (p *Publisher) Flush() int {
	acked := 0
	if len(p.buf) > 0 {
		acked = p.flush()
	}
	acked += p.drain()
	return acked
}

// flush publishes the buffered window to the next shard round-robin.
// One fence: the pending window's deferred one when pipelining (the
// new window then becomes pending), the new window's own otherwise.
func (p *Publisher) flush() int {
	t := p.t
	if !t.enter() {
		panic("broker: Publisher flush on deleted topic " + t.cfg.Name +
			" (quiesce publishers before DeleteTopic)")
	}
	defer t.exit()
	if p.slow {
		p.pol.Observe(0) // slow arrivals: shrink toward per-message windows
	} else {
		p.pol.Observe(len(p.buf))
	}
	p.slow = false
	si := int(t.rr.Add(1)-1) % len(t.shards)
	s := t.shards[si]
	o := t.b.obs
	var start int64
	if o != nil {
		start = obs.Now()
	}
	acked := 0
	if p.pipeline {
		acked = p.drain()
		s.q.EnqueueBatchUnfenced(p.tid, p.buf)
		p.pending, p.npending = s, len(p.buf)
	} else {
		s.q.EnqueueBatch(p.tid, p.buf)
		acked = len(p.buf)
	}
	if o != nil {
		o.Lat(p.tid, obs.OpPublish, start)
		t.ostats.Published(si, len(p.buf))
		o.Event(p.tid, obs.OpPublish, t.ostats, si)
	}
	p.buf = p.buf[:0]
	return acked
}

// drain pays the pending window's deferred fence, acknowledging it.
func (p *Publisher) drain() int {
	if p.pending == nil {
		return 0
	}
	p.pending.h.Fence(p.tid)
	n := p.npending
	p.pending, p.npending = nil, 0
	return n
}
