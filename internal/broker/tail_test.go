package broker

import (
	"errors"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/pmem"
)

// --- Adaptive batching: fence-accounting pins for both regimes ------

// TestPublisherAdaptiveFenceRegimes pins the producer half of the
// adaptive-batching cost model with a logical clock. Idle regime:
// every arrival gap exceeds the deadline, so the AIMD policy stays at
// per-message windows — one fence per message, minimal latency.
// Loaded regime: back-to-back arrivals, so the policy climbs to Max
// and the steady state is one fence per Max-sized window.
func TestPublisherAdaptiveFenceRegimes(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b := openWith(t, pmem.NewSetOf(h), Options{Threads: 1}, 0, TopicConfig{Name: "events", Shards: 2})
	clk := int64(0)
	newPub := func() *Publisher {
		return b.Topic("events").NewPublisher(0, PublisherConfig{
			Policy:     batch.NewAIMD(1, 8),
			MaxDelayNs: 100,
			Now:        func() int64 { return clk },
		})
	}

	// Idle: arrivals 1000 clock units apart (>> deadline 100).
	p := newPub()
	const idleN = 20
	before := h.TotalStats()
	acked := 0
	for i := uint64(0); i < idleN; i++ {
		clk += 1000
		acked += p.Publish(U64(i))
	}
	acked += p.Flush()
	d := h.TotalStats().Sub(before)
	if acked != idleN {
		t.Fatalf("idle regime acknowledged %d, want %d", acked, idleN)
	}
	if d.Fences != idleN {
		t.Fatalf("idle regime = %d fences for %d messages, want one per message", d.Fences, idleN)
	}

	// Loaded: arrivals with zero gap. The first window is still treated
	// as slow (assume idle at startup), so AIMD ramps 1,1,2,3,...,8 (37
	// messages over 9 windows), then flushes 8 at a time: 100 messages
	// = 9 ramp windows + 7 full windows + 1 final Flush of the 7-deep
	// remainder = 17 fences, against 100 for the idle regime.
	p = newPub()
	const loadN = 100
	before = h.TotalStats()
	acked = 0
	for i := uint64(0); i < loadN; i++ {
		acked += p.Publish(U64(i))
	}
	acked += p.Flush()
	d = h.TotalStats().Sub(before)
	if acked != loadN {
		t.Fatalf("loaded regime acknowledged %d, want %d", acked, loadN)
	}
	if want := uint64(17); d.Fences != want {
		t.Fatalf("loaded regime = %d fences for %d messages, want %d (ramp then max windows)",
			d.Fences, loadN, want)
	}
}

// TestConsumerAdaptiveFenceRegimes pins the consumer half: a drain of
// any adaptive size rides one fence, so under load the AIMD policy
// reaches Max-sized drains (fences/msg -> 1/Max), and an idle consumer
// whose policy has collapsed to Min pays zero persists per empty poll.
func TestConsumerAdaptiveFenceRegimes(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b := openWith(t, pmem.NewSetOf(h), Options{Threads: 2}, 0, TopicConfig{Name: "events", Shards: 1})
	const n = 120
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i))
	}
	g, err := b.NewGroup([]string{"events"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Consumer(0)
	pol := batch.NewAIMD(1, 16)

	before := h.TotalStats()
	drains, got := 0, 0
	for got < n {
		ms := c.PollBatch(1, pol.Size())
		pol.Observe(len(ms))
		if len(ms) == 0 {
			t.Fatalf("queue ran dry at %d/%d", got, n)
		}
		got += len(ms)
		drains++
	}
	d := h.TotalStats().Sub(before)
	if d.Fences != uint64(drains) {
		t.Fatalf("loaded drains = %d fences for %d drains, want one per drain", d.Fences, drains)
	}
	if pol.Size() != 16 {
		t.Fatalf("policy after sustained backlog = %d, want Max 16", pol.Size())
	}
	// drains must be far fewer than messages: the ramp 1,2,...,16 (136
	// >= 120) caps the count.
	if drains > 16 {
		t.Fatalf("%d messages took %d drains, want <= 16 (adaptive growth)", n, drains)
	}

	// Idle: policy collapses to Min and empty polls stay persist-free.
	before = h.TotalStats()
	for i := 0; i < 50; i++ {
		ms := c.PollBatch(1, pol.Size())
		pol.Observe(len(ms))
	}
	d = h.TotalStats().Sub(before)
	if d.Fences != 0 || d.Flushes != 0 || d.NTStores != 0 {
		t.Fatalf("idle adaptive polls = %d fences, %d flushes, %d NTStores; want 0/0/0",
			d.Fences, d.Flushes, d.NTStores)
	}
	if pol.Size() != 1 {
		t.Fatalf("policy after idling = %d, want Min 1", pol.Size())
	}
}

// --- Pipelined persists: fence-count parity pins -------------------

// TestPublisherPipelineFenceParity pins the pipelining contract:
// publishing the same window sequence pipelined and plain costs
// exactly the same number of fences — pipelining moves the overlap,
// never the count — and the pipelined acknowledgments trail by exactly
// one window.
func TestPublisherPipelineFenceParity(t *testing.T) {
	for _, payload := range []int{0, 32} { // fixed-width and blob topics
		mk := func(i uint64) []byte {
			if payload == 0 {
				return U64(i)
			}
			return blobPayload(i)[:9]
		}
		const windows, wsize = 12, 4

		// Each mode runs on a fresh heap so both pay identical
		// node-arena warmup; the comparison isolates the publish fences.
		run := func(pipeline bool) (fences uint64, ackTrail []int) {
			h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
			b := openWith(t, pmem.NewSetOf(h), Options{Threads: 1}, 0, TopicConfig{Name: "events", Shards: 2, MaxPayload: payload})
			pub := b.Topic("events").NewPublisher(0, PublisherConfig{
				Policy: batch.Fixed{N: wsize}, Pipeline: pipeline,
			})
			before := h.TotalStats()
			for w := 0; w < windows; w++ {
				n := 0
				for i := 0; i < wsize; i++ {
					n += pub.Publish(mk(uint64(w*wsize + i)))
				}
				ackTrail = append(ackTrail, n)
			}
			ackTrail = append(ackTrail, pub.Flush())
			fences = h.TotalStats().Sub(before).Fences

			// Everything published is consumable exactly once.
			g, err := b.NewGroup([]string{"events"}, 1)
			if err != nil {
				t.Fatal(err)
			}
			seen := 0
			for {
				ms := g.Consumer(0).PollBatch(0, 64)
				if len(ms) == 0 {
					break
				}
				seen += len(ms)
			}
			if want := windows * wsize; seen != want {
				t.Fatalf("payload=%d pipeline=%v: consumed %d, want %d", payload, pipeline, seen, want)
			}
			return
		}

		plainFences, plainAcks := run(false)
		pipeFences, pipeAcks := run(true)
		if plainFences != pipeFences {
			t.Fatalf("payload=%d: pipelining changed the fence count: plain %d, pipelined %d",
				payload, plainFences, pipeFences)
		}
		if payload == 0 && plainFences != windows {
			t.Fatalf("payload=%d: %d windows cost %d fences, want one per window", payload, windows, plainFences)
		}
		// Plain: every window acks itself, Flush acks nothing more.
		for w := 0; w < windows; w++ {
			if plainAcks[w] != wsize {
				t.Fatalf("payload=%d: plain window %d acked %d, want %d", payload, w, plainAcks[w], wsize)
			}
		}
		if plainAcks[windows] != 0 {
			t.Fatalf("payload=%d: plain Flush acked %d, want 0", payload, plainAcks[windows])
		}
		// Pipelined: window 0's flush acks nothing, each later window's
		// flush acks its predecessor, Flush acks the last.
		if pipeAcks[0] != 0 {
			t.Fatalf("payload=%d: first pipelined window acked %d, want 0", payload, pipeAcks[0])
		}
		for w := 1; w < windows; w++ {
			if pipeAcks[w] != wsize {
				t.Fatalf("payload=%d: pipelined window %d acked %d, want %d (one-window lag)",
					payload, w, pipeAcks[w], wsize)
			}
		}
		if pipeAcks[windows] != wsize {
			t.Fatalf("payload=%d: pipelined Flush acked %d, want %d", payload, pipeAcks[windows], wsize)
		}
	}
}

// TestAckAsyncDeferredFence pins the ack half of the pipeline: an
// AckAsync issues the same NTStores as Ack but zero fences; the
// covering fence is paid exactly once by the next acknowledgment-path
// op (or DrainAcks), so poll+ack parity holds at two fences either
// way, and a drain with nothing owed costs nothing.
func TestAckAsyncDeferredFence(t *testing.T) {
	hs, b := newAckedBroker(t, 1, 2, pmem.ModePerf)
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events"}, 1, LeaseConfig{TTL: 100, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	c := g.Consumer(0)
	const n = 16
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i))
	}

	if ms := c.PollBatch(1, n); len(ms) != n {
		t.Fatalf("delivered %d, want %d", len(ms), n)
	}
	before := hs.TotalStats()
	got, err := c.AckAsync(1)
	if err != nil || got != n {
		t.Fatalf("AckAsync = %d, %v; want %d, nil", got, err, n)
	}
	d := hs.TotalStats().Sub(before)
	if d.Fences != 0 {
		t.Fatalf("AckAsync paid %d fences, want 0 (deferred)", d.Fences)
	}
	if d.NTStores != 4 {
		t.Fatalf("AckAsync issued %d NTStores, want 4 (one ack line per shard)", d.NTStores)
	}

	before = hs.TotalStats()
	c.DrainAcks(1)
	d = hs.TotalStats().Sub(before)
	if d.Fences != 1 {
		t.Fatalf("DrainAcks paid %d fences, want 1", d.Fences)
	}
	before = hs.TotalStats()
	c.DrainAcks(1)
	if d = hs.TotalStats().Sub(before); d.Fences != 0 {
		t.Fatalf("second DrainAcks paid %d fences, want 0", d.Fences)
	}
	// The acks are durable: nothing is redelivered after adoption-style
	// re-reads.
	if ms := c.PollBatch(1, n); len(ms) != 0 {
		t.Fatalf("acked messages reappeared: %d", len(ms))
	}

	// Parity including the implicit drain: a second window acked via
	// AckAsync whose fence rides into the next poll costs the same two
	// fences total as poll+Ack.
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i))
	}
	before = hs.TotalStats()
	if ms := c.PollBatch(1, n); len(ms) != n {
		t.Fatal("second window short")
	}
	if _, err := c.AckAsync(1); err != nil {
		t.Fatal(err)
	}
	ms := c.PollBatch(1, n) // pays the deferred fence, finds nothing
	d = hs.TotalStats().Sub(before)
	if len(ms) != 0 {
		t.Fatalf("unexpected redelivery: %d", len(ms))
	}
	if d.Fences != 2 {
		t.Fatalf("poll + AckAsync + draining poll = %d fences, want 2 (lease + deferred ack)", d.Fences)
	}
}

// --- Subscribe quiescence detection --------------------------------

// TestSubscribeNotQuiescent pins the typed refusal: a plain-group
// Subscribe that observes a member inside PollBatch returns
// ErrNotQuiescent instead of racing, and proceeds once the member
// quiesces. The in-flight poll is simulated directly through the
// counter the poll paths maintain, which makes the race window
// deterministic.
func TestSubscribeNotQuiescent(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b := openWith(t, pmem.NewSetOf(h), Options{Threads: 2}, 0, twoTopics()...)
	g, err := b.NewGroup([]string{"events"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Consumer(1)
	c.polling.Add(1) // a PollBatch in flight on member 1
	if err := g.Subscribe(0, "jobs"); !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("Subscribe during poll = %v, want ErrNotQuiescent", err)
	}
	c.polling.Add(-1)
	if err := g.Subscribe(0, "jobs"); err != nil {
		t.Fatalf("Subscribe on quiescent group = %v", err)
	}
	// The subscription took effect: jobs' shards are dealt out.
	owned := 0
	for i := 0; i < g.Size(); i++ {
		owned += len(g.Consumer(i).Assigned())
	}
	if owned != 8 {
		t.Fatalf("group owns %d shards after Subscribe, want 8", owned)
	}
	// Acked groups are exempt: their Subscribe locks members.
	hs2, b2 := newAckedBroker(t, 1, 2, pmem.ModePerf)
	_ = hs2
	g2, err := b2.NewGroupAcked([]string{"events"}, 1, LeaseConfig{TTL: 100, Now: (&logicalClock{}).Now})
	if err != nil {
		t.Fatal(err)
	}
	g2.Consumer(0).polling.Add(1)
	if err := g2.Subscribe(0, "jobs"); err != nil {
		t.Fatalf("acked Subscribe = %v, want nil (quiescence not required)", err)
	}
}

// --- Event-loop poller ---------------------------------------------

// TestPollerDrainsBacklogAndIdlesFree drives a Poller over a plain
// group: a published backlog is delivered exactly once through the
// handler, Stop's final sweep strands nothing, and an idle loop parks
// on its backoff timer issuing zero persists.
func TestPollerDrainsBacklogAndIdlesFree(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b := openWith(t, pmem.NewSetOf(h), Options{Threads: 2}, 0, TopicConfig{Name: "events", Shards: 4})
	const n = 500
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i))
	}
	g, err := b.NewGroup([]string{"events"}, 1)
	if err != nil {
		t.Fatal(err)
	}

	seen := make(map[uint64]int, n)
	var delivered int
	p := NewPoller(PollerConfig{
		Consumer: g.Consumer(0),
		Tid:      1,
		Policy:   batch.NewAIMD(1, 32),
		Handler: func(ms []Message) {
			for _, m := range ms {
				seen[AsU64(m.Payload)]++
				delivered++
			}
		},
		MinBackoff: 100 * time.Microsecond,
		MaxBackoff: time.Millisecond,
	})
	go p.Run()
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Delivered < n {
		if time.Now().After(deadline) {
			t.Fatalf("poller stuck at %d/%d", p.Stats().Delivered, n)
		}
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	if delivered != n || len(seen) != n {
		t.Fatalf("handler saw %d deliveries of %d ids, want %d of %d", delivered, len(seen), n, n)
	}
	for id, k := range seen {
		if k != 1 {
			t.Fatalf("message %d delivered %d times", id, k)
		}
	}

	// Idle loop: a fresh poller over the drained group sleeps with
	// exponential backoff and issues no persist instructions at all.
	before := h.TotalStats()
	p2 := NewPoller(PollerConfig{
		Consumer:   g.Consumer(0),
		Tid:        1,
		Handler:    func([]Message) {},
		MinBackoff: 50 * time.Microsecond,
		MaxBackoff: 500 * time.Microsecond,
	})
	go p2.Run()
	time.Sleep(20 * time.Millisecond)
	p2.Stop()
	d := h.TotalStats().Sub(before)
	if d.Fences != 0 || d.Flushes != 0 || d.NTStores != 0 {
		t.Fatalf("idle poller = %d fences, %d flushes, %d NTStores; want 0/0/0",
			d.Fences, d.Flushes, d.NTStores)
	}
	st := p2.Stats()
	if st.IdleSleeps == 0 {
		t.Fatalf("idle poller never parked: %+v", st)
	}
	// Backoff means the idle loop polls orders of magnitude less than a
	// spinning consumer would in 20ms.
	if st.Polls > 500 {
		t.Fatalf("idle poller issued %d polls in 20ms — backoff not engaging", st.Polls)
	}
}

// TestPollerAckedPipeline runs the full tail-latency stack on an acked
// group: Poller + AIMD drains + AckAsync. Everything published is
// delivered and durably acknowledged by Stop, with the deferred fences
// all paid (no ack state stranded).
func TestPollerAckedPipeline(t *testing.T) {
	hs, b := newAckedBroker(t, 2, 3, pmem.ModePerf)
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events"}, 1, LeaseConfig{TTL: 1 << 40, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	var delivered int
	p := NewPoller(PollerConfig{
		Consumer: g.Consumer(0),
		Tid:      1,
		Policy:   batch.NewAIMD(1, 16),
		Handler:  func(ms []Message) { delivered += len(ms) },
		Ack:      true,
		Pipeline: true,
	})
	go p.Run()
	const n = 300
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i))
		if i%32 == 0 {
			p.Wake()
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Delivered < n {
		if time.Now().After(deadline) {
			t.Fatalf("poller stuck at %d/%d", p.Stats().Delivered, n)
		}
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	if delivered != n {
		t.Fatalf("handler saw %d, want %d", delivered, n)
	}
	if st := p.Stats(); st.AckErrors != 0 {
		t.Fatalf("ack errors: %+v", st)
	}
	// All acks durable: the frontier covers everything; nothing is
	// redelivered.
	_ = hs
	if ms := g.Consumer(0).PollBatch(1, n); len(ms) != 0 {
		t.Fatalf("%d unacked messages after Stop, want 0", len(ms))
	}
}
