package broker

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/batch"
	"repro/internal/pmem"
)

// twoTopics is the reference deployment used across the tests:
// 2 topics × 4 shards, one fixed-width and one variable-payload.
func twoTopics() []TopicConfig {
	return []TopicConfig{
		{Name: "events", Shards: 4},                // fixed 8-byte payloads
		{Name: "jobs", Shards: 4, MaxPayload: 100}, // variable payloads
	}
}

// openWith brings up a fresh broker on hs through Open, then creates
// the topics in order and ackGroups lease regions, each sized to the
// resulting shard total — the sequence a deployment declaring its
// topics up front runs, so placements, lease capacities and persist
// counts are those of that deployment.
func openWith(t testing.TB, hs *pmem.HeapSet, opts Options, ackGroups int, topics ...TopicConfig) *Broker {
	t.Helper()
	b, err := Open(hs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range topics {
		if _, err := b.CreateTopic(0, tc); err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < ackGroups; g++ {
		if _, err := b.CreateAckGroup(0, AckGroupConfig{Capacity: b.ShardTotal()}); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// blobPayload embeds id in a deterministic variable-length payload so
// the audit can both identify and integrity-check delivered bytes.
func blobPayload(id uint64) []byte {
	n := 9 + int(id%80)
	p := make([]byte, n)
	copy(p, U64(id))
	for i := 8; i < n; i++ {
		p[i] = byte(id>>(8*uint(i%8)) ^ uint64(i))
	}
	return p
}

func TestPublishConsumeMultiTopic(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 4})
	b := openWith(t, pmem.NewSetOf(h), Options{Threads: 3}, 0, twoTopics()...)
	events, jobs := b.Topic("events"), b.Topic("jobs")
	if events == nil || jobs == nil || b.Topic("nope") != nil {
		t.Fatal("topic lookup broken")
	}
	const n = 400
	for i := uint64(0); i < n; i++ {
		events.Publish(0, U64(i))
		jobs.PublishKey(1, U64(i%7), blobPayload(i))
	}
	g, err := b.NewGroup([]string{"events", "jobs"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The two members partition the 8 shards without overlap.
	owned := map[ShardRef]bool{}
	for i := 0; i < g.Size(); i++ {
		for _, r := range g.Consumer(i).Assigned() {
			if owned[r] {
				t.Fatalf("shard %v assigned twice", r)
			}
			owned[r] = true
		}
	}
	if len(owned) != 8 {
		t.Fatalf("assigned %d shards, want 8", len(owned))
	}
	gotEvents := map[uint64]bool{}
	lastByKeyShard := map[string]uint64{}
	total := 0
	for i := 0; i < g.Size(); i++ {
		c := g.Consumer(i)
		for {
			ms := c.PollBatch(i+1, 1)
			if len(ms) == 0 {
				break
			}
			m := ms[0]
			total++
			id := AsU64(m.Payload[:8])
			switch m.Topic {
			case "events":
				if gotEvents[id] {
					t.Fatalf("event %d delivered twice", id)
				}
				gotEvents[id] = true
			case "jobs":
				if !bytes.Equal(m.Payload, blobPayload(id)) {
					t.Fatalf("job %d payload corrupted", id)
				}
				// PublishKey ordering: per key, ids ascend.
				k := fmt.Sprintf("%d/%d", id%7, m.Shard)
				if last, seen := lastByKeyShard[k]; seen && id <= last {
					t.Fatalf("key %d out of order: %d after %d", id%7, id, last)
				}
				lastByKeyShard[k] = id
			}
		}
	}
	if total != 2*n || len(gotEvents) != n {
		t.Fatalf("delivered %d messages (%d events), want %d (%d)", total, len(gotEvents), 2*n, n)
	}
}

// TestPollFairnessAfterIdle pins the round-robin cursor across idle
// periods: an all-empty scan must leave the cursor where it was, not
// reset it to shard 0 (which would permanently bias delivery toward
// low-numbered shards after any idle period).
func TestPollFairnessAfterIdle(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b := openWith(t, pmem.NewSetOf(h), Options{Threads: 1}, 0, TopicConfig{Name: "events", Shards: 3})
	g, err := b.NewGroup([]string{"events"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Consumer(0)
	events := b.Topic("events")
	events.Publish(0, U64(1)) // round-robin: lands on shard 0
	if ms := c.PollBatch(0, 1); len(ms) != 1 || AsU64(ms[0].Payload) != 1 {
		t.Fatalf("poll = %v", ms)
	}
	// Idle: two all-empty scans. The cursor must stay on shard 1.
	for i := 0; i < 2; i++ {
		if ms := c.PollBatch(0, 1); len(ms) != 0 {
			t.Fatal("queue should be empty")
		}
	}
	// One message per shard (the topic's rr cursor is at 1).
	events.Publish(0, U64(2)) // shard 1
	events.Publish(0, U64(3)) // shard 2
	events.Publish(0, U64(4)) // shard 0
	ms := c.PollBatch(0, 1)
	if len(ms) != 1 || ms[0].Shard != 1 || AsU64(ms[0].Payload) != 2 {
		t.Fatalf("first post-idle poll = %v, want shard 1 payload 2 (cursor was reset)", ms)
	}
}

// TestPollBatchSingleFenceAcrossShards pins the tentpole claim: one
// PollBatch draining several shards issues one NTStore per shard but
// rides a single blocking persist for the whole poll, and subsequent
// all-empty polls are persist-free.
func TestPollBatchSingleFenceAcrossShards(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b := openWith(t, pmem.NewSetOf(h), Options{Threads: 1}, 0, TopicConfig{Name: "events", Shards: 4})
	g, err := b.NewGroup([]string{"events"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Consumer(0)
	events := b.Topic("events")
	const n = 16
	for i := uint64(0); i < n; i++ {
		events.Publish(0, U64(i)) // 4 messages per shard round-robin
	}
	before := h.TotalStats()
	ms := c.PollBatch(0, n)
	d := h.TotalStats().Sub(before)
	if len(ms) != n {
		t.Fatalf("PollBatch delivered %d messages, want %d", len(ms), n)
	}
	got := map[uint64]bool{}
	for _, m := range ms {
		id := AsU64(m.Payload)
		if got[id] {
			t.Fatalf("message %d delivered twice", id)
		}
		got[id] = true
	}
	if len(got) != n {
		t.Fatalf("delivered %d distinct messages, want %d", len(got), n)
	}
	if d.Fences != 1 {
		t.Fatalf("PollBatch across 4 shards issued %d fences, want 1", d.Fences)
	}
	if d.NTStores != 4 {
		t.Fatalf("PollBatch across 4 shards issued %d NTStores, want 4 (one per shard)", d.NTStores)
	}
	// Idle polls elide every persist.
	before = h.TotalStats()
	for i := 0; i < 100; i++ {
		if ms := c.PollBatch(0, n); len(ms) != 0 {
			t.Fatal("queue should be empty")
		}
	}
	if d := h.TotalStats().Sub(before); d.Fences != 0 || d.NTStores != 0 {
		t.Fatalf("100 idle polls issued %d fences, %d NTStores; want 0, 0", d.Fences, d.NTStores)
	}
}

// TestPollBatchNoStarvation: a shard that fills a whole poll batch
// must not pin the cursor — the next poll starts at the following
// shard, so a continuously hot shard cannot starve its siblings.
func TestPollBatchNoStarvation(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b := openWith(t, pmem.NewSetOf(h), Options{Threads: 1}, 0, TopicConfig{Name: "events", Shards: 2})
	g, err := b.NewGroup([]string{"events"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Consumer(0)
	events := b.Topic("events")
	for i := uint64(0); i < 10; i++ {
		events.Publish(0, U64(i)) // round-robin: evens → shard 0, odds → shard 1
	}
	// First poll fills entirely from shard 0.
	for _, m := range c.PollBatch(0, 5) {
		if m.Shard != 0 {
			t.Fatalf("first poll delivered from shard %d, want 0", m.Shard)
		}
	}
	// Keep shard 0 hot (the topic's rr cursor is back at shard 0).
	for i := uint64(10); i < 20; i++ {
		events.Publish(0, U64(i))
	}
	// The next poll must serve shard 1's backlog, not shard 0 again.
	ms := c.PollBatch(0, 5)
	if len(ms) != 5 {
		t.Fatalf("second poll delivered %d messages, want 5", len(ms))
	}
	for i, m := range ms {
		if m.Shard != 1 {
			t.Fatalf("second poll message %d came from shard %d: hot shard 0 starved shard 1", i, m.Shard)
		}
	}
}

// TestPollBatchMixedTopics drains a fixed-width and a blob topic
// through one consumer's PollBatch and audits payload integrity.
func TestPollBatchMixedTopics(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b := openWith(t, pmem.NewSetOf(h), Options{Threads: 2}, 0, twoTopics()...)
	g, err := b.NewGroup([]string{"events", "jobs"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i))
		b.Topic("jobs").Publish(0, blobPayload(i))
	}
	c := g.Consumer(0)
	gotEvents, gotJobs := map[uint64]bool{}, map[uint64]bool{}
	for {
		ms := c.PollBatch(1, 7)
		if len(ms) == 0 {
			break
		}
		for _, m := range ms {
			id := AsU64(m.Payload[:8])
			switch m.Topic {
			case "events":
				if gotEvents[id] {
					t.Fatalf("event %d delivered twice", id)
				}
				gotEvents[id] = true
			case "jobs":
				if !bytes.Equal(m.Payload, blobPayload(id)) {
					t.Fatalf("job %d payload corrupted", id)
				}
				if gotJobs[id] {
					t.Fatalf("job %d delivered twice", id)
				}
				gotJobs[id] = true
			}
		}
	}
	if len(gotEvents) != n || len(gotJobs) != n {
		t.Fatalf("delivered %d events, %d jobs; want %d each", len(gotEvents), len(gotJobs), n)
	}
}

func TestCatalogRecoverRoundTrip(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
	b := openWith(t, pmem.NewSetOf(h), Options{Threads: 2}, 0, twoTopics()...)
	b.Topic("events").Publish(0, U64(42))
	b.Topic("jobs").Publish(0, blobPayload(7))
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(2)))
	h.Restart()
	r, err := Open(pmem.NewSetOf(h), Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range twoTopics() {
		got := r.Topics()[i]
		if got.Name() != tc.Name || got.Shards() != tc.Shards {
			t.Fatalf("recovered topic %d = %s/%d, want %s/%d",
				i, got.Name(), got.Shards(), tc.Name, tc.Shards)
		}
	}
	if p, ok := r.Topic("events").DequeueShard(0, 0); !ok || AsU64(p) != 42 {
		t.Fatalf("recovered event = %v,%v", p, ok)
	}
	found := false
	for s := 0; s < r.Topic("jobs").Shards(); s++ {
		if p, ok := r.Topic("jobs").DequeueShard(0, s); ok {
			if !bytes.Equal(p, blobPayload(7)) {
				t.Fatal("recovered job payload corrupted")
			}
			found = true
		}
	}
	if !found {
		t.Fatal("acknowledged job lost across crash")
	}
}

func TestRecoverThreadBound(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
	b := openWith(t, pmem.NewSetOf(h), Options{Threads: 3}, 0, twoTopics()...)
	b.Topic("events").Publish(2, U64(9))
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(4)))
	h.Restart()
	// A mismatched bound would silently mis-scan the per-thread
	// head-index regions; it must be rejected instead.
	if _, err := Open(pmem.NewSetOf(h), Options{Threads: 2}); err == nil {
		t.Fatal("Open with a mismatched thread bound should fail")
	}
	// 0 adopts the recorded bound.
	r, err := Open(pmem.NewSetOf(h), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Threads() != 3 {
		t.Fatalf("adopted thread bound = %d, want 3", r.Threads())
	}
	if p, ok := r.Topic("events").DequeueShard(0, 0); !ok || AsU64(p) != 9 {
		t.Fatalf("recovered event = %v,%v", p, ok)
	}
}

// TestBrokerCrashFuzz is the whole-broker durability audit: concurrent
// producers (mixing per-message, batch and keyed publishes) and a
// consumer group run until a crash at a random memory access; the
// broker is recovered from its catalog alone and audited — every
// acknowledged publish across all topics and shards is delivered or
// recovered exactly once, and per-shard per-producer FIFO holds.
func TestBrokerCrashFuzz(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { brokerCrashRound(t, seed, 1, 1) })
	}
}

// TestBrokerCrashFuzzBatched is the same audit with batched consumers
// (PollBatch): a batch is acknowledged as a whole when PollBatch
// returns, so a crash mid-poll may redeliver — or, for a window whose
// NTStore landed without its fence, consume — only messages of the
// unacknowledged batch window; acknowledged deliveries never reappear
// and the loss allowance grows from 1 to the poll batch size per
// consumer.
func TestBrokerCrashFuzzBatched(t *testing.T) {
	seeds := []int64{4, 5, 6}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { brokerCrashRound(t, seed, 8, 1) })
	}
}

// TestBrokerCrashFuzzMultiHeap runs the same audit on a broker
// spanning several heaps, with the crash scheduled on the accesses of
// a single randomly chosen member (the set shares one power supply,
// so one domain's failure downs them all): every acknowledged publish
// must be delivered or recovered exactly once across the whole set.
func TestBrokerCrashFuzzMultiHeap(t *testing.T) {
	seeds := []int64{7, 8, 9}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("heaps=2/seed=%d", seed), func(t *testing.T) { brokerCrashRound(t, seed, 8, 2) })
	}
	if !testing.Short() {
		t.Run("heaps=3/seed=10", func(t *testing.T) { brokerCrashRound(t, 10, 1, 3) })
	}
}

func brokerCrashRound(t *testing.T, seed int64, dequeueBatch, heaps int) {
	const (
		producers   = 3
		consumers   = 2
		perProducer = 3000
		threads     = producers + consumers
	)
	hs := pmem.NewSet(heaps, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: threads})
	b := openWith(t, hs, Options{Threads: threads}, 0, twoTopics()...)
	g, err := b.NewGroup([]string{"events", "jobs"}, consumers)
	if err != nil {
		t.Fatal(err)
	}
	crashRng := rand.New(rand.NewSource(seed))
	// Arm the crash on one member's access stream; when it fires, the
	// whole set goes down together. The window is sized to the
	// workload's actual per-heap access count (~100k/heaps for 9000
	// messages) so the crash usually lands mid-traffic rather than at
	// quiescence.
	hs.Heap(crashRng.Intn(heaps)).ScheduleCrashAtAccess((20_000 + int64(crashRng.Intn(140_000))) / int64(heaps))

	acked := make([][]uint64, producers)
	delivered := make([]map[uint64]ShardRef, consumers)
	redelivered := make([]int, consumers) // same id polled twice by one consumer
	var producersDone sync.WaitGroup
	var wg sync.WaitGroup
	// Gate all workers on one signal so consumers race producers from
	// the first access — without it the crash (which fires within tens
	// of thousands of accesses) usually lands before the consumer
	// goroutines are even scheduled and the delivered-side audit is
	// vacuous.
	var start sync.WaitGroup
	start.Add(1)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		producersDone.Add(1)
		go func(p int) {
			defer wg.Done()
			defer producersDone.Done()
			start.Wait()
			rng := rand.New(rand.NewSource(seed*997 + int64(p)))
			events, jobs := b.Topic("events"), b.Topic("jobs")
			// The pipelined arm: windows issue unfenced and acknowledge
			// one flush late, so `issued` tracks ids whose covering fence
			// is still owed. A crash discards them (they were never
			// acknowledged; whatever landed durably is recovered, which
			// the audit allows).
			pub := events.NewPublisher(p, PublisherConfig{
				Policy: batch.NewAIMD(1, 8), Pipeline: true,
			})
			var issued []uint64
			ackN := func(n int) {
				acked[p] = append(acked[p], issued[:n]...)
				issued = issued[n:]
			}
			// Each iteration publishes ids in increasing order before
			// minting the next, so every shard sees any one producer's
			// messages with ascending ids — the FIFO the audit checks.
			for m := uint64(1); m <= perProducer; {
				// Yield between publishes so consumers interleave even
				// on a single-P runtime; the crash window is far shorter
				// than a preemption quantum.
				runtime.Gosched()
				id := uint64(p+1)<<32 | m
				switch rng.Intn(5) {
				case 0: // fixed-topic publish (after draining the pipeline:
					// a buffered window holds earlier ids, and publishing id
					// directly before they land would break per-shard FIFO)
					n := 0
					if pmem.Protect(func() { n = pub.Flush(); events.Publish(p, U64(id)) }) {
						return
					}
					ackN(n)
					acked[p] = append(acked[p], id)
					m++
				case 1: // keyed publish
					if pmem.Protect(func() { jobs.PublishKey(p, U64(id%5), blobPayload(id)) }) {
						return
					}
					acked[p] = append(acked[p], id)
					m++
				case 2: // pipelined adaptive burst, acked one window late
					for burst := 0; burst < 8 && m <= perProducer; burst++ {
						id := uint64(p+1)<<32 | m
						n := 0
						if pmem.Protect(func() { n = pub.Publish(U64(id)) }) {
							return
						}
						issued = append(issued, id)
						ackN(n)
						m++
					}
				default: // batch of consecutive ids, acked as a whole
					var batch [][]byte
					var ids []uint64
					for len(batch) < 8 && m <= perProducer {
						ids = append(ids, uint64(p+1)<<32|m)
						batch = append(batch, blobPayload(ids[len(ids)-1]))
						m++
					}
					if pmem.Protect(func() { jobs.PublishBatch(p, batch) }) {
						return
					}
					acked[p] = append(acked[p], ids...)
				}
			}
			// Drain the pipeline: after Flush every issued id is durably
			// acknowledged.
			n := 0
			if pmem.Protect(func() { n = pub.Flush() }) {
				return
			}
			ackN(n)
			if len(issued) != 0 {
				panic(fmt.Sprintf("publisher Flush left %d ids unacknowledged", len(issued)))
			}
		}(p)
	}

	done := make(chan struct{})
	go func() { producersDone.Wait(); close(done) }()
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		delivered[c] = map[uint64]ShardRef{}
		go func(c int) {
			defer wg.Done()
			start.Wait()
			tid := producers + c
			cons := g.Consumer(c)
			idle := false
			for {
				runtime.Gosched()
				var ms []Message
				if pmem.Protect(func() {
					ms = cons.PollBatch(tid, dequeueBatch)
				}) {
					return // crash mid-poll: the whole window is unacknowledged
				}
				if len(ms) > 0 {
					for _, m := range ms {
						id := AsU64(m.Payload[:8])
						if _, dup := delivered[c][id]; dup {
							redelivered[c]++
						}
						delivered[c][id] = ShardRef{Topic: m.Topic, Shard: m.Shard}
					}
					idle = false
					continue
				}
				select {
				case <-done:
					if idle {
						return // producers finished and two empty sweeps
					}
					idle = true
				default:
				}
			}
		}(c)
	}
	start.Done()
	wg.Wait()
	if !hs.Crashed() {
		hs.CrashNow() // traffic finished first; crash at quiescence
	}
	hs.FinalizeCrash(rand.New(rand.NewSource(seed * 31)))
	hs.Restart()

	r, err := Open(hs, Options{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}

	// Drain the recovered backlog per shard, checking per-producer
	// FIFO and collecting ids.
	seen := map[uint64]string{}
	for c := range delivered {
		if redelivered[c] > 0 {
			t.Fatalf("consumer %d saw %d re-deliveries", c, redelivered[c])
		}
		for id := range delivered[c] {
			if _, dup := seen[id]; dup {
				t.Fatalf("message %#x delivered twice", id)
			}
			seen[id] = "delivered"
		}
	}
	recoveredCount := 0
	for _, topic := range r.Topics() {
		for s := 0; s < topic.Shards(); s++ {
			lastPerProducer := map[uint64]uint64{}
			for {
				p, ok := topic.DequeueShard(0, s)
				if !ok {
					break
				}
				id := AsU64(p[:8])
				if topic.Name() == "jobs" && !bytes.Equal(p, blobPayload(id)) {
					t.Fatalf("recovered payload for %#x corrupted", id)
				}
				if _, dup := seen[id]; dup {
					t.Fatalf("message %#x both %s and recovered", id, seen[id])
				}
				seen[id] = "recovered"
				prod, m := id>>32, id&0xffffffff
				if last := lastPerProducer[prod]; m <= last {
					t.Fatalf("shard %s/%d: producer %d out of order (%d after %d)",
						topic.Name(), s, prod, m, last)
				}
				lastPerProducer[prod] = m
				recoveredCount++
			}
		}
	}
	lost := 0
	totalAcked := 0
	for p := range acked {
		totalAcked += len(acked[p])
		for _, id := range acked[p] {
			if _, ok := seen[id]; !ok {
				lost++
			}
		}
	}
	t.Logf("seed %d: acked %d, delivered %d, recovered backlog %d, in-flight losses %d",
		seed, totalAcked, len(seen)-recoveredCount, recoveredCount, lost)
	// Each consumer may have one unacknowledged poll window whose
	// persists completed just before the crash cut off the delivery
	// record: 1 message on the Poll path, up to the poll batch size on
	// the PollBatch path (the window's final NTStores can land without
	// the batch's fence).
	if allowance := consumers * dequeueBatch; lost > allowance {
		t.Fatalf("%d acknowledged messages lost (allowance %d)", lost, allowance)
	}
}

// TestMultiHeapPlacementSpread pins the two built-in policies: global
// round-robin deals consecutive shards across the set, block placement
// keeps each topic's shards in contiguous per-heap runs.
func TestMultiHeapPlacementSpread(t *testing.T) {
	mk := func(p PlacementPolicy) *Broker {
		hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
		b := openWith(t, hs, Options{Threads: 1, Placement: p}, 0, twoTopics()...)
		return b
	}
	rr := mk(nil) // default: round-robin
	for _, topic := range rr.Topics() {
		for s := 0; s < topic.Shards(); s++ {
			if want := s % 2; topic.HeapOf(s) != want {
				t.Fatalf("round-robin: %s shard %d on heap %d, want %d",
					topic.Name(), s, topic.HeapOf(s), want)
			}
		}
	}
	bl := mk(BlockPlacement)
	for _, topic := range bl.Topics() {
		for s := 0; s < topic.Shards(); s++ {
			if want := s * 2 / topic.Shards(); topic.HeapOf(s) != want {
				t.Fatalf("block: %s shard %d on heap %d, want %d",
					topic.Name(), s, topic.HeapOf(s), want)
			}
		}
	}
}

// TestMultiHeapRecoverRoundTrip crashes a 2-heap broker mid-state and
// recovers it from the catalog plus stamps alone: topics, placements
// and messages on both domains survive.
func TestMultiHeapRecoverRoundTrip(t *testing.T) {
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
	b := openWith(t, hs, Options{Threads: 2}, 0, twoTopics()...)
	// Round-robin placement: events shards alternate heaps. Publish one
	// message per shard on both topics so both domains hold state.
	for i := uint64(0); i < 8; i++ {
		b.Topic("events").Publish(0, U64(i))
		b.Topic("jobs").Publish(0, blobPayload(i))
	}
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(5)))
	hs.Restart()
	r, err := Open(hs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Heaps() != 2 {
		t.Fatalf("recovered broker spans %d heaps, want 2", r.Heaps())
	}
	for ti, topic := range r.Topics() {
		for s := 0; s < topic.Shards(); s++ {
			if got, want := topic.HeapOf(s), b.Topics()[ti].HeapOf(s); got != want {
				t.Fatalf("recovered %s shard %d on heap %d, want %d", topic.Name(), s, got, want)
			}
		}
	}
	gotEvents, gotJobs := map[uint64]bool{}, 0
	for _, topic := range r.Topics() {
		for s := 0; s < topic.Shards(); s++ {
			for {
				p, ok := topic.DequeueShard(0, s)
				if !ok {
					break
				}
				if topic.Name() == "events" {
					gotEvents[AsU64(p)] = true
				} else {
					id := AsU64(p[:8])
					if !bytes.Equal(p, blobPayload(id)) {
						t.Fatalf("job %d corrupted across multi-heap recovery", id)
					}
					gotJobs++
				}
			}
		}
	}
	if len(gotEvents) != 8 || gotJobs != 8 {
		t.Fatalf("recovered %d events, %d jobs; want 8 each", len(gotEvents), gotJobs)
	}
}

// TestRecoverHeapSetMismatch: recovery on a set that does not match
// the catalog — missing heaps, a blank heap spliced in, or members in
// the wrong order — must error, never silently drop or mis-scan
// shards.
func TestRecoverHeapSetMismatch(t *testing.T) {
	cfg := pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4}
	h0, h1, h2 := pmem.New(cfg), pmem.New(cfg), pmem.New(cfg)
	hs := pmem.NewSetOf(h0, h1, h2)
	b := openWith(t, hs, Options{Threads: 2}, 0, twoTopics()...)
	b.Topic("events").Publish(0, U64(1))
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(6)))
	hs.Restart()

	openSet := func(set *pmem.HeapSet) error {
		_, err := Open(set, Options{Threads: 2})
		return err
	}
	if openSet(pmem.NewSetOf(h0)) == nil {
		t.Fatal("Open with 1 of 3 catalogued heaps should fail")
	}
	if openSet(pmem.NewSetOf(h0, h1)) == nil {
		t.Fatal("Open with 2 of 3 catalogued heaps should fail")
	}
	blank := pmem.New(cfg)
	if openSet(pmem.NewSetOf(h0, h1, blank)) == nil {
		t.Fatal("Open with a blank heap replacing a member should fail")
	}
	if openSet(pmem.NewSetOf(h0, h2, h1)) == nil {
		t.Fatal("Open with members out of order should fail")
	}
	// A foreign heap carrying another broker's stamp must be rejected.
	foreign := pmem.NewSet(2, cfg)
	openWith(t, foreign, Options{Threads: 1}, 0, TopicConfig{Name: "x", Shards: 1})
	foreign.CrashNow()
	foreign.FinalizeCrash(rand.New(rand.NewSource(7)))
	foreign.Restart()
	if openSet(pmem.NewSetOf(h0, h1, foreign.Heap(1))) == nil {
		t.Fatal("Open with another broker's heap spliced in should fail")
	}
	// The correct set still recovers, with the message intact.
	r, err := Open(pmem.NewSetOf(h0, h1, h2), Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := r.Topic("events").DequeueShard(0, 0); !ok || AsU64(p) != 1 {
		t.Fatalf("recovered event = %v,%v", p, ok)
	}
}

// TestOpenRejectsOccupiedMembers: Open must not create a broker over a
// set whose members carry durable broker state — in any position, not
// just heap 0 — instead of silently overwriting another broker's
// catalog, stamp or shards. A catalog on heap 0 means recovery, which
// then insists on every member's stamp.
func TestOpenRejectsOccupiedMembers(t *testing.T) {
	cfg := pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4}
	old := pmem.NewSet(2, cfg)
	openWith(t, old, Options{Threads: 2}, 0, TopicConfig{Name: "events", Shards: 2})
	old.CrashNow()
	old.FinalizeCrash(rand.New(rand.NewSource(8)))
	old.Restart()

	fresh := func() *pmem.Heap { return pmem.New(cfg) }
	openSet := func(set *pmem.HeapSet) error {
		_, err := Open(set, Options{Threads: 2})
		return err
	}
	// A former anchor heap (full catalog) spliced into a non-anchor
	// position of a new set.
	if openSet(pmem.NewSetOf(fresh(), old.Heap(0))) == nil {
		t.Fatal("Open creating over a heap hosting a catalog (non-anchor position) should fail")
	}
	// A former member heap (stamp) likewise.
	if openSet(pmem.NewSetOf(fresh(), old.Heap(1))) == nil {
		t.Fatal("Open creating over a heap carrying a membership stamp should fail")
	}
	// A catalog anchor with a blank heap 1 recovers, and the missing
	// stamp fails it.
	if openSet(pmem.NewSetOf(old.Heap(0), fresh())) == nil {
		t.Fatal("Open over an anchor heap hosting a catalog with a blank member should fail")
	}
	// The untouched old set remains recoverable.
	if err := openSet(pmem.NewSetOf(old.Heap(0), old.Heap(1))); err != nil {
		t.Fatal(err)
	}
}

// TestAffineGroupFencesOneDomain: with block placement and an affine
// group, each member's shards live on one heap, Domains reports it,
// and a PollBatch draining several shards pays exactly one SFENCE.
func TestAffineGroupFencesOneDomain(t *testing.T) {
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, MaxThreads: 4})
	b := openWith(t, hs, Options{Threads: 2, Placement: BlockPlacement}, 0, TopicConfig{Name: "events", Shards: 4})
	g, err := b.NewGroupAffine([]string{"events"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.Size(); i++ {
		if d := g.Consumer(i).Domains(); len(d) != 1 || d[0] != i {
			t.Fatalf("affine consumer %d spans domains %v, want [%d]", i, d, i)
		}
	}
	const n = 16
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i)) // 4 per shard round-robin
	}
	for i := 0; i < g.Size(); i++ {
		before := hs.TotalStats()
		ms := g.Consumer(i).PollBatch(1, n)
		d := hs.TotalStats().Sub(before)
		if len(ms) != n/2 {
			t.Fatalf("consumer %d drained %d messages, want %d", i, len(ms), n/2)
		}
		if d.Fences != 1 {
			t.Fatalf("affine consumer %d paid %d fences for a multi-shard poll, want 1", i, d.Fences)
		}
	}
	// Contrast: a round-robin-assigned group over round-robin placement
	// owns shards on both domains and pays one fence per domain.
	hs2 := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, MaxThreads: 4})
	b2 := openWith(t, hs2, Options{Threads: 2}, 0, TopicConfig{Name: "events", Shards: 4})
	g2, err := b2.NewGroup([]string{"events"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := g2.Consumer(0).Domains(); len(d) != 2 {
		t.Fatalf("spread consumer spans domains %v, want both", d)
	}
	for i := uint64(0); i < n; i++ {
		b2.Topic("events").Publish(0, U64(i))
	}
	before := hs2.TotalStats()
	if ms := g2.Consumer(0).PollBatch(1, n); len(ms) != n {
		t.Fatalf("spread consumer drained %d messages, want %d", len(ms), n)
	}
	if d := hs2.TotalStats().Sub(before); d.Fences != 2 {
		t.Fatalf("spread consumer paid %d fences, want 2 (one per domain)", d.Fences)
	}
}
