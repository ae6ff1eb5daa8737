package broker

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/pmem"
	"repro/internal/queues"
)

// TestOpenCreateRecoverRoundTrip is the live-administration round
// trip: Open brings up an empty broker, topics appear at runtime via
// CreateTopic, and after a power failure the same Open call brings
// the same broker back — topics, placements and payloads intact, no
// matter that they were created across separate administrative calls.
func TestOpenCreateRecoverRoundTrip(t *testing.T) {
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
	if _, err := Open(hs, Options{}); err == nil {
		t.Fatal("Open creating a broker without a thread bound should fail")
	}
	b, err := Open(hs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Topics()) != 0 || b.ShardTotal() != 0 {
		t.Fatalf("fresh broker has %d topics, %d shards; want 0, 0", len(b.Topics()), b.ShardTotal())
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "events", Shards: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "events", Shards: 1}); err == nil {
		t.Fatal("duplicate CreateTopic should fail")
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "jobs", Shards: 2, MaxPayload: 64}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		b.Topic("events").Publish(0, U64(i))
		b.Topic("jobs").Publish(0, blobPayload(100+i))
	}
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(81)))
	hs.Restart()

	if _, err := Open(hs, Options{Threads: 3}); err == nil {
		t.Fatal("Open with a mismatched thread bound should fail")
	}
	r, err := Open(hs, Options{}) // adopt the recorded bound
	if err != nil {
		t.Fatal(err)
	}
	if r.Threads() != 2 {
		t.Fatalf("adopted thread bound = %d, want 2", r.Threads())
	}
	if got := len(r.Topics()); got != 2 {
		t.Fatalf("recovered %d topics, want 2", got)
	}
	for s := 0; s < 4; s++ {
		if got, want := r.Topic("events").HeapOf(s), b.Topic("events").HeapOf(s); got != want {
			t.Fatalf("events shard %d recovered on heap %d, want %d", s, got, want)
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
				id := AsU64(p[:8])
				if topic.Name() == "events" {
					gotEvents[id] = true
				} else {
					if !bytes.Equal(p, blobPayload(id)) {
						t.Fatalf("job %d corrupted across recovery", id)
					}
					gotJobs++
				}
			}
		}
	}
	if len(gotEvents) != 8 || gotJobs != 8 {
		t.Fatalf("recovered %d events, %d jobs; want 8 each", len(gotEvents), gotJobs)
	}
	// The recovered broker stays administrable: create, publish, read.
	if _, err := r.CreateTopic(0, TopicConfig{Name: "late", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	r.Topic("late").Publish(0, U64(7))
	if p, ok := r.Topic("late").DequeueShard(0, 0); !ok || AsU64(p) != 7 {
		t.Fatalf("post-recovery topic delivery = %v,%v", p, ok)
	}
}

// TestCreateTopicCrashBeforeAnchor pins the creation protocol's crash
// atomicity, deterministically: a crash in the window between the
// record's append fence and its anchor stamp recovers as "the topic
// never existed" — and the torn record at the log's tail is truncated
// by the next creation, which appends over it and commits.
// TestCrashInShardInitReachesProtect crashes the power supply from
// inside the per-heap worker that builds heap 1's shards, both in
// CreateTopic and in Open's rebuild. The crash must surface on the
// calling goroutine, where pmem.Protect catches it, rather than escape
// the worker and kill the process.
func TestCrashInShardInitReachesProtect(t *testing.T) {
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
	b, err := Open(hs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "base", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	b.Topic("base").Publish(0, U64(11))

	testHookFanOut = func(hi int) {
		if hi == 1 {
			hs.CrashNow()
		}
	}
	defer func() { testHookFanOut = nil }()
	if !pmem.Protect(func() { b.CreateTopic(0, TopicConfig{Name: "late", Shards: 2}) }) {
		t.Fatal("CreateTopic survived a crash inside shard init")
	}
	hs.FinalizeCrash(rand.New(rand.NewSource(84)))
	hs.Restart()
	if !pmem.Protect(func() { Open(hs, Options{}) }) {
		t.Fatal("Open survived a crash inside the shard rebuild")
	}
	hs.FinalizeCrash(rand.New(rand.NewSource(85)))
	hs.Restart()
	testHookFanOut = nil

	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Topic("late") != nil {
		t.Fatal("a create that crashed in shard init recovered as existing")
	}
	got := map[uint64]bool{}
	for s := 0; s < r.Topic("base").Shards(); s++ {
		if p, ok := r.Topic("base").DequeueShard(0, s); ok {
			got[AsU64(p)] = true
		}
	}
	if !got[11] || len(got) != 1 {
		t.Fatalf("recovered %v from the pre-existing topic, want {11}", got)
	}
}

func TestCreateTopicCrashBeforeAnchor(t *testing.T) {
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
	b, err := Open(hs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "base", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	b.Topic("base").Publish(0, U64(11))

	testHookAfterAppend = func() { hs.CrashNow() }
	crashed := pmem.Protect(func() { b.CreateTopic(0, TopicConfig{Name: "late", Shards: 2}) })
	testHookAfterAppend = nil
	if !crashed {
		t.Fatal("CreateTopic survived a crash armed between append and anchor")
	}
	hs.FinalizeCrash(rand.New(rand.NewSource(82)))
	hs.Restart()

	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Topic("late") != nil {
		t.Fatal("a create that crashed before its anchor stamp recovered as existing")
	}
	if p, ok := r.Topic("base").DequeueShard(0, 0); !ok || AsU64(p) != 11 {
		t.Fatalf("pre-existing topic lost its message: %v,%v", p, ok)
	}
	// Re-create over the torn tail, publish, power-fail, recover: the
	// debris never resurfaces and the committed topic round-trips.
	if _, err := r.CreateTopic(0, TopicConfig{Name: "late", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	r.Topic("late").Publish(0, U64(21))
	r.Topic("late").Publish(0, U64(22))
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(83)))
	hs.Restart()
	r2, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	for s := 0; s < r2.Topic("late").Shards(); s++ {
		for {
			p, ok := r2.Topic("late").DequeueShard(0, s)
			if !ok {
				break
			}
			if got[AsU64(p)] {
				t.Fatalf("message %d recovered twice", AsU64(p))
			}
			got[AsU64(p)] = true
		}
	}
	if !got[21] || !got[22] || len(got) != 2 {
		t.Fatalf("recovered %v, want {21, 22}", got)
	}
}

// TestCreateTopicFenceAccounting pins the administrative cost model:
// the catalog protocol of one CreateTopic is exactly three blocking
// persists (allocator marks, record append, anchor stamp) on top of
// the per-shard queue initialization, and the total is independent of
// how many topics the broker already has — the log appends, it never
// rewrites.
func TestCreateTopicFenceAccounting(t *testing.T) {
	cfg := pmem.Config{Bytes: 256 << 20, MaxThreads: 2}
	h := pmem.New(cfg)
	b, err := Open(pmem.NewSetOf(h), Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(tc TopicConfig) uint64 {
		before := h.TotalStats().Fences
		if _, err := b.CreateTopic(0, tc); err != nil {
			t.Fatal(err)
		}
		return h.TotalStats().Fences - before
	}
	oneShard := measure(TopicConfig{Name: "t-first", Shards: 1})
	twoShard := measure(TopicConfig{Name: "t-two", Shards: 2})
	blobFirst := measure(TopicConfig{Name: "b-first", Shards: 1, MaxPayload: 64})
	ackedFirst := measure(TopicConfig{Name: "a-first", Shards: 1, Acked: true})
	for i := 0; i < 20; i++ {
		measure(TopicConfig{Name: fmt.Sprintf("filler-%d", i), Shards: 1})
	}
	if again := measure(TopicConfig{Name: "t-late", Shards: 1}); again != oneShard {
		t.Fatalf("CreateTopic cost grew with the topic count: %d fences on a 24-topic broker, %d on an empty one",
			again, oneShard)
	}
	if again := measure(TopicConfig{Name: "b-late", Shards: 1, MaxPayload: 64}); again != blobFirst {
		t.Fatalf("blob CreateTopic cost grew with the topic count: %d vs %d", again, blobFirst)
	}
	if again := measure(TopicConfig{Name: "a-late", Shards: 1, Acked: true}); again != ackedFirst {
		t.Fatalf("acked CreateTopic cost grew with the topic count: %d vs %d", again, ackedFirst)
	}

	// Pin the admin overhead itself: a bare queue constructed on a
	// fresh heap costs queueInit fences, so CreateTopic(1 shard) must
	// cost exactly queueInit + 3 (marks, record, anchor), and each
	// extra shard exactly queueInit more.
	h2 := pmem.New(cfg)
	before := h2.TotalStats().Fences
	queues.NewOptUnlinkedQ(h2.View(1, slotsPerShard), 2)
	queueInit := h2.TotalStats().Fences - before
	if oneShard != queueInit+3 {
		t.Fatalf("CreateTopic(1 shard) = %d fences, want queue init (%d) + 3 admin persists", oneShard, queueInit)
	}
	if twoShard != queueInit+oneShard {
		t.Fatalf("CreateTopic(2 shards) = %d fences, want %d (+1 shard = +%d)", twoShard, queueInit+oneShard, queueInit)
	}
}

// TestCreateAckGroupDynamic: lease regions created at runtime bind
// groups over topics created before and after them, enforcing the
// recorded capacity — a region without headroom refuses topics beyond
// it instead of mis-indexing lease lines.
func TestCreateAckGroupDynamic(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 3})
	b, err := Open(pmem.NewSetOf(h), Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "a", Shards: 2, Acked: true}); err != nil {
		t.Fatal(err)
	}
	// An exactly-sized region and one with headroom.
	tight, err := b.CreateAckGroup(0, AckGroupConfig{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	roomy, err := b.CreateAckGroup(0, AckGroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateAckGroup(0, AckGroupConfig{Capacity: 1}); err == nil {
		t.Fatal("capacity below the current shard total should fail")
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "late", Shards: 2, Acked: true}); err != nil {
		t.Fatal(err)
	}
	clk := &logicalClock{}
	// The tight region cannot cover the late topic's ordinals [2, 4).
	if _, err := b.NewGroupAcked([]string{"a", "late"}, 1, LeaseConfig{Region: tight, TTL: 10, Now: clk.Now}); err == nil {
		t.Fatal("binding past the region capacity should fail")
	}
	g, err := b.NewGroupAcked([]string{"a", "late"}, 1, LeaseConfig{Region: roomy, TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 8; i++ {
		b.Topic("a").Publish(0, U64(i))
		b.Topic("late").Publish(0, U64(100+i))
	}
	got := map[uint64]int{}
	c := g.Consumer(0)
	for {
		ms := c.PollBatch(1, 8)
		if len(ms) == 0 {
			break
		}
		for _, m := range ms {
			got[AsU64(m.Payload)]++
		}
		c.Ack(1)
	}
	if len(got) != 16 {
		t.Fatalf("drained %d distinct messages across both topics, want 16", len(got))
	}
	for id, n := range got {
		if n != 1 {
			t.Fatalf("message %d delivered %d times", id, n)
		}
	}
}

// TestSubscribeLiveTopics: a group reaches topics created after it via
// Subscribe — plain groups while quiescent, acked groups with lease
// frontiers seeded and capacity enforced; duplicate or unknown
// subscriptions are errors.
func TestSubscribeLiveTopics(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 3})
	b, err := Open(pmem.NewSetOf(h), Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "first", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	g, err := b.NewGroup([]string{"first"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Subscribe(0, "first"); err == nil {
		t.Fatal("re-subscribing an owned topic should fail")
	}
	if err := g.Subscribe(0, "nope"); err == nil {
		t.Fatal("subscribing an unknown topic should fail")
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "second", Shards: 3}); err != nil {
		t.Fatal(err)
	}
	if err := g.Subscribe(0, "second"); err != nil {
		t.Fatal(err)
	}
	owned := map[ShardRef]bool{}
	total := 0
	for i := 0; i < g.Size(); i++ {
		for _, r := range g.Consumer(i).Assigned() {
			if owned[r] {
				t.Fatalf("shard %v assigned twice after Subscribe", r)
			}
			owned[r] = true
			total++
		}
	}
	if total != 5 {
		t.Fatalf("group owns %d shards after Subscribe, want 5", total)
	}
	// The dealt shards balance: 5 shards over 2 members = 3 and 2.
	if d := len(g.Consumer(0).Assigned()) - len(g.Consumer(1).Assigned()); d < -1 || d > 1 {
		t.Fatalf("Subscribe dealt unevenly: %d vs %d shards",
			len(g.Consumer(0).Assigned()), len(g.Consumer(1).Assigned()))
	}
	for i := uint64(0); i < 12; i++ {
		b.Topic("second").Publish(0, U64(i))
	}
	got := map[uint64]bool{}
	for i := 0; i < g.Size(); i++ {
		for {
			ms := g.Consumer(i).PollBatch(i+1, 1)
			if len(ms) == 0 {
				break
			}
			m := ms[0]
			if m.Topic != "second" {
				t.Fatalf("unexpected topic %q", m.Topic)
			}
			if got[AsU64(m.Payload)] {
				t.Fatalf("message %d delivered twice", AsU64(m.Payload))
			}
			got[AsU64(m.Payload)] = true
		}
	}
	if len(got) != 12 {
		t.Fatalf("delivered %d of 12 post-subscribe messages", len(got))
	}
}

// TestCatalogLogFull: a log sized to exactly one topic record takes
// the first create and refuses the second with an error — no panic,
// no partial state — and the broker (and its recovery) still works.
func TestCatalogLogFull(t *testing.T) {
	hs := pmem.NewSetOf(pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 2}))
	// A 1-shard topic record spans 3 lines: header, name, placements.
	b, err := Open(hs, Options{Threads: 2, CatalogLines: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "only", Shards: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "overflow", Shards: 1}); err == nil {
		t.Fatal("CreateTopic on a full catalog log should fail")
	}
	if _, err := b.CreateAckGroup(0, AckGroupConfig{}); err == nil {
		t.Fatal("CreateAckGroup on a full catalog log should fail")
	}
	b.Topic("only").Publish(0, U64(5))
	hs.Heap(0).CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(84)))
	hs.Restart()
	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Topics()) != 1 {
		t.Fatalf("recovered %d topics, want 1", len(r.Topics()))
	}
	if p, ok := r.Topic("only").DequeueShard(0, 0); !ok || AsU64(p) != 5 {
		t.Fatalf("recovered message = %v,%v", p, ok)
	}
}

// TestCatalogFullAdvisesCompaction: both log-full refusals name the
// remedy that works — CompactCatalog grows the log on the live broker,
// whereas Open adopts the recorded capacity on recovery and ignores
// CatalogLines — and following that advice makes the refused create
// succeed.
func TestCatalogFullAdvisesCompaction(t *testing.T) {
	hs := pmem.NewSetOf(pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2}))
	b, err := Open(hs, Options{Threads: 2, CatalogLines: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateAckGroup(0, AckGroupConfig{}); err != nil {
		t.Fatal(err)
	}
	const advice = "CompactCatalog(tid, n)"
	if _, err := b.CreateAckGroup(0, AckGroupConfig{}); err == nil || !strings.Contains(err.Error(), advice) {
		t.Fatalf("second CreateAckGroup on a full log: err = %v, want advice %q", err, advice)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "t", Shards: 1}); err == nil || !strings.Contains(err.Error(), advice) {
		t.Fatalf("CreateTopic on a full log: err = %v, want advice %q", err, advice)
	}
	if err := b.CompactCatalog(0, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateAckGroup(0, AckGroupConfig{}); err != nil {
		t.Fatalf("CreateAckGroup after CompactCatalog(0, 64): %v", err)
	}
}

// TestTopicsSnapshotCopy: Topics returns a copy the caller may mangle
// without aliasing broker state, and TopicNames reports sorted names.
func TestTopicsSnapshotCopy(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b := openWith(t, pmem.NewSetOf(h), Options{Threads: 1}, 0, TopicConfig{Name: "zebra", Shards: 1}, TopicConfig{Name: "apple", Shards: 1})
	ts := b.Topics()
	ts[0] = nil
	ts[1] = nil
	if got := b.Topics(); got[0] == nil || got[0].Name() != "zebra" {
		t.Fatal("mutating the Topics result aliased broker state")
	}
	names := b.TopicNames()
	if len(names) != 2 || names[0] != "apple" || names[1] != "zebra" {
		t.Fatalf("TopicNames = %v, want sorted [apple zebra]", names)
	}
}

// TestBrokerCrashFuzzDynamicTopics is the live-administration fuzz
// tier: producers and a consumer group hammer the initial topics
// while an administrator concurrently creates topics, publishes to
// them and drains some of their messages — until a crash scheduled on
// one member's access stream downs the whole set (sometimes landing
// inside CreateTopic itself). The broker is recovered from the
// catalog log alone and audited: every topic whose creation returned
// exists; every acknowledged publish — to initial and dynamic topics
// alike — is delivered or recovered exactly once, in per-shard order.
func TestBrokerCrashFuzzDynamicTopics(t *testing.T) {
	seeds := []int64{71, 72, 73}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { dynamicTopicsRound(t, seed) })
	}
}

func dynamicTopicsRound(t *testing.T, seed int64) {
	const (
		producers   = 2
		consumers   = 2
		perProducer = 2500
		heaps       = 2
		adminTid    = producers + consumers // tid 4
		threads     = producers + consumers + 1
		maxDyn      = 6
	)
	hs := pmem.NewSet(heaps, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: threads})
	b, err := Open(hs, Options{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range twoTopics() {
		if _, err := b.CreateTopic(0, tc); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.NewGroup([]string{"events", "jobs"}, consumers)
	if err != nil {
		t.Fatal(err)
	}
	crashRng := rand.New(rand.NewSource(seed))
	hs.Heap(crashRng.Intn(heaps)).ScheduleCrashAtAccess((20_000 + int64(crashRng.Intn(120_000))) / int64(heaps))

	acked := make([][]uint64, producers)
	dynAcked := make(map[string][]uint64) // admin-published ids per dynamic topic
	var dynCreated []string               // creations that returned success
	delivered := make([]map[uint64]ShardRef, consumers)
	adminDelivered := map[uint64]bool{}
	var producersDone sync.WaitGroup
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		producersDone.Add(1)
		go func(p int) {
			defer wg.Done()
			defer producersDone.Done()
			start.Wait()
			rng := rand.New(rand.NewSource(seed*733 + int64(p)))
			events, jobs := b.Topic("events"), b.Topic("jobs")
			for m := uint64(1); m <= perProducer; {
				runtime.Gosched()
				id := uint64(p+1)<<32 | m
				switch rng.Intn(3) {
				case 0:
					if pmem.Protect(func() { events.Publish(p, U64(id)) }) {
						return
					}
					acked[p] = append(acked[p], id)
					m++
				default:
					var batch [][]byte
					var ids []uint64
					for len(batch) < 6 && m <= perProducer {
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
		}(p)
	}

	// The administrator: create a topic, publish into it, consume a
	// little of it through a fresh single-member group — all while the
	// producers and the main group run full tilt on other tids.
	wg.Add(1)
	go func() {
		defer wg.Done()
		start.Wait()
		rng := rand.New(rand.NewSource(seed * 919))
		for d := 0; d < maxDyn; d++ {
			runtime.Gosched()
			name := fmt.Sprintf("dyn-%d", d)
			tc := TopicConfig{Name: name, Shards: 1 + rng.Intn(3)}
			if rng.Intn(2) == 0 {
				tc.MaxPayload = 100 // fits every blobPayload
			}
			var cerr error
			if pmem.Protect(func() { _, cerr = b.CreateTopic(adminTid, tc) }) {
				return // crash inside the creation protocol
			}
			if cerr != nil {
				t.Errorf("CreateTopic(%s): %v", name, cerr)
				return
			}
			dynCreated = append(dynCreated, name)
			topic := b.Topic(name)
			n := 20 + rng.Intn(40)
			for m := 1; m <= n; m++ {
				id := uint64(200+d)<<32 | uint64(m)
				var payload []byte
				if tc.MaxPayload == 0 {
					payload = U64(id)
				} else {
					payload = blobPayload(id)
				}
				if pmem.Protect(func() { topic.Publish(adminTid, payload) }) {
					return
				}
				dynAcked[name] = append(dynAcked[name], id)
			}
			// Drain a prefix through a fresh group on the admin tid, so
			// the audit sees both delivered and recovered populations.
			dg, gerr := b.NewGroup([]string{name}, 1)
			if gerr != nil {
				t.Errorf("NewGroup(%s): %v", name, gerr)
				return
			}
			var ms []Message
			if pmem.Protect(func() { ms = dg.Consumer(0).PollBatch(adminTid, n/2) }) {
				return
			}
			for _, m := range ms {
				adminDelivered[AsU64(m.Payload[:8])] = true
			}
		}
	}()

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
				if pmem.Protect(func() { ms = cons.PollBatch(tid, 8) }) {
					return
				}
				if len(ms) > 0 {
					for _, m := range ms {
						delivered[c][AsU64(m.Payload[:8])] = ShardRef{Topic: m.Topic, Shard: m.Shard}
					}
					idle = false
					continue
				}
				select {
				case <-done:
					if idle {
						return
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
		hs.CrashNow()
	}
	hs.FinalizeCrash(rand.New(rand.NewSource(seed * 37)))
	hs.Restart()

	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every creation that returned must have committed; creations cut
	// off mid-call may or may not exist, but if they do they are empty.
	for _, name := range dynCreated {
		if r.Topic(name) == nil {
			t.Fatalf("topic %q was created (call returned) but did not recover", name)
		}
	}
	seen := map[uint64]string{}
	for c := range delivered {
		for id := range delivered[c] {
			if prev, dup := seen[id]; dup {
				t.Fatalf("message %#x delivered twice (%s)", id, prev)
			}
			seen[id] = "delivered"
		}
	}
	for id := range adminDelivered {
		if prev, dup := seen[id]; dup {
			t.Fatalf("message %#x delivered twice (%s and admin)", id, prev)
		}
		seen[id] = "admin-delivered"
	}
	for _, topic := range r.Topics() {
		for s := 0; s < topic.Shards(); s++ {
			lastPerProducer := map[uint64]uint64{}
			for {
				p, ok := topic.DequeueShard(0, s)
				if !ok {
					break
				}
				id := AsU64(p[:8])
				if len(p) > 8 && !bytes.Equal(p, blobPayload(id)) {
					t.Fatalf("recovered payload for %#x corrupted", id)
				}
				if prev, dup := seen[id]; dup {
					t.Fatalf("message %#x both %s and recovered", id, prev)
				}
				seen[id] = "recovered"
				prod, m := id>>32, id&0xffffffff
				if last := lastPerProducer[prod]; m <= last {
					t.Fatalf("shard %s/%d: publisher %d out of order (%d after %d)",
						topic.Name(), s, prod, m, last)
				}
				lastPerProducer[prod] = m
			}
		}
	}
	lost, totalAcked := 0, 0
	audit := func(ids []uint64) {
		totalAcked += len(ids)
		for _, id := range ids {
			if _, ok := seen[id]; !ok {
				lost++
			}
		}
	}
	for p := range acked {
		audit(acked[p])
	}
	for _, ids := range dynAcked {
		audit(ids)
	}
	t.Logf("seed %d: acked %d (over %d initial + %d dynamic topics), audited %d, in-flight losses %d",
		seed, totalAcked, 2, len(dynCreated), len(seen), lost)
	// Allowance: one unacknowledged poll window per main consumer (8)
	// plus the admin's one in-flight drain window (up to 30).
	if allowance := consumers*8 + 30; lost > allowance {
		t.Fatalf("%d acknowledged messages lost (allowance %d)", lost, allowance)
	}
}
