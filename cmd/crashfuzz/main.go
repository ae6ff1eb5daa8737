// Command crashfuzz stress-tests durable linearizability: it runs
// concurrent workloads on a chosen queue, kills them with a simulated
// full-system crash at a random memory access, optionally crashes the
// recovery procedure itself, recovers, and checks the surviving state
// against the recorded operation history (no duplication, no loss of
// completed enqueues, per-enqueuer FIFO).
//
// -smoke is the quick CI mode: few rounds per queue, plus six
// broker iterations — a 2-heap broker crashed via a single member's
// access stream, recovered from its catalog and stamps, and audited
// for delivered-or-recovered-exactly-once; an acked broker whose
// consumer is killed mid-batch (lease takeover redelivers the unacked
// suffix) before a full-system crash, audited for exactly-once
// processing; a live-administration broker (Open) whose topics
// are created mid-traffic through the append-with-fence catalog log,
// crashed and recovered with the same exactly-once audit — topics
// whose creation returned must exist, torn creations must not; a
// membership-churn broker whose silent members are fenced by the
// expiry scanner or robbed by work-stealing, with their resurfacing
// stale-epoch acks refused, before the same full-system crash and
// exactly-once audit; and a topic-churn broker cycling topics through
// create → publish → delete on a deliberately small catalog log (so
// the cycles run through tombstones, free-list reuse and generation
// compactions), crashed anywhere — including mid-delete and
// mid-compaction — and audited: a delete that returned never
// resurrects, a torn delete leaves the topic intact, and the
// exactly-once guarantee holds over every surviving topic; and a
// heap-topic broker mixing delay and priority publishes against a
// logical clock, crashed anywhere in the entry log's push/pop
// protocol and audited — nothing delivered early, nothing twice,
// the recovered heaps pop in key order, and at most one in-flight
// pop-min window is lost.
//
// Each broker smoke runs with an event-trace-enabled observer
// (internal/obs); when an audit fails, the last trace events — the
// publishes, polls and acks leading up to the bad state — are dumped
// to stderr alongside the error.
//
// Examples:
//
//	crashfuzz -queue opt-linked -rounds 200 -threads 4 -recovery-crashes 2
//	crashfuzz -smoke
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/broker"
	"repro/internal/dheap"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/verify"
)

// traceEvents is the per-thread event-trace capacity each broker smoke
// runs with: enough to hold the operations leading up to a bad audit
// without the ring costing anything on the happy path.
const traceEvents = 512

// dumpOnFail prints the tail of a failed smoke's event trace to stderr
// so a red CI run shows the broker operations that led up to the bad
// audit, then passes the error through.
func dumpOnFail(o *obs.Observer, name string, err error) error {
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashfuzz: %s failed — last trace events:\n", name)
		o.DumpTrace(os.Stderr, 48)
	}
	return err
}

func main() {
	var (
		queue    = flag.String("queue", "all", "queue name or 'all'")
		threads  = flag.Int("threads", 4, "worker threads")
		ops      = flag.Int("ops", 500, "max operations per thread per round")
		rounds   = flag.Int("rounds", 50, "crash/recover rounds")
		seed     = flag.Int64("seed", 1, "fuzz seed")
		recovery = flag.Int("recovery-crashes", 1, "crashes injected during recovery per round")
		smoke    = flag.Bool("smoke", false, "quick mode: few rounds per queue plus one multi-heap broker iteration")
	)
	flag.Parse()
	roundsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "rounds" {
			roundsSet = true
		}
	})
	if *smoke && !roundsSet {
		*rounds = 5
	}

	var names []string
	if *queue == "all" {
		for _, in := range harness.AllQueues() {
			if in.Durable {
				names = append(names, in.Name)
			}
		}
		names = append(names, "onll")
	} else {
		names = []string{*queue}
	}

	failed := false
	for _, name := range names {
		in, ok := harness.LookupQueue(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "crashfuzz: unknown queue %q\n", name)
			os.Exit(2)
		}
		if in.Recover == nil {
			continue
		}
		err := verify.ConcurrentCrashFuzz(in, verify.FuzzConfig{
			Threads:         *threads,
			OpsPerThread:    *ops,
			Rounds:          *rounds,
			Seed:            *seed,
			RecoveryCrashes: *recovery,
		})
		if err != nil {
			fmt.Printf("%-24s FAIL: %v\n", name, err)
			failed = true
		} else {
			fmt.Printf("%-24s ok (%d rounds, %d threads, recovery crashes %d)\n",
				name, *rounds, *threads, *recovery)
		}
	}
	if *smoke {
		if err := brokerSmoke(*seed); err != nil {
			fmt.Printf("%-24s FAIL: %v\n", "broker-multiheap", err)
			failed = true
		} else {
			fmt.Printf("%-24s ok (2 heaps, crash on one member, whole-set recovery)\n", "broker-multiheap")
		}
		if err := brokerAckSmoke(*seed); err != nil {
			fmt.Printf("%-24s FAIL: %v\n", "broker-consumer-crash", err)
			failed = true
		} else {
			fmt.Printf("%-24s ok (consumer kill + lease takeover + system crash, exactly-once)\n", "broker-consumer-crash")
		}
		if err := brokerDynSmoke(*seed); err != nil {
			fmt.Printf("%-24s FAIL: %v\n", "broker-dynamic-topics", err)
			failed = true
		} else {
			fmt.Printf("%-24s ok (topics created mid-traffic, crash, catalog-log recovery, exactly-once)\n", "broker-dynamic-topics")
		}
		if err := brokerChurnSmoke(*seed); err != nil {
			fmt.Printf("%-24s FAIL: %v\n", "broker-membership-churn", err)
			failed = true
		} else {
			fmt.Printf("%-24s ok (scan fences silent members, steal + split, stale acks refused, exactly-once)\n", "broker-membership-churn")
		}
		if err := brokerDelSmoke(*seed); err != nil {
			fmt.Printf("%-24s FAIL: %v\n", "broker-topic-churn", err)
			failed = true
		} else {
			fmt.Printf("%-24s ok (topics deleted mid-traffic, tombstone + compaction recovery, no resurrection, exactly-once)\n", "broker-topic-churn")
		}
		if err := brokerDelaySmoke(*seed); err != nil {
			fmt.Printf("%-24s FAIL: %v\n", "broker-delay-topics", err)
			failed = true
		} else {
			fmt.Printf("%-24s ok (delay + priority heaps, crash, pop-min recovery, nothing early, exactly-once)\n", "broker-delay-topics")
		}
	}
	if failed {
		os.Exit(1)
	}
}

// brokerSmoke is one multi-heap broker crash/recover/audit iteration:
// a 2-heap broker takes mixed publishes and deliveries until a crash
// scheduled on one member's access stream downs the whole set; the
// broker is recovered from heap 0's catalog plus heap 1's membership
// stamp and audited — every acknowledged publish is delivered before
// the crash or recovered after it, exactly once, in per-shard order.
func brokerSmoke(seed int64) error {
	const threads = 2
	o := obs.New(obs.Config{Threads: threads, TraceEvents: traceEvents})
	return dumpOnFail(o, "broker-multiheap", brokerSmokeRun(seed, threads, o))
}

// openBroker brings up a fresh broker on hs with broker.Open, then
// creates the topics in order and ackGroups lease regions, each sized
// to the resulting shard total.
func openBroker(hs *pmem.HeapSet, threads int, o *obs.Observer, ackGroups int, topics ...broker.TopicConfig) (*broker.Broker, error) {
	b, err := broker.Open(hs, broker.Options{Threads: threads, Observer: o})
	if err != nil {
		return nil, err
	}
	for _, tc := range topics {
		if _, err := b.CreateTopic(0, tc); err != nil {
			return nil, err
		}
	}
	for g := 0; g < ackGroups; g++ {
		if _, err := b.CreateAckGroup(0, broker.AckGroupConfig{Capacity: b.ShardTotal()}); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func brokerSmokeRun(seed int64, threads int, o *obs.Observer) error {
	rng := rand.New(rand.NewSource(seed))
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: threads})
	b, err := openBroker(hs, threads, o, 0,
		broker.TopicConfig{Name: "events", Shards: 4},
		broker.TopicConfig{Name: "jobs", Shards: 2, MaxPayload: 48},
	)
	if err != nil {
		return err
	}
	g, err := b.NewGroup([]string{"events", "jobs"}, 1)
	if err != nil {
		return err
	}
	payload := func(id uint64) []byte {
		p := make([]byte, 8+int(id%40))
		copy(p, broker.U64(id))
		for i := 8; i < len(p); i++ {
			p[i] = byte(id) ^ byte(i)
		}
		return p
	}
	hs.Heap(rng.Intn(2)).ScheduleCrashAtAccess(int64(rng.Intn(30_000)) + 5_000)

	var acked []uint64
	delivered := map[uint64]bool{}
	cons := g.Consumer(0)
	for id := uint64(1); ; id++ {
		crashed := pmem.Protect(func() {
			if id%3 == 0 {
				b.Topic("jobs").Publish(0, payload(id))
			} else {
				b.Topic("events").Publish(0, broker.U64(id))
			}
		})
		if crashed {
			break
		}
		acked = append(acked, id)
		if id%2 == 0 {
			var got []broker.Message
			if pmem.Protect(func() { got = cons.PollBatch(1, 4) }) {
				break
			}
			for _, m := range got {
				mid := broker.AsU64(m.Payload[:8])
				if delivered[mid] {
					return fmt.Errorf("message %d delivered twice before the crash", mid)
				}
				delivered[mid] = true
			}
		}
	}
	if !hs.Crashed() {
		return fmt.Errorf("crash never fired")
	}
	hs.FinalizeCrash(rng)
	hs.Restart()

	r, err := broker.Open(hs, broker.Options{Threads: threads})
	if err != nil {
		return err
	}
	seen := map[uint64]bool{}
	for id := range delivered {
		seen[id] = true
	}
	for _, t := range r.Topics() {
		for s := 0; s < t.Shards(); s++ {
			last := uint64(0)
			for {
				p, ok := t.DequeueShard(0, s)
				if !ok {
					break
				}
				id := broker.AsU64(p[:8])
				if seen[id] {
					return fmt.Errorf("message %d duplicated across crash", id)
				}
				seen[id] = true
				if id <= last {
					return fmt.Errorf("shard %s/%d out of order: %d after %d", t.Name(), s, id, last)
				}
				last = id
			}
		}
	}
	lost := 0
	for _, id := range acked {
		if !seen[id] {
			lost++
		}
	}
	// The single consumer may lose at most its unacknowledged in-flight
	// poll window (4 messages).
	if lost > 4 {
		return fmt.Errorf("%d acknowledged messages lost (allowance 4)", lost)
	}
	return nil
}

// brokerDynSmoke is one live-administration iteration: a broker
// brought up empty with Open takes two topics at creation time and
// more mid-traffic (CreateTopic interleaved with publishes and
// polls), until a crash scheduled on one member's access stream downs
// the 2-heap set — sometimes inside the creation protocol itself. The
// broker is recovered by Open from the catalog log alone and audited:
// every topic whose CreateTopic returned exists, and every
// acknowledged publish — to initial and dynamic topics alike — is
// delivered before the crash or recovered after it, exactly once, in
// per-shard order.
func brokerDynSmoke(seed int64) error {
	const threads = 2
	o := obs.New(obs.Config{Threads: threads, TraceEvents: traceEvents})
	return dumpOnFail(o, "broker-dynamic-topics", brokerDynSmokeRun(seed, threads, o))
}

func brokerDynSmokeRun(seed int64, threads int, o *obs.Observer) error {
	rng := rand.New(rand.NewSource(seed + 2))
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: threads})
	b, err := broker.Open(hs, broker.Options{Threads: threads, Observer: o})
	if err != nil {
		return err
	}
	if _, err := b.CreateTopic(0, broker.TopicConfig{Name: "events", Shards: 4}); err != nil {
		return err
	}
	if _, err := b.CreateTopic(0, broker.TopicConfig{Name: "jobs", Shards: 2, MaxPayload: 48}); err != nil {
		return err
	}
	g, err := b.NewGroup([]string{"events", "jobs"}, 1)
	if err != nil {
		return err
	}
	payload := func(id uint64) []byte {
		p := make([]byte, 8+int(id%40))
		copy(p, broker.U64(id))
		for i := 8; i < len(p); i++ {
			p[i] = byte(id) ^ byte(i)
		}
		return p
	}
	hs.Heap(rng.Intn(2)).ScheduleCrashAtAccess(int64(rng.Intn(40_000)) + 10_000)

	var acked []uint64
	var dynCreated []string
	delivered := map[uint64]bool{}
	cons := g.Consumer(0)
	nextDyn := 0
	for id := uint64(1); ; id++ {
		crashed := pmem.Protect(func() {
			if id%3 == 0 {
				b.Topic("jobs").Publish(0, payload(id))
			} else {
				b.Topic("events").Publish(0, broker.U64(id))
			}
		})
		if crashed {
			break
		}
		acked = append(acked, id)
		// Every ~40 publishes, create a fresh topic on the live broker
		// and seed it; its messages join the same audit space.
		if id%40 == 0 {
			name := fmt.Sprintf("dyn-%d", nextDyn)
			var cerr error
			if pmem.Protect(func() { _, cerr = b.CreateTopic(0, broker.TopicConfig{Name: name, Shards: 1 + nextDyn%2}) }) {
				break
			}
			if cerr != nil {
				return fmt.Errorf("CreateTopic(%s): %v", name, cerr)
			}
			dynCreated = append(dynCreated, name)
			nextDyn++
			topic := b.Topic(name)
			stop := false
			for m := uint64(1); m <= 10; m++ {
				did := uint64(1000+nextDyn)<<32 | m
				if pmem.Protect(func() { topic.Publish(0, broker.U64(did)) }) {
					stop = true
					break
				}
				acked = append(acked, did)
			}
			if stop {
				break
			}
			if err := g.Subscribe(1, name); err != nil {
				return fmt.Errorf("Subscribe(%s): %v", name, err)
			}
		}
		if id%2 == 0 {
			var got []broker.Message
			if pmem.Protect(func() { got = cons.PollBatch(1, 4) }) {
				break
			}
			for _, m := range got {
				mid := broker.AsU64(m.Payload[:8])
				if delivered[mid] {
					return fmt.Errorf("message %d delivered twice before the crash", mid)
				}
				delivered[mid] = true
			}
		}
	}
	if !hs.Crashed() {
		return fmt.Errorf("crash never fired")
	}
	hs.FinalizeCrash(rng)
	hs.Restart()

	// Recovery reuses the same observer: RegisterTopic dedupes by name,
	// so the counters and the event trace span the crash.
	r, err := broker.Open(hs, broker.Options{Threads: threads, Observer: o})
	if err != nil {
		return err
	}
	for _, name := range dynCreated {
		if r.Topic(name) == nil {
			return fmt.Errorf("topic %q was created (call returned) but did not recover", name)
		}
	}
	seen := map[uint64]bool{}
	for id := range delivered {
		seen[id] = true
	}
	for _, t := range r.Topics() {
		for s := 0; s < t.Shards(); s++ {
			last := uint64(0)
			for {
				p, ok := t.DequeueShard(0, s)
				if !ok {
					break
				}
				id := broker.AsU64(p[:8])
				if seen[id] {
					return fmt.Errorf("message %d duplicated across crash", id)
				}
				seen[id] = true
				if id <= last {
					return fmt.Errorf("shard %s/%d out of order: %d after %d", t.Name(), s, id, last)
				}
				last = id
			}
		}
	}
	lost := 0
	for _, id := range acked {
		if !seen[id] {
			lost++
		}
	}
	// The single consumer may lose at most its unacknowledged in-flight
	// poll window (4 messages).
	if lost > 4 {
		return fmt.Errorf("%d acknowledged messages lost (allowance 4)", lost)
	}
	return nil
}

// brokerDelSmoke is one topic-churn iteration: a broker brought up
// empty with Open and a deliberately small catalog log cycles scratch
// topics through create → publish → partial drain → delete while the
// static topics take traffic, with an occasional explicit compaction;
// the tiny log also forces automatic compactions, so tombstones,
// free-list window reuse and generation flips all run under fire. The
// crash lands anywhere — including between a tombstone's append and
// its anchor stamp, and between a new generation's fence and its
// anchor flip. The audit: a delete whose call returned never
// resurrects, a topic created and never deleted always recovers, a
// torn delete may land either way, and every acknowledged publish to
// a surviving topic is delivered or recovered exactly once, in order.
func brokerDelSmoke(seed int64) error {
	const threads = 2
	o := obs.New(obs.Config{Threads: threads, TraceEvents: traceEvents})
	return dumpOnFail(o, "broker-topic-churn", brokerDelSmokeRun(seed, threads, o))
}

func brokerDelSmokeRun(seed int64, threads int, o *obs.Observer) error {
	rng := rand.New(rand.NewSource(seed + 4))
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: threads})
	// 64 record-space lines: a handful of churn cycles fill the log, so
	// deletes trigger the auto-compaction path mid-traffic.
	b, err := broker.Open(hs, broker.Options{Threads: threads, CatalogLines: 64, Observer: o})
	if err != nil {
		return err
	}
	if _, err := b.CreateTopic(0, broker.TopicConfig{Name: "events", Shards: 4}); err != nil {
		return err
	}
	if _, err := b.CreateTopic(0, broker.TopicConfig{Name: "jobs", Shards: 2, MaxPayload: 48}); err != nil {
		return err
	}
	g, err := b.NewGroup([]string{"events", "jobs"}, 1)
	if err != nil {
		return err
	}
	payload := func(id uint64) []byte {
		p := make([]byte, 8+int(id%40))
		copy(p, broker.U64(id))
		for i := 8; i < len(p); i++ {
			p[i] = byte(id) ^ byte(i)
		}
		return p
	}
	hs.Heap(rng.Intn(2)).ScheduleCrashAtAccess(int64(rng.Intn(40_000)) + 10_000)

	type churn struct {
		created        bool
		deleteAttempt  bool
		deleteReturned bool
		acked          []uint64
	}
	var (
		acked     []uint64
		cyclesRun []*churn
		delivered = map[uint64]bool{}
	)
	cons := g.Consumer(0)
	nextDel := 0
	pendingLive := -1 // index of the one cycle allowed to outlive its own turn
	for id := uint64(1); ; id++ {
		crashed := pmem.Protect(func() {
			if id%3 == 0 {
				b.Topic("jobs").Publish(0, payload(id))
			} else {
				b.Topic("events").Publish(0, broker.U64(id))
			}
		})
		if crashed {
			break
		}
		acked = append(acked, id)
		// Every ~30 publishes, run one churn cycle on the live broker.
		if id%30 == 0 {
			// Retire last round's survivor first, so live churn records
			// never accumulate past one — the small log must fill with
			// tombstone debris, not survivors.
			if pendingLive >= 0 {
				lst := cyclesRun[pendingLive]
				lname := fmt.Sprintf("del-%d", pendingLive)
				pendingLive = -1
				lst.deleteAttempt = true
				var lerr error
				if pmem.Protect(func() { lerr = b.DeleteTopic(0, lname) }) {
					break
				}
				if lerr != nil {
					return fmt.Errorf("DeleteTopic(%s): %v", lname, lerr)
				}
				lst.deleteReturned = true
			}
			st := &churn{}
			cyclesRun = append(cyclesRun, st)
			name := fmt.Sprintf("del-%d", nextDel)
			nextDel++
			var cerr error
			if pmem.Protect(func() { _, cerr = b.CreateTopic(0, broker.TopicConfig{Name: name, Shards: 1 + nextDel%2}) }) {
				break
			}
			if cerr != nil {
				return fmt.Errorf("CreateTopic(%s): %v", name, cerr)
			}
			st.created = true
			topic := b.Topic(name)
			stop := false
			for m := uint64(1); m <= 8; m++ {
				did := uint64(2000+nextDel)<<32 | m
				if pmem.Protect(func() { topic.Publish(0, broker.U64(did)) }) {
					stop = true
					break
				}
				st.acked = append(st.acked, did)
			}
			if stop {
				break
			}
			// Drain a prefix so delivered, dropped and recovered
			// populations all appear in the audit.
			for k := 0; k < 3; k++ {
				var p []byte
				var ok bool
				if pmem.Protect(func() { p, ok = topic.DequeueShard(1, 0) }) {
					stop = true
					break
				}
				if !ok {
					break
				}
				delivered[broker.AsU64(p[:8])] = true
			}
			if stop {
				break
			}
			if nextDel%4 == 0 {
				var kerr error
				if pmem.Protect(func() { kerr = b.CompactCatalog(0, 0) }) {
					break
				}
				if kerr != nil {
					return fmt.Errorf("CompactCatalog: %v", kerr)
				}
			}
			if nextDel%5 == 0 {
				pendingLive = len(cyclesRun) - 1 // let this one live a round
				continue
			}
			st.deleteAttempt = true
			var derr error
			if pmem.Protect(func() { derr = b.DeleteTopic(0, name) }) {
				break // torn delete: either outcome is legal
			}
			if derr != nil {
				return fmt.Errorf("DeleteTopic(%s): %v", name, derr)
			}
			st.deleteReturned = true
		}
		if id%2 == 0 {
			var got []broker.Message
			if pmem.Protect(func() { got = cons.PollBatch(1, 4) }) {
				break
			}
			for _, m := range got {
				mid := broker.AsU64(m.Payload[:8])
				if delivered[mid] {
					return fmt.Errorf("message %d delivered twice before the crash", mid)
				}
				delivered[mid] = true
			}
		}
	}
	if !hs.Crashed() {
		return fmt.Errorf("crash never fired")
	}
	hs.FinalizeCrash(rng)
	hs.Restart()

	// Open replays tombstones and picks the live generation; its
	// allocator simulation rejects any window overlap outright.
	r, err := broker.Open(hs, broker.Options{Threads: threads, Observer: o})
	if err != nil {
		return err
	}
	for d, st := range cyclesRun {
		name := fmt.Sprintf("del-%d", d)
		exists := r.Topic(name) != nil
		switch {
		case st.deleteReturned && exists:
			return fmt.Errorf("topic %s resurrected: DeleteTopic returned, yet it recovered", name)
		case st.created && !st.deleteAttempt && !exists:
			return fmt.Errorf("topic %s lost: created and never deleted, yet it did not recover", name)
		}
	}
	seen := map[uint64]bool{}
	for id := range delivered {
		seen[id] = true
	}
	for _, t := range r.Topics() {
		for s := 0; s < t.Shards(); s++ {
			last := uint64(0)
			for {
				p, ok := t.DequeueShard(0, s)
				if !ok {
					break
				}
				id := broker.AsU64(p[:8])
				if seen[id] {
					return fmt.Errorf("message %d duplicated across crash", id)
				}
				seen[id] = true
				if id <= last {
					return fmt.Errorf("shard %s/%d out of order: %d after %d", t.Name(), s, id, last)
				}
				last = id
			}
		}
	}
	lost := 0
	for _, id := range acked {
		if !seen[id] {
			lost++
		}
	}
	// A deleted topic's undelivered messages were dropped with it by
	// design: only surviving topics' churn publishes join the loss
	// audit (their deliveries were duplicate-checked above either way).
	for d, st := range cyclesRun {
		if r.Topic(fmt.Sprintf("del-%d", d)) == nil {
			continue
		}
		for _, id := range st.acked {
			if !seen[id] {
				lost++
			}
		}
	}
	// The single consumer may lose at most its unacknowledged in-flight
	// poll window (4), plus the churn drain's window (3).
	if lost > 7 {
		return fmt.Errorf("%d acknowledged messages lost (allowance 7)", lost)
	}
	return nil
}

// brokerDelaySmoke is one heap-topic iteration: a 2-heap broker
// brought up empty with Open carries a delay topic and a priority
// topic; a sequential driver advances a logical clock, publishing
// timers with near-future deadlines and jobs with random ranks, and
// every third tick drains one topic's ready backlog, until a crash
// scheduled on one member's access stream downs the set — anywhere
// in the entry log's push or pop-min protocol. The broker is
// recovered by Open and audited: both topics come back with their
// kinds, the delay heap gates everything at time zero, nothing was
// delivered before its deadline or delivered twice, the recovered
// backlog pops in nondecreasing key order with intact payloads, and
// at most one in-flight pop-min window is lost.
func brokerDelaySmoke(seed int64) error {
	const threads = 2
	o := obs.New(obs.Config{Threads: threads, TraceEvents: traceEvents})
	return dumpOnFail(o, "broker-delay-topics", brokerDelaySmokeRun(seed, threads, o))
}

func brokerDelaySmokeRun(seed int64, threads int, o *obs.Observer) error {
	const popWindow = 6
	rng := rand.New(rand.NewSource(seed + 5))
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: threads})
	b, err := broker.Open(hs, broker.Options{Threads: threads, Observer: o})
	if err != nil {
		return err
	}
	if _, err := b.CreateTopic(0, broker.TopicConfig{Name: "timers", Kind: broker.KindDelay, Shards: 1, MaxPayload: 24}); err != nil {
		return err
	}
	if _, err := b.CreateTopic(0, broker.TopicConfig{Name: "urgent", Kind: broker.KindPriority, Shards: 1, MaxPayload: 24}); err != nil {
		return err
	}
	// 24-byte payload: id, key, and an integrity word binding the two,
	// so a torn or misdirected entry cannot masquerade as a delivery.
	payload := func(id, key uint64) []byte {
		p := make([]byte, 24)
		copy(p, broker.U64(id))
		copy(p[8:], broker.U64(key))
		copy(p[16:], broker.U64(id^key^0xd11a))
		return p
	}
	hs.Heap(rng.Intn(2)).ScheduleCrashAtAccess(int64(rng.Intn(30_000)) + 5_000)

	clock := uint64(1)
	acked := map[uint64]bool{}
	delivered := map[uint64]bool{}
	timers, urgent := b.Topic("timers"), b.Topic("urgent")
	for id := uint64(1); ; id++ {
		clock++
		var perr error
		crashed := pmem.Protect(func() {
			if id%2 == 0 {
				deadline := clock + uint64(rng.Intn(48))
				perr = timers.PublishAt(1, payload(id, deadline), deadline)
			} else {
				rank := uint64(rng.Intn(500))
				perr = urgent.PublishPriority(1, payload(id, rank), rank)
			}
		})
		if crashed {
			break
		}
		switch {
		case perr == nil:
			acked[id] = true
		case errors.Is(perr, dheap.ErrFull):
			// Arena backpressure: the publish never happened; the drain
			// below frees slots.
		default:
			return fmt.Errorf("publish %d: %v", id, perr)
		}
		if id%3 == 0 {
			t := timers
			if id%6 == 0 {
				t = urgent
			}
			now := clock
			var got [][]byte
			if pmem.Protect(func() { got, perr = t.DequeueReadyBatch(0, now, popWindow) }) {
				break
			}
			if perr != nil {
				return fmt.Errorf("dequeue: %v", perr)
			}
			for _, p := range got {
				mid, mkey := broker.AsU64(p[:8]), broker.AsU64(p[8:16])
				if broker.AsU64(p[16:24]) != mid^mkey^0xd11a {
					return fmt.Errorf("message %d delivered corrupted", mid)
				}
				if delivered[mid] {
					return fmt.Errorf("message %d delivered twice before the crash", mid)
				}
				delivered[mid] = true
				if t == timers && mkey > now {
					return fmt.Errorf("message %d delivered %d ticks before its deadline", mid, mkey-now)
				}
			}
		}
	}
	if !hs.Crashed() {
		return fmt.Errorf("crash never fired")
	}
	hs.FinalizeCrash(rng)
	hs.Restart()

	r, err := broker.Open(hs, broker.Options{Observer: o})
	if err != nil {
		return err
	}
	rt, ru := r.Topic("timers"), r.Topic("urgent")
	if rt == nil || ru == nil {
		return fmt.Errorf("heap topics did not recover")
	}
	if rt.Kind() != broker.KindDelay || ru.Kind() != broker.KindPriority {
		return fmt.Errorf("heap topics recovered with wrong kinds (%v, %v)", rt.Kind(), ru.Kind())
	}
	// Every surviving deadline is in the future of time zero: the
	// recovered delay heap must gate its whole backlog.
	if got, derr := rt.DequeueReadyBatch(0, 0, popWindow); derr != nil {
		return derr
	} else if len(got) != 0 {
		return fmt.Errorf("recovered delay topic delivered %d messages at time zero", len(got))
	}
	seen := map[uint64]bool{}
	for id := range delivered {
		seen[id] = true
	}
	for _, t := range []*broker.Topic{rt, ru} {
		last := uint64(0)
		for {
			got, derr := t.DequeueReadyBatch(0, ^uint64(0), popWindow)
			if derr != nil {
				return derr
			}
			if len(got) == 0 {
				break
			}
			for _, p := range got {
				mid, mkey := broker.AsU64(p[:8]), broker.AsU64(p[8:16])
				if broker.AsU64(p[16:24]) != mid^mkey^0xd11a {
					return fmt.Errorf("recovered message %d corrupted", mid)
				}
				if seen[mid] {
					return fmt.Errorf("message %d duplicated across crash", mid)
				}
				seen[mid] = true
				if mkey < last {
					return fmt.Errorf("%s popped out of key order: %d after %d", t.Name(), mkey, last)
				}
				last = mkey
			}
		}
	}
	lost := 0
	for id := range acked {
		if !seen[id] {
			lost++
		}
	}
	// Only a pop-min batch cut off between its consumed stamps and the
	// delivery may drop messages: at most one window.
	if lost > popWindow {
		return fmt.Errorf("%d acknowledged publishes lost (allowance %d)", lost, popWindow)
	}
	return nil
}

// brokerAckSmoke is one exactly-once iteration on an acked broker: a
// producer and two acked consumers interleave; consumer 1 "crashes"
// mid-batch (delivered, never acknowledged), its lease expires and
// consumer 0 adopts its shards, redelivering the unacked suffix; a
// full-system crash scheduled on a random access then downs the heap,
// the broker is recovered and a fresh group drains the backlog. The
// audit demands that no message is ever acknowledged twice and that
// every acknowledged publish is processed exactly once (up to the
// poll-window observer gap of an Ack cut off between its fence and
// the record).
func brokerAckSmoke(seed int64) error {
	const threads = 3 // tid 0: producer + recovery drain; 1, 2: consumers
	o := obs.New(obs.Config{Threads: threads, TraceEvents: traceEvents})
	return dumpOnFail(o, "broker-consumer-crash", brokerAckSmokeRun(seed, threads, o))
}

func brokerAckSmokeRun(seed int64, threads int, o *obs.Observer) error {
	const window = 4
	rng := rand.New(rand.NewSource(seed + 1))
	h := pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: threads})
	b, err := openBroker(pmem.NewSetOf(h), threads, o, 1,
		broker.TopicConfig{Name: "events", Shards: 4, Acked: true},
		broker.TopicConfig{Name: "jobs", Shards: 2, MaxPayload: 48, Acked: true},
	)
	if err != nil {
		return err
	}
	var clock uint64
	g, err := b.NewGroupAcked([]string{"events", "jobs"}, 2, broker.LeaseConfig{
		TTL: 10, Now: func() uint64 { return clock },
	})
	if err != nil {
		return err
	}
	payload := func(id uint64) []byte {
		p := make([]byte, 8+int(id%40))
		copy(p, broker.U64(id))
		for i := 8; i < len(p); i++ {
			p[i] = byte(id) ^ byte(i)
		}
		return p
	}
	h.ScheduleCrashAtAccess(int64(rng.Intn(40_000)) + 10_000)

	var acked []uint64
	processed := map[uint64]string{}
	killed := false
	victimWindow := 0
	record := func(ms []broker.Message, who string) error {
		for _, m := range ms {
			id := broker.AsU64(m.Payload[:8])
			if prev, dup := processed[id]; dup {
				return fmt.Errorf("message %d acknowledged twice (%s, then %s)", id, prev, who)
			}
			processed[id] = who
		}
		return nil
	}
	for id := uint64(1); ; id++ {
		if pmem.Protect(func() {
			if id%3 == 0 {
				b.Topic("jobs").Publish(0, payload(id))
			} else {
				b.Topic("events").Publish(0, broker.U64(id))
			}
		}) {
			break
		}
		acked = append(acked, id)
		clock++
		// Consumer 0: poll + ack, the healthy member.
		if id%2 == 0 {
			var ms []broker.Message
			if pmem.Protect(func() { ms = g.Consumer(0).PollBatch(1, window) }) {
				break
			}
			if len(ms) > 0 {
				if pmem.Protect(func() { g.Consumer(0).Ack(1) }) {
					break // ack may or may not be durable: observer gap
				}
				if err := record(ms, "consumer 0"); err != nil {
					return err
				}
			}
		}
		// Consumer 1: delivers one window, never acks, then "crashes";
		// its lease expires and consumer 0 adopts the shards.
		if !killed && id == 40 {
			var ms []broker.Message
			if pmem.Protect(func() { ms = g.Consumer(1).PollBatch(2, window) }) {
				break
			}
			victimWindow = len(ms)
			killed = true
			clock += 100 // the victim goes silent; its lease expires
			var moved int
			var aerr error
			if pmem.Protect(func() { moved, aerr = g.Reassign(2, 1, []int{0}, false) }) {
				break
			}
			if aerr != nil {
				return fmt.Errorf("takeover failed: %v", aerr)
			}
			if moved < victimWindow {
				return fmt.Errorf("takeover moved %d redeliveries, want at least the victim's window %d", moved, victimWindow)
			}
		}
	}
	if !h.Crashed() {
		h.CrashNow()
	}
	h.FinalizeCrash(rng)
	h.Restart()

	r, err := broker.Open(pmem.NewSetOf(h), broker.Options{Threads: threads})
	if err != nil {
		return err
	}
	var clock2 uint64
	g2, err := r.NewGroupAcked([]string{"events", "jobs"}, 1, broker.LeaseConfig{
		TTL: 10, Now: func() uint64 { return clock2 },
	})
	if err != nil {
		return err
	}
	for {
		ms := g2.Consumer(0).PollBatch(0, 8)
		if len(ms) == 0 {
			break
		}
		g2.Consumer(0).Ack(0)
		if err := record(ms, "post-crash drain"); err != nil {
			return err
		}
	}
	lost := 0
	for _, id := range acked {
		if _, ok := processed[id]; !ok {
			lost++
		}
	}
	// Only an Ack whose fence landed right before the crash cut off the
	// record may go unobserved: at most one window per consumer.
	if lost > 2*window {
		return fmt.Errorf("%d acknowledged publishes never processed (allowance %d)", lost, 2*window)
	}
	return nil
}

// brokerChurnSmoke is one membership-churn iteration on an acked
// broker: members go silent holding in-flight windows and the expiry
// scanner fences them — bumping their shards' epochs and splitting
// them across the survivors — or a healthy member work-steals their
// expired shards one at a time; the silent members then resurface and
// their stale-epoch acknowledgments must be refused with ErrFenced. A
// full-system crash downs the heap mid-traffic and a fresh group
// drains the backlog. The audit demands exactly-once processing and
// at least one provably refused stale ack.
func brokerChurnSmoke(seed int64) error {
	const threads = 4 // tid 0: producer + recovery drain; 1..3: consumers
	o := obs.New(obs.Config{Threads: threads, TraceEvents: traceEvents})
	return dumpOnFail(o, "broker-membership-churn", brokerChurnSmokeRun(seed, threads, o))
}

func brokerChurnSmokeRun(seed int64, threads int, o *obs.Observer) error {
	const window = 4
	rng := rand.New(rand.NewSource(seed + 3))
	h := pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: threads})
	b, err := openBroker(pmem.NewSetOf(h), threads, o, 1,
		broker.TopicConfig{Name: "events", Shards: 4, Acked: true},
		broker.TopicConfig{Name: "jobs", Shards: 2, MaxPayload: 48, Acked: true},
	)
	if err != nil {
		return err
	}
	var clock uint64
	g, err := b.NewGroupAcked([]string{"events", "jobs"}, 3, broker.LeaseConfig{
		TTL: 10, Now: func() uint64 { return clock },
	})
	if err != nil {
		return err
	}
	payload := func(id uint64) []byte {
		p := make([]byte, 8+int(id%40))
		copy(p, broker.U64(id))
		for i := 8; i < len(p); i++ {
			p[i] = byte(id) ^ byte(i)
		}
		return p
	}
	h.ScheduleCrashAtAccess(int64(rng.Intn(40_000)) + 10_000)

	var acked []uint64
	staleRefused := 0
	processed := map[uint64]string{}
	record := func(ms []broker.Message, who string) error {
		for _, m := range ms {
			id := broker.AsU64(m.Payload[:8])
			if prev, dup := processed[id]; dup {
				return fmt.Errorf("message %d acknowledged twice (%s, then %s)", id, prev, who)
			}
			processed[id] = who
		}
		return nil
	}
	// ackOrRefuse acknowledges one member's window; a refusal on the
	// fencing path drops the window (it belongs to whoever took the
	// shards) instead of recording it.
	ackOrRefuse := func(c int, ms []broker.Message) error {
		var aerr error
		if pmem.Protect(func() { _, aerr = g.Consumer(c).Ack(c + 1) }) {
			return nil // ack may or may not be durable: observer gap
		}
		if errors.Is(aerr, broker.ErrFenced) {
			staleRefused++
			return nil
		}
		return record(ms, fmt.Sprintf("consumer %d", c))
	}
	churned := false
	for id := uint64(1); ; id++ {
		if pmem.Protect(func() {
			if id%3 == 0 {
				b.Topic("jobs").Publish(0, payload(id))
			} else {
				b.Topic("events").Publish(0, broker.U64(id))
			}
		}) {
			break
		}
		acked = append(acked, id)
		clock++
		// Consumer 0: poll + ack, the always-healthy member.
		if id%2 == 0 {
			var ms []broker.Message
			if pmem.Protect(func() { ms = g.Consumer(0).PollBatch(1, window) }) {
				break
			}
			if len(ms) > 0 {
				if err := ackOrRefuse(0, ms); err != nil {
					return err
				}
			}
		}
		// The churn episode: members 1 and 2 each deliver a window and
		// go silent; past their deadlines, member 2's expired shards are
		// work-stolen one at a time and a scan fences member 1 and
		// splits its shards across the survivors. Both then resurface
		// and their stale acknowledgments must be refused.
		if !churned && id == 40 {
			churned = true
			var ms1, ms2 []broker.Message
			if pmem.Protect(func() { ms1 = g.Consumer(1).PollBatch(2, window) }) {
				break
			}
			if pmem.Protect(func() { ms2 = g.Consumer(2).PollBatch(3, window) }) {
				break
			}
			if len(ms1) == 0 || len(ms2) == 0 {
				return fmt.Errorf("churn victims polled empty windows (%d, %d)", len(ms1), len(ms2))
			}
			clock += 100 // both go silent; every lease deadline passes
			stop := false
			for {
				var took bool
				var serr error
				if pmem.Protect(func() { took, _, serr = g.Consumer(0).Steal(1) }) {
					stop = true
					break
				}
				if serr != nil {
					return fmt.Errorf("steal failed: %v", serr)
				}
				if !took {
					break
				}
			}
			if stop {
				break
			}
			var rep broker.ScanReport
			var scerr error
			if pmem.Protect(func() { rep, scerr = g.Scan(1, clock) }) {
				break
			}
			if scerr != nil {
				return fmt.Errorf("scan failed: %v", scerr)
			}
			_ = rep
			// The resurfacing members' stale acks must be refused: the
			// stealing and the scan displaced their windows.
			var a1, a2 error
			if pmem.Protect(func() { _, a1 = g.Consumer(1).Ack(2) }) {
				break
			}
			if pmem.Protect(func() { _, a2 = g.Consumer(2).Ack(3) }) {
				break
			}
			for i, aerr := range []error{a1, a2} {
				if !errors.Is(aerr, broker.ErrFenced) {
					return fmt.Errorf("displaced consumer %d's ack returned %v, want ErrFenced", i+1, aerr)
				}
				staleRefused++
			}
		}
	}
	if !h.Crashed() {
		h.CrashNow()
	}
	h.FinalizeCrash(rng)
	h.Restart()

	r, err := broker.Open(pmem.NewSetOf(h), broker.Options{Threads: threads})
	if err != nil {
		return err
	}
	var clock2 uint64
	g2, err := r.NewGroupAcked([]string{"events", "jobs"}, 1, broker.LeaseConfig{
		TTL: 10, Now: func() uint64 { return clock2 },
	})
	if err != nil {
		return err
	}
	for {
		ms := g2.Consumer(0).PollBatch(0, 8)
		if len(ms) == 0 {
			break
		}
		g2.Consumer(0).Ack(0)
		if err := record(ms, "post-crash drain"); err != nil {
			return err
		}
	}
	if churned && staleRefused == 0 {
		return fmt.Errorf("churn ran but no stale-epoch ack was refused")
	}
	lost := 0
	for _, id := range acked {
		if _, ok := processed[id]; !ok {
			lost++
		}
	}
	// Only an Ack whose fence landed right before the crash cut off the
	// record may go unobserved: at most one window per consumer.
	if lost > 3*window {
		return fmt.Errorf("%d acknowledged publishes never processed (allowance %d)", lost, 3*window)
	}
	return nil
}
