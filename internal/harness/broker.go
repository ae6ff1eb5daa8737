package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/broker"
	"repro/internal/obs"
	"repro/internal/pmem"
)

// stallCtl coordinates one churn cycle: the stalled consumer closes
// stalled when it parks holding a delivered-but-unacked window, and
// unparks when the controller closes resume.
type stallCtl struct {
	stalled chan struct{}
	resume  chan struct{}
}

// BrokerConfig parameterizes one broker measurement: a multi-topic
// produce/consume sweep that joins the five Figure-2 panels as the
// harness's system-level workload. Producers publish round-robin
// across topics (and, inside each topic, round-robin across shards);
// consumers form one group covering every topic.
type BrokerConfig struct {
	// Topics is the number of topics (>= 1).
	Topics int
	// Shards is the shard count per topic (>= 1).
	Shards int
	// Heaps is the number of member heaps the broker spans (>= 1, each
	// of HeapBytes). Shards spread across the set per the placement
	// policy; per-heap persist statistics land in PerHeap.
	Heaps int
	// Affine selects heap-affine deployment: block shard placement
	// plus heap-affine consumer assignment, so each consumer's fences
	// stay on one domain. Default is round-robin placement and
	// round-robin shard assignment.
	Affine bool
	// Producers and Consumers are the worker thread counts.
	Producers int
	Consumers int
	// Batch is the number of messages per publish call: 1 measures the
	// per-message path (one fence per message), larger values measure
	// the amortized batch path (one fence per batch).
	Batch int
	// DequeueBatch is the number of messages per consumer poll: 1
	// measures the per-message Poll path (one fence per delivery, plus
	// one per empty scan that moved the head), larger values measure
	// PollBatch (a single fence covering up to DequeueBatch deliveries
	// across all of the member's shards).
	DequeueBatch int
	// Payload is the message size in bytes; 0 selects fixed 8-byte
	// topics on OptUnlinkedQ, > 0 variable-payload topics on blobq.
	Payload int
	// Ack enables acknowledged delivery: topics are created Acked, the
	// group is a leased one (NewGroupAcked) and every consumer
	// acknowledges each poll batch after "processing" it, so the
	// measurement shows the full exactly-once pipeline — lease fence
	// per poll, ack fence per batch (AckFencesPerMsg ~ 1/DequeueBatch).
	Ack bool
	// Kills crashes that many consumers mid-run (cooperatively: the
	// member abandons its unacked window), waits out their leases and
	// adopts their shards into consumer 0 — the adopted redeliveries
	// surface as Redelivered. Requires Ack; at most Consumers-1.
	Kills int
	// Churn runs that many membership-churn cycles spread across the
	// produce phase: each cycle stalls one consumer mid-window (it
	// keeps running but stops acking), then either force-splits its
	// shards across the survivors (Reassign) or expires the leases on
	// the logical clock and lets consumer 0 work-steal them shard by
	// shard before a Scan sweeps up the rest. The stalled member's
	// refused stale-epoch acks surface as FencedAcks. Requires Ack and
	// at least two consumers.
	Churn int
	// AdaptiveBatch replaces the fixed window sizes with AIMD policies:
	// producers publish through a Publisher whose window adapts between
	// 1 and Batch (with an arrival-rate gate, see PublisherConfig), and
	// consumers size each PollBatch drain between 1 and DequeueBatch
	// from the depth the previous drain observed.
	AdaptiveBatch bool
	// Pipeline defers each publish window's fence into the next flush
	// (Publisher pipelining); with Poller+Ack it also selects AckAsync,
	// so ack fences ride into the next wakeup.
	Pipeline bool
	// Poller runs each consumer as a broker.Poller event loop (backoff
	// instead of spinning) rather than a busy poll loop. Incompatible
	// with Kills/Churn (the cooperative stall/kill hooks live in the
	// busy loop); norm() zeroes them.
	Poller bool
	// ProduceGapNs spaces message arrivals: each producer waits this
	// long between minting messages, modelling an idle/low-rate topic.
	// Any non-zero gap routes producers through the Publisher path so
	// buffering delay is part of the measured publish sojourn.
	ProduceGapNs int64
	// DynTopics creates that many extra topics on the live broker,
	// spread across the produce phase, from a dedicated administrator
	// thread running beside the traffic — measuring what live
	// administration costs (DynTopicFences) while the data plane runs.
	DynTopics int
	// DelTopics runs that many create→delete cycles of a scratch topic
	// on the live broker, spread across the produce phase, from a
	// dedicated retirement thread — measuring what topic retirement
	// costs (DelTopicFences, a pinned ≤3-fence tombstone protocol) and,
	// through the post-run SlotsUsed/SlotsFree footprint, that the
	// churned windows are recycled through the free list instead of
	// growing the heaps' high-water marks.
	DelTopics int
	// DelayTopics and PrioTopics create that many heap-backed topics
	// (KindDelay / KindPriority) beside the FIFO ones, driven by a
	// dedicated heap-traffic thread: each cycle durably publishes one
	// Batch-sized window per heap topic (one fence, deadlines / ranks
	// from a logical clock) and pops up to DequeueBatch ready messages
	// per topic (one fence per non-empty batch). The fence deltas land
	// in HeapPubFences/HeapPopFences, so HeapFencesPerPublish ~ 1/Batch
	// and HeapFencesPerPop ~ 1/DequeueBatch are directly visible beside
	// the FIFO columns.
	DelayTopics int
	PrioTopics  int
	// Duration bounds the produce phase. Consumers drain afterwards.
	Duration  time.Duration
	HeapBytes int64
	Latency   pmem.LatencyModel
	// HeapFenceNs, when non-empty, gives each member heap its own
	// SFENCE latency (heap i takes HeapFenceNs[i % len]): the
	// asymmetric-NUMA topology NewSetOf models, where one domain is
	// slower than another. Empty means every heap uses Latency as is.
	HeapFenceNs []int64
	// Observe attaches an obs.Observer to the broker and fills
	// BrokerResult.Latency with the per-op latency snapshot (including
	// the setup-phase CreateTopic calls under the admin op). Off by
	// default so throughput baselines measure the uninstrumented paths.
	Observe bool
}

func (c *BrokerConfig) norm() {
	if c.Topics <= 0 {
		c.Topics = 2
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Heaps <= 0 {
		c.Heaps = 1
	}
	if c.Producers <= 0 {
		c.Producers = 2
	}
	if c.Consumers <= 0 {
		c.Consumers = 2
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.DequeueBatch <= 0 {
		c.DequeueBatch = 1
	}
	if c.Duration == 0 {
		c.Duration = time.Second
	}
	if c.HeapBytes == 0 {
		c.HeapBytes = 512 << 20
	}
	if !c.Ack {
		c.Kills = 0
		c.Churn = 0
	}
	if c.Kills >= c.Consumers {
		c.Kills = c.Consumers - 1
	}
	if c.Kills < 0 {
		c.Kills = 0
	}
	if c.Consumers < 2 || c.Churn < 0 {
		c.Churn = 0
	}
	if c.DynTopics < 0 {
		c.DynTopics = 0
	}
	if c.DelTopics < 0 {
		c.DelTopics = 0
	}
	if c.ProduceGapNs < 0 {
		c.ProduceGapNs = 0
	}
	if c.DelayTopics < 0 {
		c.DelayTopics = 0
	}
	if c.PrioTopics < 0 {
		c.PrioTopics = 0
	}
	if c.Poller {
		c.Kills = 0
		c.Churn = 0
	}
}

// usePublisher reports whether producers go through the Publisher
// path (buffered windows, optional pipelining) instead of direct
// Publish/PublishBatch calls. Any arrival gap forces it: buffering
// delay must be visible in the sojourn measurement for the fixed
// and adaptive policies to be comparable.
func (c *BrokerConfig) usePublisher() bool {
	return c.AdaptiveBatch || c.Pipeline || c.ProduceGapNs > 0
}

// BrokerResult is one broker measurement outcome. Producer and
// Consumer aggregate the persist statistics of the two thread groups
// separately (summed across member heaps), so the batch-publish fence
// amortization is directly visible as Producer.Fences / Published;
// PerHeap splits all traffic by persistence domain instead, exposing
// placement imbalance.
type BrokerResult struct {
	Topics, Shards, Heaps, Producers, Consumers, Batch, DequeueBatch, Payload int
	Affine, Ack                                                               bool
	Kills, Churn                                                              int
	AdaptiveBatch, Pipeline, Poller                                           bool
	ProduceGapNs                                                              int64

	Published uint64
	Delivered uint64
	Elapsed   time.Duration
	Producer  pmem.Stats
	Consumer  pmem.Stats

	// Ack-mode statistics: messages acknowledged, blocking persists
	// spent inside Ack calls, and messages redelivered after a consumer
	// kill + lease takeover.
	Acked       uint64
	AckFences   uint64
	Redelivered uint64

	// Membership-churn statistics: stale-epoch acks refused with
	// ErrFenced, shards moved by forced Reassign splits, shards taken
	// by work-stealing, and expiry scans run (only the churn
	// controller's deliberate ones are counted).
	FencedAcks uint64
	Reassigned uint64
	Stolen     uint64
	Scans      uint64

	// Live-administration statistics: topics created mid-run on the
	// live broker and the blocking persists they cost (catalog
	// protocol plus per-shard queue initialization).
	DynTopics      uint64
	DynTopicFences uint64

	// Topic-retirement statistics: create→delete cycles completed
	// mid-run, the blocking persists the DeleteTopic calls cost, and
	// the slot footprint after the run — SlotsUsed is the high-water
	// sum across heaps, SlotsFree the free-list population. A churn run
	// whose SlotsUsed matches the churn-free baseline proves the
	// retired windows were recycled.
	DelTopics      uint64
	DelTopicFences uint64
	SlotsUsed      int
	SlotsFree      int

	// Heap-topic statistics: messages durably published to and popped
	// from the delay/priority topics by the heap-traffic thread, and
	// the blocking persists those calls cost. The two ratios below are
	// the bench-guarded counters: publishes amortize to ~1/Batch fences
	// per message and pops to ~1/DequeueBatch, with zero persists spent
	// on heap maintenance (sift) by construction.
	DelayTopics   int
	PrioTopics    int
	HeapPublished uint64
	HeapPopped    uint64
	HeapPubFences uint64
	HeapPopFences uint64

	// PerHeap is each member heap's total event counters for the
	// measured phase (all threads).
	PerHeap []pmem.Stats

	// IdlePolls/IdlePollFences measure the post-drain idle phase: one
	// consumer repeatedly polling its (empty) shards. With empty-poll
	// fence elision the fences stay ~0 after the first poll; without
	// it every poll would fence once per owned shard.
	IdlePolls      uint64
	IdlePollFences uint64

	// PubSojournP50Ns/P99Ns/P999Ns are quantiles of the publish
	// *sojourn*: the time from a message's arrival at the producer to
	// its durable acknowledgment, including any wait in a Publisher
	// window and any pipelined one-window acknowledgment lag. This —
	// not the publish-call latency — is the tail a client of an idle
	// topic experiences, and the number adaptive batching attacks.
	// On the direct (non-Publisher) path it degenerates to the
	// publish-call duration.
	PubSojournP50Ns  float64
	PubSojournP99Ns  float64
	PubSojournP999Ns float64

	// Poller-mode statistics: timer sleeps taken after empty sweeps
	// and explicit wakeups, summed over all consumers' loops. Zero
	// outside Poller mode.
	PollerSleeps uint64
	PollerWakes  uint64

	// Latency is the observer snapshot (per-op histograms, topic and
	// group gauges, per-heap persist counters), nil unless
	// BrokerConfig.Observe was set.
	Latency *obs.Snapshot
}

// sojournQuantiles sorts the sample set and fills the sojourn
// quantile fields; no samples leaves them zero.
func (r *BrokerResult) sojournQuantiles(samples []int64) {
	if len(samples) == 0 {
		return
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(samples)-1))
		return float64(samples[i])
	}
	r.PubSojournP50Ns = at(0.50)
	r.PubSojournP99Ns = at(0.99)
	r.PubSojournP999Ns = at(0.999)
}

// opQuantiles returns (p50, p99, p999) of one op kind in
// nanoseconds, zeros when latency was not observed or the op recorded
// no samples.
func (r BrokerResult) opQuantiles(op string) (p50, p99, p999 float64) {
	if r.Latency == nil {
		return 0, 0, 0
	}
	o, ok := r.Latency.Op(op)
	if !ok {
		return 0, 0, 0
	}
	return o.P50Ns, o.P99Ns, o.P999Ns
}

// PublishQuantiles returns publish latency (p50, p99, p999) in
// nanoseconds; zeros without Observe.
func (r BrokerResult) PublishQuantiles() (p50, p99, p999 float64) {
	return r.opQuantiles("publish")
}

// PollQuantiles returns non-empty-poll latency (p50, p99, p999) in
// nanoseconds; zeros without Observe.
func (r BrokerResult) PollQuantiles() (p50, p99, p999 float64) {
	return r.opQuantiles("poll")
}

// AckQuantiles returns ack latency (p50, p99, p999) in nanoseconds;
// zeros without Observe or outside ack mode.
func (r BrokerResult) AckQuantiles() (p50, p99, p999 float64) {
	return r.opQuantiles("ack")
}

// Mops returns million completed operations (publishes + deliveries)
// per second.
func (r BrokerResult) Mops() float64 {
	return float64(r.Published+r.Delivered) / r.Elapsed.Seconds() / 1e6
}

// ProducerFencesPerMsg returns blocking persists per published
// message — 1 on the per-message path, ~1/Batch on the batch path.
// 0 when nothing was published.
func (r BrokerResult) ProducerFencesPerMsg() float64 {
	if r.Published == 0 {
		return 0
	}
	return float64(r.Producer.Fences) / float64(r.Published)
}

// ConsumerFencesPerMsg returns blocking persists per delivered
// message — ~1 on the per-message Poll path, dropping toward
// 1/DequeueBatch on the PollBatch path (empty-poll elision keeps
// failing polls from inflating it). 0 when nothing was delivered.
func (r BrokerResult) ConsumerFencesPerMsg() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return float64(r.Consumer.Fences) / float64(r.Delivered)
}

// AckFencesPerMsg returns blocking persists spent acknowledging, per
// delivered message — ~1/DequeueBatch when every batch is acked as a
// whole, 0 outside ack mode.
func (r BrokerResult) AckFencesPerMsg() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return float64(r.AckFences) / float64(r.Delivered)
}

// RedeliveryRate returns the fraction of deliveries that were
// redeliveries of a killed consumer's unacked window — 0 without
// kills.
func (r BrokerResult) RedeliveryRate() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return float64(r.Redelivered) / float64(r.Delivered)
}

// DynFencesPerCreate returns the blocking persists one mid-run
// CreateTopic cost on average — the pinned 3-fence catalog protocol
// plus the per-shard queue initialization. 0 without DynTopics.
func (r BrokerResult) DynFencesPerCreate() float64 {
	if r.DynTopics == 0 {
		return 0
	}
	return float64(r.DynTopicFences) / float64(r.DynTopics)
}

// DelFencesPerDelete returns the blocking persists one mid-run
// DeleteTopic cost on average — the tombstone append plus the commit
// stamp, bounded at 3 even counting an amortized compaction share.
// 0 without DelTopics.
func (r BrokerResult) DelFencesPerDelete() float64 {
	if r.DelTopics == 0 {
		return 0
	}
	return float64(r.DelTopicFences) / float64(r.DelTopics)
}

// HeapFencesPerPublish returns blocking persists per message durably
// published to a delay/priority topic — ~1/Batch, since a whole
// publish batch rides one fence. 0 without heap topics.
func (r BrokerResult) HeapFencesPerPublish() float64 {
	if r.HeapPublished == 0 {
		return 0
	}
	return float64(r.HeapPubFences) / float64(r.HeapPublished)
}

// HeapFencesPerPop returns blocking persists per message durably
// consumed from a delay/priority topic — ~1/DequeueBatch, one fence
// covering each non-empty pop-min batch; empty pops and all heap
// maintenance persist nothing. 0 without heap topics.
func (r BrokerResult) HeapFencesPerPop() float64 {
	if r.HeapPopped == 0 {
		return 0
	}
	return float64(r.HeapPopFences) / float64(r.HeapPopped)
}

// IdleFencesPerPoll returns blocking persists per poll of an idle
// consumer whose shards are all empty — ~0 with empty-poll fence
// elision.
func (r BrokerResult) IdleFencesPerPoll() float64 {
	if r.IdlePolls == 0 {
		return 0
	}
	return float64(r.IdlePollFences) / float64(r.IdlePolls)
}

// HeapImbalance reports how unevenly persist traffic spread across the
// member heaps: the busiest heap's persist-instruction count (fences +
// NTStores) over the per-heap mean. 1.0 is perfectly balanced; H means
// one domain carried everything. 1.0 by definition on a 1-heap set.
func (r BrokerResult) HeapImbalance() float64 {
	if len(r.PerHeap) <= 1 {
		return 1
	}
	var sum, max float64
	for _, s := range r.PerHeap {
		v := float64(s.Fences + s.NTStores)
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(r.PerHeap)))
}

// RunBroker executes one broker measurement.
func RunBroker(cfg BrokerConfig) (BrokerResult, error) {
	cfg.norm()
	threads := cfg.Producers + cfg.Consumers
	adminTid := -1
	if cfg.DynTopics > 0 {
		adminTid = threads // the administrator gets its own thread id
		threads++
	}
	churnTid := -1
	if cfg.Churn > 0 {
		churnTid = threads // so is the churn controller
		threads++
	}
	delTid := -1
	if cfg.DelTopics > 0 {
		delTid = threads // and the topic-retirement thread
		threads++
	}
	heapTid := -1
	if cfg.DelayTopics+cfg.PrioTopics > 0 {
		heapTid = threads // and the delay/priority heap-traffic thread
		threads++
	}
	pcfg := pmem.Config{
		Bytes:      cfg.HeapBytes,
		Mode:       pmem.ModePerf,
		MaxThreads: threads,
		Latency:    cfg.Latency,
	}
	var hs *pmem.HeapSet
	if len(cfg.HeapFenceNs) > 0 {
		// Asymmetric NUMA: every member gets its own fence latency.
		heaps := make([]*pmem.Heap, cfg.Heaps)
		for i := range heaps {
			hc := pcfg
			hc.Latency.FenceNs = cfg.HeapFenceNs[i%len(cfg.HeapFenceNs)]
			heaps[i] = pmem.New(hc)
		}
		hs = pmem.NewSetOf(heaps...)
	} else {
		hs = pmem.NewSet(cfg.Heaps, pcfg)
	}
	// The broker comes up empty (Open) and every topic is created
	// through the live-administration path, exactly as the mid-run
	// DynTopics creations are.
	opts := broker.Options{Threads: threads}
	if cfg.Affine {
		opts.Placement = broker.BlockPlacement
	}
	var o *obs.Observer
	if cfg.Observe {
		o = obs.New(obs.Config{Threads: threads})
		opts.Observer = o
	}
	b, err := broker.Open(hs, opts)
	if err != nil {
		return BrokerResult{}, err
	}
	names := make([]string, cfg.Topics)
	for i := range names {
		names[i] = fmt.Sprintf("topic-%d", i)
		tc := broker.TopicConfig{Name: names[i], Shards: cfg.Shards, MaxPayload: cfg.Payload, Acked: cfg.Ack}
		if _, err := b.CreateTopic(0, tc); err != nil {
			return BrokerResult{}, err
		}
	}
	// Heap-backed topics live beside the FIFO ones but outside the
	// consumer group (heap delivery is its own durable protocol).
	var heapTopics []*broker.Topic
	for i := 0; i < cfg.DelayTopics; i++ {
		t, err := b.CreateTopic(0, broker.TopicConfig{
			Name: fmt.Sprintf("delay-%d", i), Shards: 1,
			MaxPayload: cfg.Payload, Kind: broker.KindDelay,
		})
		if err != nil {
			return BrokerResult{}, err
		}
		heapTopics = append(heapTopics, t)
	}
	for i := 0; i < cfg.PrioTopics; i++ {
		t, err := b.CreateTopic(0, broker.TopicConfig{
			Name: fmt.Sprintf("prio-%d", i), Shards: 1,
			MaxPayload: cfg.Payload, Kind: broker.KindPriority,
		})
		if err != nil {
			return BrokerResult{}, err
		}
		heapTopics = append(heapTopics, t)
	}
	// leaseClock is a logical clock so kills can expire leases
	// instantly instead of sleeping out wall-clock TTLs.
	var leaseClock atomic.Uint64
	const leaseTTL = 16
	if cfg.Ack {
		if _, err := b.CreateAckGroup(0, broker.AckGroupConfig{}); err != nil {
			return BrokerResult{}, err
		}
	}
	var g *broker.Group
	if cfg.Ack {
		g, err = b.NewGroupAcked(names, cfg.Consumers, broker.LeaseConfig{
			TTL: leaseTTL, Now: leaseClock.Load,
		})
	} else if cfg.Affine {
		g, err = b.NewGroupAffine(names, cfg.Consumers)
	} else {
		g, err = b.NewGroup(names, cfg.Consumers)
	}
	if err != nil {
		return BrokerResult{}, err
	}
	hs.ResetStats() // charge setup (catalog, shard creation) to no one

	prev := runtime.GOMAXPROCS(0)
	if threads > prev {
		runtime.GOMAXPROCS(threads)
		defer runtime.GOMAXPROCS(prev)
	}

	var stop atomic.Bool
	var published, delivered atomic.Uint64
	var producersDone sync.WaitGroup
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)

	payload := func(seq uint64) []byte {
		if cfg.Payload == 0 {
			return broker.U64(seq)
		}
		p := make([]byte, cfg.Payload)
		copy(p, broker.U64(seq))
		return p
	}

	// Publish-sojourn sampling: every producer records arrival→durable-
	// acknowledgment times into a bounded ring (recent samples win once
	// full); the rings merge into the result quantiles after the run.
	const sojournCap = 1 << 19
	sojourns := make([][]int64, cfg.Producers)

	// adaptiveMaxDelayNs is the Publisher deadline/arrival-rate gate in
	// adaptive mode: arrivals spaced wider than this count as idle (the
	// window shrinks toward per-message flushes) and no buffered message
	// waits longer than this for its window to fill.
	const adaptiveMaxDelayNs = 100_000

	for p := 0; p < cfg.Producers; p++ {
		wg.Add(1)
		producersDone.Add(1)
		go func(tid int) {
			defer wg.Done()
			defer producersDone.Done()
			start.Wait()
			seq := uint64(tid) << 40
			var samples []int64
			nsamp := 0
			rec := func(d int64) {
				if len(samples) < sojournCap {
					samples = append(samples, d)
				} else {
					samples[nsamp%sojournCap] = d
				}
				nsamp++
			}
			defer func() { sojourns[tid] = samples }()
			gap := time.Duration(cfg.ProduceGapNs)
			if cfg.usePublisher() {
				// One publisher (and one arrival FIFO — acks are FIFO in
				// publish order) per topic the producer round-robins over.
				pubs := make([]*broker.Publisher, cfg.Topics)
				arr := make([][]int64, cfg.Topics)
				for ti := range pubs {
					pc := broker.PublisherConfig{Pipeline: cfg.Pipeline}
					if cfg.AdaptiveBatch {
						pc.Policy = batch.NewAIMD(1, cfg.Batch)
						pc.MaxDelayNs = adaptiveMaxDelayNs
					} else {
						pc.Policy = batch.Fixed{N: cfg.Batch}
					}
					pubs[ti] = b.Topic(names[ti]).NewPublisher(tid, pc)
				}
				ackN := func(ti, n int, end int64) {
					if n == 0 {
						return
					}
					for _, at := range arr[ti][:n] {
						rec(end - at)
					}
					arr[ti] = arr[ti][n:]
					published.Add(uint64(n))
				}
				for i := uint64(0); !stop.Load(); i++ {
					if gap > 0 {
						time.Sleep(gap)
					}
					ti := int(i % uint64(cfg.Topics))
					seq++
					arr[ti] = append(arr[ti], obs.Now())
					n := pubs[ti].Publish(payload(seq))
					ackN(ti, n, obs.Now())
				}
				for ti := range pubs {
					ackN(ti, pubs[ti].Flush(), obs.Now())
				}
				return
			}
			batch := make([][]byte, cfg.Batch)
			for i := uint64(0); !stop.Load(); i++ {
				t := b.Topic(names[i%uint64(cfg.Topics)])
				if cfg.Batch == 1 {
					seq++
					at := obs.Now()
					t.Publish(tid, payload(seq))
					rec(obs.Now() - at)
					published.Add(1)
					continue
				}
				for j := range batch {
					seq++
					batch[j] = payload(seq)
				}
				at := obs.Now()
				t.PublishBatch(tid, batch)
				d := obs.Now() - at
				for range batch {
					rec(d)
				}
				published.Add(uint64(cfg.Batch))
			}
		}(p)
	}
	var acked, ackFences, redelivered atomic.Uint64
	var fencedAcks, reassigned, stolen, scans atomic.Uint64
	killFlag := make([]atomic.Bool, cfg.Consumers)
	stallOf := make([]atomic.Pointer[stallCtl], cfg.Consumers)
	consDone := make([]chan struct{}, cfg.Consumers)
	done := make(chan struct{})
	go func() { producersDone.Wait(); close(done) }()
	drainPolicy := func() batch.Policy {
		if cfg.AdaptiveBatch {
			return batch.NewAIMD(1, cfg.DequeueBatch)
		}
		return batch.Fixed{N: cfg.DequeueBatch}
	}
	var pollers []*broker.Poller
	if cfg.Poller {
		// Event-loop mode: each consumer is a Poller. The loops run past
		// the produce phase and are stopped — with a final drain-to-empty
		// sweep — once the producers have finished.
		for c := 0; c < cfg.Consumers; c++ {
			tid := cfg.Producers + c
			pl := broker.NewPoller(broker.PollerConfig{
				Consumer: g.Consumer(c),
				Tid:      tid,
				Policy:   drainPolicy(),
				Ack:      cfg.Ack,
				Pipeline: cfg.Pipeline,
				Handler:  func(ms []broker.Message) { delivered.Add(uint64(len(ms))) },
			})
			pollers = append(pollers, pl)
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				pl.Run()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-done
			for _, pl := range pollers {
				pl.Stop()
			}
		}()
	}
	if !cfg.Poller {
		for c := 0; c < cfg.Consumers; c++ {
			wg.Add(1)
			consDone[c] = make(chan struct{})
			go func(c int) {
				defer wg.Done()
				defer close(consDone[c])
				tid := cfg.Producers + c
				cons := g.Consumer(c)
				start.Wait()
				drained := false
				pol := drainPolicy()
				poll := func() int {
					if cfg.DequeueBatch == 1 {
						if _, ok := cons.Poll(tid); ok {
							return 1
						}
						return 0
					}
					n := len(cons.PollBatch(tid, pol.Size()))
					pol.Observe(n)
					return n
				}
				for {
					if n := poll(); n > 0 {
						delivered.Add(uint64(n))
						if cfg.Ack {
							if ctl := stallOf[c].Swap(nil); ctl != nil {
								// Stalled by the churn controller: keep the
								// window in flight, unacked, until resumed.
								close(ctl.stalled)
								<-ctl.resume
							}
							if killFlag[c].Load() {
								// Killed mid-batch: the window stays unacked
								// and is redelivered via takeover.
								return
							}
							d := hs.DeltaOf(tid)
							n, err := cons.Ack(tid)
							if errors.Is(err, broker.ErrFenced) {
								// The window was reassigned or stolen while we
								// stalled; it is someone else's now.
								fencedAcks.Add(1)
								continue
							}
							acked.Add(uint64(n))
							ackFences.Add(d.Delta().Fences)
						}
						drained = false
						continue
					}
					if killFlag[c].Load() {
						return
					}
					select {
					case <-done:
						// Exit only on an empty sweep that began after the
						// producers were observed finished; the first empty
						// sweep may predate their last publishes.
						if drained {
							return
						}
						drained = true
					default:
					}
				}
			}(c)
		}
	}
	// The administrator: create DynTopics fresh topics on the live
	// broker, spread across the produce phase, measuring the blocking
	// persists each creation costs while the data plane runs.
	var dynCreated, dynFences atomic.Uint64
	var dynErr error
	var dynErrMu sync.Mutex
	if cfg.DynTopics > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			for d := 0; d < cfg.DynTopics; d++ {
				time.Sleep(cfg.Duration / time.Duration(cfg.DynTopics+1))
				delta := hs.DeltaOf(adminTid)
				_, err := b.CreateTopic(adminTid, broker.TopicConfig{
					Name:   fmt.Sprintf("dyn-%d", d),
					Shards: cfg.Shards, MaxPayload: cfg.Payload,
				})
				if err != nil {
					dynErrMu.Lock()
					dynErr = fmt.Errorf("harness: mid-run CreateTopic %d failed: %w", d, err)
					dynErrMu.Unlock()
					return
				}
				dynFences.Add(delta.Delta().Fences)
				dynCreated.Add(1)
			}
		}()
	}

	// The retirement thread: cycle a scratch topic through create →
	// publish a little → delete, spread across the produce phase. The
	// fence delta brackets only the DeleteTopic call, so the measured
	// cost is the retirement protocol itself; the recycled-window proof
	// comes from the post-run slot footprint.
	var delCycles, delFences atomic.Uint64
	var delErr error
	var delErrMu sync.Mutex
	if cfg.DelTopics > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			scratch := make([][]byte, 4)
			for j := range scratch {
				scratch[j] = payload(uint64(j))
			}
			for d := 0; d < cfg.DelTopics; d++ {
				time.Sleep(cfg.Duration / time.Duration(cfg.DelTopics+1))
				name := fmt.Sprintf("del-%d", d)
				t, err := b.CreateTopic(delTid, broker.TopicConfig{
					Name:   name,
					Shards: cfg.Shards, MaxPayload: cfg.Payload,
				})
				if err == nil {
					t.PublishBatch(delTid, scratch)
					delta := hs.DeltaOf(delTid)
					err = b.DeleteTopic(delTid, name)
					delFences.Add(delta.Delta().Fences)
				}
				if err != nil {
					delErrMu.Lock()
					delErr = fmt.Errorf("harness: retirement cycle %d failed: %w", d, err)
					delErrMu.Unlock()
					return
				}
				delCycles.Add(1)
			}
		}()
	}

	// The heap-traffic thread: each cycle durably publishes one
	// Batch-sized window to every delay/priority topic (deadlines and
	// ranks off a logical clock, one fence per window) and pops the
	// ready backlog in DequeueBatch-sized batches (one fence per
	// non-empty batch), so both amortization ratios are measured on
	// the real broker paths. The produce phase ends with a full drain:
	// every heap-published message is also popped.
	var heapPublished, heapPopped, heapPubFences, heapPopFences atomic.Uint64
	var heapErr error
	var heapErrMu sync.Mutex
	if heapTid >= 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			fail := func(err error) {
				heapErrMu.Lock()
				heapErr = fmt.Errorf("harness: heap-topic traffic failed: %w", err)
				heapErrMu.Unlock()
			}
			clock := uint64(1)
			keys := make([]uint64, cfg.Batch)
			window := make([][]byte, cfg.Batch)
			// pop drains the ready backlog in DequeueBatch-sized batches;
			// draining each cycle keeps the per-thread entry arena bounded
			// at ~one publish window regardless of the Batch/DequeueBatch
			// ratio.
			pop := func(t *broker.Topic) bool {
				for {
					d := hs.DeltaOf(heapTid)
					ps, err := t.DequeueReadyBatch(heapTid, clock, cfg.DequeueBatch)
					if err != nil {
						fail(err)
						return false
					}
					heapPopFences.Add(d.Delta().Fences)
					heapPopped.Add(uint64(len(ps)))
					if len(ps) < cfg.DequeueBatch {
						return true
					}
				}
			}
			for done := false; !done; {
				done = stop.Load()
				for _, t := range heapTopics {
					for j := range window {
						clock++
						keys[j] = clock
						window[j] = payload(clock)
					}
					d := hs.DeltaOf(heapTid)
					var err error
					if t.Kind() == broker.KindDelay {
						err = t.PublishAtBatch(heapTid, window, keys)
					} else {
						err = t.PublishPriorityBatch(heapTid, window, keys)
					}
					if err != nil {
						fail(err)
						return
					}
					heapPubFences.Add(d.Delta().Fences)
					heapPublished.Add(uint64(cfg.Batch))
					if !pop(t) {
						return
					}
				}
			}
			clock = ^uint64(0) // final drain: everything is ready
			for _, t := range heapTopics {
				if !pop(t) {
					return
				}
			}
		}()
	}

	var adoptErr error
	var adoptErrMu sync.Mutex
	if cfg.Kills > 0 {
		// The killer crashes consumers 1..Kills one by one mid-run,
		// expires their leases on the logical clock, and adopts their
		// shards into consumer 0 (kept alive for the idle phase).
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			for victim := 1; victim <= cfg.Kills; victim++ {
				time.Sleep(cfg.Duration / time.Duration(cfg.Kills+2))
				killFlag[victim].Store(true)
				<-consDone[victim]
				leaseClock.Add(leaseTTL + 1)
				select {
				case <-consDone[0]:
					// The adopter already drained and exited (the kill
					// slipped past the produce phase): a takeover now
					// would strand the victim's backlog in a queue no
					// one polls and count phantom redeliveries.
					return
				default:
				}
				moved, err := g.Reassign(cfg.Producers+victim, victim, []int{0}, false)
				if err != nil {
					// A failed takeover strands the victim's backlog; the
					// measurement is invalid, so surface it.
					adoptErrMu.Lock()
					adoptErr = fmt.Errorf("harness: takeover of consumer %d failed: %w", victim, err)
					adoptErrMu.Unlock()
					return
				}
				redelivered.Add(uint64(moved))
			}
		}()
	}

	var churnErr error
	var churnErrMu sync.Mutex
	if cfg.Churn > 0 {
		// The churn controller: each cycle stalls one member mid-window,
		// displaces its shards (even cycles: forced Reassign split across
		// every survivor; odd cycles: lease expiry + work-stealing into
		// consumer 0, finished by a Scan), then resumes it so its stale
		// ack is refused on the fencing path.
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			fail := func(err error) {
				churnErrMu.Lock()
				churnErr = err
				churnErrMu.Unlock()
			}
			for cycle := 0; cycle < cfg.Churn; cycle++ {
				time.Sleep(cfg.Duration / time.Duration(cfg.Churn+1))
				victim := 1 + cycle%(cfg.Consumers-1)
				ctl := &stallCtl{stalled: make(chan struct{}), resume: make(chan struct{})}
				stallOf[victim].Store(ctl)
				select {
				case <-ctl.stalled:
				case <-consDone[victim]:
					if stallOf[victim].Swap(nil) != nil {
						continue // already drained and gone; skip the cycle
					}
					<-ctl.stalled // grabbed the control at the last moment
				case <-time.After(cfg.Duration):
					if stallOf[victim].Swap(nil) != nil {
						continue // never saw a window in time; skip the cycle
					}
					<-ctl.stalled
				}
				if cycle%2 == 0 {
					targets := make([]int, 0, cfg.Consumers-1)
					for m := 0; m < cfg.Consumers; m++ {
						if m != victim {
							targets = append(targets, m)
						}
					}
					moved := len(g.Consumer(victim).Assigned())
					if _, err := g.Reassign(churnTid, victim, targets, true); err != nil {
						fail(fmt.Errorf("harness: churn cycle %d: forced Reassign of consumer %d failed: %w", cycle, victim, err))
						close(ctl.resume)
						return
					}
					reassigned.Add(uint64(moved))
				} else {
					leaseClock.Add(leaseTTL + 1)
					thief := g.Consumer(0)
					for {
						took, _, err := thief.Steal(churnTid)
						if err != nil {
							fail(fmt.Errorf("harness: churn cycle %d: Steal failed: %w", cycle, err))
							close(ctl.resume)
							return
						}
						if !took {
							break
						}
						stolen.Add(1)
					}
					if _, err := g.Scan(churnTid, leaseClock.Load()); err != nil {
						fail(fmt.Errorf("harness: churn cycle %d: Scan failed: %w", cycle, err))
						close(ctl.resume)
						return
					}
					scans.Add(1)
				}
				close(ctl.resume)
			}
		}()
	}

	begin := time.Now()
	start.Done()
	timer := time.AfterFunc(cfg.Duration, func() { stop.Store(true) })
	defer timer.Stop()
	wg.Wait()
	elapsed := time.Since(begin)
	if adoptErr != nil {
		return BrokerResult{}, adoptErr
	}
	if dynErr != nil {
		return BrokerResult{}, dynErr
	}
	if delErr != nil {
		return BrokerResult{}, delErr
	}
	if heapErr != nil {
		return BrokerResult{}, heapErr
	}
	if churnErr != nil {
		return BrokerResult{}, churnErr
	}

	res := BrokerResult{
		Topics: cfg.Topics, Shards: cfg.Shards, Heaps: cfg.Heaps, Affine: cfg.Affine,
		Ack: cfg.Ack, Kills: cfg.Kills, Churn: cfg.Churn,
		AdaptiveBatch: cfg.AdaptiveBatch, Pipeline: cfg.Pipeline, Poller: cfg.Poller,
		ProduceGapNs: cfg.ProduceGapNs,
		Producers:    cfg.Producers, Consumers: cfg.Consumers,
		Batch: cfg.Batch, DequeueBatch: cfg.DequeueBatch, Payload: cfg.Payload,
		Published: published.Load(), Delivered: delivered.Load(),
		Acked: acked.Load(), AckFences: ackFences.Load(), Redelivered: redelivered.Load(),
		FencedAcks: fencedAcks.Load(), Reassigned: reassigned.Load(),
		Stolen: stolen.Load(), Scans: scans.Load(),
		DynTopics: dynCreated.Load(), DynTopicFences: dynFences.Load(),
		DelTopics: delCycles.Load(), DelTopicFences: delFences.Load(),
		DelayTopics: cfg.DelayTopics, PrioTopics: cfg.PrioTopics,
		HeapPublished: heapPublished.Load(), HeapPopped: heapPopped.Load(),
		HeapPubFences: heapPubFences.Load(), HeapPopFences: heapPopFences.Load(),
		Elapsed: elapsed,
	}
	res.SlotsUsed, res.SlotsFree = b.SlotFootprint()
	var allSojourns []int64
	for _, s := range sojourns {
		allSojourns = append(allSojourns, s...)
	}
	res.sojournQuantiles(allSojourns)
	if cfg.Poller {
		for _, pl := range pollers {
			st := pl.Stats()
			res.PollerSleeps += st.IdleSleeps
			res.PollerWakes += st.Wakes
			if cfg.Ack {
				// The poller acknowledges everything it delivers; its
				// per-call fence split is not tracked separately.
				res.Acked += st.Delivered
			}
		}
	}
	for tid := 0; tid < cfg.Producers; tid++ {
		res.Producer.Add(hs.StatsOf(tid))
	}
	// The administrator's thread id lies beyond the consumer range, so
	// its persist traffic never skews the consumer statistics.
	for tid := cfg.Producers; tid < cfg.Producers+cfg.Consumers; tid++ {
		res.Consumer.Add(hs.StatsOf(tid))
	}
	res.PerHeap = make([]pmem.Stats, cfg.Heaps)
	for i := 0; i < cfg.Heaps; i++ {
		res.PerHeap[i] = hs.Heap(i).TotalStats()
	}

	// Idle phase: with all shards drained, measure the persist cost of
	// polling empty shards (after the consumer stats were snapshotted,
	// so ConsumerFencesPerMsg is unaffected). Empty-poll fence elision
	// makes this ~0.
	const idlePolls = 1000
	idleTid := cfg.Producers
	idleCons := g.Consumer(0)
	idle := hs.DeltaOf(idleTid)
	for i := 0; i < idlePolls; i++ {
		if cfg.DequeueBatch == 1 {
			idleCons.Poll(idleTid)
		} else {
			idleCons.PollBatch(idleTid, cfg.DequeueBatch)
		}
	}
	res.IdlePolls = idlePolls
	res.IdlePollFences = idle.Delta().Fences
	if o != nil {
		snap := o.Snapshot()
		res.Latency = &snap
	}
	return res, nil
}
