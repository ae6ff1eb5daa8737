package main

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/broker"
	"repro/internal/pmem"
)

// imageSpec shapes a crash image: which topics the crashed broker had
// and how much history they saw.
type imageSpec struct {
	// fifo is an acked 8-byte topic, blob an acked 1 KiB topic, delay a
	// KindDelay topic.
	fifo, blob, delay bool
	// sameTid publishes and consumes on tid 0, as pairs-8b does;
	// otherwise tid 0 publishes and tid 1 consumes.
	sameTid bool
	// msgs is how many messages each topic receives; backlog how many
	// of each acked topic's stay unacknowledged at the crash.
	msgs, backlog int
	heapBytes     int64
}

// image is a crashed broker's heap set and what recovery must find.
type image struct {
	spec      imageSpec
	hs        *pmem.HeapSet
	acked     []string
	codecs    map[string]idCodec
	expect    map[string][]int // per topic: ids recovery must redeliver, in order
	deadline  []uint64         // delay topic: id → deadline
	footprint uint64           // heap bytes above the empty heap
	published int
}

func (im *image) live() int {
	n := 0
	for _, ids := range im.expect {
		n += len(ids)
	}
	return n
}

func (im *image) consTid() int {
	if im.spec.sameTid {
		return 0
	}
	return 1
}

// buildImage runs a producer/consumer history on a ModeCrash broker,
// leaving footprint and a live backlog, then crashes it. With tr set
// the history's verb calls are traced.
func buildImage(spec imageSpec, seed int64, out *outcome, counts *ops, tr *tracer) (*image, error) {
	hs := pmem.NewSet(1, pmem.Config{Bytes: spec.heapBytes, Mode: pmem.ModeCrash, MaxThreads: threads, Latency: pmem.DefaultLatency()})
	im := &image{spec: spec, hs: hs, codecs: map[string]idCodec{}, expect: map[string][]int{}}
	emptyBrk := hs.Heap(0).RawMem(brkAddr)
	b, err := broker.Open(hs, broker.Options{Threads: threads})
	if err != nil {
		return nil, err
	}
	rng := newRand(seed, -1)
	prod, cons := 0, im.consTid()
	topics := map[string]*broker.Topic{}
	create := func(tc broker.TopicConfig, size int) error {
		t, err := b.CreateTopic(0, tc)
		if err != nil {
			return err
		}
		topics[tc.Name] = t
		im.codecs[tc.Name] = newCodec(rng, size)
		if tc.Acked {
			im.acked = append(im.acked, tc.Name)
		}
		return nil
	}
	if spec.fifo {
		if err := create(broker.TopicConfig{Name: "fifo", Shards: 1, Acked: true}, 8); err != nil {
			return nil, err
		}
	}
	if spec.blob {
		if err := create(broker.TopicConfig{Name: "blob", Shards: 1, Acked: true, MaxPayload: 1024}, 1024); err != nil {
			return nil, err
		}
	}
	if spec.delay {
		if err := create(broker.TopicConfig{Name: "delay", Shards: 1, Kind: broker.KindDelay}, 8); err != nil {
			return nil, err
		}
		im.deadline = make([]uint64, spec.msgs)
	}
	var c *broker.Consumer
	if len(im.acked) > 0 {
		region, err := b.CreateAckGroup(0, broker.AckGroupConfig{})
		if err != nil {
			return nil, err
		}
		g, err := b.NewGroupAcked(im.acked, 1, broker.LeaseConfig{Region: region})
		if err != nil {
			return nil, err
		}
		c = g.Consumer(0)
	}

	ledgers := map[string]*ledger{}
	for name := range topics {
		ledgers[name] = newLedger(spec.msgs, out, "crash history "+name)
	}
	acked := map[string][]bool{}
	for _, name := range im.acked {
		acked[name] = make([]bool, spec.msgs)
	}
	deliveredDelay := make([]bool, spec.msgs)
	published := map[string]int{}
	ackedN := 0
	batches := map[string][][]byte{}
	for name, codec := range im.codecs {
		batches[name] = codec.newBatch()
	}
	keys := make([]uint64, batch)
	start := now()
	for id, tick := 0, uint64(1); id < spec.msgs; id, tick = id+batch, tick+1 {
		for _, name := range im.acked {
			ps := batches[name]
			for k := range ps {
				im.codecs[name].put(ps[k], id+k)
			}
			t0, f0 := now(), hs.StatsOf(prod).Fences
			err := counts.call(topics[name].PublishBatch(prod, ps))
			if tr != nil {
				tr.record(rolePublish, "publish_batch", t0, now(), int64(tick), int64(tick), err == nil, hs.StatsOf(prod).Fences-f0)
			}
			if err != nil {
				return nil, fmt.Errorf("crash history: %w", err)
			}
			published[name] += batch
		}
		for c != nil && len(im.acked)*(id+batch)-ackedN > len(im.acked)*spec.backlog {
			t0, f0 := now(), hs.StatsOf(cons).Fences
			ms := counts.poll(c.PollBatch(cons, batch))
			if len(ms) == 0 {
				break
			}
			n, err := c.Ack(cons)
			counts.call(err)
			if tr != nil {
				tr.record(roleDeliver, "poll_batch+ack", t0, now(), int64(tick), int64(tick), true, hs.StatsOf(cons).Fences-f0)
			}
			if err != nil {
				return nil, fmt.Errorf("crash history: %w", err)
			}
			ackedN += n
			for _, m := range ms {
				i := im.codecs[m.Topic].id(m.Payload)
				if ledgers[m.Topic].deliver(i) {
					acked[m.Topic][i] = true
				}
			}
		}
		if spec.delay {
			ps := batches["delay"]
			for k := range ps {
				im.codecs["delay"].put(ps[k], id+k)
				keys[k] = tick + 1 + uint64(rng.Intn(delaySpan))
				im.deadline[id+k] = keys[k]
			}
			t0, f0 := now(), hs.StatsOf(prod).Fences
			err := counts.call(topics["delay"].PublishAtBatch(prod, ps, keys))
			if tr != nil {
				tr.record(rolePublish, "publish_at_batch", t0, now(), int64(tick), int64(tick), err == nil, hs.StatsOf(prod).Fences-f0)
			}
			if err != nil {
				return nil, fmt.Errorf("crash history: %w", err)
			}
			published["delay"] += batch
			t0, f0 = now(), hs.StatsOf(cons).Fences
			got, err := topics["delay"].DequeueReadyBatch(cons, tick, delayDequeue)
			counts.call(err)
			if tr != nil {
				tr.record(roleDeliver, "dequeue_ready_batch", t0, now(), int64(tick), int64(tick), len(got) > 0, hs.StatsOf(cons).Fences-f0)
			}
			for _, p := range got {
				i := im.codecs["delay"].id(p)
				if ledgers["delay"].deliver(i) {
					if im.deadline[i] > tick {
						out.violate("crash history: delay message %d due at %d delivered at tick %d", i, im.deadline[i], tick)
					}
					deliveredDelay[i] = true
				}
			}
		}
	}
	if tr != nil {
		tr.wall[rolePublish] += now() - start
		tr.wall[roleDeliver] += now() - start
	}
	// The crash lands with one delivered-but-unacknowledged window in
	// flight: its lease is durable, so recovery must redeliver it.
	if c != nil {
		counts.poll(c.PollBatch(cons, batch))
	}
	for _, name := range im.acked {
		for i := 0; i < published[name]; i++ {
			if !acked[name][i] {
				im.expect[name] = append(im.expect[name], i)
			}
		}
	}
	if spec.delay {
		for i := 0; i < published["delay"]; i++ {
			if !deliveredDelay[i] {
				im.expect["delay"] = append(im.expect["delay"], i)
			}
		}
		if d := topics["delay"].HeapDepth(); d != len(im.expect["delay"]) {
			out.violate("crash history: delay depth %d, want %d", d, len(im.expect["delay"]))
		}
	}
	for _, n := range published {
		im.published += n
	}
	im.footprint = hs.Heap(0).RawMem(brkAddr) - emptyBrk
	hs.CrashNow()
	hs.FinalizeCrash(rng)
	return im, nil
}

// recovery is one Restart + Open of an image, timed.
type recovery struct {
	restartNs, openNs int64
	// firstNs runs from the start of Open to the return of the first
	// PollBatch that delivered a message (zero when not polled).
	firstNs int64
	// firstMsgs is how many messages that first poll delivered.
	firstMsgs int
	b         *broker.Broker
}

// recoverOnce restarts the image and opens it. With poll it also binds
// the acked group and times the first delivery; that poll leaves its
// window unacknowledged, so the next recovery finds the same backlog.
func (im *image) recoverOnce(out *outcome, counts *ops, tr *tracer, iter int64, poll bool) (recovery, error) {
	r0 := now()
	im.hs.Restart()
	r1 := now()
	f0 := im.hs.StatsOf(0).Fences
	b, err := broker.Open(im.hs, broker.Options{})
	counts.call(err)
	r2 := now()
	if err != nil {
		return recovery{}, fmt.Errorf("recover: %w", err)
	}
	if tr != nil {
		tr.record(roleOpen, "open", r1, r2, iter, iter, true, im.hs.StatsOf(0).Fences-f0)
	}
	rec := recovery{restartNs: r1 - r0, openNs: r2 - r1, b: b}
	if im.spec.delay {
		if d := b.Topic("delay").HeapDepth(); d != len(im.expect["delay"]) {
			out.violate("recover: delay depth %d after recovery, want %d", d, len(im.expect["delay"]))
		}
	}
	if poll && len(im.acked) > 0 {
		g, err := b.NewGroupAcked(im.acked, 1, broker.LeaseConfig{Region: 0})
		if err != nil {
			return recovery{}, fmt.Errorf("recover: %w", err)
		}
		ms := counts.poll(g.Consumer(0).PollBatch(im.consTid(), batch))
		rec.firstNs = now() - r1
		rec.firstMsgs = len(ms)
		if len(ms) == 0 {
			out.violate("recover: the first poll after recovery delivered nothing; backlog is %d", im.live())
		}
		if tr != nil {
			tr.child("poll_batch", r2, r1+rec.firstNs, iter, iter)
		}
	}
	return rec, nil
}

// audit recovers the image once more and drains it, checking that
// exactly the backlog at the crash is redelivered, once each, in order.
func (im *image) audit(out *outcome, counts *ops) error {
	rec, err := im.recoverOnce(out, counts, nil, -1, false)
	if err != nil {
		return err
	}
	got := map[string][]int{}
	tid := im.consTid()
	if len(im.acked) > 0 {
		g, err := rec.b.NewGroupAcked(im.acked, 1, broker.LeaseConfig{Region: 0})
		if err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		c := g.Consumer(0)
		for limit := im.live() + batch; limit > 0; limit-- {
			ms := counts.poll(c.PollBatch(tid, batch))
			if len(ms) == 0 {
				break
			}
			if _, err := c.Ack(tid); counts.call(err) != nil {
				return fmt.Errorf("audit: %w", err)
			}
			for _, m := range ms {
				got[m.Topic] = append(got[m.Topic], im.codecs[m.Topic].id(m.Payload))
			}
		}
	}
	if im.spec.delay {
		t := rec.b.Topic("delay")
		var last uint64
		for {
			ps, err := t.DequeueReadyBatch(tid, ^uint64(0), 64)
			if counts.call(err) != nil {
				return fmt.Errorf("audit: %w", err)
			}
			if len(ps) == 0 {
				break
			}
			for _, p := range ps {
				id := im.codecs["delay"].id(p)
				if id >= 0 && id < len(im.deadline) {
					if k := im.deadline[id]; k < last {
						out.violate("recover: delay key order broken after recovery: %d after %d", k, last)
					} else {
						last = k
					}
				}
				got["delay"] = append(got["delay"], id)
			}
		}
		// The heap pops in key order; compare as sets below.
		slices.Sort(got["delay"])
	}
	for name, want := range im.expect {
		if !slices.Equal(got[name], want) {
			out.violate("recover: topic %s redelivered %d messages (first %v), want exactly the %d unacknowledged at the crash (first %v)",
				name, len(got[name]), head(got[name]), len(want), head(want))
		}
	}
	return nil
}

// recoveryResult summarises the recoveries of one image.
type recoveryResult struct {
	openMs, restartMs float64
	footprintMiB      float64
	live              int
}

func (r recoveryResult) emit(out *outcome) {
	out.set("recover.footprint_mb", "MiB", r.footprintMiB)
	out.set("recover.live_msgs", "count", float64(r.live))
	out.set("recover.restart_ms", "ms", r.restartMs)
	out.set("recover.ms_per_footprint_mb", "ms/MiB", r.openMs/r.footprintMiB)
}

// Recover workload inputs: a three-topic broker whose history leaves
// about 16 MB of footprint (the 1 KiB topic's cross-thread leak at
// this commit) and a backlog on every topic.
var recoverSpec = imageSpec{fifo: true, blob: true, delay: true, msgs: 12 << 10, backlog: 2048, heapBytes: 48 << 20}

// recoverRound is how many untraced recoveries one round of the
// recover workload's measured phase summarises.
const recoverRound = 50

// setupReps is how many times recover builds its crash image; setup_s
// is the median.
const setupReps = 3

// runRecover builds the crash image, then times Restart + Open +
// first delivery over and over for the measured phase.
func runRecover(cfg runConfig) (*outcome, error) {
	out := &outcome{}
	var counts ops
	var setups []float64
	var im *image
	tr := &tracer{}
	for i := 0; i < setupReps; i++ {
		im = nil
		runtime.GC()
		t0 := now()
		var htr *tracer
		if cfg.trace && i == setupReps-1 {
			htr = tr
		}
		var err error
		im, err = buildImage(recoverSpec, cfg.seed, out, &counts, htr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, float64(now()-t0)/1e9)
	}
	// Untraced recoveries are summarised per round of recoverRound:
	// the p50 and p90 of its first deliveries.
	var opens, firsts, restarts, tracedOpens []float64
	var roundP50s, roundP90s []float64
	var stats pmem.Stats
	var mallocs uint64
	var polled, tracedRecoveries int64
	start := now()
	for i := 0; ; i++ {
		traced := cfg.trace && i%2 == 1
		var rtr *tracer
		var from counters
		if traced {
			rtr = &tracer{}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			from = counters{stats: im.hs.TotalStats(), mallocs: ms.Mallocs}
		}
		r0 := now()
		rec, err := im.recoverOnce(out, &counts, rtr, int64(i), true)
		if err != nil {
			return nil, err
		}
		if traced {
			rtr.wall[roleOpen] += now() - r0
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			stats.Add(im.hs.TotalStats().Sub(from.stats))
			mallocs += ms.Mallocs - from.mallocs
			tr.merge(rtr)
			tracedOpens = append(tracedOpens, float64(rec.openNs)/1e6)
			tracedRecoveries++
			polled += int64(rec.firstMsgs)
		} else {
			opens = append(opens, float64(rec.openNs)/1e6)
			firsts = append(firsts, float64(rec.firstNs)/1e3)
			restarts = append(restarts, float64(rec.restartNs)/1e6)
			if len(opens)%recoverRound == 0 {
				rfirsts := firsts[len(firsts)-recoverRound:]
				roundP50s = append(roundP50s, median(rfirsts))
				roundP90s = append(roundP90s, quantile(append([]float64(nil), rfirsts...), 0.9))
			}
		}
		if float64(now()-start)/1e9 >= cfg.seconds && len(roundP50s) > 0 && (!cfg.trace || len(tracedOpens) > 0) {
			break
		}
	}
	live := im.live()
	res := recoveryResult{
		openMs:       highDecile(opens),
		restartMs:    median(restarts),
		footprintMiB: float64(im.footprint) / (1 << 20),
		live:         live,
	}
	out.note("recover: %d untraced and %d traced recoveries of a %.2f MiB image with %d live messages; open ms %s; first delivery us %s",
		len(opens), len(tracedOpens), res.footprintMiB, live, spread(opens), spread(firsts))
	if err := im.audit(out, &counts); err != nil {
		return nil, err
	}
	out.attempted, out.failed = counts.attempted, counts.failed
	if !cfg.trace {
		out.set("msgs_per_s", "1/s", float64(live)/(res.openMs/1e3))
		out.set("e2e_p50_us", "us", highDecile(roundP50s))
		out.set("e2e_p90_us", "us", highQuartile(roundP90s))
		out.set("nvram_bytes_per_msg", "B", float64(im.footprint)/float64(im.published))
		out.set("recover_ms", "ms", res.openMs)
		out.set("setup_s", "s", median(setups))
		return out, nil
	}
	per := func(v uint64) float64 { return float64(v) / float64(int64(live)*tracedRecoveries) }
	out.set("pmem.fences_per_msg", "count", per(stats.Fences))
	out.set("pmem.ntstores_per_msg", "count", per(stats.NTStores))
	out.set("pmem.flushes_per_msg", "count", per(stats.Flushes))
	out.set("pmem.pflush_per_msg", "count", per(stats.PostFlushAccesses))
	out.set("broker.allocs_per_msg", "count", per(mallocs))
	out.set("broker.msgs_per_poll", "count", float64(polled)/float64(tracedRecoveries))
	out.set("broker.producer_blocked_share", "ratio", 0)
	out.set("trace.overhead_share", "ratio", highDecile(tracedOpens)/res.openMs-1)
	res.emit(out)
	if err := tr.emit(out); err != nil {
		return nil, err
	}
	if err := runProbes(cfg, true, out); err != nil {
		return nil, err
	}
	return out, tr.write(cfg.spans)
}

// head returns at most the first four elements, for messages.
func head(xs []int) []int {
	if len(xs) > 4 {
		return xs[:4]
	}
	return xs
}
