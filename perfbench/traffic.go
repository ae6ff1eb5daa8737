package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/broker"
	"repro/internal/pmem"
)

const (
	// threads is the broker's thread-id bound: tid 0 publishes (and, on
	// the one-goroutine workloads, also consumes), tid 1 consumes on
	// split-1k and in the crash histories.
	threads = 2
	batch   = 8
	// brkAddr is where pmem keeps a heap's persistent break: the end of
	// everything ever allocated on it.
	brkAddr = pmem.Addr(8)
)

// traffic describes one closed-loop workload. The measured phase is a
// sequence of rounds; each round resets the heap, opens a fresh
// broker, warms it up with warm messages and then times msgs messages.
// Round 0 is a warm-up round and is not measured.
type traffic struct {
	heapBytes  int64
	warm, msgs int
	round      func(*roundCtx) error
	// image is the crash image recover_ms is measured on.
	image imageSpec
	// splitTids selects the ssmem probe whose allocs and retires run
	// on different thread ids, as this workload's do.
	splitTids bool
}

// roundCtx carries one round's inputs and collects its results.
type roundCtx struct {
	hs    *pmem.HeapSet
	seed  int64
	round int
	warm  int
	msgs  int
	out   *outcome
	ops   *ops
	// tr is nil in untraced rounds; prodTr is the producer goroutine's
	// tracer on split-1k.
	tr, prodTr *tracer

	// Results.
	timedStart int64   // when the timed part began (set-up ends here)
	timedNs    int64   // length of the timed part
	delivered  int64   // messages delivered in the timed part
	total      int64   // messages delivered in the whole round
	sojourn    []int64 // per-message sojourn of the timed part, ns
	emptyBrk   uint64  // heap break of the empty heap
	brk        uint64  // heap break after the round
	stats      pmem.Stats
	mallocs    uint64
	polls      int64 // delivering calls attempted in the timed part
	blockedNs  int64 // producer time spent waiting for credit
	producerNs int64 // producer time in the timed part
}

// rng returns the round's input generator; the same seed and round
// always give the same inputs.
func (c *roundCtx) rng() *rand.Rand {
	return newRand(c.seed, int64(c.round))
}

// counters snapshots what the traced run attributes to the timed part.
type counters struct {
	stats   pmem.Stats
	mallocs uint64
}

// snap reads the counters of tid, which the calling goroutine owns
// (pmem counters are exact only when read by their owner or across a
// quiescent point).
func (c *roundCtx) snap(tid int) counters {
	if c.tr == nil {
		return counters{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{stats: c.hs.StatsOf(tid), mallocs: ms.Mallocs}
}

// closeTimed ends the timed part once every goroutine has stopped.
// from holds, per tid, the counters when that tid's timed part began.
func (c *roundCtx) closeTimed(from counters, end int64) {
	c.timedNs = end - c.timedStart
	c.brk = c.hs.Heap(0).RawMem(brkAddr)
	if c.tr == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.stats = c.hs.TotalStats().Sub(from.stats)
	c.mallocs = ms.Mallocs - from.mallocs
}

// fences reads tid's fence count; traced calls bracket with it.
func (c *roundCtx) fences(tid int) uint64 {
	return c.hs.StatsOf(tid).Fences
}

// openAcked opens a fresh broker with one acked single-shard topic and
// a one-member acked group over it.
func openAcked(hs *pmem.HeapSet, name string, maxPayload int) (*broker.Topic, *broker.Consumer, error) {
	b, err := broker.Open(hs, broker.Options{Threads: threads})
	if err != nil {
		return nil, nil, err
	}
	t, err := b.CreateTopic(0, broker.TopicConfig{Name: name, Shards: 1, Acked: true, MaxPayload: maxPayload})
	if err != nil {
		return nil, nil, err
	}
	region, err := b.CreateAckGroup(0, broker.AckGroupConfig{})
	if err != nil {
		return nil, nil, err
	}
	g, err := b.NewGroupAcked([]string{name}, 1, broker.LeaseConfig{Region: region})
	if err != nil {
		return nil, nil, err
	}
	return t, g.Consumer(0), nil
}

// idCodec turns message ids into payload bytes and back. The first 8
// bytes carry the id under a seeded mask; the rest is a seeded fill
// the consumer checks byte for byte.
type idCodec struct {
	mask uint64
	fill []byte
}

func newCodec(rng *rand.Rand, size int) idCodec {
	c := idCodec{mask: rng.Uint64(), fill: make([]byte, size)}
	rng.Read(c.fill)
	return c
}

func (c idCodec) put(p []byte, id int) {
	binary.LittleEndian.PutUint64(p, uint64(id)^c.mask)
}

// id decodes p, or returns -1 if p is not a payload this codec wrote.
func (c idCodec) id(p []byte) int {
	if len(p) != len(c.fill) || !bytes.Equal(p[8:], c.fill[8:]) {
		return -1
	}
	return int(binary.LittleEndian.Uint64(p) ^ c.mask)
}

// newBatch returns batch payload buffers of size bytes, pre-filled.
func (c idCodec) newBatch() [][]byte {
	ps := make([][]byte, batch)
	for i := range ps {
		ps[i] = append([]byte(nil), c.fill...)
	}
	return ps
}

// ledger audits exactly-once delivery of ids [0, n).
type ledger struct {
	seen []bool
	out  *outcome
	what string
}

func newLedger(n int, out *outcome, what string) *ledger {
	return &ledger{seen: make([]bool, n), out: out, what: what}
}

func (l *ledger) deliver(id int) bool {
	if id < 0 || id >= len(l.seen) {
		l.out.violate("%s: delivered a message that was never published (decoded id %d)", l.what, id)
		return false
	}
	if l.seen[id] {
		l.out.violate("%s: message %d delivered twice", l.what, id)
		return false
	}
	l.seen[id] = true
	return true
}

// missing checks that every id below n was delivered.
func (l *ledger) missing(n int) {
	for id := 0; id < n; id++ {
		if !l.seen[id] {
			l.out.violate("%s: message %d published but never delivered", l.what, id)
			return
		}
	}
}

// pairsRound: one goroutine, PublishBatch(8) → PollBatch(8) → Ack on
// an acked 8-byte topic, the same tid on both sides.
func pairsRound(c *roundCtx) error {
	t, cons, err := openAcked(c.hs, "pairs", 0)
	if err != nil {
		return err
	}
	codec := newCodec(c.rng(), 8)
	ps := codec.newBatch()
	n := c.warm + c.msgs
	led := newLedger(n, c.out, "pairs-8b")
	var from counters
	for id := 0; id < n; id += batch {
		if id == c.warm {
			from = c.snap(0)
			c.timedStart = now()
		}
		for k := range ps {
			codec.put(ps[k], id+k)
		}
		iter := int64(id / batch)
		t0 := now()
		var f0 uint64
		if c.tr != nil {
			f0 = c.fences(0)
		}
		err := c.ops.call(t.PublishBatch(0, ps))
		t1 := now()
		var f1 uint64
		if c.tr != nil {
			f1 = c.fences(0)
			c.tr.record(rolePublish, "publish_batch", t0, t1, iter, iter, err == nil, f1-f0)
		}
		if err != nil {
			continue
		}
		ms := c.ops.poll(cons.PollBatch(0, batch))
		t2 := now()
		_, err = cons.Ack(0)
		c.ops.call(err)
		t3 := now()
		if c.tr != nil {
			f3 := c.fences(0)
			c.tr.record(roleDeliver, "poll_batch+ack", t1, t3, iter, iter, len(ms) > 0, f3-f1)
			c.tr.child("poll_batch", t1, t2, iter, iter)
			c.tr.child("ack", t2, t3, iter, iter)
		}
		if len(ms) != batch {
			c.out.violate("pairs-8b: poll after publishing %d returned %d messages", batch, len(ms))
		}
		for k, m := range ms {
			got := codec.id(m.Payload)
			if got != id+k {
				c.out.violate("pairs-8b: FIFO order broken: got id %d, want %d", got, id+k)
			}
			led.deliver(got)
		}
		if id >= c.warm && err == nil {
			c.polls++
			c.delivered += int64(len(ms))
			for range ms {
				c.sojourn = append(c.sojourn, t3-t0)
			}
		}
		c.total += int64(len(ms))
	}
	end := now()
	if c.tr != nil {
		c.tr.wall[rolePublish] += end - c.timedStart
		c.tr.wall[roleDeliver] += end - c.timedStart
	}
	c.closeTimed(from, end)
	led.missing(n)
	return nil
}

// splitCredit bounds the published-but-unacknowledged messages on
// split-1k: 8 batches, enough to keep the consumer fed while the
// producer writes the next batch, small enough that sojourn times
// broker work rather than a standing backlog.
const splitCredit = 8 * batch

// splitRound: a producer goroutine (tid 0) publishes 1 KiB payloads in
// batches of 8 to an acked topic; the consumer (tid 1, this goroutine)
// runs PollBatch(8) + Ack. The producer waits while splitCredit
// messages are unacknowledged.
func splitRound(c *roundCtx) error {
	t, cons, err := openAcked(c.hs, "split", 1024)
	if err != nil {
		return err
	}
	codec := newCodec(c.rng(), 1024)
	n := c.warm + c.msgs
	led := newLedger(n, c.out, "split-1k")
	// pubStart[id%len] is the start of the publish call that carried
	// id; the credit window keeps live ids within the ring.
	pubStart := make([]atomic.Int64, 2*splitCredit)
	var acked, publishedOK atomic.Int64
	var producerDone atomic.Bool
	var prodOps ops
	var prodFrom pmem.Stats // the producer's counters when its timed part began
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer producerDone.Store(true)
		ps := codec.newBatch()
		var timedFrom int64
		for id := 0; id < n; id += batch {
			if id == c.warm {
				timedFrom = now()
				if c.prodTr != nil {
					prodFrom = c.hs.StatsOf(0)
				}
			}
			if int64(id+batch)-acked.Load() > splitCredit {
				w0 := now()
				for int64(id+batch)-acked.Load() > splitCredit {
					runtime.Gosched()
				}
				if id >= c.warm {
					c.blockedNs += now() - w0
				}
			}
			for k := range ps {
				codec.put(ps[k], id+k)
			}
			t0 := now()
			for k := 0; k < batch; k++ {
				pubStart[(id+k)%len(pubStart)].Store(t0)
			}
			var f0 uint64
			if c.prodTr != nil {
				f0 = c.fences(0)
			}
			err := prodOps.call(t.PublishBatch(0, ps))
			if c.prodTr != nil && id >= c.warm {
				c.prodTr.record(rolePublish, "publish_batch", t0, now(), int64(id/batch), int64(id/batch), err == nil, c.fences(0)-f0)
			}
			if err == nil {
				publishedOK.Add(batch)
			}
		}
		c.producerNs = now() - timedFrom
		if c.prodTr != nil {
			c.prodTr.wall[rolePublish] += c.producerNs
		}
	}()

	var from counters
	next := 0 // the id FIFO order says comes next
	for done := int64(0); done < int64(n); {
		if producerDone.Load() && done >= publishedOK.Load() {
			break // every successfully published message is acknowledged
		}
		if done >= int64(c.warm) && c.timedStart == 0 {
			from = c.snap(1)
			c.timedStart = now()
		}
		timed := c.timedStart != 0
		t1 := now()
		var f1 uint64
		if c.tr != nil {
			f1 = c.fences(1)
		}
		ms := c.ops.poll(cons.PollBatch(1, batch))
		if timed {
			c.polls++
		}
		if len(ms) == 0 {
			if c.tr != nil && timed {
				c.tr.record(roleDeliver, "poll_batch", t1, now(), -1, -1, false, 0)
			}
			continue
		}
		t2 := now()
		_, err := cons.Ack(1)
		c.ops.call(err)
		t3 := now()
		first := codec.id(ms[0].Payload)
		if c.tr != nil && timed {
			f3 := c.fences(1)
			req := int64(first / batch)
			c.tr.record(roleDeliver, "poll_batch+ack", t1, t3, req, req, true, f3-f1)
			c.tr.child("poll_batch", t1, t2, req, req)
			c.tr.child("ack", t2, t3, req, req)
		}
		for _, m := range ms {
			id := codec.id(m.Payload)
			if id != next {
				c.out.violate("split-1k: FIFO order broken or payload corrupted: got id %d, want %d", id, next)
			}
			if !led.deliver(id) {
				continue
			}
			next = id + 1
			if timed && err == nil {
				c.sojourn = append(c.sojourn, t3-pubStart[id%len(pubStart)].Load())
			}
		}
		if err == nil {
			done += int64(len(ms))
			acked.Store(done)
		}
		if timed {
			c.delivered += int64(len(ms))
		}
		c.total += int64(len(ms))
	}
	end := now()
	wg.Wait()
	c.ops.attempted += prodOps.attempted
	c.ops.failed += prodOps.failed
	if c.timedStart == 0 {
		return errors.New("split-1k: the warm-up never completed")
	}
	if c.tr != nil {
		c.tr.wall[roleDeliver] += end - c.timedStart
		from.stats.Add(prodFrom)
	}
	c.closeTimed(from, end)
	led.missing(int(publishedOK.Load()))
	return nil
}

// Delay-heap inputs: every tick publishes one batch due 1..delaySpan
// ticks later and dequeues at most delayDequeue ready messages, twice
// the arrival rate, so the ready backlog stays short and the standing
// depth (about batch*delaySpan/2) stays well below dheap's 1024-entry
// arena per publishing thread.
const (
	delaySpan    = 96
	delayDequeue = 2 * batch
)

// delayRound: one goroutine on one KindDelay topic under a logical
// clock that advances one tick per iteration: PublishAtBatch(8,
// now+uniform deadlines) → DequeueReadyBatch(now, 16).
func delayRound(c *roundCtx) error {
	b, err := broker.Open(c.hs, broker.Options{Threads: threads})
	if err != nil {
		return err
	}
	t, err := b.CreateTopic(0, broker.TopicConfig{Name: "delay", Shards: 1, Kind: broker.KindDelay})
	if err != nil {
		return err
	}
	rng := c.rng()
	codec := newCodec(rng, 8)
	ps := codec.newBatch()
	// Ids are issued 8 per tick, so a generous bound on the ids a round
	// publishes is the delivery target plus the standing depth.
	capIDs := c.warm + c.msgs + batch*(delaySpan+delayDequeue) + 2*batch
	deadline := make([]uint64, capIDs)
	led := newLedger(capIDs, c.out, "delay-heap")
	// tickStart[d%len] is when tick d began: a message due at d falls
	// due then.
	tickStart := make([]int64, 4*delaySpan)
	keys := make([]uint64, batch)
	var from counters
	var lastKey uint64
	published := 0
	target := int64(c.warm + c.msgs)
	for tick := uint64(1); c.total < target; tick++ {
		if tick > uint64(4*capIDs/batch) {
			return fmt.Errorf("delay-heap: %d of %d messages delivered after %d ticks", c.total, target, tick)
		}
		timed := c.timedStart != 0
		if !timed && c.total >= int64(c.warm) {
			from = c.snap(0)
			c.timedStart = now()
			timed = true
		}
		t0 := now()
		tickStart[tick%uint64(len(tickStart))] = t0
		if published+batch <= capIDs {
			for k := range ps {
				id := published + k
				codec.put(ps[k], id)
				keys[k] = tick + 1 + uint64(rng.Intn(delaySpan))
				deadline[id] = keys[k]
			}
			var f0 uint64
			if c.tr != nil {
				f0 = c.fences(0)
			}
			err := c.ops.call(t.PublishAtBatch(0, ps, keys))
			if c.tr != nil && timed {
				c.tr.record(rolePublish, "publish_at_batch", t0, now(), int64(tick), int64(tick), err == nil, c.fences(0)-f0)
			}
			if err == nil {
				published += batch
			}
		}
		t1 := now()
		var f1 uint64
		if c.tr != nil {
			f1 = c.fences(0)
		}
		got, err := t.DequeueReadyBatch(0, tick, delayDequeue)
		c.ops.call(err)
		t2 := now()
		if c.tr != nil && timed {
			c.tr.record(roleDeliver, "dequeue_ready_batch", t1, t2, int64(tick), int64(tick), len(got) > 0, c.fences(0)-f1)
		}
		if timed {
			c.polls++
		}
		for _, p := range got {
			id := codec.id(p)
			if !led.deliver(id) {
				continue
			}
			key := deadline[id]
			if key > tick {
				c.out.violate("delay-heap: message %d due at tick %d delivered early at tick %d", id, key, tick)
			}
			if key < lastKey {
				c.out.violate("delay-heap: key order broken: %d delivered after %d", key, lastKey)
			}
			lastKey = key
			if timed {
				c.sojourn = append(c.sojourn, t2-tickStart[key%uint64(len(tickStart))])
			}
		}
		if timed {
			c.delivered += int64(len(got))
		}
		c.total += int64(len(got))
	}
	end := now()
	if c.tr != nil {
		c.tr.wall[rolePublish] += end - c.timedStart
		c.tr.wall[roleDeliver] += end - c.timedStart
	}
	c.closeTimed(from, end)
	if depth := t.HeapDepth(); int64(depth) != int64(published)-c.total {
		c.out.violate("delay-heap: depth %d after the round, want published-delivered = %d", depth, int64(published)-c.total)
	}
	return nil
}

// recoveriesPerRound is how many recoveries of the crash image follow
// each measured round. Spreading them over the whole measured phase,
// rather than bunching them at its end, lets recover_ms see the same
// mix of machine phases as the rounds.
const recoveriesPerRound = 2

// runTraffic builds w's crash image, then runs rounds of w, each
// followed by recoveriesPerRound recoveries of the image, until the
// measured phase has lasted cfg.seconds. Traced, it then runs the layer
// probes.
func runTraffic(cfg runConfig, w traffic) (*outcome, error) {
	out := &outcome{}
	var counts ops
	t0 := now()
	hs := pmem.NewSet(1, pmem.Config{Bytes: w.heapBytes, MaxThreads: threads, Latency: pmem.DefaultLatency()})
	im, err := buildImage(w.image, cfg.seed, out, &counts, nil)
	if err != nil {
		return nil, err
	}
	// Round 0's set-up also pays for the heap and the crash image.
	firstNs := now() - t0

	var setups, rates, tracedRates, p50s, p90s, nvram, opens, restarts []float64
	var tracedMsgs int64
	tr := &tracer{}
	var stats pmem.Stats
	var mallocs uint64
	var polls, blockedNs, producerNs, samples int64
	sojourn := make([]int64, 0, w.msgs)
	var measuredStart int64
	for r := 0; ; r++ {
		rs := now()
		if r > 0 {
			hs.Restart()
		}
		c := &roundCtx{hs: hs, seed: cfg.seed, round: r, warm: w.warm, msgs: w.msgs, out: out, ops: &counts, sojourn: sojourn[:0]}
		c.emptyBrk = hs.Heap(0).RawMem(brkAddr)
		traced := cfg.trace && r%2 == 1
		if traced {
			c.tr, c.prodTr = &tracer{}, &tracer{}
		}
		if err := w.round(c); err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		setup := c.timedStart - rs
		if r == 0 {
			setup += firstNs
		}
		setups = append(setups, float64(setup)/1e9)
		sojourn = c.sojourn
		if r == 0 {
			measuredStart = now()
			continue
		}
		if c.delivered == 0 || c.timedNs <= 0 {
			return nil, fmt.Errorf("round %d delivered nothing in its timed part", r)
		}
		rate := float64(c.delivered) / (float64(c.timedNs) / 1e9)
		if traced {
			tracedRates = append(tracedRates, rate)
			tr.merge(c.tr)
			tr.merge(c.prodTr)
			stats.Add(c.stats)
			mallocs += c.mallocs
			tracedMsgs += c.delivered
			polls += c.polls
			blockedNs += c.blockedNs
			producerNs += c.producerNs
		} else {
			rates = append(rates, rate)
			p50s = append(p50s, nsQuantile(c.sojourn, 0.5)/1e3)
			p90s = append(p90s, nsQuantile(c.sojourn, 0.9)/1e3)
			nvram = append(nvram, float64(c.brk-c.emptyBrk)/float64(c.total))
			samples += int64(len(c.sojourn))
		}

		// Collect the round's garbage now, outside every timed part,
		// so that no collection runs under the Opens below or the next
		// round.
		runtime.GC()
		for i := 0; i < recoveriesPerRound; i++ {
			var rtr *tracer
			if cfg.trace {
				rtr = tr
			}
			r0 := now()
			rec, err := im.recoverOnce(out, &counts, rtr, int64(r), false)
			if err != nil {
				return nil, err
			}
			if rtr != nil {
				rtr.wall[roleOpen] += now() - r0
			}
			opens = append(opens, float64(rec.openNs)/1e6)
			restarts = append(restarts, float64(rec.restartNs)/1e6)
		}
		if float64(now()-measuredStart)/1e9 >= cfg.seconds && len(rates) > 0 && (!cfg.trace || len(tracedRates) > 0) {
			break
		}
	}
	rec := recoveryResult{
		openMs:       highQuartile(opens),
		restartMs:    median(restarts),
		footprintMiB: float64(im.footprint) / (1 << 20),
		live:         im.live(),
	}
	out.note("rounds: %d untraced, %d traced; %d sojourn samples; untraced round msgs_per_s %s",
		len(rates), len(tracedRates), samples, spread(rates))
	out.note("recoveries: %d Opens of a %.2f MiB image with %d live messages: open ms %s",
		len(opens), rec.footprintMiB, rec.live, spread(opens))
	if err := im.audit(out, &counts); err != nil {
		return nil, err
	}
	out.attempted, out.failed = counts.attempted, counts.failed
	if !cfg.trace {
		out.set("msgs_per_s", "1/s", lowQuartile(rates))
		out.set("e2e_p50_us", "us", highQuartile(p50s))
		out.set("e2e_p90_us", "us", highQuartile(p90s))
		out.set("nvram_bytes_per_msg", "B", median(nvram))
		out.set("recover_ms", "ms", rec.openMs)
		out.set("setup_s", "s", median(setups))
		return out, nil
	}
	per := func(v uint64) float64 { return float64(v) / float64(tracedMsgs) }
	out.set("pmem.fences_per_msg", "count", per(stats.Fences))
	out.set("pmem.ntstores_per_msg", "count", per(stats.NTStores))
	out.set("pmem.flushes_per_msg", "count", per(stats.Flushes))
	out.set("pmem.pflush_per_msg", "count", per(stats.PostFlushAccesses))
	out.set("broker.allocs_per_msg", "count", per(mallocs))
	out.set("broker.msgs_per_poll", "count", float64(tracedMsgs)/float64(polls))
	blocked := 0.0
	if producerNs > 0 {
		blocked = float64(blockedNs) / float64(producerNs)
	}
	out.set("broker.producer_blocked_share", "ratio", blocked)
	// Relative time per message, traced over untraced.
	out.set("trace.overhead_share", "ratio", lowQuartile(rates)/lowQuartile(tracedRates)-1)
	rec.emit(out)
	if err := tr.emit(out); err != nil {
		return nil, err
	}
	if err := runProbes(cfg, w.splitTids, out); err != nil {
		return nil, err
	}
	return out, tr.write(cfg.spans)
}

// spread renders min/median/max of per-round values.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	s := append([]float64(nil), xs...)
	return fmt.Sprintf("min %.4g median %.4g max %.4g", quantile(s, 0), quantile(s, 0.5), quantile(s, 1))
}

func runPairs(cfg runConfig) (*outcome, error) {
	return runTraffic(cfg, traffic{
		heapBytes: 16 << 20,
		warm:      8192, msgs: 1 << 18,
		round: pairsRound,
		image: imageSpec{fifo: true, sameTid: true, msgs: 1 << 15, backlog: 1024, heapBytes: 16 << 20},
	})
}

func runSplit(cfg runConfig) (*outcome, error) {
	return runTraffic(cfg, traffic{
		// At this commit every 1 KiB message leaves about 1.3 KB of
		// NVRAM behind, so a round fills 24 MiB; the heap leaves room
		// for twice that. Small rounds keep the heap resets cheap.
		heapBytes: 48 << 20,
		warm:      2048, msgs: 1 << 14,
		round:     splitRound,
		image:     imageSpec{blob: true, msgs: 1 << 13, backlog: 512, heapBytes: 32 << 20},
		splitTids: true,
	})
}

func runDelay(cfg runConfig) (*outcome, error) {
	return runTraffic(cfg, traffic{
		heapBytes: 16 << 20,
		warm:      8192, msgs: 1 << 18,
		round: delayRound,
		image: imageSpec{delay: true, msgs: 1 << 15, heapBytes: 16 << 20},
	})
}

// poll counts one delivering call; polls report no errors, and an
// empty poll is an attempt that delivered nothing, not a failure.
func (c *ops) poll(ms []broker.Message) []broker.Message {
	c.attempted++
	return ms
}

// newRand returns the generator for one input stream of a seed.
func newRand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}
