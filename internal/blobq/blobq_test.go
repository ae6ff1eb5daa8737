package blobq

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pmem"
	"repro/internal/queues"
)

func newHeap(mode pmem.Mode) *pmem.Heap {
	return pmem.New(pmem.Config{Bytes: 32 << 20, Mode: mode, MaxThreads: 6})
}

func payloadFor(v uint64, n int) []byte {
	p := make([]byte, n)
	rng := rand.New(rand.NewSource(int64(v)))
	rng.Read(p)
	return p
}

func TestRoundTripSizes(t *testing.T) {
	q := New(newHeap(pmem.ModePerf), Config{Threads: 1, MaxPayload: 240})
	sizes := []int{0, 1, 7, 8, 55, 56, 57, 112, 113, 168, 240}
	for _, n := range sizes {
		q.Enqueue(0, payloadFor(uint64(n), n))
	}
	for _, n := range sizes {
		got, ok := q.Dequeue(0)
		if !ok {
			t.Fatalf("size %d: unexpected empty", n)
		}
		if !bytes.Equal(got, payloadFor(uint64(n), n)) {
			t.Fatalf("size %d: payload mismatch", n)
		}
	}
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("queue should be empty")
	}
}

func TestOversizePayloadPanics(t *testing.T) {
	q := New(newHeap(pmem.ModePerf), Config{Threads: 1, MaxPayload: 100})
	defer func() {
		if recover() == nil {
			t.Fatal("oversize enqueue did not panic")
		}
	}()
	q.Enqueue(0, make([]byte, q.MaxPayload()+1))
}

func TestFIFOAndModel(t *testing.T) {
	q := New(newHeap(pmem.ModePerf), Config{Threads: 1})
	rng := rand.New(rand.NewSource(4))
	var model []uint64
	next := uint64(1)
	for op := 0; op < 2000; op++ {
		if rng.Intn(2) == 0 {
			q.Enqueue(0, payloadFor(next, int(next%200)))
			model = append(model, next)
			next++
		} else {
			p, ok := q.Dequeue(0)
			if len(model) == 0 {
				if ok {
					t.Fatal("dequeue on empty succeeded")
				}
				continue
			}
			want := model[0]
			model = model[1:]
			if !ok || !bytes.Equal(p, payloadFor(want, int(want%200))) {
				t.Fatalf("op %d: payload mismatch for %d", op, want)
			}
		}
	}
}

func TestConcurrentPayloadIntegrity(t *testing.T) {
	const threads, per = 4, 1500
	h := pmem.New(pmem.Config{Bytes: 128 << 20, MaxThreads: threads + 1})
	q := New(h, Config{Threads: threads})
	var wg sync.WaitGroup
	var mu sync.Mutex
	delivered := map[uint64]bool{}
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid)))
			seq := uint64(1)
			for i := 0; i < per; i++ {
				if rng.Intn(2) == 0 {
					v := uint64(tid+1)<<32 | seq
					seq++
					q.Enqueue(tid, encodedPayload(v))
				} else if p, ok := q.Dequeue(tid); ok {
					v, err := decodePayload(p)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					if delivered[v] {
						t.Errorf("duplicate payload %x", v)
					}
					delivered[v] = true
					mu.Unlock()
				}
			}
		}(tid)
	}
	wg.Wait()
	for {
		p, ok := q.Dequeue(0)
		if !ok {
			break
		}
		if _, err := decodePayload(p); err != nil {
			t.Fatal(err)
		}
	}
}

// encodedPayload embeds v and a checksum into a variable-length body
// so corruption or cross-wiring of blobs is detectable.
func encodedPayload(v uint64) []byte {
	n := 16 + int(v%150)
	p := make([]byte, n)
	for i := 0; i < 8; i++ {
		p[i] = byte(v >> (8 * i))
	}
	var sum byte
	for i := 16; i < n; i++ {
		p[i] = byte(int(v) + i)
		sum += p[i]
	}
	p[8] = sum
	p[9] = byte(n)
	return p
}

func decodePayload(p []byte) (uint64, error) {
	if len(p) < 16 {
		return 0, fmt.Errorf("payload too short: %d", len(p))
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(p[i]) << (8 * i)
	}
	if int(p[9]) != len(p) {
		return v, fmt.Errorf("payload %x: length %d, embedded %d", v, len(p), p[9])
	}
	var sum byte
	for i := 16; i < len(p); i++ {
		if p[i] != byte(int(v)+i) {
			return v, fmt.Errorf("payload %x: corrupt body at %d", v, i)
		}
		sum += p[i]
	}
	if p[8] != sum {
		return v, fmt.Errorf("payload %x: checksum mismatch", v)
	}
	return v, nil
}

// codecCase is one payload codec the queue-layer crash tests run
// over: blobq's sealed blobs, and the 8-byte word codec that broker
// fixed topics run.
type codecCase struct {
	name    string
	new     func(h *pmem.Heap, cfg Config) *queues.OptUnlinked[[]byte]
	recover func(h *pmem.Heap, cfg Config) *queues.OptUnlinked[[]byte]
	encode  func(v uint64) []byte // a self-checking payload for v
	decode  func(p []byte) (uint64, error)
}

var codecs = []codecCase{
	{
		name:    "blob",
		new:     func(h *pmem.Heap, cfg Config) *queues.OptUnlinked[[]byte] { return New(h, cfg).OptUnlinked },
		recover: func(h *pmem.Heap, cfg Config) *queues.OptUnlinked[[]byte] { return Recover(h, cfg).OptUnlinked },
		encode:  encodedPayload,
		decode:  decodePayload,
	},
	{
		name: "word8",
		new: func(h *pmem.Heap, cfg Config) *queues.OptUnlinked[[]byte] {
			return queues.NewOptUnlinked(h, cfg.Threads, cfg.InitTid, cfg.Acked, queues.Word8(h))
		},
		recover: func(h *pmem.Heap, cfg Config) *queues.OptUnlinked[[]byte] {
			return queues.RecoverOptUnlinked(h, cfg.Threads, cfg.Acked, queues.Word8(h))
		},
		encode: word8Payload,
		decode: decodeWord8,
	},
}

// word8Payload packs v (below 2^32) with its complement check into
// one 8-byte word payload.
func word8Payload(v uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, v|^v<<32)
}

func decodeWord8(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("word payload is %d bytes", len(p))
	}
	w := binary.LittleEndian.Uint64(p)
	if v := w & 0xffffffff; w>>32 != ^v&0xffffffff {
		return v, fmt.Errorf("word payload %x: check mismatch", w)
	}
	return w & 0xffffffff, nil
}

// TestOneFenceZeroPostFlush: the generalized queue keeps both of the
// paper's optimal characteristics despite multi-line items.
func TestOneFenceZeroPostFlush(t *testing.T) {
	h := newHeap(pmem.ModePerf)
	q := New(h, Config{Threads: 1})
	for i := uint64(0); i < 200; i++ {
		q.Enqueue(0, payloadFor(i, 100))
	}
	for i := 0; i < 200; i++ {
		q.Dequeue(0)
	}
	base := h.TotalStats()
	const n = 100
	for i := uint64(0); i < n; i++ {
		q.Enqueue(0, payloadFor(i, 100))
	}
	for i := 0; i < n; i++ {
		q.Dequeue(0)
	}
	s := h.TotalStats().Sub(base)
	if s.Fences != 2*n {
		t.Errorf("fences = %d for %d ops, want %d", s.Fences, 2*n, 2*n)
	}
	if s.PostFlushAccesses != 0 {
		t.Errorf("post-flush accesses = %d, want 0", s.PostFlushAccesses)
	}
}

// TestDequeueBatchOneFence verifies the amortized consume path on the
// multi-line payload queue: one blocking persist and one NTStore for a
// whole dequeue batch, payloads byte-exact and FIFO, empty polls
// elided entirely once the head index is durable.
func TestDequeueBatchOneFence(t *testing.T) {
	h := newHeap(pmem.ModePerf)
	q := New(h, Config{Threads: 1, MaxPayload: 120})
	for i := 0; i < 40; i++ { // warm pools past area creation
		q.Enqueue(0, payloadFor(uint64(i), 64))
		q.Dequeue(0)
	}
	const n = 16
	for i := 0; i < n; i++ {
		q.Enqueue(0, payloadFor(uint64(100+i), 100))
	}
	before := h.TotalStats()
	got := q.DequeueBatch(0, n)
	d := h.TotalStats().Sub(before)
	if len(got) != n {
		t.Fatalf("DequeueBatch returned %d payloads, want %d", len(got), n)
	}
	for i, p := range got {
		if !bytes.Equal(p, payloadFor(uint64(100+i), 100)) {
			t.Fatalf("payload %d mismatch", i)
		}
	}
	if d.Fences != 1 || d.NTStores != 1 {
		t.Fatalf("DequeueBatch of %d issued %d fences, %d NTStores; want 1, 1", n, d.Fences, d.NTStores)
	}
	if d.PostFlushAccesses != 0 {
		t.Fatalf("DequeueBatch made %d post-flush accesses, want 0", d.PostFlushAccesses)
	}
	before = h.TotalStats()
	for i := 0; i < 100; i++ {
		if ps := q.DequeueBatch(0, 8); len(ps) != 0 {
			t.Fatal("queue should be empty")
		}
		if _, ok := q.Dequeue(0); ok {
			t.Fatal("queue should be empty")
		}
	}
	if d := h.TotalStats().Sub(before); d.Fences != 0 || d.NTStores != 0 {
		t.Fatalf("elided empty polls issued %d fences, %d NTStores; want 0, 0", d.Fences, d.NTStores)
	}
}

// TestDequeueBatchCrash: a crash mid-DequeueBatch may cost at most the
// unacknowledged window; acknowledged payloads never reappear and
// whatever recovery resurrects is an intact FIFO suffix.
func TestDequeueBatchCrash(t *testing.T) {
	for _, cc := range codecs {
		t.Run(cc.name, func(t *testing.T) { testDequeueBatchCrash(t, cc) })
	}
}

func testDequeueBatchCrash(t *testing.T, cc codecCase) {
	const n, window = 60, 6
	for seed := int64(1); seed <= 5; seed++ {
		h := newHeap(pmem.ModeCrash)
		cfg := Config{Threads: 1}
		q := cc.new(h, cfg)
		for i := 1; i <= n; i++ {
			q.Enqueue(0, cc.encode(uint64(i)))
		}
		rng := rand.New(rand.NewSource(seed))
		h.ScheduleCrashAtAccess(h.AccessCount() + int64(rng.Intn(600)) + 1)
		acked := map[uint64]bool{}
		nAcked := 0
		for {
			var ps [][]byte
			if pmem.Protect(func() { ps = q.DequeueBatch(0, window) }) {
				break
			}
			for _, p := range ps {
				v, err := cc.decode(p)
				if err != nil {
					t.Fatalf("seed %d: delivered payload corrupt: %v", seed, err)
				}
				acked[v] = true
				nAcked++
			}
			if len(ps) == 0 {
				h.CrashNow()
				break
			}
		}
		h.FinalizeCrash(rand.New(rand.NewSource(seed * 17)))
		h.Restart()
		rq := cc.recover(h, cfg)
		var recovered []uint64
		for {
			p, ok := rq.Dequeue(0)
			if !ok {
				break
			}
			v, err := cc.decode(p)
			if err != nil {
				t.Fatalf("seed %d: recovered payload corrupt: %v", seed, err)
			}
			if acked[v] {
				t.Fatalf("seed %d: acknowledged payload %d recovered again", seed, v)
			}
			recovered = append(recovered, v)
		}
		for i, v := range recovered {
			if want := n - len(recovered) + i + 1; v != uint64(want) {
				t.Fatalf("seed %d: recovered[%d] = %d, want %d (suffix broken)", seed, i, v, want)
			}
		}
		if lost := n - nAcked - len(recovered); lost < 0 || lost > window {
			t.Fatalf("seed %d: %d payloads lost, allowance %d", seed, lost, window)
		}
	}
}

// TestQuiescentCrashRecovery: payloads survive crashes byte-exact.
func TestQuiescentCrashRecovery(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		h := newHeap(pmem.ModeCrash)
		cfg := Config{Threads: 2}
		q := New(h, cfg)
		var model []uint64
		next := uint64(1)
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 300; op++ {
			if rng.Intn(3) < 2 {
				q.Enqueue(op%2, payloadFor(next, int(next%230)))
				model = append(model, next)
				next++
			} else if _, ok := q.Dequeue(op % 2); ok {
				model = model[1:]
			}
		}
		h.CrashNow()
		h.FinalizeCrash(rand.New(rand.NewSource(seed + 100)))
		h.Restart()
		rq := Recover(h, cfg)
		for i, want := range model {
			p, ok := rq.Dequeue(0)
			if !ok {
				t.Fatalf("seed %d: queue ended at %d, want %d items", seed, i, len(model))
			}
			if !bytes.Equal(p, payloadFor(want, int(want%230))) {
				t.Fatalf("seed %d: item %d payload mismatch", seed, i)
			}
		}
		if _, ok := rq.Dequeue(0); ok {
			t.Fatalf("seed %d: extra items after model", seed)
		}
	}
}

// TestExhaustiveCrashPoints sweeps every memory access of a script
// that recycles blobs across an earlier crash (exercising the
// boot-epoch tag salting) and validates payload integrity of whatever
// recovery resurrects.
func TestExhaustiveCrashPoints(t *testing.T) {
	script := []bool{true, true, false, false, true, true, false, true, false, false}
	for _, cc := range codecs {
		t.Run(cc.name, func(t *testing.T) {
			// First measure the access count.
			h := newHeap(pmem.ModeCrash)
			q := cc.new(h, Config{Threads: 1})
			h.ScheduleCrashAtAccess(1 << 60)
			runScript(q, cc, script)
			total := h.AccessCount()
			stride := int64(2)
			if testing.Short() {
				stride = 9
			}
			for k := int64(1); k <= total; k += stride {
				testOneCrashPoint(t, cc, script, k)
			}
		})
	}
}

func runScript(q *queues.OptUnlinked[[]byte], cc codecCase, script []bool) {
	next := uint64(1)
	for _, enq := range script {
		if enq {
			q.Enqueue(0, cc.encode(next))
			next++
		} else {
			q.Dequeue(0)
		}
	}
}

func testOneCrashPoint(t *testing.T, cc codecCase, script []bool, k int64) {
	t.Helper()
	h := newHeap(pmem.ModeCrash)
	cfg := Config{Threads: 1}
	q := cc.new(h, cfg)
	h.ScheduleCrashAtAccess(k)
	var model []uint64
	var pendingEnq *uint64
	pendingDeq := false
	next := uint64(1)
	for _, enq := range script {
		enq := enq
		v := next
		crashed := pmem.Protect(func() {
			if enq {
				q.Enqueue(0, cc.encode(v))
			} else {
				q.Dequeue(0)
			}
		})
		if crashed {
			if enq {
				pendingEnq = &v
			} else {
				pendingDeq = true
			}
			break
		}
		if enq {
			model = append(model, v)
			next++
		} else if len(model) > 0 {
			model = model[1:]
		}
	}
	if !h.Crashed() {
		h.CrashNow()
		pendingEnq, pendingDeq = nil, false
	}
	h.FinalizeCrash(rand.New(rand.NewSource(k)))
	h.Restart()
	rq := cc.recover(h, cfg)
	var got []uint64
	for {
		p, ok := rq.Dequeue(0)
		if !ok {
			break
		}
		v, err := cc.decode(p)
		if err != nil {
			t.Fatalf("crash %d: corrupt recovered payload: %v", k, err)
		}
		got = append(got, v)
	}
	if eq(got, model) {
		return
	}
	alt := append([]uint64(nil), model...)
	if pendingEnq != nil {
		alt = append(alt, *pendingEnq)
	} else if pendingDeq && len(alt) > 0 {
		alt = alt[1:]
	}
	if (pendingEnq != nil || pendingDeq) && eq(got, alt) {
		return
	}
	t.Fatalf("crash %d: recovered %v, want %v or %v", k, got, model, alt)
}

func eq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMultiCrashWithBlobReuse drives several crash/recover cycles so
// recovered free lists hand out blobs that were sealed in earlier
// incarnations.
func TestMultiCrashWithBlobReuse(t *testing.T) {
	h := newHeap(pmem.ModeCrash)
	cfg := Config{Threads: 2}
	q := New(h, cfg)
	var model []uint64
	next := uint64(1)
	rng := rand.New(rand.NewSource(8))
	for cycle := 0; cycle < 5; cycle++ {
		for op := 0; op < 150; op++ {
			if rng.Intn(2) == 0 {
				q.Enqueue(op%2, encodedPayload(next))
				model = append(model, next)
				next++
			} else if _, ok := q.Dequeue(op % 2); ok {
				model = model[1:]
			}
		}
		h.CrashNow()
		h.FinalizeCrash(rand.New(rand.NewSource(int64(cycle))))
		h.Restart()
		q = Recover(h, cfg)
	}
	for i, want := range model {
		p, ok := q.Dequeue(0)
		if !ok {
			t.Fatalf("ended at %d of %d", i, len(model))
		}
		v, err := decodePayload(p)
		if err != nil || v != want {
			t.Fatalf("item %d: got %d (%v), want %d", i, v, err, want)
		}
	}
}

// TestEnqueueBatchOneFence verifies the amortized batch-publish path:
// one blocking persist for the whole batch, payloads intact, FIFO kept,
// and the batch durable across an immediate crash.
func TestEnqueueBatchOneFence(t *testing.T) {
	h := newHeap(pmem.ModeCrash)
	q := New(h, Config{Threads: 1, MaxPayload: 120})
	for i := 0; i < 40; i++ { // warm pools past area creation
		q.Enqueue(0, payloadFor(uint64(i), 64))
	}
	const n = 16
	batch := make([][]byte, n)
	for i := range batch {
		batch[i] = payloadFor(uint64(100+i), 100)
	}
	before := h.TotalStats()
	q.EnqueueBatch(0, batch)
	if d := h.TotalStats().Sub(before); d.Fences != 1 {
		t.Fatalf("EnqueueBatch of %d issued %d fences, want 1", n, d.Fences)
	}
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(5)))
	h.Restart()
	r := Recover(h, Config{Threads: 1, MaxPayload: 120})
	for i := 0; i < 40; i++ {
		if p, ok := r.Dequeue(0); !ok || !bytes.Equal(p, payloadFor(uint64(i), 64)) {
			t.Fatalf("recovered warmup payload %d mismatch (ok=%v)", i, ok)
		}
	}
	for i := 0; i < n; i++ {
		if p, ok := r.Dequeue(0); !ok || !bytes.Equal(p, batch[i]) {
			t.Fatalf("recovered batch payload %d mismatch (ok=%v)", i, ok)
		}
	}
	if _, ok := r.Dequeue(0); ok {
		t.Fatal("recovered queue has extra elements")
	}
}

// TestAckedLeaseRedelivery pins the ack-mode contract for byte
// payloads: leased-but-unacknowledged payloads are redelivered by
// recovery byte-for-byte exactly once, acknowledged ones never
// reappear.
func TestAckedLeaseRedelivery(t *testing.T) {
	for _, cc := range codecs {
		t.Run(cc.name, func(t *testing.T) { testAckedLeaseRedelivery(t, cc) })
	}
}

func testAckedLeaseRedelivery(t *testing.T, cc codecCase) {
	h := newHeap(pmem.ModeCrash)
	cfg := Config{Threads: 2, MaxPayload: 120, Acked: true}
	q := cc.new(h, cfg)
	for i := uint64(1); i <= 20; i++ {
		q.Enqueue(0, cc.encode(i))
	}
	ps, idxs := q.DequeueLeased(1, 10)
	if len(ps) != 10 {
		t.Fatalf("leased %d payloads, want 10", len(ps))
	}
	q.AckTo(1, idxs[5])
	if got := q.AckedTo(); got != 6 {
		t.Fatalf("AckedTo = %d, want 6", got)
	}

	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(21)))
	h.Restart()
	if !func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		cc.recover(h, Config{Threads: 2, MaxPayload: 120})
		return
	}() {
		t.Fatal("Recover with Acked=false on an acked queue did not panic")
	}
	rq := cc.recover(h, cfg)

	// Payloads 7..20 come back in order and intact; 1..6 are gone.
	for want := uint64(7); want <= 20; want++ {
		p, ok := rq.Dequeue(0)
		if !ok || !bytes.Equal(p, cc.encode(want)) {
			t.Fatalf("recovered payload %d missing or corrupted (ok=%v)", want, ok)
		}
	}
	if _, ok := rq.Dequeue(0); ok {
		t.Fatal("recovered queue should be empty")
	}
}

// TestAckedFenceAccounting: leased dequeues are persist-free, an ack
// batch costs one NTStore plus one fence, redundant acks nothing.
func TestAckedFenceAccounting(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	q := New(h, Config{Threads: 1, MaxPayload: 64, Acked: true})
	for i := 0; i < 300; i++ { // warm both pools past area creation
		q.Enqueue(0, payloadFor(uint64(i), 40))
		q.Dequeue(0)
	}
	const n = 32
	for i := 0; i < n; i++ {
		q.Enqueue(0, payloadFor(uint64(1000+i), 40))
	}
	before := h.TotalStats()
	ps, idxs := q.DequeueLeased(0, n)
	d := h.TotalStats().Sub(before)
	if len(ps) != n {
		t.Fatalf("leased %d payloads, want %d", len(ps), n)
	}
	if d.Fences != 0 || d.NTStores != 0 || d.Flushes != 0 {
		t.Fatalf("leased dequeue issued fences=%d ntstores=%d flushes=%d, want 0/0/0",
			d.Fences, d.NTStores, d.Flushes)
	}
	before = h.TotalStats()
	q.AckTo(0, idxs[n-1])
	d = h.TotalStats().Sub(before)
	if d.Fences != 1 || d.NTStores != 1 {
		t.Fatalf("ack batch issued fences=%d ntstores=%d, want 1/1", d.Fences, d.NTStores)
	}
	before = h.TotalStats()
	q.AckTo(0, idxs[n-1])
	d = h.TotalStats().Sub(before)
	if d.Fences != 0 || d.NTStores != 0 {
		t.Fatalf("redundant ack issued fences=%d ntstores=%d, want 0/0", d.Fences, d.NTStores)
	}
}

// TestEnqueueBatchUnfencedPipeline pins the pipelined publish
// primitive for blob payloads: the issue phase costs zero fences, a
// later caller-side Fence acknowledges every window issued before it,
// and the issue/fence split preserves both FIFO content and the total
// fence count.
func TestEnqueueBatchUnfencedPipeline(t *testing.T) {
	h := newHeap(pmem.ModePerf)
	q := New(h, Config{Threads: 1, MaxPayload: 64})
	for i := 0; i < 100; i++ { // warm the node arenas past area creation
		q.Enqueue(0, payloadFor(uint64(i), 24))
	}
	for i := 0; i < 100; i++ {
		q.Dequeue(0)
	}
	const windows, wsize = 6, 5
	mk := func(w int) [][]byte {
		ps := make([][]byte, wsize)
		for i := range ps {
			ps[i] = payloadFor(uint64(1000+w*wsize+i), 33)
		}
		return ps
	}

	before := h.TotalStats()
	q.EnqueueBatchUnfenced(0, mk(0))
	if d := h.TotalStats().Sub(before); d.Fences != 0 {
		t.Fatalf("EnqueueBatchUnfenced issued %d fences, want 0 (issue phase only)", d.Fences)
	}
	before = h.TotalStats()
	for w := 1; w < windows; w++ {
		q.EnqueueBatchUnfenced(0, mk(w))
		h.Fence(0)
	}
	h.Fence(0)
	if d := h.TotalStats().Sub(before); d.Fences != windows {
		t.Fatalf("pipelined schedule paid %d fences for %d windows, want equal (count parity)",
			d.Fences, windows)
	}
	for i := 0; i < windows*wsize; i++ {
		p, ok := q.Dequeue(0)
		if !ok || !bytes.Equal(p, payloadFor(uint64(1000+i), 33)) {
			t.Fatalf("dequeue %d mismatched (ok=%v)", i, ok)
		}
	}
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("queue not empty after draining all windows")
	}
}
