// Package blobq generalizes the paper's queues to items that span
// multiple cache lines — the extension footnote 3 points at: "The
// method of [Cohen, Friedman, Larus] can be used to generalize the
// algorithms to nodes that span multiple cache lines without adding
// fence operations."
//
// A Queue is a queues.OptUnlinked (Section 6.1) whose items are byte
// payloads; this package is only the payload codec that queue runs.
// A payload is stored in a persistent blob of a fixed number of cache
// lines; every line carries 56 payload bytes plus an 8-byte seal
// combining a globally unique blob tag with the line number. The codec
// writes the payload lines (data before seal, per line) and issues
// asynchronous flushes for all of them before the queue links the
// node, so the operation's single fence covers them too — no
// additional blocking persist. Recovery accepts a node only if its
// blob's every seal matches the node's tag, so a node whose linked
// flag was evicted early while its payload was not cannot resurrect
// garbage: under durable linearizability such an enqueue was pending
// and is discarded.
//
// Normal-path reads never touch the flushed blob lines: the payload
// also lives in the node's Volatile half (a Go byte slice), so the
// queue retains the second amendment's zero-post-flush-access
// property.
package blobq

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pmem"
	"repro/internal/queues"
	"repro/internal/ssmem"
)

// Blob geometry: per cache line, 56 payload bytes + one seal word.
const (
	lineData = pmem.CacheLineBytes - pmem.WordBytes
	sealOff  = pmem.Addr(lineData)
)

// The codec's words of the node line; the queue owns words 1 and 2
// (index, linked).
const (
	pnBlob = pmem.Addr(0)
	pnTag  = pmem.Addr(24)
	pnLen  = pmem.Addr(32)
)

// Root slots beside the queue's own (2 node pool, 3 local lines, 4 ack
// lines); a heap hosts one queue.
const (
	slotBlobPool = 6
	slotEpoch    = 7
)

// Config parameterizes a Queue.
type Config struct {
	// Threads is the number of thread ids that may operate.
	Threads int
	// MaxPayload is the largest payload in bytes (rounded up to whole
	// blob lines). Default 240.
	MaxPayload int
	// Acked selects acknowledgment mode: dequeues become leases
	// (DequeueLeased, zero persist instructions), payloads stay durable
	// until AckTo covers them, and recovery redelivers everything
	// beyond the maximum per-thread acked index instead of everything
	// beyond the dequeued frontier (see queues.NewOptUnlinkedQAcked).
	Acked bool
	// InitTid is the thread id New charges its construction persists
	// to. Default 0 — fine for quiescent construction; a queue created
	// while other threads run (a broker topic created on a live system)
	// must use a tid owned by the constructing goroutine, because
	// fences are per-thread (see queues.NewOptUnlinkedQAs).
	InitTid int
}

func (c *Config) norm() {
	if c.MaxPayload == 0 {
		c.MaxPayload = 240
	}
}

func (c Config) blobLines() int { return (c.MaxPayload + lineData - 1) / lineData }

func (c Config) blobPool(tid int) ssmem.Config {
	return ssmem.Config{
		SlotBytes: c.blobLines() * pmem.CacheLineBytes, SlotsPerArea: 1024,
		Threads: c.Threads, RootSlot: slotBlobPool, InitTid: tid,
	}
}

// Queue is a durable lock-free FIFO of byte payloads with one
// blocking persist per operation and no access to flushed content.
type Queue struct {
	*queues.OptUnlinked[[]byte]
	codec *codec
}

// New creates an empty payload queue.
func New(h *pmem.Heap, cfg Config) *Queue {
	cfg.norm()
	tid := cfg.InitTid
	c := newCodec(h, cfg)
	c.blobs = ssmem.NewPool(h, cfg.blobPool(tid))
	c.epoch = 1
	h.Store(tid, h.RootAddr(slotEpoch), c.epoch)
	h.Persist(tid, h.RootAddr(slotEpoch))
	return &Queue{queues.NewOptUnlinked[[]byte](h, cfg.Threads, tid, cfg.Acked, c), c}
}

// Recover rebuilds the queue after a crash: a node is resurrected
// only if it is linked, beyond the recovered consumption frontier, and
// its blob is fully sealed with the node's tag (see
// queues.RecoverOptUnlinked for the frontier). cfg.Acked must match
// the mode the queue was created with; a mismatch is refused rather
// than silently mis-scanned.
func Recover(h *pmem.Heap, cfg Config) *Queue {
	cfg.norm()
	c := newCodec(h, cfg)
	return &Queue{queues.RecoverOptUnlinked[[]byte](h, cfg.Threads, cfg.Acked, c), c}
}

// MaxPayload reports the configured payload capacity in bytes.
func (q *Queue) MaxPayload() int { return q.codec.maxPayload() }

// codec is the queues.Codec of sealed multi-line blobs.
type codec struct {
	h     *pmem.Heap
	cfg   Config
	blobs *ssmem.Pool
	epoch uint64 // persistent boot incarnation, salts blob tags
	seq   []tagSeq

	// Recovery only: the blob areas a node may name, and the blobs
	// owned by resurrected nodes.
	areas []ssmem.Area
	live  map[pmem.Addr]bool
}

// tagSeq is one thread's blob tag counter, padded to a cache line so
// adjacent threads never share one.
type tagSeq struct {
	n uint64
	_ [56]byte
}

func newCodec(h *pmem.Heap, cfg Config) *codec {
	return &codec{h: h, cfg: cfg, seq: make([]tagSeq, cfg.Threads)}
}

func (c *codec) maxPayload() int { return c.cfg.blobLines() * lineData }

// blobTag builds a tag that is unique across the heap's lifetime:
// boot incarnations never share tags, so a recycled blob's stale
// seals can never validate a half-written new payload.
func blobTag(epoch uint64, tid int, seq uint64) uint64 {
	return epoch<<40 | uint64(tid+1)<<32 | seq&0xffffffff
}

// Write allocates a blob, records it in the node line and writes the
// sealed payload lines with asynchronous flushes only.
func (c *codec) Write(tid int, pn pmem.Addr, payload []byte) ([]byte, pmem.Addr) {
	if len(payload) > c.maxPayload() {
		panic(fmt.Sprintf("blobq: payload %d exceeds capacity %d", len(payload), c.maxPayload()))
	}
	h := c.h
	blob := c.blobs.Alloc(tid)
	c.seq[tid].n++
	tag := blobTag(c.epoch, tid, c.seq[tid].n)
	h.Store(tid, pn+pnBlob, uint64(blob))
	h.Store(tid, pn+pnTag, tag)
	h.Store(tid, pn+pnLen, uint64(len(payload)))
	c.writeBlob(tid, blob, tag, payload)
	return append([]byte(nil), payload...), blob
}

// Release retires a consumed node's blob.
func (c *codec) Release(tid int, blob pmem.Addr) { c.blobs.Retire(tid, blob) }

// Load accepts a node only if it names a blob slot, a length within
// capacity and a blob fully sealed with the node's tag: otherwise its
// flag or index was evicted before the payload became durable.
func (c *codec) Load(pn pmem.Addr) ([]byte, pmem.Addr, bool) {
	h := c.h
	blob := pmem.Addr(h.Load(0, pn+pnBlob))
	tag := h.Load(0, pn+pnTag)
	n := h.Load(0, pn+pnLen)
	if !ssmem.ValidSlot(c.areas, c.cfg.blobLines()*pmem.CacheLineBytes, blob) ||
		n > uint64(c.maxPayload()) || !blobSealed(h, blob, tag, c.cfg.blobLines()) {
		return nil, 0, false
	}
	c.live[blob] = true
	return readBlob(h, blob, int(n)), blob, true
}

// Recover bumps the boot incarnation before the node scan, so tags
// minted after this recovery can never collide with pre-crash seals,
// and rebuilds the blob pool from the blobs the scan kept.
func (c *codec) Recover(scan func()) {
	h := c.h
	cfg := c.cfg.blobPool(0)
	c.areas = ssmem.Areas(h, cfg)
	c.epoch = h.Load(0, h.RootAddr(slotEpoch)) + 1
	h.Store(0, h.RootAddr(slotEpoch), c.epoch)
	h.Persist(0, h.RootAddr(slotEpoch))
	c.live = map[pmem.Addr]bool{}
	scan()
	c.blobs = ssmem.RecoverPool(h, cfg, func(a pmem.Addr) bool { return c.live[a] })
	c.areas, c.live = nil, nil
}

// writeBlob writes payload into blob lines, data words before the
// sealing word of each line (Assumption 1 orders them in NVRAM), and
// issues asynchronous flushes. The caller's fence covers them.
func (c *codec) writeBlob(tid int, blob pmem.Addr, tag uint64, payload []byte) {
	h := c.h
	lines := c.cfg.blobLines()
	for l := 0; l < lines; l++ {
		base := blob + pmem.Addr(l*pmem.CacheLineBytes)
		chunk := l * lineData
		for w := 0; w < lineData/pmem.WordBytes; w++ {
			idx := chunk + w*8
			var word uint64
			switch {
			case idx+8 <= len(payload):
				word = binary.LittleEndian.Uint64(payload[idx:])
			case idx < len(payload):
				var tail [8]byte
				copy(tail[:], payload[idx:])
				word = binary.LittleEndian.Uint64(tail[:])
			}
			h.Store(tid, base+pmem.Addr(w*8), word)
		}
		h.Store(tid, base+sealOff, tag<<8|uint64(l)+1)
		h.Flush(tid, base)
	}
}

func readBlob(h *pmem.Heap, blob pmem.Addr, n int) []byte {
	out := make([]byte, n)
	// lineData is a multiple of the word size, so stepping a word at a
	// time never straddles a line boundary.
	for i := 0; i < n; i += pmem.WordBytes {
		l := i / lineData
		off := i % lineData
		w := h.Load(0, blob+pmem.Addr(l*pmem.CacheLineBytes)+pmem.Addr(off))
		if i+8 <= n {
			binary.LittleEndian.PutUint64(out[i:], w)
		} else {
			var tail [8]byte
			binary.LittleEndian.PutUint64(tail[:], w)
			copy(out[i:], tail[:])
		}
	}
	return out
}

func blobSealed(h *pmem.Heap, blob pmem.Addr, tag uint64, lines int) bool {
	for l := 0; l < lines; l++ {
		if h.Load(0, blob+pmem.Addr(l*pmem.CacheLineBytes)+sealOff) != tag<<8|uint64(l)+1 {
			return false
		}
	}
	return true
}
