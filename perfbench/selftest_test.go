package main

import (
	"fmt"
	"path/filepath"
	"testing"
)

// mayReadZero lists, per workload, the traced metrics that are zero
// because the workload never does the counted thing — not because
// nothing was counted. Every other metric must be positive.
var mayReadZero = map[string]map[string]string{
	"pairs-8b": {
		"broker.open.fences_per_call":   "recovering a same-thread FIFO image persists nothing",
		"broker.producer_blocked_share": "no credit window",
	},
	"split-1k": {
		"broker.producer_blocked_share": "the credit window may never fill in a short run",
	},
	"delay-heap": {
		"pmem.flushes_per_msg":          "dheap writes with NTStores only",
		"pmem.pflush_per_msg":           "dheap never reads flushed lines",
		"broker.open.fences_per_call":   "recovering a dheap image persists nothing",
		"broker.producer_blocked_share": "no credit window",
	},
	"recover": {
		"pmem.ntstores_per_msg":         "Open issues no NTStores",
		"pmem.pflush_per_msg":           "Open may not re-read a flushed line",
		"broker.producer_blocked_share": "no credit window",
	},
}

// TestShortRuns is the benchmark's self-test: every workload runs
// briefly, untraced and traced. The run checks that every named metric
// is emitted with its unit; this test adds that the audits pass, that
// no operation failed and that the counters the workload exercises are
// nonzero.
func TestShortRuns(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				cfg := runConfig{workload: name, seed: 7, seconds: 0.2, trace: traced}
				if traced {
					cfg.spans = filepath.Join(t.TempDir(), "spans.tsv")
				}
				rep, notes, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range notes {
					t.Log(n)
				}
				if !rep.Correct {
					t.Fatal("an audit failed")
				}
				if rep.Attempted < 1 || rep.Failed != 0 {
					t.Errorf("attempted %d, failed %d; want some attempted and none failed", rep.Attempted, rep.Failed)
				}
				for m, v := range rep.Metrics {
					if m == "trace.overhead_share" {
						continue // a difference of two timings; either sign
					}
					if _, ok := mayReadZero[name][m]; ok && traced {
						if v.Value < 0 {
							t.Errorf("%s = %v, want >= 0", m, v.Value)
						}
						continue
					}
					if v.Value <= 0 {
						t.Errorf("%s = %v, want > 0", m, v.Value)
					}
				}
				if !traced && name == "pairs-8b" {
					// Same-thread recycling: a round's footprint is the
					// empty topic's, spread over 2^18 messages.
					if v := rep.Metrics["nvram_bytes_per_msg"].Value; v > 8 {
						t.Errorf("pairs-8b nvram_bytes_per_msg = %v, want the fixed footprint only (< 8 B)", v)
					}
				}
			})
		}
	}
}
