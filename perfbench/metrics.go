package main

import (
	"math"
	"sort"
)

// metricDef names one emitted metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, emitted by every
// workload (README.md defines each per workload).
var endToEnd = []metricDef{
	{"msgs_per_s", "1/s"},
	{"e2e_p50_us", "us"},
	{"e2e_p90_us", "us"},
	{"nvram_bytes_per_msg", "B"},
	{"recover_ms", "ms"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, emitted by every workload.
var perLayer = []metricDef{
	{"pmem.fences_per_msg", "count"},
	{"pmem.ntstores_per_msg", "count"},
	{"pmem.flushes_per_msg", "count"},
	{"pmem.pflush_per_msg", "count"},
	{"pmem.fence_ns", "ns"},
	{"ssmem.alloc_ns", "ns"},
	{"ssmem.retire_ns", "ns"},
	{"ssmem.split_area_growth", "count"},
	{"ssmem.same_area_growth", "count"},
	{"queues.enqueue_batch_ns", "ns"},
	{"queues.dequeue_batch_ns", "ns"},
	{"queues.ack_ns", "ns"},
	{"blobq.enqueue_batch_ns", "ns"},
	{"blobq.dequeue_batch_ns", "ns"},
	{"dheap.push_batch_ns", "ns"},
	{"dheap.pop_batch_ns", "ns"},
	{"dheap.allocs_per_msg", "count"},
	{"broker.publish.p50_ns", "ns"},
	{"broker.publish.busy_share", "ratio"},
	{"broker.publish.fences_per_call", "count"},
	{"broker.deliver.p50_ns", "ns"},
	{"broker.deliver.busy_share", "ratio"},
	{"broker.deliver.fences_per_call", "count"},
	{"broker.open.p50_ns", "ns"},
	{"broker.open.busy_share", "ratio"},
	{"broker.open.fences_per_call", "count"},
	{"broker.allocs_per_msg", "count"},
	{"broker.msgs_per_poll", "count"},
	{"broker.producer_blocked_share", "ratio"},
	{"recover.footprint_mb", "MiB"},
	{"recover.live_msgs", "count"},
	{"recover.restart_ms", "ms"},
	{"recover.ms_per_footprint_mb", "ms/MiB"},
	{"trace.overhead_share", "ratio"},
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is the 0.5-quantile of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// nsQuantile is quantile over nanosecond durations.
func nsQuantile(ds []int64, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return quantile(xs, q)
}

// Per-round values on a shared machine mix a steady level with
// irregular fast phases, whose share changes from run to run, and with
// the odd round slowed by a stall. The quartile on the slow side of
// the rounds tracks the steady level: it moves less between runs than
// the median, which follows the share of fast phases, and less than a
// decile, which follows the stalls. lowQuartile is that quartile for
// throughputs, highQuartile for times.
func lowQuartile(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.25)
}

func highQuartile(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.75)
}

// highDecile is the slow-side decile for times. The recover image's
// Open times are bimodal, and the fast mode can hold more than a
// quarter of a run's recoveries; the decile stays on the slow mode.
func highDecile(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.9)
}
