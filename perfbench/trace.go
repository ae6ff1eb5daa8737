package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// epoch anchors every timestamp of a run; now reads the monotonic
// clock in nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// role groups the broker verbs a workload calls by what they do for a
// message, so that every workload reports every per-layer broker
// metric: publish (PublishBatch, PublishAtBatch), deliver (PollBatch
// with the Ack that covers it, DequeueReadyBatch) and open (Open).
type role int

const (
	rolePublish role = iota
	roleDeliver
	roleOpen
	numRoles
)

var roleNames = [numRoles]string{"publish", "deliver", "open"}

// maxKeptSpans bounds the spans one tracer keeps for the spans file;
// the role aggregates below count every call regardless.
const maxKeptSpans = 1 << 15

// span is one verb call: its name, start and end, the workload
// iteration that issued it (parent) and the batch it carried or
// returned (req), the request id its messages share.
type span struct {
	name        string
	start, end  int64
	parent, req int64
}

// roleStats aggregates the calls of one role.
type roleStats struct {
	// durs are the durations of calls that published or delivered at
	// least one message; fences are the fences those calls issued.
	durs   []int64
	fences uint64
	// busy is the time spent in every call of the role, empty polls
	// included.
	busy int64
}

// tracer records the spans of one goroutine. Each goroutine owns its
// own tracer; merge combines them once the goroutines have stopped.
type tracer struct {
	kept    []span
	dropped int64
	roles   [numRoles]roleStats
	// wall is the time the goroutines spent in traced loops: the
	// denominator of every busy share.
	wall [numRoles]int64
}

// record adds one call. useful reports whether it moved a message.
func (t *tracer) record(r role, name string, start, end, parent, req int64, useful bool, fences uint64) {
	t.child(name, start, end, parent, req)
	rs := &t.roles[r]
	rs.busy += end - start
	if useful {
		rs.durs = append(rs.durs, end-start)
		rs.fences += fences
	}
}

// child keeps a span nested in a recorded one (a PollBatch or Ack
// inside its deliver call) without counting it again in its role.
func (t *tracer) child(name string, start, end, parent, req int64) {
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, span{name: name, start: start, end: end, parent: parent, req: req})
	} else {
		t.dropped++
	}
}

func (t *tracer) merge(o *tracer) {
	for _, s := range o.kept {
		if len(t.kept) < maxKeptSpans {
			t.kept = append(t.kept, s)
		} else {
			t.dropped++
		}
	}
	t.dropped += o.dropped
	for r := range t.roles {
		t.roles[r].durs = append(t.roles[r].durs, o.roles[r].durs...)
		t.roles[r].fences += o.roles[r].fences
		t.roles[r].busy += o.roles[r].busy
		t.wall[r] += o.wall[r]
	}
}

// emit sets the broker.<role>.* metrics.
func (t *tracer) emit(out *outcome) error {
	for r, rs := range t.roles {
		name := "broker." + roleNames[r]
		if len(rs.durs) == 0 || t.wall[r] == 0 {
			return fmt.Errorf("traced run recorded no %s calls", roleNames[r])
		}
		out.set(name+".p50_ns", "ns", nsQuantile(rs.durs, 0.5))
		out.set(name+".busy_share", "ratio", float64(rs.busy)/float64(t.wall[r]))
		out.set(name+".fences_per_call", "count", float64(rs.fences)/float64(len(rs.durs)))
	}
	return nil
}

// write stores the kept spans as tab-separated lines: name, start and
// end in nanoseconds since the run began, parent iteration, request id.
func (t *tracer) write(path string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# name\tstart_ns\tend_ns\tparent\treq\t(%d kept, %d dropped)\n", len(t.kept), t.dropped)
	for _, s := range t.kept {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
