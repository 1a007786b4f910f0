package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bitdew/internal/data"
	"bitdew/internal/repository"
)

// span is one timed call at a layer boundary. The spans of one client op
// share Op; Parent links a call to the span that caused it (0: a root).
type span struct {
	Op     uint64 `json:"op"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Err    string `json:"err,omitempty"`
	// Landed counts the data a sync round delivered to its host.
	Landed int `json:"landed,omitempty"`
	// args are the inputs the server-side replay needs; not written out.
	args callArgs
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// callArgs records what a client call touched: its data (UIDs, names) and,
// for a sync round, the pulling host.
type callArgs struct {
	ds   []data.Data
	host string
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0  time.Time
	ids atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far, ordered by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// write dumps the spans as JSON lines, preceded by one header line.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opCtx is the context of one client op: where it notes sub-latencies
// and, in a traced run, its tracer. Without a tracer calls run untimed, so
// untraced runs pay nothing for spans.
type opCtx struct {
	rec  *clientRec
	tr   *tracer
	op   uint64
	root uint64
}

// begin opens an op: the op id doubles as its root span id.
func (t *tracer) begin(rec *clientRec) opCtx {
	if t == nil {
		return opCtx{rec: rec}
	}
	id := t.ids.Add(1)
	return opCtx{rec: rec, tr: t, op: id, root: id}
}

// note records the latency of a named part of the op (the Put inside an
// ingest op, one delivery of a wave) and when that part ended.
func (c opCtx) note(kind string, end time.Time, lat time.Duration) {
	c.rec.parts = append(c.rec.parts, sample{kind: kind, end: end, lat: lat})
}

// end records the op's root span.
func (c opCtx) end(name string, start time.Time, err error) {
	if c.tr == nil {
		return
	}
	c.tr.add(span{Op: c.op, ID: c.root, Name: name, Start: start.Sub(c.tr.t0).Nanoseconds(),
		End: time.Since(c.tr.t0).Nanoseconds(), Err: errString(err)})
}

// call runs fn as a child span of the op named after the layer and call
// ("core.Put").
func (c opCtx) call(name string, a callArgs, fn func() error) error {
	return c.callLanded(name, a, func() (int, error) { return 0, fn() })
}

// callLanded is call for a worker sync round, whose span also records how
// many data the round landed.
func (c opCtx) callLanded(name string, a callArgs, fn func() (int, error)) error {
	if c.tr == nil {
		_, err := fn()
		return err
	}
	id := c.tr.ids.Add(1)
	start := time.Now()
	n, err := fn()
	c.tr.add(span{Op: c.op, ID: id, Parent: c.root, Name: name, Start: start.Sub(c.tr.t0).Nanoseconds(),
		End: time.Since(c.tr.t0).Nanoseconds(), Err: errString(err), Landed: n, args: a})
	return err
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// coreCalls lists the client API calls the benchmark wraps in spans; each
// gets p50/p99/errors in the traced report whether or not the workload
// issues it, so every run reports the same metric names.
var coreCalls = []string{
	"Put", "GetBytes", "SearchData", "CreateData", "CreateDataBatch",
	"PutAll", "DeleteData", "Schedule", "ScheduleAll", "SyncWait",
}

// coreCallMetrics summarises the core.* spans per call.
func coreCallMetrics(spans []span, out metrics) {
	lat := map[string][]time.Duration{}
	errs := map[string]int{}
	for _, s := range spans {
		name, ok := strings.CutPrefix(s.Name, "core.")
		if !ok {
			continue
		}
		lat[name] = append(lat[name], s.dur())
		if s.Err != "" {
			errs[name]++
		}
	}
	for _, call := range coreCalls {
		out.set(fmt.Sprintf("core.%s.p50_ms", call), ms(quantile(lat[call], 0.50)), "ms")
		out.set(fmt.Sprintf("core.%s.p99_ms", call), ms(quantile(lat[call], 0.99)), "ms")
		out.set(fmt.Sprintf("core.%s.errors", call), float64(errs[call]), "count")
	}
}

// countingBackend wraps a client's local storage under its transfer
// engine and counts what downloads append to it: the transfer layer's
// work, observed from outside.
type countingBackend struct {
	repository.Backend
	appends atomic.Int64
	bytes   atomic.Int64
}

func (b *countingBackend) Append(ref string, chunk []byte) error {
	b.appends.Add(1)
	b.bytes.Add(int64(len(chunk)))
	return b.Backend.Append(ref, chunk)
}

// transferCounts is a snapshot of a countingBackend's counters.
type transferCounts struct{ appends, bytes int64 }

func (b *countingBackend) counts() transferCounts {
	return transferCounts{appends: b.appends.Load(), bytes: b.bytes.Load()}
}
