package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bitdew/internal/core"
	"bitdew/internal/data"
	"bitdew/internal/repository"
	"bitdew/internal/runtime"
)

// setupRounds is how many times a run boots its plane; setup_s is the
// median over the boots, and every (setupRounds/planes)-th boot's plane is
// measured, so the boots spread over the whole run.
const setupRounds = 15

// options configure one benchmark run.
type options struct {
	workload string
	seed     int64
	window   time.Duration // the measured window
	warmup   time.Duration // unmeasured load before the window
	trace    bool
	dir      string // scratch directory for durable state and span files
	// wrapLocal, when set, wraps every client's local storage; tests use
	// it to corrupt what clients read back.
	wrapLocal func(repository.Backend) repository.Backend
}

// workload is one closed-loop traffic shape against a booted plane.
type workload interface {
	// clients is the number of closed-loop clients the driver runs.
	clients() int
	// op runs one operation for client c and returns its latency class and
	// latency. A wrong answer is an error, so it counts as a failure.
	op(c int, r *rand.Rand, oc opCtx) (kind string, lat time.Duration, err error)
	// after runs once the measured window has closed: correctness checks
	// and drains that must stay out of the timed window. It returns how
	// many checks it made and why each failed one failed, and may add
	// per-layer metrics.
	after(r *rand.Rand, layer metrics) (checks int, failures []string, err error)
	// env returns the plane and client state shared by every workload.
	env() *env
	close() error
}

// env is what every workload shares: the plane booted through the
// program's real boot path, one client ShardSet over it, and the
// counters the driver reads around a window.
type env struct {
	plane *runtime.ShardedContainer
	set   *core.ShardSet
	dir   string // per-plane state directory removed on close ("": none)
	// locals are the clients' local storages (counted for the transfer
	// layer); deliveries counts data landed at clients.
	locals     []*countingBackend
	deliveries atomic.Int64
	// resyncs counts replication streams restarted from a full snapshot.
	resyncs atomic.Int64
	// shape of the run, recorded in every report.
	shards, replicas, payload int

	mu   sync.Mutex
	uids []data.UID // every datum the workload created, for placement share
}

// boot starts a plane and connects one ShardSet to it: one rpc
// connection per shard, shared by every client of the run.
func boot(cfg runtime.ShardedConfig, dir string) (*env, error) {
	e := &env{dir: dir, shards: cfg.Shards, replicas: cfg.Replicas}
	// repl reports a stream restarted from a full snapshot only as this
	// life-cycle event.
	cfg.ReplLogf = func(format string, _ ...any) {
		if strings.Contains(format, "shipped snapshot") {
			e.resyncs.Add(1)
		}
	}
	plane, err := runtime.NewShardedContainer(cfg)
	if err != nil {
		return nil, err
	}
	set, err := core.ConnectSharded(plane.Addrs(), core.WithReplicas(cfg.Replicas))
	if err != nil {
		plane.Close()
		return nil, err
	}
	e.plane, e.set = plane, set
	return e, nil
}

// local builds one client's counted local storage.
func (e *env) local(o options) repository.Backend {
	var inner repository.Backend = repository.NewMemBackend()
	if o.wrapLocal != nil {
		inner = o.wrapLocal(inner)
	}
	b := &countingBackend{Backend: inner}
	e.locals = append(e.locals, b)
	return b
}

// created records data the workload created.
func (e *env) created(ds ...data.Data) {
	e.mu.Lock()
	for _, d := range ds {
		e.uids = append(e.uids, d.UID)
	}
	e.mu.Unlock()
}

// maxShardShare is the largest shard's share of the workload's data over
// its fair share (1 = perfectly even placement).
func (e *env) maxShardShare() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	counts := make([]int, e.set.N())
	for _, uid := range e.uids {
		counts[e.set.ShardOf(uid)]++
	}
	most := 0
	for _, n := range counts {
		most = max(most, n)
	}
	return ratio(float64(most), float64(len(e.uids))/float64(len(counts)))
}

func (e *env) transfer() transferCounts {
	var t transferCounts
	for _, b := range e.locals {
		c := b.counts()
		t.appends += c.appends
		t.bytes += c.bytes
	}
	return t
}

func (e *env) close() error {
	var first error
	if err := e.set.Close(); err != nil {
		first = err
	}
	if err := e.plane.Close(); err != nil && first == nil {
		first = err
	}
	if e.dir != "" {
		if err := os.RemoveAll(e.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sliceLen is the target length of a measurement slice. A window's
// end-to-end metrics are medians over its slices, so a burst of outside
// load on a shared machine moves one slice, not the run's figure.
const sliceLen = 4 * time.Second

// sample is one timed op, or a noted part of one, and when it ended.
type sample struct {
	kind string
	end  time.Time
	lat  time.Duration
}

// clientRec is one client's private record of a window.
type clientRec struct {
	ops    []sample // the driver's ops
	parts  []sample // parts the ops noted (ingest's put, distribute's deliveries)
	failed int
	errs   []string
}

// window is what the driver measured over one closed-loop window.
type window struct {
	start, end time.Time
	sliceLen   time.Duration
	cpuAt      []time.Duration // process CPU time at each slice boundary
	ops, parts []sample
	failed     int
	errs       []string
	frames     uint64 // rpc request frames sent
	hits, miss uint64 // client locator cache
	xfer       transferCounts
	deliveries int64
	resyncs    int64
}

func (w window) elapsed() time.Duration { return w.end.Sub(w.start) }
func (w window) opsPerSec() float64     { return ratio(float64(len(w.ops)), w.elapsed().Seconds()) }

// latencies returns the latencies of the samples of one kind.
func latencies(samples []sample, kind string) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if s.kind == kind {
			out = append(out, s.lat)
		}
	}
	return out
}

// e2e returns the samples the end-to-end metrics count: the driver's ops,
// or on distribute the deliveries its waves noted.
func (w window) e2e(workload string) []sample {
	if workload == "distribute" {
		return w.parts
	}
	return w.ops
}

// slice is the part of a window's end-to-end samples that ended in one
// measurement slice, with the slice's length and the process CPU time
// spent in it. The last slice also holds the ops that started before the
// deadline and ended after it.
type slice struct {
	lat      []time.Duration
	dur, cpu time.Duration
}

func (w window) slices(samples []sample) []slice {
	n := len(w.cpuAt) - 1
	out := make([]slice, n)
	for _, s := range samples {
		i := min(max(int(s.end.Sub(w.start)/w.sliceLen), 0), n-1)
		out[i].lat = append(out[i].lat, s.lat)
	}
	for i := range out {
		out[i].dur = w.sliceLen
		if i == n-1 {
			out[i].dur = w.elapsed() - w.sliceLen*time.Duration(n-1)
		}
		out[i].cpu = w.cpuAt[i+1] - w.cpuAt[i]
	}
	return out
}

// medianOver returns the median of f over the slices.
func medianOver(slices []slice, f func(slice) float64) float64 {
	vals := make([]float64, len(slices))
	for i, sl := range slices {
		vals[i] = f(sl)
	}
	return median(vals)
}

// maxErrSamples caps the error messages kept per client.
const maxErrSamples = 4

// drive runs every client of w in a closed loop for d: each client issues
// its next op as soon as the previous one returns. Ops started before the
// deadline finish and count; the window ends when the last one returned.
func drive(w workload, rngs []*rand.Rand, d time.Duration, tr *tracer) window {
	e := w.env()
	recs := make([]clientRec, w.clients())
	slices := max(1, int(d/sliceLen))
	win := window{sliceLen: d / time.Duration(slices), cpuAt: make([]time.Duration, slices+1)}
	frames0 := e.set.RoundTrips()
	hits0, miss0 := e.set.LocatorCacheStats()
	xfer0 := e.transfer()
	del0 := e.deliveries.Load()
	resync0 := e.resyncs.Load()
	win.cpuAt[0] = readUsage().cpu
	win.start = time.Now()
	deadline := win.start.Add(d)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < slices; i++ {
			time.Sleep(time.Until(win.start.Add(win.sliceLen * time.Duration(i))))
			win.cpuAt[i] = readUsage().cpu
		}
	}()
	for c := range recs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := &recs[c]
			for time.Now().Before(deadline) {
				oc := tr.begin(rec)
				t0 := time.Now()
				kind, lat, err := w.op(c, rngs[c], oc)
				oc.end("op."+kind, t0, err)
				rec.ops = append(rec.ops, sample{kind: kind, end: time.Now(), lat: lat})
				if err != nil {
					rec.failed++
					if len(rec.errs) < maxErrSamples {
						rec.errs = append(rec.errs, fmt.Sprintf("%s: %v", kind, err))
					}
				}
			}
		}(c)
	}
	wg.Wait()
	win.end = time.Now()
	win.cpuAt[slices] = readUsage().cpu
	win.frames = e.set.RoundTrips() - frames0
	hits1, miss1 := e.set.LocatorCacheStats()
	win.hits, win.miss = hits1-hits0, miss1-miss0
	xfer1 := e.transfer()
	win.xfer = transferCounts{appends: xfer1.appends - xfer0.appends, bytes: xfer1.bytes - xfer0.bytes}
	win.deliveries = e.deliveries.Load() - del0
	win.resyncs = e.resyncs.Load() - resync0
	for _, rec := range recs {
		win.ops = append(win.ops, rec.ops...)
		win.parts = append(win.parts, rec.parts...)
		win.failed += rec.failed
		win.errs = append(win.errs, rec.errs...)
	}
	return win
}

// outcome is everything one run reports.
type outcome struct {
	attempted, failed int
	errs              []string
	e2e               metrics // the end-to-end metrics (untraced runs)
	named             metrics // the workload's own end-to-end figures
	layer             metrics // the per-layer metrics (traced runs)
	info              map[string]any
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// run boots the workload's plane setupRounds times, timing each boot for
// setup_s. An untraced run measures measuredPlanes of the planes, each
// warmed up and then measured for an equal share of the window, and
// reports the end-to-end metrics as medians over all their slices: fresh
// planes draw fresh placements and fresh replication dynamics, so one
// unlucky plane moves a third of the slices, not the run. A traced run
// measures the last plane only, for an untraced and a traced half window
// back to back, replays the traced half's server-side calls, and reports
// the per-layer metrics.
func run(o options) (*outcome, error) {
	setup, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want mixed, ingest or distribute)", o.workload)
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	planes := measuredPlanes
	if o.trace {
		planes = 1
	}
	rnd := rand.New(rand.NewSource(o.seed))
	out := &outcome{e2e: metrics{}, named: metrics{}, layer: metrics{}, info: map[string]any{}}
	for name, unit := range layerUnits {
		out.layer.set(name, 0, unit) // a layer the workload never reaches reads 0
	}
	var setups, shares []float64
	var wins []window
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		w, err := setup(o, rand.New(rand.NewSource(rnd.Int63())), filepath.Join(o.dir, fmt.Sprintf("%s-%d-%d", o.workload, os.Getpid(), i)))
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		// Measured planes alternate with boots that are only timed: a boot
		// slowed by a passing disturbance of the host's file system (the
		// durable ingest plane creates files) then shares the run's few
		// seconds of it with fewer boots.
		if (i+1)%(setupRounds/planes) == 0 {
			var win window
			win, err = measure(o, w, rand.New(rand.NewSource(rnd.Int63())), o.window/time.Duration(planes), out)
			if err == nil {
				wins = append(wins, win)
				shares = append(shares, w.env().maxShardShare())
			}
		}
		if cerr := w.close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, err)
		}
		// Hand the closed plane's memory back, so every plane starts from
		// the same heap and peak_rss_mb does not depend on when the last
		// plane's garbage happened to be collected.
		debug.FreeOSMemory()
	}

	var all window // every measured window's samples, for whole-run figures
	var elapsed time.Duration
	var slices []slice
	for _, win := range wins {
		all.ops = append(all.ops, win.ops...)
		all.parts = append(all.parts, win.parts...)
		elapsed += win.elapsed()
		slices = append(slices, win.slices(win.e2e(o.workload))...)
	}
	out.attempted += len(all.ops)
	share := median(shares)
	out.info["workload"], out.info["seed"], out.info["seconds"] = o.workload, o.seed, o.window.Seconds()
	out.info["planes"], out.info["dht.max_shard_share"] = planes, share

	out.e2e.set("setup_s", median(setups), "s")
	out.e2e.set("ops_per_s", medianOver(slices, func(sl slice) float64 {
		return ratio(float64(len(sl.lat)), sl.dur.Seconds())
	}), "1/s")
	out.e2e.set("op_p50_ms", medianOver(slices, func(sl slice) float64 { return ms(quantile(sl.lat, 0.50)) }), "ms")
	out.e2e.set("op_p99_ms", medianOver(slices, func(sl slice) float64 { return ms(quantile(sl.lat, 0.99)) }), "ms")
	out.e2e.set("ops_per_cpu_s", medianOver(slices, func(sl slice) float64 {
		return ratio(float64(len(sl.lat)), sl.cpu.Seconds())
	}), "1/cpu_s")
	for k, v := range out.e2e {
		out.named[k] = v
	}
	out.named.set("peak_rss_mb", float64(readUsage().maxRSS)/1024, "MB")
	out.named.set("error_ratio", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	namedMetrics(o.workload, all, elapsed, out.named)
	if o.trace {
		out.layer.set("dht.max_shard_share", share, "ratio")
	}
	return out, nil
}

// measuredPlanes is how many fresh planes an untraced run measures.
const measuredPlanes = 3

// measure warms plane w up and measures it for d (a traced run: two
// halves of d, the second traced), then runs the workload's after-window
// checks. It returns the untraced window and adds the plane's shape,
// attempts, failures and, when traced, the per-layer metrics to out.
func measure(o options, w workload, rnd *rand.Rand, d time.Duration, out *outcome) (window, error) {
	e := w.env()
	out.info["clients"], out.info["conns"], out.info["payload_bytes"] = w.clients(), e.set.N(), e.payload
	out.info["shards"], out.info["replicas"] = e.shards, e.replicas
	rngs := make([]*rand.Rand, w.clients())
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(rnd.Int63()))
	}
	drive(w, rngs, o.warmup, nil)

	var win, traced window
	var tr *tracer
	var snap *planeRows
	if o.trace {
		// Each half starts right after a snapshot of the plane's rows, so
		// both pay the same pause; the traced half's snapshot is replayed.
		for _, t := range []*tracer{nil, newTracer()} {
			var err error
			if snap, err = snapshotRows(e); err != nil {
				return win, fmt.Errorf("snapshot for replay: %w", err)
			}
			if t == nil {
				win = drive(w, rngs, d/2, nil)
			} else {
				tr, traced = t, drive(w, rngs, d/2, t)
			}
		}
	} else {
		win = drive(w, rngs, d, nil)
	}
	checks, failures, err := w.after(rand.New(rand.NewSource(rnd.Int63())), out.layer)
	if err != nil {
		return win, err
	}
	out.attempted += len(traced.ops) + checks
	out.failed += win.failed + traced.failed + len(failures)
	out.errs = append(append(append(out.errs, win.errs...), traced.errs...), failures...)
	if !o.trace {
		return win, nil
	}

	spans := tr.snapshot()
	coreCallMetrics(spans, out.layer)
	out.layer.set("core.locator_hit_ratio", ratio(float64(traced.hits), float64(traced.hits+traced.miss)), "ratio")
	out.layer.set("core.sync.useful_ratio", usefulRatio(spans), "ratio")
	out.layer.set("rpc.frames_per_op", ratio(float64(traced.frames), float64(len(traced.ops))), "count")
	out.layer.set("transfer.recv_bytes_per_s", ratio(float64(traced.xfer.bytes), traced.elapsed().Seconds()), "B/s")
	out.layer.set("transfer.appends_per_datum", ratio(float64(traced.xfer.appends), float64(traced.deliveries)), "count")
	out.layer.set("trace.overhead_ratio", ratio(traced.opsPerSec(), win.opsPerSec()), "ratio")
	out.layer.set("repl.resyncs", float64(traced.resyncs), "count")
	if err := replayServerSide(o, e, snap, tr, out.layer); err != nil {
		return win, fmt.Errorf("replay: %w", err)
	}
	spanFile := filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	out.info["span_file"] = spanFile
	out.info["trace.overhead_ratio"] = out.layer["trace.overhead_ratio"].Value
	header := map[string]any{"workload": o.workload, "seed": o.seed, "clients": w.clients(), "conns": e.set.N(),
		"dht.max_shard_share": e.maxShardShare(), "trace.overhead_ratio": out.layer["trace.overhead_ratio"].Value}
	if err := tr.write(spanFile, header); err != nil {
		return win, fmt.Errorf("writing spans: %w", err)
	}
	return win, nil
}

// namedMetrics adds the workload's own end-to-end figures to the report,
// each over the whole window: the per-op tails of mixed, the put tail of
// ingest, the wave figures of distribute.
func namedMetrics(workload string, win window, elapsed time.Duration, out metrics) {
	switch workload {
	case "mixed":
		for _, k := range []string{"fetch", "put", "search", "schedule"} {
			out.set(k+"_p99_ms", ms(quantile(latencies(win.ops, k), 0.99)), "ms")
		}
	case "ingest":
		out.set("put_p99_ms", ms(quantile(latencies(win.parts, "put"), 0.99)), "ms")
	case "distribute":
		waves := latencies(win.ops, "wave")
		out.set("wave_p50_ms", ms(quantile(waves, 0.50)), "ms")
		out.set("wave_p90_ms", ms(quantile(waves, 0.90)), "ms")
		out.set("deliveries_per_s", ratio(float64(len(win.parts)), elapsed.Seconds()), "1/s")
	}
}

// usefulRatio is the share of worker sync rounds that landed at least one
// datum, from the SyncWait spans.
func usefulRatio(spans []span) float64 {
	var rounds, useful int
	for _, s := range spans {
		if s.Name != "core.SyncWait" {
			continue
		}
		rounds++
		if s.Landed > 0 {
			useful++
		}
	}
	return ratio(float64(useful), float64(rounds))
}

// layerUnits lists the per-layer metrics besides the core.<call> ones,
// with their units. Every traced run reports all of them.
var layerUnits = map[string]string{
	"core.locator_hit_ratio":     "ratio",
	"core.sync.useful_ratio":     "ratio",
	"rpc.frames_per_op":          "count",
	"rpc.wait_share":             "ratio",
	"transfer.recv_bytes_per_s":  "B/s",
	"transfer.appends_per_datum": "count",
	"catalog.rows_per_result":    "count",
	"db.scan.busy_s":             "s",
	"db.put.p99_us":              "us",
	"db.put.max_ms":              "ms",
	"repository.get.p50_us":      "us",
	"scheduler.sync.p50_us":      "us",
	"repl.drain_ms":              "ms",
	"repl.resyncs":               "count",
	"dht.max_shard_share":        "ratio",
	"trace.overhead_ratio":       "ratio",
	"replay.calls":               "count",
}

// workloads maps each workload name to its setup.
var workloads = map[string]func(o options, r *rand.Rand, dir string) (workload, error){
	"mixed":      setupMixed,
	"ingest":     setupIngest,
	"distribute": setupDistribute,
}
