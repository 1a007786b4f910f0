package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/core"
	"bitdew/internal/data"
	"bitdew/internal/runtime"
)

// The distribute workload runs back-to-back BLAST-style waves: one
// broadcast genebase plus 128 replica-1 tasks of 16 KiB, sent by a master
// with CreateDataBatch/PutAll/ScheduleAll and pulled by 8 worker Nodes
// (transfer concurrency 2) that share the master's ShardSet. Once a wave
// has landed and been checked, the master deletes it.
const (
	distWorkers     = 8
	distConcurrency = 2
	distTasks       = 128
	distPayload     = 16 << 10
	// distSampled is how many tasks per wave are checked byte for byte.
	distSampled = 4
	// waveDeadline bounds one wave's distribution.
	waveDeadline = 30 * time.Second
)

var (
	genebaseAttr = attr.Attribute{Name: "genebase", Replica: attr.ReplicaAll, FaultTolerant: true, Protocol: "http"}
	taskAttr     = attr.Attribute{Name: "task", Replica: 1, FaultTolerant: true, Protocol: "http"}
)

type distribute struct {
	e       *env
	master  *core.Node
	workers []*core.Node
	landed  []atomic.Int64 // copies landed per worker
	waves   int
	cur     atomic.Pointer[wave] // the wave in flight, fed by copy events
}

// wave tracks one wave's landing: the genebase on every worker and every
// task on some worker.
type wave struct {
	start    time.Time
	genebase data.UID
	tasks    map[data.UID]bool

	mu      sync.Mutex
	geneAt  int
	holder  map[data.UID]int // task -> worker that landed it
	arrived []time.Duration  // each copy's landing, from the wave's start
	landed  chan struct{}
	closeMu sync.Once
}

func (w *wave) copied(worker int, uid data.UID) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case uid == w.genebase:
		w.geneAt++
	case w.tasks[uid]:
		if _, ok := w.holder[uid]; !ok {
			w.holder[uid] = worker
		}
	default:
		return
	}
	w.arrived = append(w.arrived, time.Since(w.start))
	if w.geneAt == distWorkers && len(w.holder) == len(w.tasks) {
		w.closeMu.Do(func() { close(w.landed) })
	}
}

func setupDistribute(o options, _ *rand.Rand, _ string) (workload, error) {
	e, err := boot(runtime.ShardedConfig{Shards: 2, DisableFTP: true, DisableSwarm: true}, "")
	if err != nil {
		return nil, err
	}
	e.payload = distPayload
	dw := &distribute{e: e, landed: make([]atomic.Int64, distWorkers)}
	dw.master, err = core.NewNode(core.NodeConfig{Host: "master", Shards: e.set, Concurrency: 16})
	if err != nil {
		e.close()
		return nil, err
	}
	dw.master.SetClientOnly(true)
	for i := 0; i < distWorkers; i++ {
		w, err := core.NewNode(core.NodeConfig{
			Host:        fmt.Sprintf("worker-%d", i),
			Shards:      e.set,
			Backend:     e.local(o),
			Concurrency: distConcurrency,
		})
		if err != nil {
			e.close()
			return nil, err
		}
		w.ActiveData.AddCallback(core.EventHandler{OnDataCopy: func(ev core.Event) {
			e.deliveries.Add(1)
			dw.landed[i].Add(1)
			if cur := dw.cur.Load(); cur != nil {
				cur.copied(i, ev.Data.UID)
			}
		}})
		dw.workers = append(dw.workers, w)
	}
	return dw, nil
}

func (dw *distribute) clients() int { return 1 }
func (dw *distribute) env() *env    { return dw.e }
func (dw *distribute) close() error { return dw.e.close() }

// op runs one wave. Its latency runs from the first create to the last
// copy landing, and each copy's delivery latency from the same start is
// noted under "delivery"; the byte checks and the deletion follow outside
// both.
func (dw *distribute) op(_ int, r *rand.Rand, oc opCtx) (string, time.Duration, error) {
	n := dw.waves
	dw.waves++
	names := make([]string, 0, distTasks+1)
	names = append(names, fmt.Sprintf("wave-%05d-genebase", n))
	for i := 0; i < distTasks; i++ {
		names = append(names, fmt.Sprintf("wave-%05d-task-%04d", n, i))
	}
	contents := make([][]byte, len(names))
	for i := range contents {
		contents[i] = make([]byte, distPayload)
		r.Read(contents[i])
	}

	start := time.Now()
	wv, err := dw.send(start, names, contents, oc)
	if err == nil {
		err = dw.pull(wv, oc)
	}
	lat := time.Since(start)
	dw.cur.Store(nil)
	if err == nil {
		wv.track.mu.Lock()
		for _, d := range wv.track.arrived {
			oc.note("delivery", start.Add(d), d)
		}
		wv.track.mu.Unlock()
		err = dw.check(wv, contents, r)
	}
	if derr := dw.deleteWave(wv, oc); err == nil {
		err = derr
	}
	return "wave", lat, err
}

// send creates, fills and schedules the wave through the master.
func (dw *distribute) send(start time.Time, names []string, contents [][]byte, oc opCtx) (*waveData, error) {
	bd := dw.master.BitDew
	var ds []*data.Data
	made := namesOnly(names) // the span's args see the minted UIDs
	err := oc.call("core.CreateDataBatch", callArgs{ds: made}, func() (err error) {
		if ds, err = bd.CreateDataBatch(names); err == nil {
			copy(made, values(ds))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	wv := &waveData{track: &wave{
		start:    start,
		genebase: ds[0].UID,
		tasks:    make(map[data.UID]bool, distTasks),
		holder:   make(map[data.UID]int, distTasks),
		landed:   make(chan struct{}),
	}}
	for _, d := range ds[1:] {
		wv.track.tasks[d.UID] = true
	}
	dw.cur.Store(wv.track)
	wv.ds = values(ds)
	dw.e.created(wv.ds...)
	if err := oc.call("core.PutAll", callArgs{ds: wv.ds}, func() error { return bd.PutAll(ds, contents) }); err != nil {
		return wv, err
	}
	// PutAll recorded each datum's size and checksum; schedule those.
	wv.ds = values(ds)
	attrs := make([]attr.Attribute, len(ds))
	for i := range attrs {
		attrs[i] = taskAttr
	}
	attrs[0] = genebaseAttr
	return wv, oc.call("core.ScheduleAll", callArgs{ds: wv.ds}, func() error {
		return dw.master.ActiveData.ScheduleAll(wv.ds, attrs)
	})
}

func values(ds []*data.Data) []data.Data {
	out := make([]data.Data, len(ds))
	for i, d := range ds {
		out[i] = *d
	}
	return out
}

type waveData struct {
	ds    []data.Data // genebase first, then the tasks
	track *wave
}

// namesOnly holds a batch's names until its UIDs are minted.
func namesOnly(names []string) []data.Data {
	ds := make([]data.Data, len(names))
	for i, n := range names {
		ds[i].Name = n
	}
	return ds
}

// pull runs every worker's SyncWait(1) loop until the wave has landed.
func (dw *distribute) pull(wv *waveData, oc opCtx) error {
	stop := make(chan struct{})
	failed := make(chan struct{})
	var failOnce sync.Once
	errs := make([]error, len(dw.workers))
	var wg sync.WaitGroup
	for i, w := range dw.workers {
		wg.Add(1)
		go func(i int, w *core.Node) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := oc.callLanded("core.SyncWait", callArgs{host: w.Host}, func() (int, error) {
					before := dw.landed[i].Load()
					err := w.SyncWait(1)
					return int(dw.landed[i].Load() - before), err
				})
				if err != nil {
					errs[i] = err
					failOnce.Do(func() { close(failed) })
					return
				}
			}
		}(i, w)
	}
	var err error
	select {
	case <-wv.track.landed:
	case <-failed:
	case <-time.After(waveDeadline):
		err = fmt.Errorf("wave missed the %v distribution deadline", waveDeadline)
	}
	close(stop)
	wg.Wait()
	for i, werr := range errs {
		if werr != nil && err == nil {
			err = fmt.Errorf("worker %d: %w", i, werr)
		}
	}
	return err
}

// check compares every worker's genebase and a seeded sample of tasks
// with the master's bytes.
func (dw *distribute) check(wv *waveData, contents [][]byte, r *rand.Rand) error {
	for i, w := range dw.workers {
		got, err := w.Backend().Get(string(wv.ds[0].UID))
		if err != nil || !bytes.Equal(got, contents[0]) {
			return fmt.Errorf("worker %d: genebase differs from the master's bytes", i)
		}
	}
	for k := 0; k < distSampled; k++ {
		t := 1 + r.Intn(distTasks)
		uid := wv.ds[t].UID
		wv.track.mu.Lock()
		holder := wv.track.holder[uid]
		wv.track.mu.Unlock()
		got, err := dw.workers[holder].Backend().Get(string(uid))
		if err != nil || !bytes.Equal(got, contents[t]) {
			return fmt.Errorf("worker %d: %s differs from the master's bytes", holder, wv.ds[t].Name)
		}
	}
	return nil
}

// deleteWave removes every datum of the wave through the master; workers
// drop their copies at their next sync.
func (dw *distribute) deleteWave(wv *waveData, oc opCtx) error {
	if wv == nil {
		return nil
	}
	var errs []string
	for _, d := range wv.ds {
		if err := oc.call("core.DeleteData", callArgs{ds: []data.Data{d}}, func() error {
			return dw.master.BitDew.DeleteData(d)
		}); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("deleting the wave: %s", strings.Join(errs, "; "))
	}
	return nil
}

// after has nothing left to check: every wave was checked as it landed.
func (dw *distribute) after(*rand.Rand, metrics) (int, []string, error) { return 0, nil, nil }
