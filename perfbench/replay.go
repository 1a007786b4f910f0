package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"bitdew/internal/catalog"
	"bitdew/internal/core"
	"bitdew/internal/data"
	"bitdew/internal/db"
	"bitdew/internal/repository"
	"bitdew/internal/scheduler"
)

// The plane's server side (catalog, db, scheduler, repository) offers no
// hook to wrap from outside, so the traced run measures it by replay: it
// stands up the same services in-process over a counting db.Store, loads
// them with the rows the plane held when the traced window opened, and
// replays the server-side calls each traced client call issued, in start
// order, with rpc bypassed. replayBudget bounds the replay's wall time.
const replayBudget = 3 * time.Second

// planeRows is the server-side state of every shard, merged.
type planeRows struct {
	data     []data.Data
	locators []data.Locator
	entries  []scheduler.Entry
	content  map[string][]byte // repository content (in-memory planes only)
}

// snapshotRows copies what every live shard holds.
func snapshotRows(e *env) (*planeRows, error) {
	rows := &planeRows{content: map[string][]byte{}}
	seen := map[data.UID]bool{}
	for i := 0; i < e.plane.N(); i++ {
		c := e.plane.Shard(i)
		if c == nil {
			continue
		}
		all, err := c.DC.All()
		if err != nil {
			return nil, fmt.Errorf("shard %d catalog: %w", i, err)
		}
		for _, d := range all {
			if seen[d.UID] {
				continue // a replica's copy of a row already taken
			}
			seen[d.UID] = true
			rows.data = append(rows.data, d)
			locs, err := c.DC.Locators(d.UID)
			if err != nil {
				return nil, fmt.Errorf("shard %d locators: %w", i, err)
			}
			rows.locators = append(rows.locators, locs...)
		}
		rows.entries = append(rows.entries, c.DS.Entries()...)
		if e.dir != "" {
			continue // durable content lives on disk and no replayed call reads it
		}
		refs, err := c.DR.Backend().Refs()
		if err != nil {
			return nil, fmt.Errorf("shard %d content: %w", i, err)
		}
		for _, ref := range refs {
			if b, err := c.DR.Backend().Get(ref); err == nil {
				rows.content[ref] = b
			}
		}
	}
	return rows, nil
}

// countingStore times and counts what the services ask of their store.
type countingStore struct {
	db.Store

	mu       sync.Mutex
	counting bool
	puts     []time.Duration
	scanRows int
	scanBusy time.Duration
}

func (s *countingStore) Put(table, key string, value []byte) error {
	start := time.Now()
	err := s.Store.Put(table, key, value)
	d := time.Since(start)
	s.mu.Lock()
	if s.counting {
		s.puts = append(s.puts, d)
	}
	s.mu.Unlock()
	return err
}

func (s *countingStore) Scan(table string, fn func(key string, value []byte) bool) error {
	start := time.Now()
	rows := 0
	err := s.Store.Scan(table, func(key string, value []byte) bool {
		rows++
		return fn(key, value)
	})
	d := time.Since(start)
	s.mu.Lock()
	if s.counting {
		s.scanRows += rows
		s.scanBusy += d
	}
	s.mu.Unlock()
	return err
}

func (s *countingStore) rows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scanRows
}

// replayShard is one shard's services over a counting store.
type replayShard struct {
	store *countingStore
	dc    *catalog.Service
	ds    *scheduler.Service
	dr    *repository.Service
}

// hostSession is a replayed worker's delta-sync state on one shard.
type hostSession struct {
	cache, reported map[data.UID]bool
	epoch           uint64
	started         bool
}

type replayer struct {
	shards   []*replayShard
	set      *core.ShardSet
	tr       *tracer
	payload  []byte
	sessions map[string][]*hostSession

	calls           int
	client, handler time.Duration
	searchRows      int
	searchResults   int
	repoGets, syncs []time.Duration
}

// replayServerSide replays the traced spans' server-side calls and adds
// the catalog, db, repository, scheduler and rpc metrics to layer.
func replayServerSide(o options, e *env, rows *planeRows, tr *tracer, layer metrics) error {
	rp := &replayer{set: e.set, tr: tr, payload: make([]byte, e.payload), sessions: map[string][]*hostSession{}}
	for i := 0; i < e.set.N(); i++ {
		var inner db.Store = db.NewRowStore()
		if e.dir != "" {
			// A durable plane replays onto a durable store, so inline WAL
			// compaction stalls show in db.put.max_ms.
			dir := filepath.Join(o.dir, fmt.Sprintf("replay-%d-%d", os.Getpid(), i))
			store, err := db.OpenDurable(dir, db.WithCompactInterval(time.Minute))
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			defer store.Close()
			inner = store
		}
		sh := &replayShard{store: &countingStore{Store: inner}}
		sh.dc = catalog.NewService(sh.store)
		var err error
		if sh.ds, err = scheduler.NewDurable(sh.store); err != nil {
			return err
		}
		if sh.dr, err = repository.NewDurableService(repository.NewMemBackend(), sh.store); err != nil {
			return err
		}
		sh.dr.RegisterEndpoint("http", "127.0.0.1:1")
		rp.shards = append(rp.shards, sh)
	}
	if err := rp.load(rows); err != nil {
		return fmt.Errorf("loading the plane's rows: %w", err)
	}
	for _, sh := range rp.shards {
		sh.store.counting = true
	}

	start := time.Now()
	for _, s := range tr.snapshot() {
		if !strings.HasPrefix(s.Name, "core.") {
			continue
		}
		if time.Since(start) > replayBudget {
			break
		}
		if s.Err != "" {
			continue // the plane refused it; there is nothing to replay
		}
		if err := rp.replay(s); err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		rp.calls++
		rp.client += s.dur()
	}

	var puts []time.Duration
	var scanBusy time.Duration
	for _, sh := range rp.shards {
		puts = append(puts, sh.store.puts...)
		scanBusy += sh.store.scanBusy
	}
	layer.set("catalog.rows_per_result", ratio(float64(rp.searchRows), float64(rp.searchResults)), "count")
	layer.set("db.scan.busy_s", scanBusy.Seconds(), "s")
	layer.set("db.put.p99_us", us(quantile(puts, 0.99)), "us")
	layer.set("db.put.max_ms", ms(quantile(puts, 1)), "ms")
	layer.set("repository.get.p50_us", us(quantile(rp.repoGets, 0.50)), "us")
	layer.set("scheduler.sync.p50_us", us(quantile(rp.syncs, 0.50)), "us")
	layer.set("rpc.wait_share", 1-ratio(rp.handler.Seconds(), rp.client.Seconds()), "ratio")
	layer.set("replay.calls", float64(rp.calls), "count")
	return nil
}

// home returns the replay shard uid lives on.
func (rp *replayer) home(uid data.UID) *replayShard { return rp.shards[rp.set.ShardOf(uid)] }

func (rp *replayer) load(rows *planeRows) error {
	for _, d := range rows.data {
		if err := rp.home(d.UID).dc.Register(d); err != nil {
			return err
		}
	}
	for _, l := range rows.locators {
		if err := rp.home(l.DataUID).dc.AddLocator(l); err != nil {
			return err
		}
	}
	for _, en := range rows.entries {
		if err := rp.home(en.Data.UID).ds.Schedule(en.Data, en.Attr); err != nil {
			return err
		}
	}
	for ref, b := range rows.content {
		if err := rp.home(data.UID(ref)).dr.Backend().Put(ref, b); err != nil {
			return err
		}
	}
	return nil
}

// timed runs one server-side call as a replay span under the client span
// that caused it.
func (rp *replayer) timed(parent span, name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	rp.handler += d
	rp.tr.add(span{Op: parent.Op, ID: rp.tr.ids.Add(1), Parent: parent.ID, Name: "replay." + name,
		Start: start.Sub(rp.tr.t0).Nanoseconds(), End: time.Since(rp.tr.t0).Nanoseconds(), Err: errString(err)})
	return d, err
}

// replay issues the server-side calls of one client call.
func (rp *replayer) replay(s span) error {
	ds := s.args.ds
	switch s.Name {
	case "core.CreateData", "core.CreateDataBatch":
		return rp.perShard(ds, func(sh *replayShard, part []data.Data) error {
			_, err := rp.timed(s, "catalog.RegisterBatch", func() error { return sh.dc.RegisterBatch(part) })
			return err
		})
	case "core.Put", "core.PutAll":
		return rp.put(s, ds)
	case "core.GetBytes":
		d := ds[0]
		sh := rp.home(d.UID)
		uids := []data.UID{d.UID}
		if _, err := rp.timed(s, "catalog.LocatorsBatch", func() error {
			_, err := sh.dc.LocatorsBatch(uids)
			return err
		}); err != nil {
			return err
		}
		if _, err := rp.timed(s, "repository.LocatorAnyBatch", func() error {
			_, err := sh.dr.LocatorAnyBatch(uids, "")
			return err
		}); err != nil {
			return err
		}
		return rp.serve(s, sh, d.UID)
	case "core.SearchData":
		for _, sh := range rp.shards {
			before := sh.store.rows()
			var found []data.Data
			if _, err := rp.timed(s, "catalog.SearchByName", func() (err error) {
				found, err = sh.dc.SearchByName(ds[0].Name)
				return err
			}); err != nil {
				return err
			}
			rp.searchRows += sh.store.rows() - before
			rp.searchResults += len(found)
		}
		return nil
	case "core.Schedule", "core.ScheduleAll":
		for _, d := range ds {
			a := scheduleAttr
			if s.Name == "core.ScheduleAll" {
				a = taskAttr
				if strings.HasSuffix(d.Name, "-genebase") {
					a = genebaseAttr
				}
			}
			sh := rp.home(d.UID)
			if _, err := rp.timed(s, "scheduler.Schedule", func() error { return sh.ds.Schedule(d, a) }); err != nil {
				return err
			}
		}
		return nil
	case "core.DeleteData":
		d := ds[0]
		sh := rp.home(d.UID)
		_, err := rp.timed(s, "catalog.Delete", func() error { return sh.dc.Delete(d.UID) })
		if err != nil {
			return err
		}
		// Best-effort on the plane too: the datum may be unscheduled or empty.
		rp.timed(s, "scheduler.Unschedule", func() error { return sh.ds.Unschedule(d.UID) })
		rp.timed(s, "repository.Delete", func() error { return sh.dr.Backend().Delete(string(d.UID)) })
		return nil
	case "core.SyncWait":
		return rp.sync(s)
	}
	return nil
}

// perShard splits ds by home shard.
func (rp *replayer) perShard(ds []data.Data, fn func(sh *replayShard, part []data.Data) error) error {
	parts := map[int][]data.Data{}
	for _, d := range ds {
		i := rp.set.ShardOf(d.UID)
		parts[i] = append(parts[i], d)
	}
	for i, part := range parts {
		if err := fn(rp.shards[i], part); err != nil {
			return err
		}
	}
	return nil
}

// put replays the batch Put protocol: register plus upload locators, the
// upload landing in the repository, then the locators' publication.
func (rp *replayer) put(s span, ds []data.Data) error {
	return rp.perShard(ds, func(sh *replayShard, part []data.Data) error {
		regs := make([]data.Data, len(part))
		uids := make([]data.UID, len(part))
		for i, d := range part {
			regs[i] = *d.WithContent(rp.payload)
			uids[i] = d.UID
		}
		if _, err := rp.timed(s, "catalog.RegisterBatch", func() error { return sh.dc.RegisterBatch(regs) }); err != nil {
			return err
		}
		var locs []data.Locator
		if _, err := rp.timed(s, "repository.LocatorBatch", func() (err error) {
			locs, err = sh.dr.LocatorBatch(uids, core.UploadProtocol)
			return err
		}); err != nil {
			return err
		}
		for _, uid := range uids {
			if _, err := rp.timed(s, "repository.content.Put", func() error {
				return sh.dr.Backend().Put(string(uid), rp.payload)
			}); err != nil {
				return err
			}
		}
		_, err := rp.timed(s, "catalog.AddLocatorBatch", func() error { return sh.dc.AddLocatorBatch(locs) })
		return err
	})
}

// serve replays the repository serving a datum's content, as the HTTP
// server does for a download.
func (rp *replayer) serve(s span, sh *replayShard, uid data.UID) error {
	size, err := sh.dr.Backend().Size(string(uid))
	if err != nil {
		return nil // nothing stored to serve (the plane's copy came later)
	}
	d, err := rp.timed(s, "repository.content.GetRange", func() error {
		_, err := sh.dr.Backend().GetRange(string(uid), 0, size)
		return err
	})
	rp.repoGets = append(rp.repoGets, d)
	return err
}

// sync replays one worker round: a delta heartbeat to every shard's
// scheduler, then the repository serving each newly assigned datum.
func (rp *replayer) sync(s span) error {
	host := s.args.host
	if rp.sessions[host] == nil {
		for range rp.shards {
			rp.sessions[host] = append(rp.sessions[host], &hostSession{cache: map[data.UID]bool{}, reported: map[data.UID]bool{}})
		}
	}
	for i, sh := range rp.shards {
		sess := rp.sessions[host][i]
		var added, removed []data.UID
		for uid := range sess.cache {
			if !sess.started || !sess.reported[uid] {
				added = append(added, uid)
			}
		}
		for uid := range sess.reported {
			if !sess.cache[uid] {
				removed = append(removed, uid)
			}
		}
		var res scheduler.SyncDeltaResult
		d, err := rp.timed(s, "scheduler.SyncDelta", func() error {
			res = sh.ds.SyncDelta(host, sess.epoch, !sess.started, added, removed, false)
			return nil
		})
		if err != nil {
			return err
		}
		rp.syncs = append(rp.syncs, d)
		if res.Resync {
			return fmt.Errorf("scheduler asked %s to resync", host)
		}
		sess.reported = make(map[data.UID]bool, len(sess.cache))
		for uid := range sess.cache {
			sess.reported[uid] = true
		}
		sess.epoch, sess.started = res.Epoch, true
		for _, uid := range res.Drop {
			delete(sess.cache, uid)
		}
		for _, as := range res.Fetch {
			sess.cache[as.Data.UID] = true
			if err := rp.serve(s, sh, as.Data.UID); err != nil {
				return err
			}
		}
	}
	return nil
}
