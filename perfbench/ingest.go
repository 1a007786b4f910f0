package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bitdew/internal/core"
	"bitdew/internal/data"
	"bitdew/internal/repository"
	"bitdew/internal/runtime"
	"bitdew/internal/transfer"
)

// The ingest workload creates a new datum per op (CreateData plus a 4 KiB
// Put), so the catalog and the write-ahead log grow for the whole run. 16
// clients write to a durable, R=2 replicated 2-shard plane.
const (
	ingestClients  = 16
	ingestPayload  = 4096
	ingestReplicas = 2
	// ingestSampleEvery keeps one acknowledged write in this many for the
	// re-read after the restart.
	ingestSampleEvery = 16
	// ingestRereads bounds how many kept writes are re-read.
	ingestRereads = 64
	// drainTimeout bounds the wait for replication to catch up.
	drainTimeout = time.Minute
)

type ingest struct {
	e     *env
	cfg   runtime.ShardedConfig
	local repository.Backend
	bd    *core.BitDew

	next     []int
	payloads [][]byte

	mu   sync.Mutex
	kept []keptWrite // a seeded sample of acknowledged writes
}

type keptWrite struct {
	d       data.Data
	content []byte
}

func setupIngest(o options, _ *rand.Rand, dir string) (workload, error) {
	cfg := runtime.ShardedConfig{
		Shards:       2,
		Replicas:     ingestReplicas,
		StateDir:     dir,
		DisableFTP:   true,
		DisableSwarm: true,
	}
	e, err := boot(cfg, dir)
	if err != nil {
		return nil, err
	}
	e.payload = ingestPayload
	in := &ingest{e: e, cfg: cfg, next: make([]int, ingestClients)}
	in.local = e.local(o)
	in.bd = newClient(e.set, in.local, "ingest")
	for c := 0; c < ingestClients; c++ {
		in.payloads = append(in.payloads, make([]byte, ingestPayload))
	}
	return in, nil
}

// newClient builds a BitDew client over set whose transfers land in local.
func newClient(set *core.ShardSet, local repository.Backend, host string) *core.BitDew {
	engine := transfer.NewEngineRouted(local, func(uid data.UID) *transfer.Client {
		return set.For(uid).DT
	}, host, 64)
	return core.NewBitDewSharded(set, local, engine, host)
}

func (in *ingest) clients() int { return ingestClients }
func (in *ingest) env() *env    { return in.e }
func (in *ingest) close() error { return in.e.close() }

func (in *ingest) op(c int, r *rand.Rand, oc opCtx) (string, time.Duration, error) {
	start := time.Now()
	name := fmt.Sprintf("ingest-c%02d-%07d", c, in.next[c])
	in.next[c]++
	var d *data.Data
	made := []data.Data{{Name: name}} // the span's args see the minted UID
	err := oc.call("core.CreateData", callArgs{ds: made}, func() (err error) {
		if d, err = in.bd.CreateData(name); err == nil {
			made[0] = *d
		}
		return err
	})
	if err != nil {
		return "ingest", time.Since(start), err
	}
	content := in.payloads[c]
	r.Read(content)
	putStart := time.Now()
	err = oc.call("core.Put", callArgs{ds: []data.Data{*d}}, func() error { return in.bd.Put(d, content) })
	oc.note("put", time.Now(), time.Since(putStart))
	lat := time.Since(start)
	if err != nil {
		return "ingest", lat, err
	}
	// The plane holds the datum now; drop the client's staging copy so
	// client memory stays flat however many writes the run makes.
	if err := in.local.Delete(string(d.UID)); err != nil {
		return "ingest", lat, err
	}
	in.e.created(*d)
	if r.Intn(ingestSampleEvery) == 0 {
		in.mu.Lock()
		in.kept = append(in.kept, keptWrite{d: *d, content: append([]byte(nil), content...)})
		in.mu.Unlock()
	}
	return "ingest", lat, nil
}

// after measures how long replication takes to catch up with the window,
// then closes the plane cleanly, reopens it from its state directory and
// re-reads a seeded sample of acknowledged writes byte for byte. The WAL
// is not fsynced per record, so this proves clean-restart durability,
// not crash durability.
func (in *ingest) after(r *rand.Rand, layer metrics) (int, []string, error) {
	start := time.Now()
	if err := in.e.plane.WaitReplicated(drainTimeout); err != nil {
		return 0, nil, fmt.Errorf("replication drain: %w", err)
	}
	layer.set("repl.drain_ms", ms(time.Since(start)), "ms")

	if err := in.e.set.Close(); err != nil {
		return 0, nil, err
	}
	if err := in.e.plane.Close(); err != nil {
		return 0, nil, fmt.Errorf("clean close: %w", err)
	}
	reopened, err := boot(in.cfg, in.e.dir)
	if err != nil {
		return 0, nil, fmt.Errorf("reopen from state dir: %w", err)
	}
	in.e.plane, in.e.set = reopened.plane, reopened.set

	r.Shuffle(len(in.kept), func(i, j int) { in.kept[i], in.kept[j] = in.kept[j], in.kept[i] })
	sample := in.kept[:min(len(in.kept), ingestRereads)]
	local := repository.NewMemBackend()
	engine := transfer.NewEngineRouted(local, func(uid data.UID) *transfer.Client {
		return in.e.set.For(uid).DT
	}, "ingest-reread", 1)
	var failures []string
	for _, k := range sample {
		got, err := reread(in.e.set, engine, local, k.d)
		switch {
		case err != nil:
			failures = append(failures, fmt.Sprintf("re-read %s after restart: %v", k.d.Name, err))
		case !bytes.Equal(got, k.content):
			failures = append(failures, fmt.Sprintf("re-read %s after restart: content differs", k.d.Name))
		}
	}
	return len(sample), failures, nil
}

// reread downloads d from the reopened plane through the locator its home
// shard's repository issues for its live HTTP endpoint. It does not go
// through BitDew.GetBytes: the catalog's locators still name the HTTP
// ports of the plane before the restart, so every GetBytes would fall
// back to the repository's locator after a refused dial, and
// transfer.Engine frees a failed download's inflight slot only after the
// waiting caller is woken, so that fallback is now and then handed the
// failed download back and the read fails although the bytes are there.
func reread(set *core.ShardSet, engine *transfer.Engine, local repository.Backend, d data.Data) ([]byte, error) {
	loc, err := set.For(d.UID).DR.LocatorAny(d.UID, "http")
	if err != nil {
		return nil, err
	}
	if err := engine.Download(d, loc).Wait(); err != nil {
		return nil, err
	}
	return local.Get(string(d.UID))
}
