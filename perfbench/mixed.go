package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"bitdew/internal/attr"
	"bitdew/internal/core"
	"bitdew/internal/data"
	"bitdew/internal/loadgen"
	"bitdew/internal/repository"
	"bitdew/internal/runtime"
)

// The mixed workload is bitdew-stress's default traffic: the unchanged
// default mix over 256 B payloads, 128 preloaded targets and a ring of 16
// put slots per client, run by 16 clients over one ShardSet on two
// unreplicated in-memory shards.
const (
	mixedClients = 16
	mixedPayload = 256
	mixedPreload = 128
	mixedSlots   = 16
)

// scheduleAttr is what every schedule op submits, as bitdew-stress does:
// one live replica, fault-tolerant, moved over HTTP.
var scheduleAttr = attr.Attribute{Name: "stress", Replica: 1, FaultTolerant: true, Protocol: "http"}

type mixed struct {
	e   *env
	bd  *core.BitDew
	ad  *core.ActiveData
	mix loadgen.Mix

	// pre[i] is a preloaded target named pre[i].Name holding contents[i].
	pre      []data.Data
	contents [][]byte
	// slots[c] is client c's ring of put targets; next[c] its position.
	slots    [][]*data.Data
	next     []int
	payloads [][]byte
}

func setupMixed(o options, r *rand.Rand, _ string) (workload, error) {
	e, err := boot(runtime.ShardedConfig{Shards: 2, DisableFTP: true, DisableSwarm: true}, "")
	if err != nil {
		return nil, err
	}
	e.payload = mixedPayload
	m := &mixed{e: e, mix: loadgen.DefaultMix()}
	m.bd = newClient(e.set, e.local(o), "mixed")
	m.ad = core.NewActiveDataSharded(e.set)
	// A separate node loads the targets, so the clients' first fetch of
	// each one moves it over HTTP, as a fetch from another host would.
	loader := newClient(e.set, repository.NewMemBackend(), "mixed-loader")

	names := make([]string, mixedPreload)
	m.contents = make([][]byte, mixedPreload)
	for i := range names {
		names[i] = fmt.Sprintf("mixed-pre-%04d", i)
		m.contents[i] = make([]byte, mixedPayload)
		r.Read(m.contents[i])
	}
	ds, err := loader.CreateDataBatch(names)
	if err == nil {
		err = loader.PutAll(ds, m.contents)
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	for _, d := range ds {
		m.pre = append(m.pre, *d)
	}
	e.created(m.pre...)

	slotNames := make([]string, 0, mixedClients*mixedSlots)
	for c := 0; c < mixedClients; c++ {
		for s := 0; s < mixedSlots; s++ {
			slotNames = append(slotNames, fmt.Sprintf("mixed-c%02d-s%02d", c, s))
		}
	}
	slots, err := m.bd.CreateDataBatch(slotNames)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("put slots: %w", err)
	}
	for c := 0; c < mixedClients; c++ {
		m.slots = append(m.slots, slots[c*mixedSlots:(c+1)*mixedSlots])
		m.payloads = append(m.payloads, make([]byte, mixedPayload))
		for _, d := range m.slots[c] {
			e.created(*d)
		}
	}
	m.next = make([]int, mixedClients)
	return m, nil
}

func (m *mixed) clients() int { return mixedClients }
func (m *mixed) env() *env    { return m.e }
func (m *mixed) close() error { return m.e.close() }

// op issues one op of the default mix. Every fetch must return the
// preloaded bytes and every search must return the named datum; a wrong
// answer fails the op instead of being timed as a success.
func (m *mixed) op(c int, r *rand.Rand, oc opCtx) (string, time.Duration, error) {
	start := time.Now()
	kind, err := m.do(c, pick(m.mix, r), r, oc)
	return kind, time.Since(start), err
}

func (m *mixed) do(c int, kind loadgen.OpKind, r *rand.Rand, oc opCtx) (string, error) {
	switch kind {
	case loadgen.OpPut:
		slot := m.slots[c][m.next[c]%mixedSlots]
		m.next[c]++
		r.Read(m.payloads[c])
		return "put", oc.call("core.Put", callArgs{ds: []data.Data{*slot}}, func() error {
			return m.bd.Put(slot, m.payloads[c])
		})
	case loadgen.OpFetch:
		i := r.Intn(len(m.pre))
		return "fetch", oc.call("core.GetBytes", callArgs{ds: m.pre[i : i+1]}, func() error {
			got, err := m.bd.GetBytes(m.pre[i])
			if err != nil {
				return err
			}
			m.e.deliveries.Add(1)
			if !bytes.Equal(got, m.contents[i]) {
				return fmt.Errorf("fetch %s: content differs from the preload", m.pre[i].Name)
			}
			return nil
		})
	case loadgen.OpSchedule:
		i := r.Intn(len(m.pre))
		return "schedule", oc.call("core.Schedule", callArgs{ds: m.pre[i : i+1]}, func() error {
			return m.ad.Schedule(m.pre[i], scheduleAttr)
		})
	default:
		i := r.Intn(len(m.pre))
		return "search", oc.call("core.SearchData", callArgs{ds: m.pre[i : i+1]}, func() error {
			found, err := m.bd.SearchData(m.pre[i].Name)
			if err != nil {
				return err
			}
			for _, d := range found {
				if d.UID == m.pre[i].UID {
					return nil
				}
			}
			return fmt.Errorf("search %s: preloaded datum not returned (%d results)", m.pre[i].Name, len(found))
		})
	}
}

// after has nothing to check: mixed verifies every answer inside the op.
func (m *mixed) after(*rand.Rand, metrics) (int, []string, error) { return 0, nil, nil }

// pick draws an op class with probability proportional to its weight in
// the mix.
func pick(m loadgen.Mix, r *rand.Rand) loadgen.OpKind {
	n := r.Intn(m.Put + m.Fetch + m.Schedule + m.Search)
	switch {
	case n < m.Put:
		return loadgen.OpPut
	case n < m.Put+m.Fetch:
		return loadgen.OpFetch
	case n < m.Put+m.Fetch+m.Schedule:
		return loadgen.OpSchedule
	}
	return loadgen.OpSearch
}
