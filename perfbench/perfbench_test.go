package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bitdew/internal/repository"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// smoke runs a workload briefly and parses its two output lines.
func smoke(t *testing.T, o options) (report map[string]any, res result) {
	t.Helper()
	o.seed = 1
	o.window = time.Second
	o.warmup = 200 * time.Millisecond
	o.dir = t.TempDir()
	out, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := printResult(&buf, out, o.trace); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("want a report line and a result line, got %d lines", len(lines))
	}
	if err := json.Unmarshal(lines[0], &report); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[1], &res); err != nil {
		t.Fatal(err)
	}
	return report, res
}

// sameMetrics checks got names exactly the declared metrics, each with its
// declared unit.
func sameMetrics(t *testing.T, got metrics, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s not printed", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s printed in %q, declared in %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s printed but not declared", name)
		}
	}
}

// namedByWorkload lists each workload's own end-to-end figures, which the
// report line carries beside the declared metrics.
var namedByWorkload = map[string][]string{
	"mixed":      {"fetch_p99_ms", "put_p99_ms", "search_p99_ms", "schedule_p99_ms", "peak_rss_mb", "error_ratio"},
	"ingest":     {"put_p99_ms", "peak_rss_mb", "error_ratio"},
	"distribute": {"wave_p50_ms", "wave_p90_ms", "deliveries_per_s", "peak_rss_mb", "error_ratio"},
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	e2e, layer := declared(t)
	for _, name := range []string{"mixed", "ingest", "distribute"} {
		t.Run(name, func(t *testing.T) {
			report, res := smoke(t, options{workload: name})
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("run not clean: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			sameMetrics(t, res.Metrics, e2e)
			for m := range e2e {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
				}
			}
			named := report["report"].(map[string]any)["end_to_end"].(map[string]any)
			for _, m := range namedByWorkload[name] {
				entry, ok := named[m].(map[string]any)
				if !ok || entry["unit"] == "" {
					t.Errorf("report lacks %s with its unit", m)
				}
			}

			_, traced := smoke(t, options{workload: name, trace: true})
			if !traced.Correct {
				t.Fatalf("traced run not clean: failed=%d", traced.Failed)
			}
			sameMetrics(t, traced.Metrics, layer)
			// Each mixed search returns one datum but scans every row of
			// both shards' catalogs.
			if got := traced.Metrics["catalog.rows_per_result"].Value; name == "mixed" && got < mixedPreload {
				t.Errorf("catalog.rows_per_result = %v, want at least the %d preloaded rows", got, mixedPreload)
			}
		})
	}
}

// flipBackend corrupts the first byte of everything read back.
type flipBackend struct{ repository.Backend }

func (b flipBackend) Get(ref string) ([]byte, error) {
	c, err := b.Backend.Get(ref)
	if err == nil && len(c) > 0 {
		c[0] ^= 0xff
	}
	return c, err
}

func TestCorruptedClientStorageFailsTheCheck(t *testing.T) {
	_, res := smoke(t, options{workload: "mixed", wrapLocal: func(b repository.Backend) repository.Backend {
		return flipBackend{b}
	}})
	if res.Correct || res.Failed == 0 {
		t.Fatalf("byte-flipping client storage went unnoticed: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}
