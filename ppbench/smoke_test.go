package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload briefly against a freshly built ppclustd,
// then replays it in-process: every op kind must be sent and succeed, the
// daemon's row counters must match, and the replay must produce every
// per-layer metric it owns. Too short for the percentile rule, so it
// checks ops rather than the reported percentiles.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs ppclustd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ppclustd")
	if out, err := exec.Command("go", "build", "-o", bin, "ppclust/cmd/ppclustd").CombinedOutput(); err != nil {
		t.Fatalf("building ppclustd: %v\n%s", err, out)
	}
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.generate(5)
			if err != nil {
				t.Fatal(err)
			}
			e, err := setup(ctx, bin, dir, w, in)
			if err != nil {
				t.Fatal(err)
			}
			m0, err := e.d.metrics(ctx, e.hc)
			if err != nil {
				e.close()
				t.Fatal(err)
			}
			tal, _ := e.phase(ctx, 6*time.Second, 5) // several rounds, so every kind runs
			m1, err := e.d.metrics(ctx, e.hc)
			e.close()
			if err != nil {
				t.Fatal(err)
			}
			if _, failed := tal.totals(); failed > 0 {
				t.Fatalf("%d ops failed: %q", failed, tal.errs)
			}
			for o, n := range tal.attempted {
				if n == 0 {
					t.Errorf("no %s op was sent", op(o))
				}
			}
			if got, want := m1["rows_recovered_total"]-m0["rows_recovered_total"], tal.rows[opRecover]; got != want {
				t.Errorf("daemon recovered %d rows, generator was served %d", got, want)
			}

			r, err := newReplay(w, in, filepath.Join(dir, w.name+"-replay"))
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			r.tr = newTracer(true)
			if _, err := r.pass(ctx); err != nil {
				t.Fatal(err)
			}
			vals, err := r.layers(filepath.Join(dir, w.name+"-probes"))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"codec.decode_ns_per_row", "engine.protect_ms", "datastore.read_ms_cold", "keyring.file_put_ms", "quality.silhouette_ms", "service.upload_ms"} {
				if _, ok := vals[name]; !ok {
					t.Errorf("replay did not measure %s", name)
				}
			}
			if len(r.tr.spans) == 0 {
				t.Error("traced replay recorded no spans")
			}
		})
	}
}

// TestBenchmarkJSON checks that the repository's BENCHMARK.json names
// workloads this program has and exactly the metrics it reports. The
// program may have more workloads than the file lists.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json has %d workloads, want at least 2", len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("workload %d: %v", i, err)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
}
