// Command ppbench is the end-to-end benchmark of ppclustd's served paths.
// It starts a real ppclustd, drives it over HTTP from one closed-loop
// generator with two connections, checks every response, and prints one
// JSON result line. With -trace 1 it also replays the same inputs
// in-process through each internal module's public API and reports the
// per-layer ledger instead. See README.md for every metric.
//
//	bash ppbench/run.sh --workload stream --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setups is how many times a run sets up a daemon; setup_s is their median.
const setups = 5

// warmup is the unmeasured traffic before the timed phase: it fills the
// block cache and lets lazy set-up finish.
const warmup = 5 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string // ppclustd binary
	work     string // directory for daemons, probes and results
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: stream, fit-wide or ingest-analytics")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 25, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report the per-layer ledger from a traced in-process replay")
	flag.StringVar(&cfg.daemon, "daemon", "", "ppclustd binary")
	flag.StringVar(&cfg.work, "work", ".bench_build", "work directory")
	flag.Parse()
	// The generator's heap is mostly the generated bodies; a higher GC
	// target keeps its own collections from competing with the daemon
	// for the CPUs.
	debug.SetGCPercent(400)
	cfg.trace = trace == 1
	if cfg.daemon == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "ppbench: need -daemon, -seconds >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run makes one benchmark run and returns its result line. The run's
// metadata line goes to out; failures go to standard error.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	in, err := w.generate(cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	// Earlier runs deleted their daemons' files; flush what the file
	// system still owes for them, so that this run's disk-backed writes
	// do not queue behind it.
	syscall.Sync()

	var e *env
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		if e, err = setup(ctx, cfg.daemon, tmp, w, in); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < setups-1 {
			e.close()
		}
	}
	vals, tal, meta, err := measure(ctx, cfg, e)
	e.close()
	if err != nil {
		return nil, err
	}
	vals["setup_s"] = median(setupTimes)

	attempted, failed := tal.totals()
	for _, msg := range tal.errs {
		fmt.Fprintln(os.Stderr, "ppbench: failed op:", msg)
	}
	defs := e2eMetrics
	if cfg.trace {
		if err := replayLayers(ctx, w, in, tmp, cfg, vals); err != nil {
			return nil, err
		}
		defs = layerMetrics
	}
	metrics, err := pick(defs, vals)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: failed == 0 && meta.CountersOK, Attempted: attempted, Failed: failed, Metrics: metrics}
	if err := writeResult(cfg, meta, vals); err != nil {
		return nil, err
	}
	raw, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, "# meta", string(raw))
	return res, nil
}

// runMeta describes where and on what a run happened.
type runMeta struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	NProc      int            `json:"nproc"`
	GoMaxProcs int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	SourceSHA  string         `json:"source_sha256"`
	Ops        map[string]int `json:"ops_attempted"`
	Elapsed    float64        `json:"timed_phase_s"`
	// StealS is CPU time the hypervisor took from this machine during the
	// timed phase: high values explain a slow run.
	StealS float64 `json:"host_steal_s"`
	// Phases is how many timed phases the run made (see maxSteal).
	Phases     int  `json:"timed_phases"`
	CountersOK bool `json:"daemon_counters_match"`
}

// measure runs the warm-up and the timed phase on a set-up daemon and
// derives the end-to-end metrics, plus the per-layer metrics that come
// from the daemon's counters and the generator's own clock.
func measure(ctx context.Context, cfg config, e *env) (vals map[string]float64, tal *tally, meta runMeta, err error) {
	e.phase(ctx, warmup, cfg.seed+7919)
	var win *window
	attempt := 1
	for ; ; attempt++ {
		w, err := timed(ctx, cfg, e)
		if err != nil {
			return nil, nil, meta, err
		}
		if win == nil || w.stealShare() < win.stealShare() {
			win = w
		}
		if win.stealShare() <= maxSteal || attempt == maxAttempts {
			break
		}
		fmt.Fprintf(os.Stderr, "ppbench: the hypervisor took %.1f%% of the CPUs during the timed phase; timing it again\n", 100*w.stealShare())
	}
	tal, elapsed := win.tal, win.elapsed
	m0, m1, p0, p1, c0, c1 := win.m0, win.m1, win.p0, win.p1, win.c0, win.c1
	end, err := e.d.proc() // VmHWM at the end of the run, after every phase
	if err != nil {
		return nil, nil, meta, err
	}
	delta := func(k string) int64 { return m1[k] - m0[k] }

	meta = runMeta{
		Workload: e.w.name, Seed: cfg.seed, Seconds: cfg.seconds,
		NProc: runtime.NumCPU(), GoMaxProcs: int(m1["engine_workers"]),
		GoVersion: goVersion(m1), Commit: commit(), SourceSHA: sourceDigest(),
		Ops: map[string]int{}, Elapsed: elapsed.Seconds(), StealS: win.steal.Seconds(), Phases: attempt, CountersOK: true,
	}
	for o, n := range tal.attempted {
		meta.Ops[op(o).String()] = n
	}
	// The daemon's row counters must agree with the rows the generator
	// had served.
	for _, c := range []struct {
		name string
		want int64
	}{
		{"rows_protected_total", tal.rows[opProtectStream] + tal.rows[opProtectFit]},
		{"rows_recovered_total", tal.rows[opRecover]},
		{"rows_ingested_total", tal.rows[opUpload]},
	} {
		if got := delta(c.name); got != c.want {
			meta.CountersOK = false
			fmt.Fprintf(os.Stderr, "ppbench: %s moved by %d, the generator was served %d rows\n", c.name, got, c.want)
		}
	}

	vals = map[string]float64{
		"payload_mb_s": float64(tal.payload) / 1e6 / elapsed.Seconds(),
		"peak_rss_mb":  float64(end.hwmKB) * 1024 / 1e6,
	}
	for o := op(0); o < opDelete; o++ {
		p50, err := percentile(tal.lat[o], 0.5)
		if err != nil {
			return nil, nil, meta, fmt.Errorf("%s: %w", o, err)
		}
		pt, err := percentile(tal.lat[o], tail[o])
		if err != nil {
			return nil, nil, meta, fmt.Errorf("%s: %w", o, err)
		}
		vals[o.String()+"_p50_ms"] = p50
		vals[fmt.Sprintf("%s_p%d_ms", o, int(math.Round(tail[o]*100)))] = pt
	}

	attempted, _ := tal.totals()
	ops := float64(max(1, attempted))
	hits, misses := delta("datastore_cache_hits_total"), delta("datastore_cache_misses_total")
	ratio := 1.0 // the in-memory store has no block cache: every read is served from memory
	if _, ok := m1["datastore_cache_hits_total"]; ok && hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	var queue, runMs, lag []float64
	for _, j := range tal.jobs {
		queue, runMs, lag = append(queue, j.queueWait), append(runMs, j.run), append(lag, j.observeLag)
	}
	vals["ppclustd.cpu_ms_per_op"] = ms(p1.cpu-p0.cpu) / ops
	vals["runtime.mallocs_per_op"] = float64(delta("go_mallocs_total")) / ops
	vals["runtime.gc_cycles_per_op"] = float64(delta("go_gc_cycles_total")) / ops
	vals["runtime.gc_pause_us_per_op"] = float64(delta("go_gc_pause_us_total")) / ops
	vals["datastore.cache_hit_ratio"] = ratio
	vals["jobs.queue_wait_ms"] = median(queue)
	vals["jobs.run_ms"] = median(runMs)
	vals["jobs.observe_lag_ms"] = median(lag)
	vals["client.cpu_ms_per_op"] = ms(c1-c0) / ops
	return vals, tal, meta, nil
}

// A timed phase during which the hypervisor took more than maxSteal of the
// machine's CPU time is timed again, up to maxAttempts phases in all; the
// run reports the phase with the least steal. Steal is time this machine
// wanted to run and another guest ran instead, so it says nothing about
// the code under test, yet it doubles the tail latencies.
const (
	maxSteal    = 0.03
	maxAttempts = 2
)

// window is one timed phase with the counters read around it.
type window struct {
	tal            *tally
	elapsed, steal time.Duration
	m0, m1         map[string]int64
	p0, p1         procSample
	c0, c1         time.Duration
}

func (w *window) stealShare() float64 {
	return w.steal.Seconds() / (w.elapsed.Seconds() * float64(runtime.NumCPU()))
}

// timed runs one timed phase and reads the daemon's metrics and /proc,
// the generator's CPU time and the machine's steal time around it.
func timed(ctx context.Context, cfg config, e *env) (*window, error) {
	w := &window{}
	var err error
	if w.m0, err = e.d.metrics(ctx, e.hc); err != nil {
		return nil, err
	}
	if w.p0, err = e.d.proc(); err != nil {
		return nil, err
	}
	w.c0 = clientCPU()
	s0 := hostSteal()
	w.tal, w.elapsed = e.phase(ctx, time.Duration(cfg.seconds)*time.Second, cfg.seed)
	w.c1, w.steal = clientCPU(), hostSteal()-s0
	if w.p1, err = e.d.proc(); err != nil {
		return nil, err
	}
	if w.m1, err = e.d.metrics(ctx, e.hc); err != nil {
		return nil, err
	}
	return w, nil
}

// replayLayers runs the untraced and the traced in-process replay and the
// module probes, writes the spans out, and adds the replay's per-layer
// metrics to vals.
func replayLayers(ctx context.Context, w *workload, in *inputs, tmp string, cfg config, vals map[string]float64) error {
	var passes [2][numOps][]float64
	var wall [2]time.Duration
	var rp *replay
	for i, traced := range []bool{false, true} {
		r, err := newReplay(w, in, filepath.Join(tmp, fmt.Sprintf("replay-%d", i)))
		if err != nil {
			return fmt.Errorf("replay set-up: %w", err)
		}
		r.tr = newTracer(traced)
		start := time.Now()
		passes[i], err = r.pass(ctx)
		wall[i] = time.Since(start)
		if err != nil || !traced {
			r.close()
		}
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		rp = r
	}
	defer rp.close()
	layers, err := rp.layers(filepath.Join(tmp, "probes"))
	if err != nil {
		return err
	}
	for k, v := range layers {
		vals[k] = v
	}
	for o := op(0); o < opDelete; o++ {
		vals["ppclustd.self_ms."+o.String()] = vals[o.String()+"_p50_ms"] - median(passes[1][o])
	}
	vals["trace.overhead_pct"] = 100 * (wall[1].Seconds() - wall[0].Seconds()) / wall[0].Seconds()
	for name, self := range selfByName(rp.tr.spans) {
		vals["self_ms_total."+name] = self
	}
	dir := filepath.Join(cfg.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.jsonl", w.name, cfg.seed)), rp.tr.spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// writeResult keeps the full record of a run under the work directory:
// metadata, every end-to-end and per-layer value measured, and, for a
// traced run, the self time summed per span name.
func writeResult(cfg config, meta runMeta, vals map[string]float64) error {
	dir := filepath.Join(cfg.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	raw, err := json.MarshalIndent(map[string]any{"meta": meta, "values": vals}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace)), raw, 0o644)
}

// clientCPU is the generator's own user plus system CPU time.
func clientCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal is the machine's total steal time from /proc/stat (0 where
// it cannot be read).
func hostSteal() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * clockTick
}

// goVersion reads the daemon's toolchain from its go_build_info metric.
func goVersion(snap map[string]int64) string {
	for k := range snap {
		if rest, ok := strings.CutPrefix(k, `go_build_info{goversion="`); ok {
			if i := strings.IndexByte(rest, '"'); i >= 0 {
				return rest[:i]
			}
		}
	}
	return runtime.Version()
}

// commit is the checked-out commit when the tree is a git checkout.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// sourceDigest hashes the repository's Go sources outside the benchmark,
// which identifies the code under test where no git metadata exists.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || p == "ppbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || p == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}
