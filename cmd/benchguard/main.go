// Command benchguard is the CI regression gate over benchjson artifacts.
// It compares speedup ratios — not absolute ns/op — between a committed
// baseline document and the current run, so the gate holds on any runner
// speed: a ratio like serial-path / kernel-path time is a property of the
// code, while raw nanoseconds are a property of the machine.
//
// Usage:
//
//	benchguard -baseline bench/BENCH_ppspeed_baseline.json \
//	           -current BENCH_ppspeed.json \
//	           -tolerance 0.15 \
//	           -ratio 'BenchmarkEngineProtectParallel/serial:BenchmarkEngineProtectParallel/workers=1' \
//	           -ratio 'BenchmarkWireIngestProtect/csv:BenchmarkWireIngestProtect/binary'
//
// Each -ratio names slow:fast benchmarks; the guarded quantity is
// slowNs/fastNs (how many times faster the fast path is). The gate fails
// when the current ratio falls more than -tolerance below the baseline's
// — e.g. the engine kernel or the binary wire path losing >15% of
// their measured advantage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// result and doc mirror benchjson's artifact (only the fields the guard
// reads).
type result struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
}

type doc struct {
	Benchmarks []result `json:"benchmarks"`
}

// ratioSpec is one slow:fast pair to guard.
type ratioSpec struct{ slow, fast string }

type ratioFlags []ratioSpec

func (r *ratioFlags) String() string { return fmt.Sprintf("%v", []ratioSpec(*r)) }

func (r *ratioFlags) Set(v string) error {
	slow, fast, ok := strings.Cut(v, ":")
	if !ok || slow == "" || fast == "" {
		return fmt.Errorf("want slowBench:fastBench, got %q", v)
	}
	*r = append(*r, ratioSpec{slow: slow, fast: fast})
	return nil
}

func load(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var d doc
	if err := json.NewDecoder(f).Decode(&d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	ns := make(map[string]float64, len(d.Benchmarks))
	for _, b := range d.Benchmarks {
		ns[b.Name] = b.NsPerOp
	}
	return ns, nil
}

func ratio(ns map[string]float64, spec ratioSpec, src string) (float64, error) {
	slow, ok := ns[spec.slow]
	if !ok {
		return 0, fmt.Errorf("%s: no benchmark %q", src, spec.slow)
	}
	fast, ok := ns[spec.fast]
	if !ok {
		return 0, fmt.Errorf("%s: no benchmark %q", src, spec.fast)
	}
	if fast <= 0 || slow <= 0 {
		return 0, fmt.Errorf("%s: non-positive ns/op for %q or %q", src, spec.slow, spec.fast)
	}
	return slow / fast, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "", "committed benchjson baseline document")
	currentPath := fs.String("current", "", "benchjson document from this run")
	tolerance := fs.Float64("tolerance", 0.15, "allowed fractional drop of a speedup ratio before failing")
	var ratios ratioFlags
	fs.Var(&ratios, "ratio", "slowBench:fastBench speedup to guard (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baselinePath == "" || *currentPath == "" || len(ratios) == 0 {
		return fmt.Errorf("need -baseline, -current and at least one -ratio")
	}
	base, err := load(*baselinePath)
	if err != nil {
		return err
	}
	cur, err := load(*currentPath)
	if err != nil {
		return err
	}

	var failures []string
	for _, spec := range ratios {
		br, err := ratio(base, spec, *baselinePath)
		if err != nil {
			return err
		}
		cr, err := ratio(cur, spec, *currentPath)
		if err != nil {
			return err
		}
		floor := br * (1 - *tolerance)
		status := "ok"
		if cr < floor {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s vs %s: speedup %.2fx < %.2fx (baseline %.2fx -%.0f%%)",
				spec.fast, spec.slow, cr, floor, br, *tolerance*100))
		}
		fmt.Fprintf(stdout, "%-10s %s vs %s: baseline %.2fx, current %.2fx (floor %.2fx)\n",
			status, spec.fast, spec.slow, br, cr, floor)
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}
