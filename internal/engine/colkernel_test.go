package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"ppclust/internal/core"
	"ppclust/internal/matrix"
	"ppclust/internal/norm"
	"ppclust/internal/stats"
)

// gridCols and gridMethods span the kernel's branches: even column counts
// get the disjoint round-robin schedule (sums fused into the gather), odd
// ones an overlapping schedule (per-pair sums).
var (
	gridCols    = []int{4, 7, 16}
	gridMethods = []string{NormZScore, NormMinMax, NormNone}
)

// oracle runs the reference pipeline: norm.FitTransform for Step 1, then
// core.Transform for Step 2. It returns the fitted Step 1 parameters
// alongside core's result so callers can compare them too.
func oracle(t *testing.T, data *matrix.Dense, method string, opts core.Options) (res *core.Result, paramsA, paramsB []float64) {
	t.Helper()
	normalized := data
	var err error
	switch method {
	case NormZScore:
		z := &norm.ZScore{Denominator: stats.Sample}
		if normalized, err = norm.FitTransform(z, data); err != nil {
			t.Fatal(err)
		}
		paramsA, paramsB = z.Params()
	case NormMinMax:
		mm := &norm.MinMax{}
		if normalized, err = norm.FitTransform(mm, data); err != nil {
			t.Fatal(err)
		}
		paramsA, paramsB = mm.Params()
	}
	if res, err = core.Transform(normalized, opts); err != nil {
		t.Fatal(err)
	}
	return res, paramsA, paramsB
}

// sameBits reports whether a and b hold bit-identical elements.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// assertSameResult fails unless two protect outcomes agree bit for bit in
// release, angles and fitted parameters.
func assertSameResult(t *testing.T, label string, want, got *ProtectResult) {
	t.Helper()
	if !sameBits(want.Released.Raw(), got.Released.Raw()) {
		t.Fatalf("%s: released matrix differs", label)
	}
	if !sameBits(want.Key.AnglesDeg, got.Key.AnglesDeg) {
		t.Fatalf("%s: angles differ: %v vs %v", label, want.Key.AnglesDeg, got.Key.AnglesDeg)
	}
	if !sameBits(want.ParamsA, got.ParamsA) || !sameBits(want.ParamsB, got.ParamsB) {
		t.Fatalf("%s: normalization params differ", label)
	}
}

// TestKernelMatchesCore makes internal/core the kernel's oracle: with one
// row block (blockRows >= m) Protect must reproduce norm.FitTransform +
// core.Transform bit for bit — release, angles and Step 1 parameters —
// across every column count and normalization of the grid.
func TestKernelMatchesCore(t *testing.T) {
	const m, seed = 3000, 4242
	pst := []core.PST{{Rho1: 1e-9, Rho2: 1e-9}}
	for _, n := range gridCols {
		data := randData(m, n, int64(100+n))
		for _, method := range gridMethods {
			label := fmt.Sprintf("n=%d %s", n, method)
			got, err := New(4, m).Protect(data, ProtectOptions{Normalization: method, Thresholds: pst, Seed: seed})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, paramsA, paramsB := oracle(t, data, method, core.Options{
				Thresholds: pst,
				Rand:       rand.New(rand.NewSource(seed)),
			})
			if !sameBits(want.DPrime.Raw(), got.Released.Raw()) {
				t.Fatalf("%s: release differs from core.Transform", label)
			}
			if !sameBits(want.Key.AnglesDeg, got.Key.AnglesDeg) {
				t.Fatalf("%s: angles differ from core.Transform: %v vs %v", label, want.Key.AnglesDeg, got.Key.AnglesDeg)
			}
			if !sameBits(paramsA, got.ParamsA) || !sameBits(paramsB, got.ParamsB) {
				t.Fatalf("%s: normalization params differ from internal/norm", label)
			}
		}
	}
}

// TestColumnarFixedAngles covers the fixed-angle branch (no RNG use) with
// an explicit overlapping pair schedule against the core oracle.
func TestColumnarFixedAngles(t *testing.T) {
	const m = 5003
	data := randData(m, 4, 9)
	pairs := []core.Pair{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}}
	pst := []core.PST{{Rho1: 1e-9, Rho2: 1e-9}}
	angles := []float64{33, 120, 261}
	got, err := New(4, m).Protect(data, ProtectOptions{
		Normalization: NormZScore, Pairs: pairs, Thresholds: pst, FixedAngles: angles,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := oracle(t, data, NormZScore, core.Options{Pairs: pairs, Thresholds: pst, FixedAngles: angles})
	if !sameBits(want.DPrime.Raw(), got.Released.Raw()) {
		t.Fatal("fixed-angle release differs from core.Transform")
	}
}

// TestColumnarAllocSteadyState pins the pooled gather buffer: with the
// pool warm, default Protect allocates the release and O(1) small result
// state, never a second data-sized buffer, so neither the allocation count
// nor the bytes beyond the release grow with the row count. A regression
// from the colScratch pool to a per-call gather allocation (12.8 MB at
// 100k×16) fails the byte check.
func TestColumnarAllocSteadyState(t *testing.T) {
	const n, small = 16, 10_000
	e := New(1, 0) // single worker: forBlocks spawns no goroutines to count
	opts := ProtectOptions{Thresholds: []core.PST{{Rho1: 1e-9, Rho2: 1e-9}}, Seed: 11}
	measure := func(m int) (allocs float64, extraBytes uint64) {
		data := randData(m, n, 33)
		protect := func() {
			if _, err := e.Protect(data, opts); err != nil {
				t.Fatal(err)
			}
		}
		protect() // warm the pools
		// A GC empties sync.Pools, and at 100k rows the release alone
		// triggers one every few calls; hold GC off while counting so
		// the count reflects the code, not the collector's pacing.
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		allocs = testing.AllocsPerRun(3, protect)
		debug.SetGCPercent(gcPercent)
		// sync.Pool may drop a Put (always possible across two GCs, and
		// at random under the race detector), so keep the cheapest of
		// several calls: one call that reused the buffer proves reuse.
		extraBytes = math.MaxUint64
		for i := 0; i < 8; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			protect()
			runtime.ReadMemStats(&after)
			extraBytes = min(extraBytes, after.TotalAlloc-before.TotalAlloc-uint64(m*n*8))
		}
		return allocs, extraBytes
	}
	smallAllocs, smallBytes := measure(small)
	bigAllocs, bigBytes := measure(10 * small)
	t.Logf("allocs/op: %.0f at 10k rows, %.0f at 100k; bytes beyond the release: %d, %d",
		smallAllocs, bigAllocs, smallBytes, bigBytes)
	// The race detector drops pooled buffers at random, which makes
	// allocation counts noisy; the byte check below still holds there.
	if !raceEnabled && bigAllocs != smallAllocs {
		t.Fatalf("allocations grow with rows: %.0f at 10k, %.0f at 100k", smallAllocs, bigAllocs)
	}
	if bigBytes > 256<<10 {
		t.Fatalf("protect allocated %d bytes beyond the release at 100k rows, want <= 256KiB", bigBytes)
	}
}

// TestColumnarNaNRejected: under NormNone the finiteness check happens
// inside the gather.
func TestColumnarNaNRejected(t *testing.T) {
	data := randData(1000, 4, 2)
	data.SetAt(517, 2, math.NaN())
	_, err := New(4, 0).Protect(data, ProtectOptions{
		Normalization: NormNone,
		Thresholds:    []core.PST{{Rho1: 1e-9, Rho2: 1e-9}},
		Seed:          3,
	})
	if err == nil {
		t.Fatal("NormNone accepted NaN input")
	}
}

// TestColumnarSharedRand runs two Protect calls off one shared *rand.Rand
// and the same two fits through the core oracle off an identically seeded
// source: the kernel must consume the stream exactly like core.Transform,
// or the second call's angles would desynchronize.
func TestColumnarSharedRand(t *testing.T) {
	const m = 4096
	data := randData(m, 6, 77)
	pst := []core.PST{{Rho1: 1e-9, Rho2: 1e-9}}
	e := New(3, m)
	shared := rand.New(rand.NewSource(5))
	ref := rand.New(rand.NewSource(5))
	for call := 0; call < 2; call++ {
		got, err := e.Protect(data, ProtectOptions{Thresholds: pst, Rand: shared})
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := oracle(t, data, NormZScore, core.Options{Thresholds: pst, Rand: ref})
		if !sameBits(want.Key.AnglesDeg, got.Key.AnglesDeg) || !sameBits(want.DPrime.Raw(), got.Released.Raw()) {
			t.Fatalf("call %d: shared-rand sequence diverges from core.Transform", call)
		}
	}
}
