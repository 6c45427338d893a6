package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"ppclust/internal/codec"
	"ppclust/internal/dataset"
	"ppclust/internal/matrix"
)

// op is one kind of served request the generator sends.
type op int

const (
	opProtectStream op = iota
	opRecover
	opRowsGet
	opProtectFit
	opUpload
	opClusterJob
	opDelete
	numOps
)

var opNames = [numOps]string{
	"protect_stream", "recover", "rows_get", "protect_fit", "upload", "cluster_job", "delete",
}

func (o op) String() string { return opNames[o] }

// tail is the reported high percentile of each op: p99 for the streamed
// paths, p95 for the slower ones (a p99 would need 1000 samples per run).
var tail = [numOps]float64{0.99, 0.99, 0.99, 0.95, 0.95, 0.95, 0}

// shape is a rows × cols matrix size.
type shape struct{ Rows, Cols int }

func (s shape) bytes() int64 { return int64(s.Rows) * int64(s.Cols) * 8 }

// round is how many ops of each kind one connection sends per round. Fresh
// datasets are uploaded in sessions that delete them again, so the live
// set stays bounded: round[opUpload] counts upload-and-delete sessions,
// round[opClusterJob] counts sessions that run a cluster job between the
// two, and round[opDelete] must stay 0.
type round [numOps]int

// workload is one traffic mix. Every mix sends every served path, so every
// end-to-end metric is defined on every workload; the shapes and counts
// decide which layer dominates.
type workload struct {
	name string
	// diskBacked runs the daemon with -data-dir and -keyring in a fresh
	// directory; otherwise keyring and datastore are in memory.
	diskBacked bool
	// cacheFrac sets -cache-bytes to this share of the stored corpus
	// (0: the daemon's default).
	cacheFrac float64

	owners   int   // stream owners: one key and `datasets` stored datasets each
	datasets int   // stored datasets per stream owner
	stored   shape // stored dataset shape; the owner's key is fitted on its first one
	batch    shape // protect_stream and recover body
	batches  int   // distinct batch bodies per owner

	fitOwners int   // owners whose key every protect_fit rotates
	fit       shape // protect_fit body
	fitBodies int

	fresh       shape // dataset each session uploads and clusters
	freshBodies int
	freshK      int

	round round
}

var workloads = []*workload{
	{
		name:   "stream",
		owners: 8, datasets: 1, stored: shape{4096, 8}, batch: shape{4096, 8}, batches: 4,
		fitOwners: 2, fit: shape{512, 8}, fitBodies: 2,
		fresh: shape{512, 8}, freshBodies: 4, freshK: 3,
		round: round{opProtectStream: 16, opRecover: 4, opRowsGet: 8, opProtectFit: 1, opUpload: 3, opClusterJob: 1},
	},
	{
		name:   "fit-wide",
		owners: 4, datasets: 1, stored: shape{256, 32}, batch: shape{256, 32}, batches: 4,
		fitOwners: 4, fit: shape{20000, 32}, fitBodies: 4,
		fresh: shape{256, 8}, freshBodies: 4, freshK: 3,
		round: round{opProtectStream: 5, opRecover: 5, opRowsGet: 5, opProtectFit: 1, opUpload: 3, opClusterJob: 1},
	},
	{
		name:       "ingest-analytics",
		diskBacked: true, cacheFrac: 0.25,
		owners: 8, datasets: 4, stored: shape{4096, 8}, batch: shape{2048, 8}, batches: 2,
		fitOwners: 2, fit: shape{256, 8}, fitBodies: 2,
		fresh: shape{1024, 8}, freshBodies: 8, freshK: 3,
		round: round{opProtectStream: 8, opRecover: 8, opRowsGet: 8, opProtectFit: 1, opUpload: 1, opClusterJob: 1},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// corpusBytes is the float payload of every stored dataset.
func (w *workload) corpusBytes() int64 {
	return int64(w.owners*w.datasets) * w.stored.bytes()
}

// cacheBytes is the daemon's -cache-bytes (0: its default).
func (w *workload) cacheBytes() int64 {
	return int64(w.cacheFrac * float64(w.corpusBytes()))
}

// body is one generated matrix with its binary (PPRW) request body.
type body struct {
	data   *matrix.Dense
	labels []int
	enc    []byte
	// means and stds are the sample z-score parameters of data, the ones
	// the engine fits; a release of data preserves distances between
	// rows normalized with them (Corollary 1).
	means, stds []float64
}

// inputs is everything a workload sends, generated from the seed alone.
type inputs struct {
	stored  [][]*body // [owner][dataset]
	batches [][]*body // [owner][i], drawn from the owner's distribution
	fits    []*body
	fresh   []*body
}

// generate builds the workload's inputs from seed. The same seed always
// yields byte-identical bodies.
func (w *workload) generate(seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for o := 0; o < w.owners; o++ {
		var stored, batches []*body
		for d := 0; d < w.datasets; d++ {
			b, err := blobs(w.stored, 3, rng)
			if err != nil {
				return nil, err
			}
			stored = append(stored, b)
		}
		for i := 0; i < w.batches; i++ {
			b, err := blobs(w.batch, 3, rng)
			if err != nil {
				return nil, err
			}
			batches = append(batches, b)
		}
		in.stored = append(in.stored, stored)
		in.batches = append(in.batches, batches)
	}
	for i := 0; i < w.fitBodies; i++ {
		b, err := blobs(w.fit, 3, rng)
		if err != nil {
			return nil, err
		}
		in.fits = append(in.fits, b)
	}
	for i := 0; i < w.freshBodies; i++ {
		b, err := blobs(w.fresh, w.freshK, rng)
		if err != nil {
			return nil, err
		}
		in.fresh = append(in.fresh, b)
	}
	return in, nil
}

// blobs draws k well-separated Gaussian blobs: k-means recovers them
// exactly, so a cluster job's partition can be checked against the labels.
func blobs(s shape, k int, rng *rand.Rand) (*body, error) {
	ds, err := dataset.WellSeparatedBlobs(s.Rows, k, s.Cols, 12, rng)
	if err != nil {
		return nil, err
	}
	enc, err := encode(ds.Names, ds.Data)
	if err != nil {
		return nil, err
	}
	means, stds := zParams(ds.Data)
	return &body{data: ds.Data, labels: ds.Labels, enc: enc, means: means, stds: stds}, nil
}

// encode writes m as one PPRW stream, the way a client sends it.
func encode(names []string, m *matrix.Dense) ([]byte, error) {
	var buf bytes.Buffer
	cw := codec.NewWriter(&buf)
	if err := cw.WriteHeader(names, false); err != nil {
		return nil, err
	}
	if err := cw.WriteBatch(m, nil); err != nil {
		return nil, err
	}
	if err := cw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// zParams returns per-column means and sample standard deviations.
func zParams(m *matrix.Dense) (means, stds []float64) {
	rows, cols := m.Dims()
	means = make([]float64, cols)
	stds = make([]float64, cols)
	for i := 0; i < rows; i++ {
		for j, v := range m.RawRow(i) {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(rows)
	}
	for i := 0; i < rows; i++ {
		for j, v := range m.RawRow(i) {
			d := v - means[j]
			stds[j] += d * d
		}
	}
	for j := range stds {
		stds[j] = math.Sqrt(stds[j] / float64(rows-1))
	}
	return means, stds
}
