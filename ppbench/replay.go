package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"ppclust"
	"ppclust/internal/cluster"
	"ppclust/internal/codec"
	"ppclust/internal/core"
	"ppclust/internal/datastore"
	"ppclust/internal/engine"
	"ppclust/internal/federation"
	"ppclust/internal/jobs"
	"ppclust/internal/keyring"
	"ppclust/internal/matrix"
	"ppclust/internal/quality"
	"ppclust/internal/service"
)

// streamBatchRows is ppclustd's default -batch-rows: the handler reads
// stream bodies in batches of this many rows.
const streamBatchRows = 4096

// replay drives a workload's generated inputs in-process through the
// public calls ppclustd's handlers make, wired as examples/embedded wires
// service.Services. Every call is a span when the tracer is on.
type replay struct {
	w         *workload
	in        *inputs
	svc       *service.Services
	mgr       *jobs.Manager
	owners    []string
	fitOwners []string
	released  [][][]byte // [owner][batch]: release of the batch, a recover body
	tr        *tracer
	ops       int // op ids handed out
	buf       bytes.Buffer
	sess      int
}

// replayReps is how many ops of each kind one replay pass makes.
var replayReps = [numOps]int{
	opProtectStream: 32, opRecover: 16, opRowsGet: 32, opProtectFit: 8, opUpload: 8,
}

func fitOptions(seed int64) engine.ProtectOptions {
	return engine.ProtectOptions{
		Normalization: engine.NormZScore,
		Thresholds:    []core.PST{{Rho1: 0.3, Rho2: 0.3}},
		Seed:          seed,
	}
}

// newReplay wires an in-process service the way the workload's daemon is
// configured (disk-backed ones under dir) and seeds it like setup does.
func newReplay(w *workload, in *inputs, dir string) (*replay, error) {
	var keys keyring.Store = keyring.NewMemory()
	var store datastore.Store = datastore.NewMemory()
	if w.diskBacked {
		fk, err := keyring.OpenFile(filepath.Join(dir, "keys.json"))
		if err != nil {
			return nil, err
		}
		ds, err := datastore.OpenDirOptions(filepath.Join(dir, "data"), datastore.DirOptions{CacheBytes: w.cacheBytes()})
		if err != nil {
			return nil, err
		}
		keys, store = fk, ds
	}
	mgr := jobs.New(jobs.Config{Workers: max(2, runtime.GOMAXPROCS(0))})
	r := &replay{
		w: w, in: in, mgr: mgr, tr: newTracer(false),
		svc: service.New(service.Config{
			Engine: engine.New(0, 0), Keys: keys, Store: store, Jobs: mgr, Federations: federation.NewMemory(),
		}),
	}
	ctx := context.Background()
	for o := 0; o < w.owners; o++ {
		name := fmt.Sprintf("o%d", o)
		if err := r.fit(ctx, name, in.stored[o][0], int64(1000+o)); err != nil {
			return nil, err
		}
		for d := 0; d < w.datasets; d++ {
			if _, err := r.svc.Datasets.Upload(ctx, service.UploadRequest{Owner: name, Name: fmt.Sprintf("d%d", d)},
				codec.NewReader(bytes.NewReader(in.stored[o][d].enc))); err != nil {
				return nil, err
			}
		}
		var rel [][]byte
		for _, b := range in.batches[o] {
			if err := r.stream(0, name, b.enc, false); err != nil {
				return nil, err
			}
			rel = append(rel, bytes.Clone(r.buf.Bytes()))
		}
		r.owners = append(r.owners, name)
		r.released = append(r.released, rel)
	}
	for f := 0; f < w.fitOwners; f++ {
		name := fmt.Sprintf("f%d", f)
		if err := r.fit(ctx, name, in.fits[f%len(in.fits)], int64(2000+f)); err != nil {
			return nil, err
		}
		r.fitOwners = append(r.fitOwners, name)
	}
	return r, nil
}

func (r *replay) close() { r.mgr.Close() }

// fit is the fit-protect handler path: ReadAll, FitProtect, encode.
func (r *replay) fit(ctx context.Context, owner string, b *body, seed int64) error {
	root := r.tr.start("op.protect_fit", 0, r.ops)
	defer r.tr.end(root)
	var data *matrix.Dense
	var err error
	r.tr.do("service.read_all", root, r.ops, func(int) {
		data, err = service.ReadAll(codec.NewReader(bytes.NewReader(b.enc)))
	})
	if err != nil {
		return err
	}
	var res service.FitResult
	r.tr.do("service.fit_protect", root, r.ops, func(int) {
		var st service.OwnerState
		if st, err = r.svc.Keys.State(owner); err == nil {
			res, err = r.svc.Keys.FitProtect(ctx, owner, st, data, fitOptions(seed))
		}
	})
	if err != nil {
		return err
	}
	r.tr.do("codec.encode", root, r.ops, func(int) {
		err = r.encodeRows(b.data.Cols(), func(cw *codec.Writer) error {
			for i := 0; i < res.Released.Rows(); i++ {
				if err := cw.WriteRow(res.Released.RawRow(i)); err != nil {
					return err
				}
			}
			return nil
		})
	})
	return err
}

// encodeRows writes a PPRW stream into r.buf: header, rows, end frame.
func (r *replay) encodeRows(cols int, rows func(*codec.Writer) error) error {
	r.buf.Reset()
	cw := codec.NewWriter(&r.buf)
	names := make([]string, cols)
	for j := range names {
		names[j] = fmt.Sprintf("x%d", j)
	}
	if err := cw.WriteHeader(names, false); err != nil {
		return err
	}
	if err := rows(cw); err != nil {
		return err
	}
	return cw.Close()
}

// stream is the stream-protect (or recover) handler path: ReadBatch,
// Transform, encode, batch by batch. The output is left in r.buf.
func (r *replay) stream(parent int, owner string, enc []byte, recover bool) error {
	var tr *service.BatchTransformer
	var err error
	if recover {
		tr, err = r.svc.Keys.Recoverer(owner, "")
	} else {
		tr, err = r.svc.Keys.StreamProtector(owner, "")
	}
	if err != nil {
		return err
	}
	rd := codec.NewReader(bytes.NewReader(enc))
	r.buf.Reset()
	cw := codec.NewWriter(&r.buf)
	started := false
	for {
		var batch *matrix.Dense
		r.tr.do("service.read_batch", parent, r.ops, func(int) {
			batch, err = service.ReadBatch(rd, streamBatchRows)
		})
		done := errors.Is(err, io.EOF)
		if err != nil && !done {
			return err
		}
		if batch != nil {
			var out *matrix.Dense
			r.tr.do("service.transform", parent, r.ops, func(int) { out, err = tr.Transform(batch) })
			if err != nil {
				return err
			}
			r.tr.do("codec.encode", parent, r.ops, func(int) {
				if !started {
					err = cw.WriteHeader(rd.Names(), false)
					started = true
				}
				for i := 0; i < out.Rows() && err == nil; i++ {
					err = cw.WriteRow(out.RawRow(i))
				}
				if err == nil {
					err = cw.Flush()
				}
			})
			if err != nil {
				return err
			}
		}
		if done {
			r.tr.do("codec.encode", parent, r.ops, func(int) { err = cw.Close() })
			return err
		}
	}
}

// rowsGet is the rows-download handler path: Open, then Blocks with each
// block encoded as one batch frame.
func (r *replay) rowsGet(parent int, owner, name string, cols int) error {
	var ds *datastore.Dataset
	var err error
	r.tr.do("service.open", parent, r.ops, func(int) { ds, err = r.svc.Datasets.Open(owner, name) })
	if err != nil {
		return err
	}
	return r.encodeRows(cols, func(cw *codec.Writer) error {
		var err error
		r.tr.do("datastore.blocks", parent, r.ops, func(id int) {
			err = ds.Blocks(func(b *matrix.Dense) error {
				var werr error
				r.tr.do("codec.encode", id, r.ops, func(int) {
					if werr = cw.WriteBatch(b, nil); werr == nil {
						werr = cw.Flush()
					}
				})
				return werr
			})
		})
		return err
	})
}

// session is upload, cluster job, delete: the ingest path and the jobs
// path (submit, poll at the generator's interval, fetch the result).
func (r *replay) session(ctx context.Context, i int, dur *[numOps][]float64) error {
	owner := r.owners[i%len(r.owners)]
	b := r.in.fresh[i%len(r.in.fresh)]
	name := fmt.Sprintf("r%d", r.sess)
	r.sess++
	err := r.timedOp(opUpload, dur, func(root int) error {
		var err error
		r.tr.do("service.upload", root, r.ops, func(int) {
			_, err = r.svc.Datasets.Upload(ctx, service.UploadRequest{Owner: owner, Name: name},
				codec.NewReader(bytes.NewReader(b.enc)))
		})
		return err
	})
	if err != nil {
		return err
	}
	err = r.timedOp(opClusterJob, dur, func(root int) error {
		var st jobs.Status
		var err error
		r.tr.do("jobs.submit", root, r.ops, func(int) {
			st, err = r.svc.Jobs.Submit(ctx, owner, &service.JobSpec{Type: service.JobCluster, Dataset: name, Algorithm: "kmeans", K: r.w.freshK})
		})
		if err != nil {
			return err
		}
		r.tr.do("jobs.wait", root, r.ops, func(int) {
			for !st.State.Terminal() && err == nil {
				time.Sleep(jobPoll)
				st, err = r.svc.Jobs.Get(owner, st.ID)
			}
		})
		if err != nil {
			return err
		}
		var res any
		r.tr.do("jobs.result", root, r.ops, func(int) { res, st, err = r.svc.Jobs.Result(owner, st.ID) })
		if err != nil {
			return err
		}
		out, ok := res.(*service.ClusterOutcome)
		if !ok || st.State != jobs.StateDone {
			return fmt.Errorf("replayed cluster job %s: %s %s", st.ID, st.State, st.Error)
		}
		if same, err := quality.SameClustering(out.Assignments, b.labels); err != nil || !same {
			return fmt.Errorf("replayed cluster job partition differs from the blob labels (err %v)", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return r.timedOp(opDelete, dur, func(root int) error {
		var err error
		r.tr.do("service.delete", root, r.ops, func(int) { err = r.svc.Datasets.Delete(owner, name) })
		return err
	})
}

// timedOp runs one op under a root span and appends its wall time to dur.
func (r *replay) timedOp(o op, dur *[numOps][]float64, fn func(root int) error) error {
	r.ops++
	start := time.Now()
	root := r.tr.start("op."+o.String(), 0, r.ops)
	err := fn(root)
	r.tr.end(root)
	dur[o] = append(dur[o], ms(time.Since(start)))
	return err
}

// pass replays replayReps ops of each kind and returns their wall times.
func (r *replay) pass(ctx context.Context) (dur [numOps][]float64, err error) {
	w, in := r.w, r.in
	for i := 0; i < replayReps[opProtectStream] && err == nil; i++ {
		o := i % len(r.owners)
		err = r.timedOp(opProtectStream, &dur, func(root int) error {
			return r.stream(root, r.owners[o], in.batches[o][i%w.batches].enc, false)
		})
	}
	for i := 0; i < replayReps[opRecover] && err == nil; i++ {
		o := i % len(r.owners)
		err = r.timedOp(opRecover, &dur, func(root int) error {
			return r.stream(root, r.owners[o], r.released[o][i%w.batches], true)
		})
	}
	for i := 0; i < replayReps[opRowsGet] && err == nil; i++ {
		o, d := i%len(r.owners), (i/len(r.owners))%w.datasets
		err = r.timedOp(opRowsGet, &dur, func(root int) error {
			return r.rowsGet(root, r.owners[o], fmt.Sprintf("d%d", d), w.stored.Cols)
		})
	}
	for i := 0; i < replayReps[opProtectFit] && err == nil; i++ {
		owner, b := r.fitOwners[i%len(r.fitOwners)], in.fits[i%len(in.fits)]
		r.ops++
		start := time.Now()
		err = r.fit(ctx, owner, b, int64(3000+i))
		dur[opProtectFit] = append(dur[opProtectFit], ms(time.Since(start)))
	}
	for i := 0; i < replayReps[opUpload] && err == nil; i++ {
		err = r.session(ctx, i, &dur)
	}
	return dur, err
}

// probe times fn reps times as spans named name under one probe root and
// returns the median in ms plus mallocs and bytes allocated per call.
func (r *replay) probe(name string, reps int, fn func(i int) error) (medMs, allocs, allocBytes float64, err error) {
	r.ops++
	root := r.tr.start("probe."+name, 0, r.ops)
	defer r.tr.end(root)
	var before, after runtime.MemStats
	var samples []float64
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		id := r.tr.start(name, root, r.ops)
		start := time.Now()
		err = fn(i)
		d := time.Since(start)
		r.tr.end(id)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		samples = append(samples, ms(d))
	}
	runtime.ReadMemStats(&after)
	return median(samples), float64(after.Mallocs-before.Mallocs) / float64(reps),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(reps), nil
}

// primaryBodies are the bodies of the op that dominates the workload's
// payload; the codec is timed over them.
func (w *workload) primaryBodies(in *inputs) []*body {
	var best []*body
	var bestBytes int64
	consider := func(n int, bs []*body) {
		if len(bs) == 0 {
			return
		}
		if b := int64(n) * int64(len(bs[0].enc)); b > bestBytes {
			best, bestBytes = bs, b
		}
	}
	var batches []*body
	for _, bs := range in.batches {
		batches = append(batches, bs...)
	}
	consider(w.round[opProtectStream]+w.round[opRecover], batches)
	consider(w.round[opProtectFit], in.fits)
	consider(w.round[opUpload]+w.round[opClusterJob], in.fresh)
	return best
}

// layers runs the module probes and returns the per-layer metrics they give.
func (r *replay) layers(dir string) (map[string]float64, error) {
	w, in := r.w, r.in
	m := make(map[string]float64)
	var err error
	var med, allocs, abytes float64

	// codec, over the workload's dominant bodies.
	bodies := w.primaryBodies(in)
	rows := float64(bodies[0].data.Rows())
	if med, allocs, abytes, err = r.probe("codec.decode", 16, func(i int) error {
		rd := codec.NewReader(bytes.NewReader(bodies[i%len(bodies)].enc))
		for {
			if _, _, err := rd.ReadBatch(); err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
		}
	}); err != nil {
		return nil, err
	}
	m["codec.decode_ns_per_row"] = med * 1e6 / rows
	m["codec.decode_allocs_per_batch"] = allocs
	m["codec.decode_bytes_alloc_per_row"] = abytes / rows
	if med, allocs, _, err = r.probe("codec.encode", 16, func(i int) error {
		b := bodies[i%len(bodies)]
		_, err := encode(make([]string, b.data.Cols()), b.data)
		return err
	}); err != nil {
		return nil, err
	}
	m["codec.encode_ns_per_row"] = med * 1e6 / rows
	m["codec.encode_allocs_per_batch"] = allocs

	// service: ReadBatch over a codec.Reader, and Transform, on stream bodies.
	batch := in.batches[0][0]
	brows := float64(batch.data.Rows())
	if med, allocs, _, err = r.probe("service.read_batch", 16, func(int) error {
		// A body shorter than one batch reads as (batch, io.EOF).
		if _, err := service.ReadBatch(codec.NewReader(bytes.NewReader(batch.enc)), streamBatchRows); !errors.Is(err, io.EOF) {
			return err
		}
		return nil
	}); err != nil {
		return nil, err
	}
	m["service.read_batch_ns_per_row"] = med * 1e6 / brows
	m["service.read_batch_allocs_per_batch"] = allocs
	tr, err := r.svc.Keys.StreamProtector(r.owners[0], "")
	if err != nil {
		return nil, err
	}
	if med, _, _, err = r.probe("service.transform", 16, func(int) error {
		_, err := tr.Transform(batch.data)
		return err
	}); err != nil {
		return nil, err
	}
	m["service.transform_ns_per_row"] = med * 1e6 / brows
	m["service.fit_protect_ms"] = median(durations(r.tr.spans, "service.fit_protect"))
	m["service.upload_ms"] = median(durations(r.tr.spans, "service.upload"))

	// engine: zscore protect, rotation alone on pre-normalized input, and
	// the stream kernels.
	eng := engine.New(0, 0)
	fits := in.fits
	normed := make([]*matrix.Dense, len(fits))
	for i, b := range fits {
		normed[i] = zscore(b)
	}
	reps := 5
	if med, allocs, _, err = r.probe("engine.protect", reps, func(i int) error {
		_, err := eng.Protect(fits[i%len(fits)].data, fitOptions(int64(4000+i)))
		return err
	}); err != nil {
		return nil, err
	}
	m["engine.protect_ms"] = med
	m["engine.allocs_per_call"] = allocs
	rot := fitOptions(0)
	rot.Normalization = engine.NormNone
	if med, _, _, err = r.probe("engine.rotate", reps, func(i int) error {
		rot.Seed = int64(4000 + i)
		_, err := eng.Protect(normed[i%len(normed)], rot)
		return err
	}); err != nil {
		return nil, err
	}
	m["engine.rotate_ms"] = med
	m["engine.normalize_ms"] = m["engine.protect_ms"] - med
	keyRes, err := eng.Protect(in.stored[0][0].data, fitOptions(1000))
	if err != nil {
		return nil, err
	}
	sp, err := eng.NewStreamProtector(keyRes.Secret())
	if err != nil {
		return nil, err
	}
	var released *matrix.Dense
	if med, _, _, err = r.probe("engine.stream", 16, func(int) error {
		released, err = sp.ProtectBatch(batch.data)
		return err
	}); err != nil {
		return nil, err
	}
	m["engine.stream_ns_per_row"] = med * 1e6 / brows
	if med, _, _, err = r.probe("engine.recover", 16, func(int) error {
		_, err := sp.RecoverBatch(released)
		return err
	}); err != nil {
		return nil, err
	}
	m["engine.recover_ns_per_row"] = med * 1e6 / brows

	if err := r.storeLayer(dir, m); err != nil {
		return nil, err
	}
	if err := r.keyringLayer(dir, keyRes, m); err != nil {
		return nil, err
	}

	// cluster and quality, on the sessions' fresh datasets.
	fresh := in.fresh
	results := make([]*cluster.Result, len(fresh))
	if med, _, _, err = r.probe("cluster.kmeans", len(fresh), func(i int) error {
		km := &cluster.KMeans{K: w.freshK, Rand: rand.New(rand.NewSource(1)), Restarts: 4}
		results[i], err = km.Cluster(fresh[i].data)
		return err
	}); err != nil {
		return nil, err
	}
	m["cluster.kmeans_ms"] = med
	var iters []float64
	for _, res := range results {
		iters = append(iters, float64(res.Iterations))
	}
	m["cluster.kmeans_iterations"] = median(iters)
	if med, _, abytes, err = r.probe("quality.silhouette", len(fresh), func(i int) error {
		_, err := quality.Silhouette(fresh[i].data, results[i].Assignments, nil)
		return err
	}); err != nil {
		return nil, err
	}
	m["quality.silhouette_ms"] = med
	m["quality.silhouette_alloc_mb"] = abytes / 1e6
	return m, nil
}

// storeLayer times a Dir store with the workload's cache budget: Put of
// the fresh datasets, cold reads from a newly opened Dir, warm re-reads,
// and deletes.
func (r *replay) storeLayer(dir string, m map[string]float64) error {
	root := filepath.Join(dir, "probe-store")
	opts := datastore.DirOptions{CacheBytes: r.w.cacheBytes()}
	st, err := datastore.OpenDirOptions(root, opts)
	if err != nil {
		return err
	}
	fresh := r.in.fresh
	sets := make([]*datastore.Dataset, len(fresh))
	for i, b := range fresh {
		bld, err := datastore.NewBuilder("p", fmt.Sprintf("p%d", i), make([]string, b.data.Cols()))
		if err != nil {
			return err
		}
		for k := 0; k < b.data.Rows(); k++ {
			if err := bld.Append(b.data.RawRow(k)); err != nil {
				return err
			}
		}
		if sets[i], err = bld.Finish(time.Now()); err != nil {
			return err
		}
	}
	med, _, _, err := r.probe("datastore.put", len(sets), func(i int) error { return st.Put(sets[i]) })
	if err != nil {
		return err
	}
	m["datastore.put_ms"] = med
	var written int64
	if err := filepath.WalkDir(filepath.Join(root, "p"), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			written += info.Size()
		}
		return err
	}); err != nil {
		return err
	}
	m["datastore.bytes_written_per_user_byte"] = float64(written) / float64(int64(len(fresh))*r.w.fresh.bytes())

	read := func(s *datastore.Dir) func(int) error {
		return func(i int) error {
			ds, err := s.Get("p", fmt.Sprintf("p%d", i))
			if err != nil {
				return err
			}
			return ds.Blocks(func(*matrix.Dense) error { return nil })
		}
	}
	cold, err := datastore.OpenDirOptions(root, opts)
	if err != nil {
		return err
	}
	if m["datastore.read_ms_cold"], _, _, err = r.probe("datastore.read_cold", len(sets), read(cold)); err != nil {
		return err
	}
	if m["datastore.read_ms_warm"], _, _, err = r.probe("datastore.read_warm", len(sets), read(cold)); err != nil {
		return err
	}
	m["datastore.delete_ms"], _, _, err = r.probe("datastore.delete", len(sets), func(i int) error {
		return cold.Delete("p", fmt.Sprintf("p%d", i))
	})
	return err
}

// keyringLayer times File.Put rotations on a file keyring holding the
// workload's owner count.
func (r *replay) keyringLayer(dir string, res *engine.ProtectResult, m map[string]float64) error {
	f, err := keyring.OpenFile(filepath.Join(dir, "probe-keys.json"))
	if err != nil {
		return err
	}
	sec := ppclust.OwnerSecret{
		Key: res.Key, Normalization: ppclust.Normalization(res.Normalization),
		ParamsA: res.ParamsA, ParamsB: res.ParamsB, Columns: res.Columns,
	}
	n := r.w.owners + r.w.fitOwners
	for i := 0; i < n; i++ {
		if _, err := f.Put(fmt.Sprintf("k%d", i), sec); err != nil {
			return err
		}
	}
	m["keyring.file_put_ms"], _, _, err = r.probe("keyring.file_put", 16, func(i int) error {
		_, err := f.Put(fmt.Sprintf("k%d", i%n), sec)
		return err
	})
	return err
}

// zscore returns b's data normalized with its own sample z-score.
func zscore(b *body) *matrix.Dense {
	rows, cols := b.data.Dims()
	out := make([]float64, 0, rows*cols)
	for i := 0; i < rows; i++ {
		for j, v := range b.data.RawRow(i) {
			out = append(out, (v-b.means[j])/b.stds[j])
		}
	}
	return matrix.NewDense(rows, cols, out)
}
