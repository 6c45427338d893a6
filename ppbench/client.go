package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"ppclust/internal/codec"
	"ppclust/internal/jobs"
	"ppclust/internal/matrix"
	"ppclust/internal/quality"
	"ppclust/internal/service"
)

// conns is the number of concurrent closed-loop connections: at most one
// per vCPU of the 2-vCPU machines the benchmark is sized for.
const conns = 2

// roundScale multiplies every count of a workload's round: long runs of
// one kind mean that the garbage collections one kind triggers reach only
// the first few ops of the next kind.
const roundScale = 8

// jobPoll is the status-poll interval of a cluster job, well under the
// shortest job's run time.
const jobPoll = 2 * time.Millisecond

// owner is a data owner the generator acts for.
type owner struct {
	name, token string
	// means and stds are the z-score parameters of the owner's key.
	means, stds []float64
	// released[i] is the release of batch i under the owner's key: the
	// body of a recover op.
	released [][]byte
}

// env is a set-up daemon and the state the generator holds against it.
type env struct {
	w         *workload
	in        *inputs
	d         *daemon
	hc        *http.Client
	owners    []*owner
	fitOwners []*owner
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * conns,
			DisableCompression:  true,
		},
	}
}

// setup starts a daemon and seeds it: keys and stored datasets for every
// stream owner, a key for every fit owner, and the release of every batch
// (the recover bodies).
func setup(ctx context.Context, bin, work string, w *workload, in *inputs) (*env, error) {
	d, err := startDaemon(bin, work, w)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, in: in, d: d, hc: newHTTPClient()}
	c := e.conn(0, 0)
	fail := func(err error) (*env, error) {
		e.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	for o := 0; o < w.owners; o++ {
		ow := &owner{name: fmt.Sprintf("o%d", o)}
		key := in.stored[o][0]
		ow.means, ow.stds = key.means, key.stds
		if err := c.fit(ctx, ow, key, int64(1000+o)); err != nil {
			return fail(err)
		}
		for ds := 0; ds < w.datasets; ds++ {
			if err := c.upload(ctx, ow, fmt.Sprintf("d%d", ds), in.stored[o][ds]); err != nil {
				return fail(err)
			}
		}
		for _, b := range in.batches[o] {
			resp, err := c.post(ctx, "/v1/protect?mode=stream&owner="+ow.name, b.enc, ow.token)
			if err == nil {
				err = c.checkRelease(resp, b, ow.means, ow.stds)
			}
			if err != nil {
				return fail(err)
			}
			ow.released = append(ow.released, bytes.Clone(resp))
		}
		e.owners = append(e.owners, ow)
	}
	for f := 0; f < w.fitOwners; f++ {
		ow := &owner{name: fmt.Sprintf("f%d", f)}
		if err := c.fit(ctx, ow, in.fits[f%len(in.fits)], int64(2000+f)); err != nil {
			return fail(err)
		}
		e.fitOwners = append(e.fitOwners, ow)
	}
	return e, nil
}

func (e *env) close() {
	e.hc.CloseIdleConnections()
	e.d.stop()
}

// conn is one closed-loop connection: it sends its next op only after the
// previous one completed.
type conn struct {
	e    *env
	id   int
	rng  *rand.Rand
	t    *tally
	buf  bytes.Buffer
	sess int
}

func (e *env) conn(id int, seed int64) *conn {
	return &conn{e: e, id: id, rng: rand.New(rand.NewSource(seed)), t: &tally{}}
}

// phase runs conns connections for dur and returns their merged tally and
// the wall time until the last one finished its final op.
func (e *env) phase(ctx context.Context, dur time.Duration, seed int64) (*tally, time.Duration) {
	start := time.Now()
	b := newBarrier(ctx, conns, start.Add(dur))
	cs := make([]*conn, conns)
	var wg sync.WaitGroup
	for i := range cs {
		cs[i] = e.conn(i, seed*131+int64(i))
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			c.loop(ctx, b, rand.New(rand.NewSource(seed)))
		}(cs[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	t := &tally{}
	for _, c := range cs {
		t.merge(c.t)
	}
	return t, elapsed
}

// loop sends rounds until the barrier ends the run. A round sends each op
// kind in turn, its count from the workload's round, and every connection
// starts each kind together: the connections run the same kind of op at
// the same time, so the cost of one kind (a 20000-row fit, a silhouette)
// does not leak into another kind's latency. The order of the kinds is
// shuffled every round, identically on every connection (order is seeded
// alike), so the daemon's garbage collections do not lock onto one kind.
func (c *conn) loop(ctx context.Context, b *barrier, order *rand.Rand) {
	var kinds []op
	for o, n := range c.e.w.round {
		if n > 0 {
			kinds = append(kinds, op(o))
		}
	}
	for {
		order.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, o := range kinds {
			if !b.wait() {
				return
			}
			for i := 0; i < roundScale*c.e.w.round[o]; i++ {
				c.run(ctx, o)
			}
		}
	}
}

// barrier lines up n connections between the op kinds of a round. The
// last to arrive decides, for all of them, whether the run goes on, so
// they all stop at the same boundary.
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	waiting  int
	gen      int
	goOn     bool
	ctx      context.Context
	deadline time.Time
}

func newBarrier(ctx context.Context, n int, deadline time.Time) *barrier {
	b := &barrier{n: n, ctx: ctx, deadline: deadline}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n connections have arrived and reports whether
// to send another op kind.
func (b *barrier) wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.goOn = b.ctx.Err() == nil && time.Now().Before(b.deadline)
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return b.goOn
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.goOn
}

// run sends one op (an upload: one session of upload, cluster job and
// delete) and records it.
func (c *conn) run(ctx context.Context, o op) {
	e, in := c.e, c.e.in
	switch o {
	case opProtectStream:
		oi := c.rng.Intn(len(e.owners))
		ow, b := e.owners[oi], in.batches[oi][c.rng.Intn(e.w.batches)]
		c.timed(o, b.data.Rows(), int64(len(b.enc)), func() ([]byte, error) {
			return c.post(ctx, "/v1/protect?mode=stream&owner="+ow.name, b.enc, ow.token)
		}, func(resp []byte) error { return c.checkRelease(resp, b, ow.means, ow.stds) })
	case opRecover:
		oi := c.rng.Intn(len(e.owners))
		i := c.rng.Intn(e.w.batches)
		ow, b := e.owners[oi], in.batches[oi][i]
		c.timed(o, b.data.Rows(), int64(len(ow.released[i])), func() ([]byte, error) {
			return c.post(ctx, "/v1/recover?owner="+ow.name, ow.released[i], ow.token)
		}, func(resp []byte) error { return checkRecover(resp, b.data) })
	case opRowsGet:
		oi, di := c.rng.Intn(len(e.owners)), c.rng.Intn(e.w.datasets)
		ow, b := e.owners[oi], in.stored[oi][di]
		path := fmt.Sprintf("/v1/datasets/d%d/rows?owner=%s", di, ow.name)
		c.timed(o, b.data.Rows(), 0, func() ([]byte, error) {
			return c.get(ctx, path, ow.token)
		}, func(resp []byte) error { return checkIdentical(resp, b.data) })
	case opProtectFit:
		ow := e.fitOwners[c.rng.Intn(len(e.fitOwners))]
		b := in.fits[c.rng.Intn(len(in.fits))]
		path := fmt.Sprintf("/v1/protect?mode=fit&owner=%s&seed=%d", ow.name, 1+c.rng.Int63n(1<<40))
		c.timed(o, b.data.Rows(), int64(len(b.enc)), func() ([]byte, error) {
			return c.post(ctx, path, b.enc, ow.token)
		}, func(resp []byte) error { return c.checkRelease(resp, b, b.means, b.stds) })
	case opUpload:
		c.session(ctx, false)
	case opClusterJob:
		c.session(ctx, true)
	}
}

// timed runs send, times it, checks the response and records the op with
// its row count and payload bytes (reqBytes plus the response).
func (c *conn) timed(o op, rows int, reqBytes int64, send func() ([]byte, error), check func([]byte) error) {
	start := time.Now()
	resp, err := send()
	d := time.Since(start)
	if err == nil {
		err = check(resp)
	}
	c.t.record(o, d, err)
	if err == nil {
		c.t.rows[o] += int64(rows)
		c.t.payload += reqBytes + int64(len(resp))
	}
}

// session uploads a fresh dataset, clusters it when job is set, and
// deletes it, so the live set stays bounded. Steps after a failed one
// count as failed.
func (c *conn) session(ctx context.Context, job bool) {
	e := c.e
	ow := e.owners[c.rng.Intn(len(e.owners))]
	b := e.in.fresh[c.rng.Intn(len(e.in.fresh))]
	name := fmt.Sprintf("s%d-%d", c.id, c.sess)
	c.sess++
	start := time.Now()
	err := c.upload(ctx, ow, name, b)
	c.t.record(opUpload, time.Since(start), err)
	if err != nil {
		skipped := errors.New("skipped: the session's upload failed")
		if job {
			c.t.record(opClusterJob, 0, skipped)
		}
		c.t.record(opDelete, 0, skipped)
		return
	}
	c.t.rows[opUpload] += int64(b.data.Rows())
	c.t.payload += int64(len(b.enc))

	if job {
		jt, err := c.clusterJob(ctx, ow, name, b)
		c.t.record(opClusterJob, jt.latency, err)
		if err == nil {
			c.t.jobs = append(c.t.jobs, jt)
		}
	}

	start = time.Now()
	_, err = c.do(ctx, http.MethodDelete, "/v1/datasets/"+name+"?owner="+ow.name, nil, ow.token, http.StatusOK)
	c.t.record(opDelete, time.Since(start), err)
}

// fit fit-protects b for ow, claiming ow (and learning its token) when it
// has none yet, and checks the release.
func (c *conn) fit(ctx context.Context, ow *owner, b *body, seed int64) error {
	path := fmt.Sprintf("/v1/protect?mode=fit&owner=%s&seed=%d", ow.name, seed)
	resp, hdr, err := c.send(ctx, http.MethodPost, path, b.enc, ow.token, http.StatusOK)
	if err != nil {
		return err
	}
	if tok := hdr.Get("X-Ppclust-Token"); tok != "" {
		ow.token = tok
	}
	return c.checkRelease(resp, b, b.means, b.stds)
}

func (c *conn) upload(ctx context.Context, ow *owner, name string, b *body) error {
	resp, hdr, err := c.send(ctx, http.MethodPost, "/v1/datasets?owner="+ow.name+"&name="+name, b.enc, ow.token, http.StatusCreated)
	if err != nil {
		return err
	}
	if tok := hdr.Get("X-Ppclust-Token"); tok != "" {
		ow.token = tok
	}
	var meta struct{ Rows, Cols int }
	if err := json.Unmarshal(resp, &meta); err != nil {
		return fmt.Errorf("upload response: %w", err)
	}
	if r, k := b.data.Dims(); meta.Rows != r || meta.Cols != k {
		return fmt.Errorf("upload stored %dx%d, sent %dx%d", meta.Rows, meta.Cols, r, k)
	}
	return nil
}

// clusterJob submits a k-means job on the named dataset, polls it to a
// terminal state, fetches the result and checks the partition against
// the generator's blob labels.
func (c *conn) clusterJob(ctx context.Context, ow *owner, name string, b *body) (jobTimes, error) {
	start := time.Now()
	spec, _ := json.Marshal(service.JobSpec{Type: service.JobCluster, Dataset: name, Algorithm: "kmeans", K: c.e.w.freshK})
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs?owner="+ow.name, spec, ow.token, http.StatusAccepted)
	if err != nil {
		return jobTimes{}, err
	}
	var st jobs.Status
	if err := json.Unmarshal(resp, &st); err != nil {
		return jobTimes{}, fmt.Errorf("job submit response: %w", err)
	}
	for !st.State.Terminal() {
		time.Sleep(jobPoll)
		resp, err := c.get(ctx, "/v1/jobs/"+st.ID+"?owner="+ow.name, ow.token)
		if err != nil {
			return jobTimes{}, err
		}
		if err := json.Unmarshal(resp, &st); err != nil {
			return jobTimes{}, fmt.Errorf("job status: %w", err)
		}
	}
	if st.State != jobs.StateDone {
		return jobTimes{}, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	resp, err = c.get(ctx, "/v1/jobs/"+st.ID+"/result?owner="+ow.name, ow.token)
	if err != nil {
		return jobTimes{}, err
	}
	observed := time.Now()
	var res struct {
		Status jobs.Status            `json:"status"`
		Result service.ClusterOutcome `json:"result"`
	}
	if err := json.Unmarshal(resp, &res); err != nil {
		return jobTimes{}, fmt.Errorf("job result: %w", err)
	}
	if len(res.Result.Assignments) != b.data.Rows() {
		return jobTimes{}, fmt.Errorf("job assigned %d rows, dataset has %d", len(res.Result.Assignments), b.data.Rows())
	}
	same, err := quality.SameClustering(res.Result.Assignments, b.labels)
	if err != nil || !same {
		return jobTimes{}, fmt.Errorf("job partition differs from the blob labels (err %v)", err)
	}
	s := res.Status
	if s.StartedAt == nil || s.FinishedAt == nil {
		return jobTimes{}, errors.New("finished job lacks timestamps")
	}
	return jobTimes{
		latency:    observed.Sub(start),
		queueWait:  ms(s.StartedAt.Sub(s.CreatedAt)),
		run:        ms(s.FinishedAt.Sub(*s.StartedAt)),
		observeLag: ms(observed.Sub(*s.FinishedAt)),
	}, nil
}

func (c *conn) post(ctx context.Context, path string, body []byte, token string) ([]byte, error) {
	return c.do(ctx, http.MethodPost, path, body, token, http.StatusOK)
}

func (c *conn) get(ctx context.Context, path, token string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, path, nil, token, http.StatusOK)
}

func (c *conn) do(ctx context.Context, method, path string, body []byte, token string, want int) ([]byte, error) {
	resp, _, err := c.send(ctx, method, path, body, token, want)
	return resp, err
}

// send makes one request and reads the whole response into the
// connection's buffer; the returned bytes are valid until the next send.
// Any status other than want is an error.
func (c *conn) send(ctx context.Context, method, path string, body []byte, token string, want int) ([]byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.e.d.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		// Job specs are the only JSON bodies; a PPRW body starts with its
		// magic, which is never valid JSON.
		ctype := codec.ContentType
		if json.Valid(body) {
			ctype = "application/json"
		}
		req.Header.Set("Content-Type", ctype)
	}
	req.Header.Set("Accept", codec.ContentType)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := c.e.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, nil, fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	if resp.StatusCode != want {
		msg := c.buf.Bytes()
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return nil, nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, msg)
	}
	return c.buf.Bytes(), resp.Header, nil
}

// checkPairs is how many row pairs a release check samples.
const checkPairs = 16

// checkRelease checks Corollary 1 on a release of b: on sampled row
// pairs, the distance between released rows equals the distance between
// the rows z-scored with the key's parameters.
func (c *conn) checkRelease(raw []byte, b *body, means, stds []float64) error {
	out, err := parseRows(raw)
	if err != nil {
		return err
	}
	if out.rows != b.data.Rows() || out.cols != b.data.Cols() {
		return fmt.Errorf("release is %dx%d, input %dx%d", out.rows, out.cols, b.data.Rows(), b.data.Cols())
	}
	var ri, rj [2][]float64
	for n := 0; n < checkPairs; n++ {
		i, j := c.rng.Intn(out.rows), c.rng.Intn(out.rows)
		ri[0], rj[0] = out.row(i, ri[0]), out.row(j, rj[0])
		ri[1], rj[1] = zrow(b.data.RawRow(i), means, stds, ri[1]), zrow(b.data.RawRow(j), means, stds, rj[1])
		got, want := dist(ri[0], rj[0]), dist(ri[1], rj[1])
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			return fmt.Errorf("release distance of rows %d,%d is %.17g, z-scored original %.17g", i, j, got, want)
		}
	}
	return nil
}

// zrow z-scores row into dst.
func zrow(row, means, stds, dst []float64) []float64 {
	dst = dst[:0]
	for k, v := range row {
		dst = append(dst, (v-means[k])/stds[k])
	}
	return dst
}

func dist(a, b []float64) float64 {
	var s float64
	for k := range a {
		d := a[k] - b[k]
		s += d * d
	}
	return math.Sqrt(s)
}

// checkRecover checks the owner-recovery guarantee: the recovered rows
// equal the originals within 1e-9 of the data's scale.
func checkRecover(raw []byte, want *matrix.Dense) error {
	out, err := parseRows(raw)
	if err != nil {
		return err
	}
	if out.rows != want.Rows() || out.cols != want.Cols() {
		return fmt.Errorf("recovered %dx%d, want %dx%d", out.rows, out.cols, want.Rows(), want.Cols())
	}
	scale := 1.0
	for _, v := range want.Raw() {
		scale = math.Max(scale, math.Abs(v))
	}
	w := want.Raw()
	out.each(func(k int, x float64) bool {
		if math.Abs(x-w[k]) > 1e-9*scale {
			err = fmt.Errorf("recovered value %d is %.17g, original %.17g", k, x, w[k])
		}
		return err == nil
	})
	return err
}

// checkIdentical checks that downloaded rows are bit-identical to the upload.
func checkIdentical(raw []byte, want *matrix.Dense) error {
	out, err := parseRows(raw)
	if err != nil {
		return err
	}
	if out.rows != want.Rows() || out.cols != want.Cols() {
		return fmt.Errorf("downloaded %dx%d, uploaded %dx%d", out.rows, out.cols, want.Rows(), want.Cols())
	}
	w := want.Raw()
	out.each(func(k int, x float64) bool {
		if math.Float64bits(x) != math.Float64bits(w[k]) {
			err = fmt.Errorf("downloaded value %d differs from the upload", k)
		}
		return err == nil
	})
	return err
}
