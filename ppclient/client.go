// Package ppclient is the Go client SDK for ppclustd: first-class
// datasets (upload, list, download, delete), async jobs (submit, poll,
// cancel, fetch results — including the tune sweep's Pareto frontier),
// and the federation workload (create, join, contribute, seal, joint
// result).
//
// One Client speaks for one owner. Every call takes a context.Context, so
// uploads, submissions and polls are cancellable end to end. The bearer
// token minted when the owner is first claimed (by the first dataset
// upload, CreateFederation or JoinFederation for an owner the daemon has
// never seen) is captured into Token automatically; persist it — the
// daemon only ever reveals it once.
package ppclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"syscall"
	"time"

	"ppclust/internal/codec"
)

// TraceHeader is the request-ID header the daemon adopts and reflects:
// set it (or use WithTraceID) to pin the server-side trace ID a request
// runs under, so client-side reports can quote server traces.
const TraceHeader = "X-Ppclust-Trace"

// traceKeyT keys a pinned outgoing trace ID on a context. Kept private
// and package-local so ppclient stays dependency-free of the daemon's
// internals.
type traceKeyT struct{}

// WithTraceID returns a context that pins id as the X-Ppclust-Trace
// header of every request built from it.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKeyT{}, id)
}

// Client talks to one ppclustd instance on behalf of one owner.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8344".
	BaseURL string
	// Owner is the keyring owner name this client authenticates as.
	Owner string
	// Token is the owner's bearer token. Left empty for a new owner, it
	// is filled in from the first response that mints one.
	Token string
	// HTTPClient overrides http.DefaultClient when set.
	HTTPClient *http.Client
	// PollInterval is the result-polling cadence (default 50ms).
	PollInterval time.Duration
	// Retries caps the automatic retries of idempotent GETs (transport
	// errors, 502/503/504) and of drain-time 503s on rewindable writes —
	// what lets a client ride out a SIGTERM drain/restart cycle.
	// 0 means the default of 4; negative disables retrying.
	Retries int
	// RetryBackoff is the first retry delay (default 50ms). It doubles
	// per attempt up to RetryMaxBackoff (default 2s), with ±50% jitter;
	// the request context cancels the wait.
	RetryBackoff    time.Duration
	RetryMaxBackoff time.Duration
	// ringTable, when loaded by UseRing, routes owner-scoped requests
	// straight to the owner's home node.
	ringMu    sync.RWMutex
	ringTable *ringState
}

// New returns a client for owner against baseURL.
func New(baseURL, owner string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), Owner: owner}
}

// APIError is a non-2xx daemon response, decoded from the shared error
// envelope {"error": {"code", "message"}}.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the service error code ("not_found", "conflict",
	// "forbidden", "unauthenticated", "invalid", "draining", "internal");
	// empty when the server predates the envelope.
	Code string
	// Message is the human-readable error.
	Message string
	// TraceID is the server-side trace ID of the failed request (from the
	// X-Ppclust-Trace response header) — quote it when reporting.
	TraceID string
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("ppclustd: %d %s: %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("ppclustd: %d: %s", e.Status, e.Message)
}

// IsCode reports whether err is an APIError carrying the given service
// error code.
func IsCode(err error, code string) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}

// IsStatus reports whether err is an APIError with the given HTTP status.
func IsStatus(err error, status int) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == status
}

// Party mirrors the daemon's federation member record.
type Party struct {
	Owner    string    `json:"owner"`
	JoinedAt time.Time `json:"joined_at"`
	Dataset  string    `json:"dataset,omitempty"`
	Rows     int       `json:"rows,omitempty"`
}

// Federation mirrors the daemon's secret-free federation view.
type Federation struct {
	ID            string    `json:"id"`
	Name          string    `json:"name"`
	Coordinator   string    `json:"coordinator"`
	State         string    `json:"state"`
	Columns       []string  `json:"columns"`
	Norm          string    `json:"norm,omitempty"`
	Rho1          float64   `json:"rho1,omitempty"`
	Rho2          float64   `json:"rho2,omitempty"`
	Parties       []Party   `json:"parties"`
	Contributions int       `json:"contributions"`
	RowsTotal     int       `json:"rows_total"`
	JobID         string    `json:"job_id,omitempty"`
	CreatedAt     time.Time `json:"created_at"`
}

// FederationConfig is the creation spec: the agreed schema and transform
// parameters of the shared key fit.
type FederationConfig struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Norm    string   `json:"norm,omitempty"`
	Rho1    float64  `json:"rho1,omitempty"`
	Rho2    float64  `json:"rho2,omitempty"`
	Seed    int64    `json:"seed,omitempty"`
}

// Analysis selects the joint clustering a seal schedules.
type Analysis struct {
	Algorithm string  `json:"algorithm,omitempty"`
	K         int     `json:"k,omitempty"`
	Linkage   string  `json:"linkage,omitempty"`
	Eps       float64 `json:"eps,omitempty"`
	MinPts    int     `json:"min_pts,omitempty"`
	Sigma     float64 `json:"sigma,omitempty"`
	ClustSeed int64   `json:"cluster_seed,omitempty"`
}

// ResultParty locates one party's rows inside the joint assignments.
type ResultParty struct {
	Owner  string `json:"owner"`
	Rows   int    `json:"rows"`
	Offset int    `json:"offset"`
}

// Result is the joint clustering outcome.
type Result struct {
	Federation  string        `json:"federation"`
	Algorithm   string        `json:"algorithm"`
	K           int           `json:"k"`
	Parties     []ResultParty `json:"parties"`
	Assignments []int         `json:"assignments"`
	Inertia     float64       `json:"inertia,omitempty"`
	Converged   bool          `json:"converged"`
	Silhouette  *float64      `json:"silhouette,omitempty"`
}

// PartyAssignments returns the slice of the joint assignments that belongs
// to owner's rows, in contribution order.
func (r *Result) PartyAssignments(owner string) []int {
	for _, p := range r.Parties {
		if p.Owner == owner {
			return r.Assignments[p.Offset : p.Offset+p.Rows]
		}
	}
	return nil
}

// CreateFederation creates a federation coordinated by the client's owner.
func (c *Client) CreateFederation(ctx context.Context, cfg FederationConfig) (*Federation, error) {
	var out Federation
	if err := c.doJSON(ctx, http.MethodPost, "/v1/federations", cfg, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Federation fetches the member view of federation id.
func (c *Client) Federation(ctx context.Context, id string) (*Federation, error) {
	var out Federation
	if err := c.doJSON(ctx, http.MethodGet, "/v1/federations/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Federations lists the federations the owner belongs to.
func (c *Client) Federations(ctx context.Context) ([]Federation, error) {
	var out []Federation
	if err := c.doJSON(ctx, http.MethodGet, "/v1/federations", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// JoinFederation adds the owner as a member of federation id. The ID is
// the invitation: only someone the coordinator told it to can join.
func (c *Client) JoinFederation(ctx context.Context, id string) (*Federation, error) {
	var out Federation
	if err := c.doJSON(ctx, http.MethodPost, "/v1/federations/"+id+"/join", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Contribute uploads the owner's horizontal partition. The daemon
// protects the rows under the federation's shared transform and stores
// only the protected release; when the owner is the coordinator and the
// federation is still open, this contribution fits and freezes the
// shared key. Rows travel as framed binary batches.
func (c *Client) Contribute(ctx context.Context, id string, columns []string, rows [][]float64) (*Federation, error) {
	buf, err := renderBinary(columns, rows)
	if err != nil {
		return nil, err
	}
	req, err := c.newRequest(ctx, http.MethodPost, "/v1/federations/"+id+"/contribute?format="+codec.FormatName, buf)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", codec.ContentType)
	var out Federation
	if err := c.exec(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// renderBinary frames a header plus numeric rows as binary row batches.
func renderBinary(columns []string, rows [][]float64) (*bytes.Buffer, error) {
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	if err := w.WriteHeader(columns, false); err != nil {
		return nil, err
	}
	for _, row := range rows {
		if len(row) != len(columns) {
			return nil, fmt.Errorf("ppclient: row has %d values, schema has %d columns", len(row), len(columns))
		}
		if err := w.WriteRow(row); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return &buf, nil
}

// ContributeCSV uploads a partition already rendered as CSV (header row
// of column names, then numeric rows).
func (c *Client) ContributeCSV(ctx context.Context, id string, body io.Reader) (*Federation, error) {
	req, err := c.newRequest(ctx, http.MethodPost, "/v1/federations/"+id+"/contribute", body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/csv")
	var out Federation
	if err := c.exec(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WithdrawContribution removes the owner's own contribution (before seal).
func (c *Client) WithdrawContribution(ctx context.Context, id string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/federations/"+id+"/contribute", nil, nil)
}

// Seal finalizes federation id and schedules the joint analysis.
// Coordinator only.
func (c *Client) Seal(ctx context.Context, id string, analysis Analysis) (*Federation, error) {
	var out Federation
	if err := c.doJSON(ctx, http.MethodPost, "/v1/federations/"+id+"/seal", analysis, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteFederation tears federation id down, contributions included.
// Coordinator only.
func (c *Client) DeleteFederation(ctx context.Context, id string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/federations/"+id, nil, nil)
}

// Result polls the federation result route until the joint analysis
// finishes (or ctx is done) and returns its outcome. A failed or
// cancelled analysis is returned as an error carrying the job state.
func (c *Client) Result(ctx context.Context, id string) (*Result, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	for {
		var wrapper struct {
			Status struct {
				State string `json:"state"`
				Error string `json:"error"`
			} `json:"status"`
			Result *Result `json:"result"`
		}
		err := c.doJSON(ctx, http.MethodGet, "/v1/federations/"+id+"/result", nil, &wrapper)
		switch {
		case err == nil:
			switch wrapper.Status.State {
			case "done":
				return wrapper.Result, nil
			case "failed", "cancelled":
				return nil, fmt.Errorf("ppclient: joint analysis %s: %s", wrapper.Status.State, wrapper.Status.Error)
			}
		case IsStatus(err, http.StatusConflict):
			// Still queued or running; keep polling.
		default:
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(interval):
		}
	}
}

// DownloadDataset streams one of the owner's stored datasets (e.g. its
// own protected federation contribution "fed.<id>") as CSV.
func (c *Client) DownloadDataset(ctx context.Context, name string) (string, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/datasets/"+url.PathEscape(name)+"/rows", nil)
	if err != nil {
		return "", err
	}
	raw, err := c.do(req)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// DownloadDatasetRows fetches one of the owner's stored datasets decoded
// into column names and numeric rows. It asks for the framed binary
// format, so there is no float↔text conversion on either side.
func (c *Client) DownloadDatasetRows(ctx context.Context, name string) ([]string, [][]float64, error) {
	req, err := c.newRequest(ctx, http.MethodGet,
		"/v1/datasets/"+url.PathEscape(name)+"/rows?format="+codec.FormatName, nil)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Accept", codec.ContentType)
	raw, err := c.do(req)
	if err != nil {
		return nil, nil, err
	}
	rd := codec.NewReader(bytes.NewReader(raw))
	var rows [][]float64
	for {
		row, err := rd.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("ppclient: decoding binary rows: %w", err)
		}
		rows = append(rows, row)
	}
	return rd.Names(), rows, nil
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// newRequest builds an authenticated request with the owner query set,
// routed to the owner's home node when a ring table is loaded.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	req, err := http.NewRequestWithContext(ctx, method, c.routeBase(path)+path+sep+"owner="+url.QueryEscape(c.Owner), body)
	if err != nil {
		return nil, err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if id, _ := ctx.Value(traceKeyT{}).(string); id != "" {
		req.Header.Set(TraceHeader, id)
	}
	return req, nil
}

// doJSON sends an optional JSON body and decodes a JSON response into out
// (which may be nil).
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.exec(req, out)
}

// exec runs the request (with retries), captures a freshly minted token,
// and decodes the response.
func (c *Client) exec(req *http.Request, out any) error {
	raw, err := c.do(req)
	if err != nil {
		return err
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("ppclient: decoding response: %w", err)
		}
	}
	return nil
}

// do runs the request through DoRaw to a 2xx body, mapping non-2xx
// responses to APIError and capturing a freshly minted token.
func (c *Client) do(req *http.Request) ([]byte, error) {
	resp, err := c.DoRaw(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if tok := resp.Header.Get("X-Ppclust-Token"); tok != "" && c.Token == "" {
		c.Token = tok
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return raw, nil
	}
	err = apiError(resp.StatusCode, raw)
	var ae *APIError
	if errors.As(err, &ae) {
		ae.TraceID = resp.Header.Get(TraceHeader)
	}
	return nil, err
}

// DoRaw runs an arbitrary request through the client's retry machinery
// and returns the final response unread (the caller owns Body). Retries
// happen where they are safe:
//
//   - idempotent GETs on transport errors and gateway-ish statuses
//     (502/503/504) — a restarting daemon refuses connections for a
//     moment, and polls must ride that out;
//   - any method on connection-refused when the body can be rewound —
//     refused means the peer never saw the request, so resending cannot
//     double-apply it. This is what lets ring forwarding fail over to a
//     successor while a dead node's entry is still in the member list;
//   - any method on 503 when the body can be rewound (GetBody is set for
//     the in-memory bodies every JSON call uses) — a draining daemon
//     answers 503 to submissions, and the persisted queue makes the
//     retry safe after restart.
//
// Non-2xx statuses that are not retryable (or are out of retries) are
// returned as responses, not errors — ppclustd's ring proxy passes them
// through verbatim; do maps them to APIError for the typed API.
// Backoff is exponential with ±50% jitter, capped, and aborted by the
// request context.
func (c *Client) DoRaw(req *http.Request) (*http.Response, error) {
	retries := c.Retries
	switch {
	case retries == 0:
		retries = 4
	case retries < 0:
		retries = 0
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := c.httpClient().Do(req)
		if err != nil {
			lastErr = err
			retriableTransport := req.Method == http.MethodGet ||
				(connRefused(err) && rewind(req) == nil)
			if attempt >= retries || !retriableTransport {
				return nil, err
			}
			if req.Method == http.MethodGet {
				// GET bodies are rare but possible; best-effort rewind.
				_ = rewind(req)
			}
			if err := c.backoff(req.Context(), attempt); err != nil {
				return nil, lastErr
			}
			continue
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return resp, nil
		}
		if attempt < retries && c.retryable(req, resp.StatusCode) && rewind(req) == nil {
			// The retried response is consumed before backing off; if the
			// context dies during the wait there is nothing left to return.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err := c.backoff(req.Context(), attempt); err != nil {
				return nil, err
			}
			continue
		}
		return resp, nil
	}
}

// connRefused reports whether a transport error means the peer refused
// the connection outright — the kernel rejected the dial, so the server
// never observed the request and a resend cannot double-apply it.
func connRefused(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED)
}

// retryable reports whether a response status may be retried for req.
func (c *Client) retryable(req *http.Request, status int) bool {
	switch status {
	case http.StatusServiceUnavailable:
		return true // drain-time 503: safe for every method once rewound
	case http.StatusBadGateway, http.StatusGatewayTimeout:
		return req.Method == http.MethodGet
	default:
		return false
	}
}

// rewind resets a consumed request body for the next attempt.
func rewind(req *http.Request) error {
	if req.Body == nil || req.Body == http.NoBody {
		return nil
	}
	if req.GetBody == nil {
		return errors.New("ppclient: request body cannot be rewound")
	}
	body, err := req.GetBody()
	if err != nil {
		return err
	}
	req.Body = body
	return nil
}

// backoff sleeps for the attempt's delay (exponential, jittered, capped)
// or until ctx is done.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	base := c.RetryBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxd := c.RetryMaxBackoff
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	delay := base << uint(attempt)
	if delay > maxd || delay <= 0 {
		delay = maxd
	}
	// ±50% jitter keeps a fleet of clients from re-slamming a restarting
	// daemon in lockstep.
	delay = delay/2 + time.Duration(rand.Int64N(int64(delay)/2+1))
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(delay):
		return nil
	}
}

// apiError decodes the shared error envelope {"error":{"code","message"}},
// falling back to the legacy flat {"error":"..."} string and then to the
// raw body.
func apiError(status int, raw []byte) error {
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(raw, &env) == nil && env.Error.Message != "" {
		return &APIError{Status: status, Code: env.Error.Code, Message: env.Error.Message}
	}
	var legacy struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(raw))
	if json.Unmarshal(raw, &legacy) == nil && legacy.Error != "" {
		msg = legacy.Error
	}
	return &APIError{Status: status, Message: msg}
}

// DatasetMeta mirrors the daemon's secret-free dataset description.
type DatasetMeta struct {
	Owner     string    `json:"owner"`
	Name      string    `json:"name"`
	Rows      int       `json:"rows"`
	Cols      int       `json:"cols"`
	Attrs     []string  `json:"attrs"`
	Labeled   bool      `json:"labeled"`
	CreatedAt time.Time `json:"created_at"`
}

// UploadDataset uploads rows as the owner's named dataset. The first
// upload for an unknown owner claims the owner name; the minted token is
// captured into c.Token. Rows travel as framed binary batches.
func (c *Client) UploadDataset(ctx context.Context, name string, columns []string, rows [][]float64) (*DatasetMeta, error) {
	buf, err := renderBinary(columns, rows)
	if err != nil {
		return nil, err
	}
	path := "/v1/datasets?name=" + url.QueryEscape(name) + "&format=" + codec.FormatName
	req, err := c.newRequest(ctx, http.MethodPost, path, buf)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", codec.ContentType)
	var out DatasetMeta
	if err := c.exec(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// UploadDatasetCSV uploads a dataset already rendered as CSV (header row
// of column names, then numeric rows). labeledLast marks the final column
// as ground-truth labels (the daemon's labels=last mode).
func (c *Client) UploadDatasetCSV(ctx context.Context, name string, body io.Reader, labeledLast bool) (*DatasetMeta, error) {
	// The name is caller-supplied: escape it so a crafted value cannot
	// smuggle extra query parameters (e.g. "x&owner=evil") past the
	// server's own parsing.
	path := "/v1/datasets?name=" + url.QueryEscape(name)
	if labeledLast {
		path += "&labels=last"
	}
	req, err := c.newRequest(ctx, http.MethodPost, path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/csv")
	var out DatasetMeta
	if err := c.exec(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Datasets lists the owner's stored datasets.
func (c *Client) Datasets(ctx context.Context) ([]DatasetMeta, error) {
	var out []DatasetMeta
	if err := c.doJSON(ctx, http.MethodGet, "/v1/datasets", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Dataset fetches one dataset's metadata.
func (c *Client) Dataset(ctx context.Context, name string) (*DatasetMeta, error) {
	var out DatasetMeta
	if err := c.doJSON(ctx, http.MethodGet, "/v1/datasets/"+url.PathEscape(name), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteDataset removes one of the owner's datasets.
func (c *Client) DeleteDataset(ctx context.Context, name string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/datasets/"+url.PathEscape(name), nil, nil)
}

// JobStage is one entry of a job's persistent per-stage timeline.
type JobStage struct {
	Stage      string  `json:"stage"`
	DurationMs float64 `json:"duration_ms"`
}

// JobStatus mirrors the daemon's job snapshot.
type JobStatus struct {
	ID         string     `json:"id"`
	Owner      string     `json:"owner"`
	Type       string     `json:"type"`
	State      string     `json:"state"`
	Progress   float64    `json:"progress"`
	Error      string     `json:"error,omitempty"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// TraceID is the trace of the request that submitted the job; Timeline
	// is the per-stage duration record the job left behind (queued,
	// running, then every engine/store stage of the run).
	TraceID  string     `json:"trace_id,omitempty"`
	Timeline []JobStage `json:"timeline,omitempty"`
}

// Terminal reports whether the job has finished (done, failed or
// cancelled).
func (j *JobStatus) Terminal() bool {
	switch j.State {
	case "done", "failed", "cancelled":
		return true
	}
	return false
}

// SubmitJob submits spec (any JSON-marshalable job spec carrying a "type"
// field) and returns the accepted job's initial status.
func (c *Client) SubmitJob(ctx context.Context, spec any) (*JobStatus, error) {
	var out JobStatus
	if err := c.doJSON(ctx, http.MethodPost, "/v1/jobs", spec, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches the status and progress of job id.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var out JobStatus
	if err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Jobs lists the owner's jobs, newest first.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var out []JobStatus
	if err := c.doJSON(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// CancelJob cancels a queued or running job.
func (c *Client) CancelJob(ctx context.Context, id string) (*JobStatus, error) {
	var out JobStatus
	if err := c.doJSON(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// JobResult fetches a finished job's result payload into out (which may
// be nil to discard it), returning the final status. A 409 means the job
// is still in flight; use WaitJob to poll to completion.
func (c *Client) JobResult(ctx context.Context, id string, out any) (*JobStatus, error) {
	var wrapper struct {
		Status JobStatus       `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &wrapper); err != nil {
		return nil, err
	}
	if out != nil && len(wrapper.Result) > 0 && string(wrapper.Result) != "null" {
		if err := json.Unmarshal(wrapper.Result, out); err != nil {
			return nil, fmt.Errorf("ppclient: decoding job result: %w", err)
		}
	}
	return &wrapper.Status, nil
}

// WaitJob polls job id until it reaches a terminal state (or ctx is
// done). onProgress, when non-nil, receives each observed status.
func (c *Client) WaitJob(ctx context.Context, id string, onProgress func(*JobStatus)) (*JobStatus, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if onProgress != nil {
			onProgress(st)
		}
		if st.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(interval):
		}
	}
}

// TuneSpec parameterizes a tune job: the sweep grids, the clustering
// algorithm every candidate is scored with, and the recommendation
// constraint. Zero values defer to the daemon's defaults (all mechanisms,
// the standard rho/sigma grids, kmeans requires K).
type TuneSpec struct {
	// Algorithm and its parameters mirror the cluster job spec.
	Algorithm string  `json:"algorithm,omitempty"`
	K         int     `json:"k,omitempty"`
	Linkage   string  `json:"linkage,omitempty"`
	Eps       float64 `json:"eps,omitempty"`
	MinPts    int     `json:"min_pts,omitempty"`
	Sigma     float64 `json:"sigma,omitempty"`
	ClustSeed int64   `json:"cluster_seed,omitempty"`
	// Norm is the shared normalization ("" = zscore).
	Norm string `json:"norm,omitempty"`
	// Mechanisms, Rhos and Sigmas define the grid.
	Mechanisms []string  `json:"mechanisms,omitempty"`
	Rhos       []float64 `json:"rhos,omitempty"`
	Sigmas     []float64 `json:"sigmas,omitempty"`
	// Seed pins candidate randomness; Known sizes the simulated
	// known-sample adversary.
	Seed  int64 `json:"seed,omitempty"`
	Known int   `json:"known,omitempty"`
	// MinSec is the recommendation's security floor ("max utility such
	// that Sec >= MinSec"); Refine adds adaptive refinement rounds.
	MinSec float64 `json:"min_sec,omitempty"`
	Refine int     `json:"refine,omitempty"`
}

// TunePoint is one evaluated candidate of a tune sweep.
type TunePoint struct {
	Mechanism         string  `json:"mechanism"`
	Rho               float64 `json:"rho,omitempty"`
	Sigma             float64 `json:"sigma,omitempty"`
	Describe          string  `json:"describe,omitempty"`
	Misclassification float64 `json:"misclassification"`
	FMeasure          float64 `json:"f_measure"`
	RandIndex         float64 `json:"rand_index"`
	MinSecurity       float64 `json:"min_security"`
	ReidentRate       float64 `json:"reident_rate"`
	AttackError       string  `json:"attack_error,omitempty"`
	Err               string  `json:"error,omitempty"`
}

// TuneResult is the tune job's result payload: every evaluated point, the
// Pareto frontier, and the recommended operating point.
type TuneResult struct {
	Rows          int         `json:"rows"`
	Cols          int         `json:"cols"`
	Algorithm     string      `json:"algorithm"`
	BaselineK     int         `json:"baseline_k"`
	Evaluated     int         `json:"evaluated"`
	Failed        int         `json:"failed"`
	Pruned        int         `json:"pruned"`
	MinSec        float64     `json:"min_sec_constraint"`
	Points        []TunePoint `json:"points"`
	Frontier      []TunePoint `json:"frontier"`
	Recommended   *TunePoint  `json:"recommended,omitempty"`
	RecommendNote string      `json:"recommend_note,omitempty"`
}

// SubmitTune submits a tune job over the named stored dataset.
func (c *Client) SubmitTune(ctx context.Context, dataset string, spec TuneSpec) (*JobStatus, error) {
	body := struct {
		Type    string `json:"type"`
		Dataset string `json:"dataset"`
		TuneSpec
	}{Type: "tune", Dataset: dataset, TuneSpec: spec}
	return c.SubmitJob(ctx, body)
}

// TuneResult waits for tune job id to finish and returns its frontier. A
// failed or cancelled sweep is returned as an error carrying the state.
func (c *Client) TuneResult(ctx context.Context, id string, onProgress func(*JobStatus)) (*TuneResult, error) {
	st, err := c.WaitJob(ctx, id, onProgress)
	if err != nil {
		return nil, err
	}
	if st.State != "done" {
		return nil, fmt.Errorf("ppclient: tune job %s: %s", st.State, st.Error)
	}
	var out TuneResult
	if _, err := c.JobResult(ctx, id, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the daemon's /v1/metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (map[string]int64, error) {
	var out map[string]int64
	if err := c.doJSON(ctx, http.MethodGet, "/v1/metrics", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}
