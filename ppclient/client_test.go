package ppclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"ppclust/internal/codec"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTokenCaptureAndErrors exercises the client plumbing against a stub
// daemon: minted tokens are captured once, bearer auth is attached, and
// non-2xx responses surface as typed APIErrors. The full protocol is
// covered end to end by cmd/ppclustd's federation tests.
func TestTokenCaptureAndErrors(t *testing.T) {
	var sawAuth string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("owner") != "alice" {
			t.Errorf("owner query = %q", r.URL.Query().Get("owner"))
		}
		switch r.URL.Path {
		case "/v1/federations":
			w.Header().Set("X-Ppclust-Token", "tok-1")
			w.WriteHeader(http.StatusCreated)
			w.Write([]byte(`{"id":"fabc","state":"open","coordinator":"alice"}`))
		case "/v1/federations/fabc":
			sawAuth = r.Header.Get("Authorization")
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error":"federation: not found"}`))
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
		}
	}))
	defer ts.Close()

	c := New(ts.URL, "alice")
	fed, err := c.CreateFederation(context.Background(), FederationConfig{Name: "n", Columns: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if fed.ID != "fabc" || c.Token != "tok-1" {
		t.Fatalf("fed = %+v, token = %q", fed, c.Token)
	}

	_, err = c.Federation(context.Background(), "fabc")
	if !IsStatus(err, http.StatusNotFound) {
		t.Fatalf("err = %v, want 404 APIError", err)
	}
	if sawAuth != "Bearer tok-1" {
		t.Fatalf("Authorization = %q", sawAuth)
	}
}

func TestPartyAssignments(t *testing.T) {
	r := &Result{
		Parties:     []ResultParty{{Owner: "a", Rows: 2, Offset: 0}, {Owner: "b", Rows: 3, Offset: 2}},
		Assignments: []int{0, 0, 1, 1, 2},
	}
	if got := r.PartyAssignments("b"); len(got) != 3 || got[0] != 1 || got[2] != 2 {
		t.Fatalf("b assignments = %v", got)
	}
	if got := r.PartyAssignments("nobody"); got != nil {
		t.Fatalf("unknown party = %v", got)
	}
}

// TestDatasetJobAndTunePlumbing drives the new dataset/job/tune client
// calls against a stub daemon: upload captures a minted token, SubmitTune
// sends a well-formed tune spec, and TuneResult polls to completion and
// decodes the frontier.
func TestDatasetJobAndTunePlumbing(t *testing.T) {
	ctx := context.Background()
	polls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method + " " + r.URL.Path {
		case "POST /v1/datasets":
			if r.URL.Query().Get("name") != "blobs" || r.URL.Query().Get("labels") != "last" {
				t.Errorf("upload query = %v", r.URL.Query())
			}
			w.Header().Set("X-Ppclust-Token", "tok-9")
			w.WriteHeader(http.StatusCreated)
			w.Write([]byte(`{"owner":"alice","name":"blobs","rows":2,"cols":2,"labeled":true}`))
		case "POST /v1/jobs":
			var spec map[string]any
			if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
				t.Error(err)
			}
			if spec["type"] != "tune" || spec["dataset"] != "blobs" || spec["min_sec"] != 0.3 {
				t.Errorf("tune spec = %v", spec)
			}
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"id":"j1","state":"queued"}`))
		case "GET /v1/jobs/j1":
			polls++
			state := "running"
			if polls >= 2 {
				state = "done"
			}
			fmt.Fprintf(w, `{"id":"j1","state":%q,"progress":0.5}`, state)
		case "GET /v1/jobs/j1/result":
			w.Write([]byte(`{"status":{"id":"j1","state":"done"},"result":{"evaluated":3,"frontier":[{"mechanism":"rbt","rho":0.3,"misclassification":0,"min_security":0.8}],"recommended":{"mechanism":"rbt","rho":0.3}}}`))
		default:
			t.Errorf("unexpected call %s %s", r.Method, r.URL.Path)
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer ts.Close()

	c := New(ts.URL, "alice")
	c.PollInterval = time.Millisecond
	meta, err := c.UploadDatasetCSV(ctx, "blobs", strings.NewReader("a,b\n1,0\n2,1\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Rows != 2 || !meta.Labeled || c.Token != "tok-9" {
		t.Fatalf("meta = %+v, token = %q", meta, c.Token)
	}
	st, err := c.SubmitTune(ctx, "blobs", TuneSpec{Algorithm: "kmeans", K: 3, MinSec: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	var sawProgress bool
	res, err := c.TuneResult(ctx, st.ID, func(js *JobStatus) { sawProgress = true })
	if err != nil {
		t.Fatal(err)
	}
	if !sawProgress || res.Evaluated != 3 || len(res.Frontier) != 1 || res.Recommended == nil {
		t.Fatalf("tune result = %+v (progress seen: %v)", res, sawProgress)
	}
	if res.Frontier[0].Mechanism != "rbt" || res.Frontier[0].MinSecurity != 0.8 {
		t.Fatalf("frontier = %+v", res.Frontier)
	}
}

// TestWaitJobHonorsContext: a cancelled context aborts the poll loop with
// the context's error — the point of threading ctx through the SDK.
func TestWaitJobHonorsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"id":"j1","state":"running"}`))
	}))
	defer ts.Close()
	c := New(ts.URL, "alice")
	c.PollInterval = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.WaitJob(ctx, "j1", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestAPIErrorEnvelope: the client decodes the daemon's shared error
// envelope {"error":{"code","message"}} into a typed APIError, and still
// understands the legacy flat string shape.
func TestAPIErrorEnvelope(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":{"code":"not_found","message":"datastore: not found: alice/ghost"}}`))
	}))
	defer ts.Close()
	c := New(ts.URL, "alice")
	_, err := c.Dataset(context.Background(), "ghost")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want APIError, got %v", err)
	}
	if ae.Status != http.StatusNotFound || ae.Code != "not_found" || !strings.Contains(ae.Message, "alice/ghost") {
		t.Fatalf("APIError = %+v", ae)
	}
	if !IsCode(err, "not_found") || IsCode(err, "conflict") {
		t.Fatalf("IsCode misclassified %v", err)
	}
	if !strings.Contains(ae.Error(), "not_found") {
		t.Fatalf("Error() should carry the code: %q", ae.Error())
	}

	// Legacy flat shape still decodes (code stays empty).
	legacy := apiError(http.StatusConflict, []byte(`{"error":"old style"}`))
	if !errors.As(legacy, &ae) || ae.Code != "" || ae.Message != "old style" {
		t.Fatalf("legacy decode = %+v", ae)
	}
}

// TestRetryDrainCycle: a drain-time 503 on a write is retried with the
// body rewound, so a submission that lands mid-SIGTERM survives into the
// restarted daemon.
func TestRetryDrainCycle(t *testing.T) {
	var mu sync.Mutex
	var bodies []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(raw))
		n := len(bodies)
		mu.Unlock()
		if n <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"draining","message":"jobs: manager is draining"}}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"j1","state":"queued"}`))
	}))
	defer ts.Close()
	c := New(ts.URL, "alice")
	c.RetryBackoff = time.Millisecond
	st, err := c.SubmitJob(context.Background(), map[string]any{"type": "cluster", "dataset": "d", "k": 2})
	if err != nil {
		t.Fatalf("submit through drain: %v", err)
	}
	if st.ID != "j1" {
		t.Fatalf("status = %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 3 {
		t.Fatalf("attempts = %d, want 3", len(bodies))
	}
	if bodies[0] == "" || bodies[0] != bodies[1] || bodies[1] != bodies[2] {
		t.Fatalf("body not rewound across retries: %q", bodies)
	}
}

// TestRetryGivesUpAndHonorsContext: retries are capped, and a cancelled
// context aborts the backoff wait immediately.
func TestRetryGivesUpAndHonorsContext(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"draining","message":"draining"}}`))
	}))
	defer ts.Close()
	c := New(ts.URL, "alice")
	c.Retries = 2
	c.RetryBackoff = time.Millisecond
	_, err := c.Datasets(context.Background())
	if !IsStatus(err, http.StatusServiceUnavailable) {
		t.Fatalf("want final 503, got %v", err)
	}
	mu.Lock()
	if calls != 3 { // 1 try + 2 retries
		t.Fatalf("calls = %d, want 3", calls)
	}
	mu.Unlock()

	// A cancelled context stops the backoff without burning the budget.
	c2 := New(ts.URL, "alice")
	c2.RetryBackoff = time.Hour
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	start := time.Now()
	if _, err := c2.Datasets(ctx); err == nil {
		t.Fatal("expected an error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("backoff ignored context cancellation")
	}
}

// TestNoRetryUnrewindableBody: a streaming upload whose body cannot be
// replayed is not retried — the first 503 surfaces.
func TestNoRetryUnrewindableBody(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		calls++
		mu.Unlock()
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"draining","message":"draining"}}`))
	}))
	defer ts.Close()
	c := New(ts.URL, "alice")
	c.RetryBackoff = time.Millisecond
	pr, pw := io.Pipe()
	go func() {
		pw.Write([]byte("a,b\n1,2\n"))
		pw.Close()
	}()
	_, err := c.UploadDatasetCSV(context.Background(), "d", pr, false)
	if !IsStatus(err, http.StatusServiceUnavailable) {
		t.Fatalf("want 503, got %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (no retry of a consumed stream)", calls)
	}
}

// TestWireNegotiationBinary checks that the structured-row calls speak
// the framed binary format by default: uploads carry the binary
// Content-Type with a decodable framed body, and DownloadDatasetRows
// decodes a framed response.
func TestWireNegotiationBinary(t *testing.T) {
	ctx := context.Background()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method + " " + r.URL.Path {
		case "POST /v1/datasets":
			if r.URL.Query().Get("format") != "binary" || r.Header.Get("Content-Type") != codec.ContentType {
				t.Errorf("upload format=%q content-type=%q", r.URL.Query().Get("format"), r.Header.Get("Content-Type"))
			}
			rd := codec.NewReader(r.Body)
			rows := 0
			for {
				if _, err := rd.Read(); err != nil {
					if !errors.Is(err, io.EOF) {
						t.Errorf("decoding upload: %v", err)
					}
					break
				}
				rows++
			}
			if names := rd.Names(); len(names) != 2 || names[0] != "a" || rows != 3 {
				t.Errorf("decoded names=%v rows=%d", rd.Names(), rows)
			}
			w.WriteHeader(http.StatusCreated)
			fmt.Fprintf(w, `{"owner":"alice","name":"d","rows":%d,"cols":2}`, rows)
		case "GET /v1/datasets/d/rows":
			if r.URL.Query().Get("format") != "binary" {
				t.Errorf("download format = %q", r.URL.Query().Get("format"))
			}
			w.Header().Set("Content-Type", codec.ContentType)
			cw := codec.NewWriter(w)
			cw.WriteHeader([]string{"a", "b"}, false)
			cw.WriteRow([]float64{1.5, -2})
			cw.WriteRow([]float64{3, 4})
			if err := cw.Close(); err != nil {
				t.Error(err)
			}
		default:
			t.Errorf("unexpected call %s %s", r.Method, r.URL.Path)
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer ts.Close()

	c := New(ts.URL, "alice")
	meta, err := c.UploadDataset(ctx, "d", []string{"a", "b"}, [][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Rows != 3 {
		t.Fatalf("meta = %+v", meta)
	}
	names, rows, err := c.DownloadDatasetRows(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || len(rows) != 2 || rows[0][0] != 1.5 || rows[1][1] != 4 {
		t.Fatalf("names=%v rows=%v", names, rows)
	}
}

// TestWireBinaryAfterRejection: the structured-row calls speak only the
// binary wire. A daemon answering 400 gets the error back unchanged, and
// the next call still sends application/x-ppclust-rows — there is no CSV
// retry and no sticky downgrade.
func TestWireBinaryAfterRejection(t *testing.T) {
	ctx := context.Background()
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if r.URL.Query().Get("format") != codec.FormatName {
			t.Errorf("%s %s: format = %q, want %q", r.Method, r.URL.Path, r.URL.Query().Get("format"), codec.FormatName)
		}
		if r.Method == http.MethodPost && r.Header.Get("Content-Type") != codec.ContentType {
			t.Errorf("%s %s: content-type = %q", r.Method, r.URL.Path, r.Header.Get("Content-Type"))
		}
		if r.Method == http.MethodGet && r.Header.Get("Accept") != codec.ContentType {
			t.Errorf("%s %s: accept = %q", r.Method, r.URL.Path, r.Header.Get("Accept"))
		}
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":{"code":"invalid","message":"unknown format \"binary\" (want csv or ndjson)"}}`))
	}))
	defer ts.Close()

	c := New(ts.URL, "alice")
	cols, rows := []string{"a", "b"}, [][]float64{{1, 2}}
	wantErr := func(what string, err error) {
		t.Helper()
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Fatalf("%s: err = %v, want the daemon's 400", what, err)
		}
	}
	for i := 0; i < 2; i++ {
		_, err := c.UploadDataset(ctx, "d", cols, rows)
		wantErr("UploadDataset", err)
		_, err = c.Contribute(ctx, "f", cols, rows)
		wantErr("Contribute", err)
		_, _, err = c.DownloadDatasetRows(ctx, "d")
		wantErr("DownloadDatasetRows", err)
	}
	if n := calls.Load(); n != 6 {
		t.Fatalf("daemon saw %d requests, want 6 (one per call, no retries)", n)
	}
}
