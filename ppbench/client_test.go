package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestOpFailures checks that transport errors, every non-2xx status (429
// included) and failed output checks all count as failed ops.
func TestOpFailures(t *testing.T) {
	w := workloads[0]
	in, err := w.generate(1)
	if err != nil {
		t.Fatal(err)
	}
	b := in.stored[0][0]
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/ok":
			rw.Write(b.enc)
		case "/wrong":
			rw.Write(in.stored[1][0].enc)
		case "/truncated":
			rw.Write(b.enc[:len(b.enc)-9])
		case "/busy":
			http.Error(rw, "slow down", http.StatusTooManyRequests)
		case "/broken":
			http.Error(rw, "boom", http.StatusInternalServerError)
		case "/hangup":
			conn, _, err := http.NewResponseController(rw).Hijack()
			if err == nil {
				conn.Close()
			}
		}
	}))
	defer srv.Close()
	e := &env{w: w, in: in, d: &daemon{base: srv.URL}, hc: newHTTPClient()}
	c := e.conn(0, 1)
	ctx := context.Background()
	for _, path := range []string{"/ok", "/wrong", "/truncated", "/busy", "/broken", "/hangup"} {
		c.timed(opRowsGet, b.data.Rows(), 0, func() ([]byte, error) {
			return c.get(ctx, path, "")
		}, func(resp []byte) error { return checkIdentical(resp, b.data) })
	}
	att, failed := c.t.totals()
	if att != 6 || failed != 5 || len(c.t.lat[opRowsGet]) != 1 {
		t.Fatalf("attempted %d, failed %d, latencies %d; want 6, 5, 1 (errors %q)", att, failed, len(c.t.lat[opRowsGet]), c.t.errs)
	}
	if c.t.rows[opRowsGet] != int64(b.data.Rows()) || c.t.payload != int64(len(b.enc)) {
		t.Fatalf("counted %d rows and %d payload bytes for the one success", c.t.rows[opRowsGet], c.t.payload)
	}
}

func TestReleaseAndRecoverChecks(t *testing.T) {
	in, err := workloads[0].generate(2)
	if err != nil {
		t.Fatal(err)
	}
	b := in.batches[0][0]
	c := (&env{}).conn(0, 1)
	// The z-scored body itself is a valid release under the identity rotation.
	z, err := encode(make([]string, b.data.Cols()), zscore(b))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.checkRelease(z, b, b.means, b.stds); err != nil {
		t.Fatalf("identity release rejected: %v", err)
	}
	if err := c.checkRelease(b.enc, b, b.means, b.stds); err == nil {
		t.Fatal("a release that does not preserve distances passed")
	}
	if err := checkRecover(b.enc, b.data); err != nil {
		t.Fatalf("exact recovery rejected: %v", err)
	}
	if err := checkRecover(z, b.data); err == nil {
		t.Fatal("a wrong recovery passed")
	}
}

func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, err := w.generate(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.generate(7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.generate(8)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flat(a), flat(b)) {
			t.Errorf("%s: seed 7 gave different bodies on two runs", w.name)
		}
		if bytes.Equal(flat(a), flat(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same bodies", w.name)
		}
	}
}

// flat concatenates every body of in, in a fixed order.
func flat(in *inputs) []byte {
	var out []byte
	for _, group := range [][][]*body{in.stored, in.batches, {in.fits, in.fresh}} {
		for _, bs := range group {
			for _, b := range bs {
				out = append(out, b.enc...)
			}
		}
	}
	return out
}
