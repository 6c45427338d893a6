package main

import (
	"bytes"
	"math"
	"testing"

	"ppclust/internal/codec"
	"ppclust/internal/matrix"
)

// TestParseRows checks the in-place PPRW reader against codec.Writer's
// output, including multi-frame streams, and rejects damaged streams.
func TestParseRows(t *testing.T) {
	m := matrix.NewDense(5, 2, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, math.Pi})
	var buf bytes.Buffer
	cw := codec.NewWriter(&buf)
	if err := cw.WriteHeader([]string{"a", "bb"}, false); err != nil {
		t.Fatal(err)
	}
	// Two frames: rows 0-1, then rows 2-4.
	if err := cw.WriteBatch(matrix.NewDense(2, 2, m.Raw()[:4]), nil); err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteBatch(matrix.NewDense(3, 2, m.Raw()[4:]), nil); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	v, err := parseRows(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v.rows != 5 || v.cols != 2 || len(v.frames) != 2 {
		t.Fatalf("parsed %d rows, %d cols, %d frames", v.rows, v.cols, len(v.frames))
	}
	if got := v.row(4, nil); got[0] != 9 || got[1] != math.Pi {
		t.Fatalf("row 4 = %v", got)
	}
	if err := checkIdentical(raw, m); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"truncated":      raw[:len(raw)-3],
		"no end frame":   raw[:len(raw)-9],
		"trailing bytes": append(bytes.Clone(raw), 0),
		"bad magic":      append([]byte("PPRX"), raw[4:]...),
		"short frame":    append(bytes.Clone(raw[:len(raw)-9-8]), raw[len(raw)-9:]...),
	} {
		if _, err := parseRows(bad); err == nil {
			t.Errorf("%s stream parsed", name)
		}
	}
}
