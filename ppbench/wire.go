package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// rowsView reads a complete PPRW response in place, without copying its
// floats, so checking a response costs the generator little CPU next to
// the daemon. It parses the format as internal/codec documents it rather
// than through codec.Reader, which also checks the daemon's framing
// independently of the decoder it shares code with.
type rowsView struct {
	cols   int
	frames [][]byte // float payload of each batch frame
	rows   int
}

// parseRows validates the header, every batch frame and the end frame of
// raw, and that nothing follows the end frame.
func parseRows(raw []byte) (*rowsView, error) {
	le := binary.LittleEndian
	bad := func(what string) (*rowsView, error) {
		return nil, fmt.Errorf("malformed PPRW response: %s", what)
	}
	if len(raw) < 10 || string(raw[:4]) != "PPRW" || raw[4] != 1 {
		return bad("header")
	}
	if raw[5] != 0 {
		return bad("labeled stream")
	}
	v := &rowsView{cols: int(le.Uint32(raw[6:10]))}
	if v.cols == 0 {
		return bad("no columns")
	}
	p := raw[10:]
	for j := 0; j < v.cols; j++ {
		if len(p) < 2 || len(p) < 2+int(le.Uint16(p)) {
			return bad("column names")
		}
		p = p[2+int(le.Uint16(p)):]
	}
	for {
		if len(p) == 0 {
			return bad("no end frame")
		}
		switch p[0] {
		case 'B':
			if len(p) < 5 {
				return bad("batch frame")
			}
			n := int(le.Uint32(p[1:5]))
			if n > (len(p)-5)/(v.cols*8) {
				return bad("short batch frame")
			}
			size := n * v.cols * 8
			v.frames = append(v.frames, p[5:5+size])
			v.rows += n
			p = p[5+size:]
		case 'E':
			if len(p) != 9 || le.Uint64(p[1:9]) != uint64(v.rows) {
				return bad("end frame")
			}
			if v.rows == 0 {
				return nil, errors.New("response holds no rows")
			}
			return v, nil
		default:
			return bad("frame type")
		}
	}
}

// each calls fn with the index and value of every float, in row order,
// until fn returns false.
func (v *rowsView) each(fn func(k int, x float64) bool) {
	k := 0
	for _, f := range v.frames {
		for off := 0; off < len(f); off += 8 {
			if !fn(k, math.Float64frombits(binary.LittleEndian.Uint64(f[off:]))) {
				return
			}
			k++
		}
	}
}

// row decodes row i into dst.
func (v *rowsView) row(i int, dst []float64) []float64 {
	dst = dst[:0]
	for _, f := range v.frames {
		n := len(f) / (8 * v.cols)
		if i >= n {
			i -= n
			continue
		}
		for off := i * v.cols * 8; len(dst) < v.cols; off += 8 {
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(f[off:])))
		}
		return dst
	}
	return dst
}
