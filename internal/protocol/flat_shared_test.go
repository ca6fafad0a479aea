package protocol

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"fleet/internal/compress"
)

// sharingWriter is a SharedWriter that remembers what it was handed by
// reference.
type sharingWriter struct {
	bytes.Buffer
	shared [][]byte
}

func (w *sharingWriter) WriteShared(p []byte) (int, error) {
	w.shared = append(w.shared, p)
	return w.Write(p)
}

// TestFlatSplitLayoutIsByteIdentical: a message with a model-sized array
// leaves the encoder as head / array / tail, and that must be the same
// bytes whichever way they travel — copied through the scratch buffer (the
// big-endian path, forced), written piecewise into a plain io.Writer, or
// handed by reference to a SharedWriter — for every shape of task response.
func TestFlatSplitLayoutIsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const P = 20_000 // 160 KB of float64: well past flatSplitBytes
	accepted := func(m TaskResponse) TaskResponse {
		m.Accepted, m.ModelVersion, m.BatchSize, m.ServerEpoch = true, 41, 32, 3
		return m
	}
	delta := func(nnz int) *compress.Sparse {
		return &compress.Sparse{Len: 4 * P, Indices: randIndices(rng, nnz), Values: randFloats(rng, nnz)}
	}
	shapes := map[string]struct {
		msg    TaskResponse
		shared int // arrays a SharedWriter must receive by reference
	}{
		"full":               {accepted(TaskResponse{Params: randFloats(rng, P)}), 1},
		"delta":              {accepted(TaskResponse{ParamsDelta: delta(P), DeltaBase: 40}), 2},
		"sparse delta":       {accepted(TaskResponse{ParamsDelta: delta(9), DeltaBase: 40}), 0},
		"empty delta":        {accepted(TaskResponse{ParamsDelta: delta(0), DeltaBase: 41}), 0},
		"zero-length params": {accepted(TaskResponse{Params: []float64{}}), 0},
		"rejected":           {TaskResponse{Reason: "controller: worker rejected"}, 0},
	}
	little := hostLittle
	for name, shape := range shapes {
		m := shape.msg
		plain := flatBytes(t, &m)

		var sw sharingWriter
		if err := Flat.Encode(&sw, &m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(sw.Bytes(), plain) {
			t.Errorf("%s: bytes through a SharedWriter differ from bytes into a bytes.Buffer", name)
		}
		if len(sw.shared) != shape.shared {
			t.Errorf("%s: %d arrays handed over by reference, want %d", name, len(sw.shared), shape.shared)
		}
		// By reference means the message's own memory: a write to the array
		// shows through the slice the writer kept.
		if shape.shared > 0 && m.Params != nil {
			was := append([]byte(nil), sw.shared[0][:8]...)
			m.Params[0] = -m.Params[0]
			if bytes.Equal(sw.shared[0][:8], was) {
				t.Errorf("%s: the shared slice is a copy of Params", name)
			}
			m.Params[0] = -m.Params[0]
		}

		hostLittle = false
		var conv sharingWriter
		err := Flat.Encode(&conv, &m)
		hostLittle = little
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(conv.Bytes(), plain) {
			t.Errorf("%s: the converting copy produces different bytes", name)
		}
		if len(conv.shared) != 0 {
			t.Errorf("%s: the converting copy handed %d arrays over by reference", name, len(conv.shared))
		}

		var out TaskResponse
		if err := Flat.Decode(bytes.NewReader(plain), &out); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if want := m; !reflect.DeepEqual(&out, normalized(&want)) {
			t.Errorf("%s round trip:\n in: %+v\nout: %+v", name, m, out)
		}
	}
}

// normalized maps a message onto what the decoder produces for it: empty
// arrays come back nil.
func normalized(m *TaskResponse) *TaskResponse {
	if len(m.Params) == 0 {
		m.Params = nil
	}
	if d := m.ParamsDelta; d != nil && len(d.Indices) == 0 {
		m.ParamsDelta = &compress.Sparse{Len: d.Len}
	}
	return m
}

// failAfter fails the n-th Write.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n--; w.n < 0 {
		return 0, errors.New("peer went away")
	}
	return len(p), nil
}

// TestFlatSplitWriteFailure: a split message is several Writes; a failure
// of any of them is the Encode's unavailable error.
func TestFlatSplitWriteFailure(t *testing.T) {
	m := &TaskResponse{Accepted: true, Params: make([]float64, 20_000)}
	for n := 0; n < 3; n++ {
		if err := Flat.Encode(&failAfter{n: n}, m); !IsCode(err, CodeUnavailable) {
			t.Errorf("write %d failing: %v, want unavailable", n, err)
		}
	}
	if err := Flat.Encode(&failAfter{n: 3}, m); err != nil {
		t.Errorf("head, array and tail are three writes, yet a fourth was attempted: %v", err)
	}
}
