package protocol

import (
	"math/rand"
	"reflect"
	"testing"

	"fleet/internal/compress"
)

// decodeSparse is the test shorthand: a plain float64 sparse push.
func decodeSparse(t *testing.T, paramCount int, indices []int32, values []float64) GradientPayload {
	t.Helper()
	p, err := DecodeGradientPayload(&GradientPush{
		GradientLen:   paramCount,
		SparseIndices: indices,
		SparseValues:  values,
	}, paramCount)
	if err != nil {
		t.Fatalf("DecodeGradientPayload: %v", err)
	}
	return p
}

func TestDecodeCanonicalizesUnorderedSparse(t *testing.T) {
	// Descending indices with a duplicate: the decoder must sort them and
	// keep the LAST wire occurrence of index 2 (value 9, not 5) — the
	// overwrite semantics Densify has always applied.
	p := decodeSparse(t, 8, []int32{5, 2, 7, 2}, []float64{1, 5, 3, 9})
	wantI := []int32{2, 5, 7}
	wantV := []float64{9, 1, 3}
	if !reflect.DeepEqual(p.Indices, wantI) || !reflect.DeepEqual(p.Values, wantV) {
		t.Fatalf("canonicalized to (%v, %v), want (%v, %v)", p.Indices, p.Values, wantI, wantV)
	}
}

func TestDecodeCanonicalizeMatchesDensify(t *testing.T) {
	// Property test: for random sparse pushes — shuffled, with duplicate
	// indices — the canonicalized scatter target must equal the legacy
	// densify of the RAW wire view, bit for bit. This is the equivalence
	// that lets receivers scatter-accumulate every decoded payload.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		paramCount := 1 + rng.Intn(64)
		n := 1 + rng.Intn(2*paramCount)
		indices := make([]int32, n)
		values := make([]float64, n)
		for i := range indices {
			indices[i] = int32(rng.Intn(paramCount))
			values[i] = rng.NormFloat64()
		}
		raw := compress.Sparse{Len: paramCount, Indices: indices, Values: values}
		want := raw.Dense()

		p := decodeSparse(t, paramCount, indices, values)
		for i := 1; i < len(p.Indices); i++ {
			if p.Indices[i] <= p.Indices[i-1] {
				t.Fatalf("trial %d: indices not strictly ascending: %v", trial, p.Indices)
			}
		}
		got := make([]float64, paramCount)
		for i, id := range p.Indices {
			got[id] += p.Values[i]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: scatter of canonicalized view %v, densify of raw view %v",
				trial, got, want)
		}
		// And Densify of the canonicalized payload agrees too.
		if d := p.Densify(paramCount); !reflect.DeepEqual(d, want) {
			t.Fatalf("trial %d: Densify of canonical view %v, want %v", trial, d, want)
		}
	}
}

func TestDecodeCanonicalizeDoesNotMutateWireBuffers(t *testing.T) {
	// The flat codec decodes zero-copy: SparseIndices/SparseValues may
	// alias the connection's read buffer. Canonicalization must allocate
	// fresh slices, never sort the wire view in place.
	indices := []int32{5, 2, 7}
	values := []float64{1, 5, 3}
	wantI := []int32{5, 2, 7}
	wantV := []float64{1, 5, 3}
	p := decodeSparse(t, 8, indices, values)
	if !reflect.DeepEqual(indices, wantI) || !reflect.DeepEqual(values, wantV) {
		t.Fatalf("decode mutated wire buffers: indices %v, values %v", indices, values)
	}
	if &p.Indices[0] == &indices[0] || &p.Values[0] == &values[0] {
		t.Fatalf("canonicalized payload aliases the wire buffers")
	}
}

func TestDecodeAscendingSparseStaysZeroCopy(t *testing.T) {
	// Already-canonical payloads keep the zero-copy fast path: the decoded
	// view must alias the push's slices, not a defensive copy.
	indices := []int32{1, 4, 6}
	values := []float64{1, 2, 3}
	p := decodeSparse(t, 8, indices, values)
	if !reflect.DeepEqual(p.Indices, indices) || !reflect.DeepEqual(p.Values, values) {
		t.Fatalf("ascending payload decoded as (%v, %v)", p.Indices, p.Values)
	}
	if &p.Indices[0] != &indices[0] || &p.Values[0] != &values[0] {
		t.Fatalf("ascending payload was copied; want zero-copy aliasing")
	}
}

func TestDecodeCanonicalizesQuantizedForms(t *testing.T) {
	// The canonicalizer applies after quantized expansion too: an f16
	// push with duplicate indices comes out ascending and merged.
	// Exact halves: the stochastic encoder round-trips them for any draw.
	vals := compress.QuantizeSparseF16(rand.New(rand.NewSource(1)), compress.Sparse{Values: []float64{1, 5, 3, 9}}).Values
	p, err := DecodeGradientPayload(&GradientPush{
		GradientLen:   8,
		SparseIndices: []int32{5, 2, 7, 2},
		SparseF16:     vals,
	}, 8)
	if err != nil {
		t.Fatalf("DecodeGradientPayload(f16): %v", err)
	}
	wantI := []int32{2, 5, 7}
	if !reflect.DeepEqual(p.Indices, wantI) {
		t.Fatalf("f16 canonical indices %v, want %v", p.Indices, wantI)
	}
	// Index 2 keeps the LAST wire value, 9.
	if p.Values[0] != 9 {
		t.Fatalf("duplicate index kept value %v, want last-wins 9", p.Values[0])
	}
}

func TestDecodeStillRejectsOutOfRangeIndices(t *testing.T) {
	_, err := DecodeGradientPayload(&GradientPush{
		GradientLen:   4,
		SparseIndices: []int32{3, 4},
		SparseValues:  []float64{1, 2},
	}, 4)
	if err == nil {
		t.Fatalf("out-of-range sparse index decoded without error")
	}
}
