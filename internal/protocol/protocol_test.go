package protocol

import (
	"bytes"
	"testing"

	"fleet/internal/compress"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := GradientPush{
		WorkerID:     7,
		DeviceModel:  "Galaxy S7",
		ModelVersion: 42,
		Gradient:     []float64{0.1, -0.2, 0.3},
		BatchSize:    100,
		LabelCounts:  []int{1, 0, 2},
		CompTimeSec:  2.5,
		EnergyPct:    0.05,
	}
	var buf bytes.Buffer
	if err := Flat.Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out GradientPush
	if err := Flat.Decode(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.WorkerID != 7 || out.DeviceModel != "Galaxy S7" || out.ModelVersion != 42 {
		t.Fatalf("metadata mismatch: %+v", out)
	}
	for i, v := range in.Gradient {
		if out.Gradient[i] != v {
			t.Fatal("gradient corrupted")
		}
	}
	for i, v := range in.LabelCounts {
		if out.LabelCounts[i] != v {
			t.Fatal("label counts corrupted")
		}
	}
}

func TestDecodeGarbageFails(t *testing.T) {
	var out TaskRequest
	if err := Flat.Decode(bytes.NewBufferString("not flat"), &out); err == nil {
		t.Fatal("want error on garbage input")
	}
}

func TestRoundTripAllMessageTypes(t *testing.T) {
	cases := []interface{}{
		TaskRequest{WorkerID: 1, DeviceModel: "Pixel", TimeFeatures: []float64{1, 2}, LabelCounts: []int{3}},
		TaskResponse{Accepted: false, Reason: "similarity above threshold"},
		PushAck{Applied: true, Staleness: 3, Scale: 0.5, NewVersion: 9},
		Stats{ModelVersion: 5, TasksServed: 10, GradientsIn: 8, MeanStaleness: 1.5},
	}
	for i, in := range cases {
		var buf bytes.Buffer
		if err := Flat.Encode(&buf, in); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		switch want := in.(type) {
		case TaskRequest:
			var got TaskRequest
			if err := Flat.Decode(&buf, &got); err != nil {
				t.Fatal(err)
			}
			if got.DeviceModel != want.DeviceModel {
				t.Fatalf("case %d mismatch", i)
			}
		case TaskResponse:
			var got TaskResponse
			if err := Flat.Decode(&buf, &got); err != nil {
				t.Fatal(err)
			}
			if got.Reason != want.Reason {
				t.Fatalf("case %d mismatch", i)
			}
		case PushAck:
			var got PushAck
			if err := Flat.Decode(&buf, &got); err != nil {
				t.Fatal(err)
			}
			if got.Scale != want.Scale || got.Staleness != want.Staleness {
				t.Fatalf("case %d mismatch", i)
			}
		case Stats:
			var got Stats
			if err := Flat.Decode(&buf, &got); err != nil {
				t.Fatal(err)
			}
			if got.MeanStaleness != want.MeanStaleness {
				t.Fatalf("case %d mismatch", i)
			}
		}
	}
}

func TestRoundTripDeltaPullFieldsBothCodecs(t *testing.T) {
	req := TaskRequest{WorkerID: 2, LabelCounts: []int{1, 2}, KnownVersion: 7, WantDelta: true}
	resp := TaskResponse{
		Accepted:     true,
		ModelVersion: 9,
		BatchSize:    50,
		ParamsDelta:  &compress.Sparse{Len: 5, Indices: []int32{1, 4}, Values: []float64{0.5, -0.25}},
		DeltaBase:    7,
	}
	for _, codec := range []Codec{Flat, JSON} {
		var buf bytes.Buffer
		if err := codec.Encode(&buf, &req); err != nil {
			t.Fatal(err)
		}
		var gotReq TaskRequest
		if err := codec.Decode(&buf, &gotReq); err != nil {
			t.Fatal(err)
		}
		if gotReq.KnownVersion != 7 || !gotReq.WantDelta {
			t.Fatalf("%s: request = %+v", codec.ContentType(), gotReq)
		}

		buf.Reset()
		if err := codec.Encode(&buf, &resp); err != nil {
			t.Fatal(err)
		}
		var gotResp TaskResponse
		if err := codec.Decode(&buf, &gotResp); err != nil {
			t.Fatal(err)
		}
		if gotResp.ParamsDelta == nil || gotResp.DeltaBase != 7 || gotResp.ModelVersion != 9 {
			t.Fatalf("%s: response = %+v", codec.ContentType(), gotResp)
		}
		d := gotResp.ParamsDelta
		if d.Len != 5 || len(d.Indices) != 2 || d.Indices[1] != 4 || d.Values[1] != -0.25 {
			t.Fatalf("%s: delta corrupted: %+v", codec.ContentType(), d)
		}
	}
}

func TestRoundTripStatsAdmissionFieldsBothCodecs(t *testing.T) {
	in := Stats{
		ModelVersion:      3,
		TasksServed:       10,
		TasksDropped:      2,
		AdmissionPolicies: []string{"iprof-time(3)", "min-batch(5)"},
		RejectsByPolicy:   map[string]int{"min-batch(5)": 2},
	}
	for _, codec := range []Codec{Flat, JSON} {
		var buf bytes.Buffer
		if err := codec.Encode(&buf, &in); err != nil {
			t.Fatal(err)
		}
		var got Stats
		if err := codec.Decode(&buf, &got); err != nil {
			t.Fatal(err)
		}
		if got.TasksDropped != 2 || len(got.AdmissionPolicies) != 2 ||
			got.RejectsByPolicy["min-batch(5)"] != 2 {
			t.Fatalf("%s: stats = %+v", codec.ContentType(), got)
		}
	}
}

// TestPreDeltaPayloadsDecodeUnchanged proves wire compatibility: a message
// encoded without any of the new fields decodes into the extended structs
// with zero values (and vice versa, old decoders simply ignore them).
func TestPreDeltaPayloadsDecodeUnchanged(t *testing.T) {
	var buf bytes.Buffer
	// JSON payload as a pre-delta client would send it.
	buf.WriteString(`{"worker_id":1,"label_counts":[1,2]}`)
	var req TaskRequest
	if err := JSON.Decode(&buf, &req); err != nil {
		t.Fatal(err)
	}
	if req.WantDelta || req.KnownVersion != 0 {
		t.Fatalf("request = %+v", req)
	}
	buf.Reset()
	buf.WriteString(`{"accepted":true,"model_version":4,"params":[1,2,3],"batch_size":10}`)
	var resp TaskResponse
	if err := JSON.Decode(&buf, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ParamsDelta != nil {
		t.Fatalf("response = %+v", resp)
	}
	if len(resp.Params) != 3 {
		t.Fatalf("params lost: %+v", resp)
	}
}
