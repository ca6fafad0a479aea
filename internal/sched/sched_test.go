package sched

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fleet/internal/protocol"
)

// fakeProf returns a fixed batch size per device model, recording calls.
type fakeProf struct {
	byModel map[string]int
	calls   int
}

func (f *fakeProf) BatchSize(model string, _ []float64, _ float64) int {
	f.calls++
	return f.byModel[model]
}

func req(worker int, model string) *TaskRequest {
	return &TaskRequest{
		Wire: &protocol.TaskRequest{
			WorkerID:       worker,
			DeviceModel:    model,
			TimeFeatures:   []float64{1, 2, 3},
			EnergyFeatures: []float64{4, 5, 6},
		},
		BatchSize: 100,
	}
}

func TestIProfTimeReplacesBatch(t *testing.T) {
	ctx := context.Background()
	prof := &fakeProf{byModel: map[string]int{"fast": 250, "slow": 3}}
	p := IProfTime(prof, 3.0)
	d, err := p.Admit(ctx, req(1, "fast"))
	if err != nil {
		t.Fatal(err)
	}
	// The time prediction replaces the default — it may exceed it.
	if !d.Accept || d.BatchSize != 250 {
		t.Fatalf("decision = %+v, want accept at 250", d)
	}
}

func TestIProfEnergyOnlyLowers(t *testing.T) {
	ctx := context.Background()
	prof := &fakeProf{byModel: map[string]int{"big": 500, "small": 7}}
	p := IProfEnergy(prof, 5)
	if d, _ := p.Admit(ctx, req(1, "big")); d.BatchSize != 100 {
		t.Fatalf("energy prediction above current batch must not raise it: %+v", d)
	}
	if d, _ := p.Admit(ctx, req(1, "small")); d.BatchSize != 7 {
		t.Fatalf("energy prediction below current batch must lower it: %+v", d)
	}
}

func TestIProfPassThroughWhenUnconfigured(t *testing.T) {
	ctx := context.Background()
	for _, p := range []AdmissionPolicy{IProfTime(nil, 3), IProfTime(&fakeProf{}, 0), IProfEnergy(nil, 5)} {
		d, err := p.Admit(ctx, req(1, "x"))
		if err != nil || !d.Accept || d.BatchSize != 100 {
			t.Fatalf("%s: want pass-through at 100, got %+v, %v", p.Name(), d, err)
		}
	}
}

func TestMinBatchRejects(t *testing.T) {
	ctx := context.Background()
	p := MinBatch(50)
	r := req(1, "x")
	r.BatchSize = 49
	d, _ := p.Admit(ctx, r)
	if d.Accept || d.Reason != ReasonBatchBelowThreshold || d.Policy != p.Name() {
		t.Fatalf("decision = %+v", d)
	}
	r.BatchSize = 50
	if d, _ := p.Admit(ctx, r); !d.Accept {
		t.Fatalf("batch at threshold must pass: %+v", d)
	}
}

func TestSimilarityRejects(t *testing.T) {
	ctx := context.Background()
	p := Similarity(0.9)
	r := req(1, "x")
	r.Similarity = 0.95
	if d, _ := p.Admit(ctx, r); d.Accept || d.Reason != ReasonSimilarityExceeded {
		t.Fatalf("decision = %+v", d)
	}
	r.Similarity = 0.9
	if d, _ := p.Admit(ctx, r); !d.Accept {
		t.Fatalf("similarity at threshold must pass: %+v", d)
	}
}

func TestPerWorkerQuotaWindows(t *testing.T) {
	ctx := context.Background()
	p := PerWorkerQuota(2, time.Minute).(*perWorkerQuota)
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if d, _ := p.Admit(ctx, req(7, "x")); !d.Accept {
			t.Fatalf("admit %d rejected: %+v", i, d)
		}
	}
	if d, _ := p.Admit(ctx, req(7, "x")); d.Accept || d.Reason != ReasonQuotaExceeded {
		t.Fatalf("third admit in window must reject: %+v", d)
	}
	// A different worker has its own bucket.
	if d, _ := p.Admit(ctx, req(8, "x")); !d.Accept {
		t.Fatalf("other worker rejected: %+v", d)
	}
	// The window rolling over resets the bucket.
	now = now.Add(time.Minute)
	if d, _ := p.Admit(ctx, req(7, "x")); !d.Accept {
		t.Fatalf("new window rejected: %+v", d)
	}
}

func TestPerWorkerQuotaConcurrent(t *testing.T) {
	ctx := context.Background()
	const workers, tries, n = 8, 50, 10
	p := PerWorkerQuota(n, time.Hour)
	var wg sync.WaitGroup
	admitted := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < tries; i++ {
				d, err := p.Admit(ctx, req(id, "x"))
				if err != nil {
					t.Error(err)
					return
				}
				if d.Accept {
					admitted[id]++
				}
			}
		}(w)
	}
	wg.Wait()
	for id, got := range admitted {
		if got != n {
			t.Fatalf("worker %d admitted %d times, want %d", id, got, n)
		}
	}
}

func TestChainThreadsBatchAndStopsOnReject(t *testing.T) {
	ctx := context.Background()
	prof := &fakeProf{byModel: map[string]int{"slow": 4}}
	quota := PerWorkerQuota(100, time.Hour)
	c := NewChain(IProfTime(prof, 3), MinBatch(5), Similarity(0.9), quota)

	r := req(1, "slow")
	d, err := c.Admit(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if d.Accept {
		t.Fatalf("batch 4 < 5 must reject: %+v", d)
	}
	if d.Policy != "min-batch(5)" {
		t.Fatalf("reject attributed to %q", d.Policy)
	}
	// The rejected request must not consume quota (reject short-circuits).
	if got := quota.(*perWorkerQuota).buckets[1]; got != nil && got.count != 0 {
		t.Fatalf("rejected request consumed quota: %+v", got)
	}
}

func TestEmptyChainAdmitsAtDefault(t *testing.T) {
	d, err := NewChain().Admit(context.Background(), req(1, "x"))
	if err != nil || !d.Accept || d.BatchSize != 100 {
		t.Fatalf("empty chain: %+v, %v", d, err)
	}
}

func TestChainNamesFlattensNesting(t *testing.T) {
	inner := NewChain(MinBatch(5), Similarity(0.9))
	outer := NewChain(IProfTime(&fakeProf{}, 3), inner)
	want := []string{"iprof-time(3)", "min-batch(5)", "similarity(0.9)"}
	if got := Names(outer); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	if Names(nil) != nil {
		t.Fatal("Names(nil) must be empty")
	}
}

func TestBuildFromSpec(t *testing.T) {
	prof := &fakeProf{byModel: map[string]int{"x": 42}}
	c, err := Build("iprof-time(3),min-batch(5),similarity(0.9),per-worker-quota(3,60)",
		BuildOptions{TimeProfiler: prof})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"iprof-time(3)", "min-batch(5)", "similarity(0.9)", "per-worker-quota(3/1m0s)"}
	if got := c.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	d, err := c.Admit(context.Background(), req(1, "x"))
	if err != nil || !d.Accept || d.BatchSize != 42 {
		t.Fatalf("decision = %+v, %v", d, err)
	}
}

func TestBuildEmptySpec(t *testing.T) {
	c, err := Build("  ", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Names()) != 0 {
		t.Fatalf("empty spec built %v", c.Names())
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []string{
		"no-such-policy",
		"min-batch",       // missing arg
		"min-batch(0)",    // non-positive
		"min-batch(2.5)",  // non-integral
		"similarity(0)",   // non-positive
		"iprof-time(3)",   // no profiler in options
		"iprof-energy(5)", // no profiler in options
		"per-worker-quota(3)" /* missing window */, "per-worker-quota(0,60)",
	}
	for _, s := range cases {
		if _, err := Build(s, BuildOptions{}); err == nil {
			t.Errorf("Build(%q) must error", s)
		}
	}
}

// TestRegisterCustomPolicy: a custom policy is composed by value.
func TestRegisterCustomPolicy(t *testing.T) {
	c := NewChain(policyFunc{
		name: "test-even-workers",
		fn: func(_ context.Context, r *TaskRequest) (Decision, error) {
			if r.Wire.WorkerID%2 != 0 {
				return Reject("test-even-workers", "odd worker"), nil
			}
			return Accept(r.BatchSize), nil
		},
	})
	if d, _ := c.Admit(context.Background(), req(2, "x")); !d.Accept {
		t.Fatalf("even worker rejected: %+v", d)
	}
	if d, _ := c.Admit(context.Background(), req(3, "x")); d.Accept {
		t.Fatal("odd worker admitted")
	}
}

func TestProfilerSLOs(t *testing.T) {
	cases := []struct {
		chain        string
		time, energy float64
	}{
		{"", 0, 0},
		{"min-batch(5),similarity(0.9)", 0, 0},
		{"iprof-time(5)", 5, 0},
		{"iprof-energy(2),min-batch(5)", 0, 2},
		{"iprof-time(2.5),iprof-energy(4),min-batch(25)", 2.5, 4},
		{"iprof-time(3),iprof-time(7)", 7, 0},
	}
	for _, c := range cases {
		if ts, es := ProfilerSLOs(c.chain); ts != c.time || es != c.energy {
			t.Errorf("ProfilerSLOs(%q) = (%g, %g), want (%g, %g)", c.chain, ts, es, c.time, c.energy)
		}
	}
}

// policyFunc adapts a function to AdmissionPolicy for tests and examples.
type policyFunc struct {
	name string
	fn   func(context.Context, *TaskRequest) (Decision, error)
}

func (p policyFunc) Name() string { return p.name }
func (p policyFunc) Admit(ctx context.Context, r *TaskRequest) (Decision, error) {
	return p.fn(ctx, r)
}

func TestPolicyErrorAbortsChain(t *testing.T) {
	boom := policyFunc{name: "boom", fn: func(context.Context, *TaskRequest) (Decision, error) {
		return Decision{}, fmt.Errorf("backend down")
	}}
	c := NewChain(MinBatch(1), boom)
	if _, err := c.Admit(context.Background(), req(1, "x")); err == nil ||
		!strings.Contains(err.Error(), "backend down") {
		t.Fatalf("err = %v", err)
	}
}

func TestIProfPoliciesRejectMissingFeatures(t *testing.T) {
	ctx := context.Background()
	prof := &fakeProf{byModel: map[string]int{"x": 10}}
	var apiErr *protocol.Error
	r := req(1, "x")
	r.Wire.TimeFeatures, r.Wire.EnergyFeatures = nil, nil
	if _, err := IProfTime(prof, 3).Admit(ctx, r); !errors.As(err, &apiErr) ||
		apiErr.Code != protocol.CodeInvalidArgument {
		t.Fatalf("iprof-time without features: want invalid_argument, got %v", err)
	}
	if _, err := IProfEnergy(prof, 5).Admit(ctx, r); !errors.As(err, &apiErr) ||
		apiErr.Code != protocol.CodeInvalidArgument {
		t.Fatalf("iprof-energy without features: want invalid_argument, got %v", err)
	}
}

func TestSimilarityAboveOneIsLegalNoOp(t *testing.T) {
	// Legacy -max-similarity accepted values > 1 (they simply never
	// reject, as Bhattacharyya similarity is <= 1); the registry must too.
	c, err := Build("similarity(1.5)", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := req(1, "x")
	r.Similarity = 1
	if d, _ := c.Admit(context.Background(), r); !d.Accept {
		t.Fatalf("similarity(1.5) rejected sim=1: %+v", d)
	}
}

func TestPerWorkerQuotaSweepsExpiredBuckets(t *testing.T) {
	ctx := context.Background()
	p := PerWorkerQuota(5, time.Minute).(*perWorkerQuota)
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }
	// 100 distinct (attacker-chosen) worker ids fill 100 buckets.
	for id := 0; id < 100; id++ {
		if d, _ := p.Admit(ctx, req(id, "x")); !d.Accept {
			t.Fatalf("worker %d rejected", id)
		}
	}
	if len(p.buckets) != 100 {
		t.Fatalf("buckets = %d, want 100", len(p.buckets))
	}
	// One window later, a single admit sweeps all expired buckets.
	now = now.Add(time.Minute)
	if d, _ := p.Admit(ctx, req(7, "x")); !d.Accept {
		t.Fatal("post-sweep admit rejected")
	}
	if len(p.buckets) != 1 {
		t.Fatalf("buckets after sweep = %d, want 1", len(p.buckets))
	}
}

// TestBuildInjectsClock: the spec path must thread BuildOptions.Now into
// time-windowed policies, so a deterministic harness's virtual clock (not
// the wall clock) decides quota windows.
func TestBuildInjectsClock(t *testing.T) {
	ctx := context.Background()
	now := time.Unix(1000, 0)
	chain, err := Build("per-worker-quota(1,60)", BuildOptions{Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := chain.Admit(ctx, req(1, "x")); !d.Accept {
		t.Fatalf("first admit rejected: %+v", d)
	}
	if d, _ := chain.Admit(ctx, req(1, "x")); d.Accept {
		t.Fatal("second admit in the same injected-clock window must reject")
	}
	// Real time passing changes nothing — only the injected clock counts.
	time.Sleep(5 * time.Millisecond)
	if d, _ := chain.Admit(ctx, req(1, "x")); d.Accept {
		t.Fatal("wall clock leaked into an injected-clock policy")
	}
	now = now.Add(61 * time.Second)
	if d, _ := chain.Admit(ctx, req(1, "x")); !d.Accept {
		t.Fatal("injected-clock window rollover did not reset the quota")
	}
}
