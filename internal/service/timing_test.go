package service

import (
	"context"
	"testing"

	"fleet/internal/protocol"
)

func TestSampledCallMetricsQuantiles(t *testing.T) {
	m := NewSampledCallMetrics()
	svc := Chain(&fake{}, Metrics(m))
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := svc.PushGradient(ctx, &protocol.GradientPush{}); err != nil {
			t.Fatal(err)
		}
	}
	s, ok := m.LatencySummary("PushGradient")
	if !ok {
		t.Fatal("no latency summary for PushGradient")
	}
	if s.Count != 20 {
		t.Fatalf("sample count = %d, want 20", s.Count)
	}
	if s.P99 < s.P50 || s.Max < s.P99 || s.P50 < 0 {
		t.Fatalf("implausible summary: %+v", s)
	}
	if _, ok := m.LatencySummary("RequestTask"); ok {
		t.Fatal("summary for never-called method")
	}
}

func TestUnsampledCallMetricsHasNoSummary(t *testing.T) {
	m := NewCallMetrics()
	svc := Chain(&fake{}, Metrics(m))
	if _, err := svc.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.LatencySummary("Stats"); ok {
		t.Fatal("unsampled sink returned a summary")
	}
}
