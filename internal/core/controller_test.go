package core

import (
	"context"
	"testing"

	"fleet/internal/sched"
)

// admit puts one task with the given prescribed batch and similarity to the
// percentile controller, as the chain of RunAsync's server does.
func admit(t *testing.T, c *sched.Controller, batchSize int, similarity float64) bool {
	t.Helper()
	d, err := c.Admit(context.Background(), &sched.TaskRequest{BatchSize: batchSize, Similarity: similarity})
	if err != nil {
		t.Fatal(err)
	}
	if d.Accept && d.BatchSize != batchSize {
		t.Fatalf("controller changed the prescribed batch %d to %d", batchSize, d.BatchSize)
	}
	if !d.Accept && (d.Policy != c.Name() || d.Reason == "") {
		t.Fatalf("unattributed rejection %+v", d)
	}
	return d.Accept
}

func TestControllerNoThresholdsAdmitsAll(t *testing.T) {
	var c sched.Controller
	for i := 0; i < 100; i++ {
		if !admit(t, &c, i%7+1, float64(i%10)/10) {
			t.Fatal("threshold-free controller must admit everything")
		}
	}
}

func TestControllerWarmupAdmitsAll(t *testing.T) {
	c := sched.Controller{SizePercentile: 90, MinHistory: 50}
	for i := 0; i < 50; i++ {
		if !admit(t, &c, 1, 1) { // tiny batches, maximal similarity
			t.Fatalf("request %d rejected during warmup", i)
		}
	}
}

func TestControllerSizeThreshold(t *testing.T) {
	c := sched.Controller{SizePercentile: 50, MinHistory: 10}
	// History: batches 1..20.
	for i := 1; i <= 20; i++ {
		admit(t, &c, i, 0.5)
	}
	if admit(t, &c, 2, 0.5) {
		t.Fatal("batch 2 is below the median of history; must be rejected")
	}
	if !admit(t, &c, 100, 0.5) {
		t.Fatal("large batch must pass")
	}
}

func TestControllerSimilarityThreshold(t *testing.T) {
	c := sched.Controller{SimilarityPercentile: 50, MinHistory: 10}
	// History: similarities 0.0 .. 0.95.
	for i := 0; i < 20; i++ {
		admit(t, &c, 10, float64(i)*0.05)
	}
	if admit(t, &c, 10, 0.99) {
		t.Fatal("most-similar task must be rejected")
	}
	if !admit(t, &c, 10, 0.01) {
		t.Fatal("novel task must pass")
	}
}

func TestControllerRejectedStillRecorded(t *testing.T) {
	c := sched.Controller{SizePercentile: 50, MinHistory: 5}
	for i := 1; i <= 10; i++ {
		admit(t, &c, i*10, 0.5)
	}
	// Three rejected tiny batches pull the median of the history from 50
	// down to 40, but only if they entered it.
	for i := 0; i < 3; i++ {
		if admit(t, &c, 1, 0.5) {
			t.Fatal("batch 1 is below the median: must be rejected")
		}
	}
	if !admit(t, &c, 45, 0.5) {
		t.Fatal("rejected tasks must still enter the history")
	}
}
