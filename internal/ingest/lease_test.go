package ingest

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"fleet/internal/learning"
	"fleet/internal/protocol"
	"fleet/internal/service"
)

// vecSink is a root in miniature: the model is a bare vector, a window is
// applied to it at learning rate 1 and published through the core's buffers.
// CloseWindow hands Deliver the version it minted.
type vecSink struct {
	core  *Core[int]
	model []float64
	// deliver, when set, runs in Deliver for every closed window.
	deliver func(minted int)
}

func (*vecSink) Sync(context.Context) error       { return nil }
func (*vecSink) Fold(*protocol.GradientPush, int) {}

func (k *vecSink) CloseWindow(Tally) (int, error) {
	err := k.core.Config().Pipeline.Drain(func(dir []float64) {
		for i, v := range dir {
			k.model[i] -= v
		}
	})
	minted := k.core.Snapshot().Version + 1
	k.core.Advance(minted, append(k.core.Buffer()[:0], k.model...), nil)
	return minted, err
}

func (k *vecSink) Deliver(_ context.Context, minted, committed int) int {
	if minted != 0 && k.deliver != nil {
		k.deliver(minted)
	}
	return committed
}

const testParams = 64

func newVecCore(t testing.TB, depth int) (*Core[int], *vecSink) {
	t.Helper()
	sink := &vecSink{model: make([]float64, testParams)}
	core, err := New[int](Config{
		Name: "test", ParamCount: testParams, Classes: 1, Algorithm: learning.SSGD{}, DeltaHistory: depth,
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	sink.core = core
	core.Boot(0, 0, slices.Clone(sink.model))
	return core, sink
}

// windowPush is a sparse gradient against the published version that moves
// coordinate at and the last one; at K=1 it closes a window.
func windowPush(c *Core[int], worker, at int) *protocol.GradientPush {
	return &protocol.GradientPush{
		WorkerID: worker, ModelVersion: c.Snapshot().Version, BatchSize: 1, LabelCounts: []int{1},
		GradientLen: testParams, SparseIndices: []int32{int32(at % (testParams - 1)), testParams - 1},
		SparseValues: []float64{float64(at + 1), 0.5},
	}
}

// closeWindow pushes windowPush and returns the ack.
func closeWindow(t testing.TB, c *Core[int], worker, at int) *protocol.PushAck {
	t.Helper()
	ack, err := c.PushGradient(context.Background(), windowPush(c, worker, at))
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

// storageOf identifies the storage of the published snapshot.
func storageOf(c *Core[int]) *float64 { return &c.Snapshot().params[0] }

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestAckReportsTheVersionItsWindowMinted: two pushers at K=1, the first
// held in Deliver until the second has closed its own window. Each ack's
// NewVersion is the version that push's window minted, not the clock a
// concurrent drain has reached by the time the ack is built.
func TestAckReportsTheVersionItsWindowMinted(t *testing.T) {
	c, sink := newVecCore(t, 4)
	secondDone := make(chan struct{})
	var minted sync.Map // worker → the version its window minted
	firstIn := make(chan struct{})
	sink.deliver = func(v int) {
		if v == 1 {
			close(firstIn)
			<-secondDone
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ack, err := c.PushGradient(context.Background(), windowPush(c, 1, 3))
		if err != nil {
			t.Error(err)
			return
		}
		minted.Store(1, ack.NewVersion)
	}()
	<-firstIn // the first push has committed v1 and is outside the commit lock
	minted.Store(2, closeWindow(t, c, 2, 5).NewVersion)
	close(secondDone)
	wg.Wait()
	for worker, want := range map[int]int{1: 1, 2: 2} {
		if got, _ := minted.Load(worker); got != want {
			t.Errorf("pusher %d closed the window that minted v%d, its ack says v%d", worker, want, got)
		}
	}
	if v := c.Snapshot().Version; v != 2 {
		t.Fatalf("clock at v%d after two windows", v)
	}
}

// TestBuffersCycleUnderLeasedPulls: with every reader a leasing endpoint the
// core publishes out of a small set of buffers, and four pullers racing 400
// window closes — full pulls, delta pulls composed from the oldest base the
// history retains, pulls from one past it — see, bit for bit, the version
// each reply names.
func TestBuffersCycleUnderLeasedPulls(t *testing.T) {
	const depth, windows, pullers = 2, 400, 4
	c, sink := newVecCore(t, depth)
	published := make([][]float64, windows+1) // by version; written under the commit lock
	published[0] = slices.Clone(sink.model)
	var pubMu sync.RWMutex
	storage := map[*float64]bool{}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < pullers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := &protocol.TaskRequest{WorkerID: 10 + p, LabelCounts: []int{1}}
				base := -1
				if i%2 == 1 { // a stale base: the oldest the history may retain, or one past it
					base = max(c.Snapshot().Version-depth-i%4/2, 0)
					req.WantDelta, req.KnownVersion = true, base
				}
				lease := &service.Lease{Context: context.Background()}
				resp, err := c.RequestTask(lease, req)
				if err != nil || !resp.Accepted {
					t.Errorf("puller %d: %v (%+v)", p, err, resp)
					lease.Release()
					return
				}
				got := resp.Params
				pubMu.RLock()
				if resp.ParamsDelta != nil {
					got = slices.Clone(published[resp.DeltaBase])
					if err := resp.ParamsDelta.Patch(got); err != nil {
						t.Error(err)
					}
				}
				if want := published[resp.ModelVersion]; !sameBits(got, want) {
					t.Errorf("puller %d: pull of v%d (delta from v%d: %v) is not the published v%d",
						p, resp.ModelVersion, base, resp.ParamsDelta != nil, resp.ModelVersion)
				}
				pubMu.RUnlock()
				lease.Release()
			}
		}()
	}
	for v := 1; v <= windows; v++ {
		// The published copy is in place before the snapshot is: the sink
		// applies the same arithmetic to sink.model under the commit lock.
		pubMu.Lock()
		next := slices.Clone(sink.model)
		next[(v-1)%(testParams-1)] -= float64(v)
		next[testParams-1] -= 0.5
		published[v] = next
		pubMu.Unlock()
		if ack := closeWindow(t, c, 1, v-1); ack.NewVersion != v {
			t.Fatalf("window %d acked v%d", v, ack.NewVersion)
		}
		storage[storageOf(c)] = true
	}
	close(stop)
	wg.Wait()
	if !sameBits(published[windows], sink.model) {
		t.Fatal("the test's own model of the arithmetic is off")
	}
	// A count covers a snapshot's bases too, so a window that closes while
	// a puller is counted into a recent snapshot finds nothing provably
	// unread and allocates (a handful of windows here, about half under the
	// race detector); those that recycle are what the comparison is about.
	if len(storage) == windows {
		t.Fatalf("%d windows were published from %d distinct buffers: nothing was recycled", windows, len(storage))
	}
	t.Logf("%d windows published from %d distinct buffers", windows, len(storage))
}

// TestSteadyStateCyclesDepthPlusTwoBuffers: without readers the core needs
// exactly depth + 2 buffers, forever.
func TestSteadyStateCyclesDepthPlusTwoBuffers(t *testing.T) {
	for _, depth := range []int{-1, 1, 4} {
		c, _ := newVecCore(t, depth)
		storage := map[*float64]bool{}
		for v := 0; v < 50; v++ {
			closeWindow(t, c, 1, v)
			storage[storageOf(c)] = true
		}
		if want := max(depth, 0) + 2; len(storage) != want {
			t.Errorf("depth %d: 50 windows used %d buffers, want %d", depth, len(storage), want)
		}
	}
}

// TestInProcessCallerKeepsWhatItWasServed: a caller without a lease holds a
// full pull's Params across depth + 3 windows and finds it unchanged; the
// snapshot it was served never re-enters the free list.
func TestInProcessCallerKeepsWhatItWasServed(t *testing.T) {
	const depth = 2
	c, _ := newVecCore(t, depth)
	for v := 0; v < depth+3; v++ { // warm: buffers are cycling
		closeWindow(t, c, 1, v)
	}
	resp, err := c.RequestTask(context.Background(), &protocol.TaskRequest{LabelCounts: []int{1}})
	if err != nil || resp.ParamsDelta != nil || len(resp.Params) == 0 {
		t.Fatalf("pull: %v (%+v)", err, resp)
	}
	kept, want := resp.Params, slices.Clone(resp.Params)
	for v := 0; v < 4*(depth+3); v++ {
		closeWindow(t, c, 1, 7+v)
		if !sameBits(kept, want) {
			t.Fatalf("%d windows later the caller's Params changed under it", v+1)
		}
		if storageOf(c) == &kept[0] {
			t.Fatalf("%d windows later the escaped storage was published again", v+1)
		}
	}
}

// TestUnreleasedLeasePinsOneBuffer: a reader that never says it is done (a
// peer that stopped reading mid-reply) keeps its snapshot's storage intact,
// the snapshots awaiting release stay within depth + releaseSlack, windows
// keep publishing, and recycling resumes behind it.
func TestUnreleasedLeasePinsOneBuffer(t *testing.T) {
	const depth = 2
	c, _ := newVecCore(t, depth)
	for v := 0; v < depth+3; v++ {
		closeWindow(t, c, 1, v)
	}
	stuck := &service.Lease{Context: context.Background()}
	resp, err := c.RequestTask(stuck, &protocol.TaskRequest{LabelCounts: []int{1}})
	if err != nil || resp.ParamsDelta != nil || len(resp.Params) == 0 {
		t.Fatalf("pull: %v (%+v)", err, resp)
	}
	want := slices.Clone(resp.Params)
	storage := map[*float64]bool{}
	for v := 0; v < 200; v++ {
		closeWindow(t, c, 1, v)
		if n := len(c.retired); n > depth+releaseSlack {
			t.Fatalf("window %d: %d snapshots await release, bound is %d", v, n, depth+releaseSlack)
		}
		if v >= 2*(depth+releaseSlack) { // the pinned snapshot has fallen off the list
			storage[storageOf(c)] = true
		}
	}
	if !sameBits(resp.Params, want) {
		t.Fatal("the pinned reply changed under its reader")
	}
	if len(storage) > depth+2+releaseSlack {
		t.Fatalf("behind the pinned snapshot the core cycles %d buffers, want at most %d", len(storage), depth+2+releaseSlack)
	}
	stuck.Release()
}

// TestStaleBaseComposesAfterThePublisherMovedOn: a puller counted into a
// snapshot names the oldest base it retains only after the publisher has run
// far past both. Composing that delta reads the base's and the target's
// vectors (Lease.Delta), which the count has kept unwritten all along.
func TestStaleBaseComposesAfterThePublisherMovedOn(t *testing.T) {
	const depth = 3
	c, sink := newVecCore(t, depth)
	byVersion := map[int][]float64{}
	for v := 1; v <= depth+2; v++ {
		closeWindow(t, c, 1, v)
		byVersion[v] = slices.Clone(sink.model)
	}
	held := c.Lease()
	defer held.Release()
	base := held.Version - depth
	for v := 0; v < 10*(depth+releaseSlack); v++ {
		closeWindow(t, c, 1, 20+v)
	}
	d := held.Delta(base)
	if d == nil {
		t.Fatalf("no delta from retained base v%d", base)
	}
	got := byVersion[base]
	if err := d.Patch(got); err != nil {
		t.Fatal(err)
	}
	if want := byVersion[held.Version]; !sameBits(got, want) || !sameBits(held.Params(), want) {
		t.Fatalf("the delta from v%d composed under a lease does not reconstruct v%d", base, held.Version)
	}
}

// TestEscapeRacingRetireIsNeverRecycled: readers that keep what they are
// served (the tail of an in-process full pull: count in, mark escaped, count
// out) spin against a publisher closing windows at depth 0, where a
// superseded snapshot is up for recycling at the very next close. A reader
// counted into the head marks and leaves while retire is deciding; retire
// reads the count first and the mark second — the reverse of the reader's
// writes — so a head found unread has its escape visible. Every kept vector
// still holds its own version windows later (and the race detector watches
// the storage).
func TestEscapeRacingRetireIsNeverRecycled(t *testing.T) {
	const windows, readers, keep = 200000, 2, 8
	c, sink := newVecCore(t, -1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var kept [keep]*Lease
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// The oldest kept: by now the publisher has had every chance
				// to write a buffer it wrongly thought unread.
				if old := kept[i%keep]; old != nil && c.Snapshot().Version >= old.Version+3 {
					if slices.ContainsFunc(old.params, func(x float64) bool { return x != float64(old.Version) }) {
						t.Errorf("reader %d: the parameters it kept of v%d were written under it: %v", r, old.Version, old.params[:4])
						return
					}
				}
				held := c.Lease()
				held.keep()
				kept[i%keep] = held
			}
		}()
	}
	for v := 1; v <= windows && !t.Failed(); v++ {
		buf := append(c.Buffer()[:0], sink.model...)
		for i := range buf {
			buf[i] = float64(v)
		}
		c.Advance(v, buf, nil)
	}
	close(stop)
	wg.Wait()
}

// TestPullerParkedBeforeItsEscape: an in-process full pull descheduled
// between counting itself in and marking the snapshot escaped, for as many
// windows as it takes the snapshot to reach the head of the queue and past
// the slack. Whenever it wakes, what it keeps is intact and stays so.
func TestPullerParkedBeforeItsEscape(t *testing.T) {
	const depth = 1
	for parked := 1; parked <= depth+releaseSlack+2; parked++ {
		c, _ := newVecCore(t, depth)
		for v := 0; v < depth+3; v++ {
			closeWindow(t, c, 1, v)
		}
		held := c.Lease()
		want := slices.Clone(held.params)
		for v := 0; v < parked; v++ {
			closeWindow(t, c, 1, 10+v)
		}
		held.keep()
		for v := 0; v < 4*(depth+3); v++ {
			closeWindow(t, c, 1, 20+v)
			if !sameBits(held.params, want) || storageOf(c) == &held.params[0] {
				t.Fatalf("parked %d windows, %d windows after its escape the puller's Params were published over", parked, v+1)
			}
		}
	}
}
