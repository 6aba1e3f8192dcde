package graphd

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	bgl "repro"
)

// testGraph builds the small deterministic workload the graphd tests
// share.
func testGraph(t *testing.T, n int) *bgl.Graph {
	t.Helper()
	g, err := bgl.Generate(n, 8, 3)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return g
}

// newTestServer builds a server over a 2x2 mesh with the given knobs
// and registers its drain with the test cleanup.
func newTestServer(t *testing.T, g *bgl.Graph, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{Graph: g, R: 2, C: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// recvAnswer reads one batch answer with a generous deadline so a
// wedged batcher fails the test instead of hanging it.
func recvAnswer(t *testing.T, ch <-chan batchAnswer) batchAnswer {
	t.Helper()
	select {
	case ans := <-ch:
		return ans
	case <-time.After(30 * time.Second):
		t.Fatal("no batch answer within 30s")
		panic("unreachable")
	}
}

// fleet is a pool of fake engines for driving the dispatcher without a
// graph or a clock: every run announces itself on started and then
// parks until the test finishes it, which also puts its engine back in
// the pool — so which engines are busy, and what is pending when one
// frees up, is exactly what the test arranged.
type fleet struct {
	t       *testing.T
	engines chan *engine
	started chan *fakeRun
	b       *batcher
}

// fakeRun is one parked run: the engine it holds and the share it was
// handed, or the name of the solo job it runs.
type fakeRun struct {
	e        *engine
	sources  []bgl.Vertex
	solo     string
	deadline time.Time
	release  chan struct{}
}

// newFleet starts a batcher over n idle fake engines.
func newFleet(t *testing.T, n, maxBatch int) *fleet {
	f := &fleet{t: t, engines: make(chan *engine, n), started: make(chan *fakeRun)}
	for i := 0; i < n; i++ {
		f.engines <- &engine{idx: i}
	}
	f.b = newBatcher(maxBatch, f.engines, f.sweep, nil)
	return f
}

// sweep answers lane i with the one-entry level array {source i}, so a
// demultiplexed answer names the lane it came from.
func (f *fleet) sweep(e *engine, sources []bgl.Vertex, deadline time.Time) ([][]int32, sweepStats, error) {
	r := &fakeRun{e: e, sources: sources, deadline: deadline, release: make(chan struct{})}
	f.started <- r
	<-r.release
	levels := make([][]int32, len(sources))
	for i, src := range sources {
		levels[i] = []int32{int32(src)}
	}
	return levels, sweepStats{Finished: time.Now()}, nil
}

// finish ends a parked run: its engine goes back to the pool and its
// riders get their answers.
func (f *fleet) finish(r *fakeRun) {
	f.engines <- r.e
	close(r.release)
}

func (f *fleet) submit(src bgl.Vertex) <-chan batchAnswer {
	f.t.Helper()
	ch, err := f.b.submit(&batchQuery{source: src})
	if err != nil {
		f.t.Fatalf("submit %d: %v", src, err)
	}
	return ch
}

// solo submits a solo job named name that, once dispatched, parks like
// a sweep.
func (f *fleet) solo(name string) <-chan batchAnswer {
	f.t.Helper()
	run := func(e *engine, deadline time.Time) (sweepStats, error) {
		r := &fakeRun{e: e, solo: name, deadline: deadline, release: make(chan struct{})}
		f.started <- r
		<-r.release
		return sweepStats{Finished: time.Now()}, nil
	}
	ch, err := f.b.submit(&batchQuery{solo: run})
	if err != nil {
		f.t.Fatalf("submit solo %s: %v", name, err)
	}
	return ch
}

// nextRun waits for the dispatcher to start a run.
func (f *fleet) nextRun() *fakeRun {
	f.t.Helper()
	select {
	case r := <-f.started:
		return r
	case <-time.After(30 * time.Second):
		f.t.Fatal("the dispatcher started no run within 30s")
		panic("unreachable")
	}
}

// closeAndWait closes the batcher, failing the test if the drain hangs.
func (f *fleet) closeAndWait() {
	f.t.Helper()
	done := make(chan struct{})
	go func() { f.b.close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		f.t.Fatal("batcher close did not return")
	}
}

// wantAnswer checks a rider got its own lane's answer and the run
// shape the test arranged.
func (f *fleet) wantAnswer(ch <-chan batchAnswer, src bgl.Vertex, size, lanes int) batchAnswer {
	f.t.Helper()
	ans := recvAnswer(f.t, ch)
	if ans.err != nil {
		f.t.Fatalf("source %d: %v", src, ans.err)
	}
	if len(ans.levels) != 1 || ans.levels[0] != int32(src) {
		f.t.Fatalf("source %d was handed lane answer %v", src, ans.levels)
	}
	if ans.stats.BatchSize != size || ans.stats.BatchLanes != lanes {
		f.t.Fatalf("source %d: batch size %d lanes %d, want %d/%d", src, ans.stats.BatchSize, ans.stats.BatchLanes, size, lanes)
	}
	return ans
}

// TestDispatchIdleEnginesRunSingles: while queries do not outnumber idle
// engines each gets an engine of its own at once — the second starts
// while the first is still running — and waited for nothing.
func TestDispatchIdleEnginesRunSingles(t *testing.T) {
	f := newFleet(t, 2, bgl.MaxLanes)
	t0 := time.Now()
	chA := f.submit(10)
	a := f.nextRun()
	chB := f.submit(20)
	b := f.nextRun() // a is still parked: b did not wait for it
	dispatched := time.Since(t0).Seconds()
	if a.e == b.e {
		t.Fatalf("both queries were put on engine %d", a.e.idx)
	}
	if len(a.sources) != 1 || a.sources[0] != 10 || len(b.sources) != 1 || b.sources[0] != 20 {
		t.Fatalf("runs took %v and %v, want one source each", a.sources, b.sources)
	}
	f.finish(a)
	f.finish(b)
	for src, ch := range map[bgl.Vertex]<-chan batchAnswer{10: chA, 20: chB} {
		// Both runs had started by `dispatched`, so neither queued longer.
		if ans := f.wantAnswer(ch, src, 1, 1); ans.stats.QueueWaitS > dispatched {
			t.Fatalf("source %d reports %.6fs of queue wait, but both runs were started %.6fs after the first submit",
				src, ans.stats.QueueWaitS, dispatched)
		}
	}
	f.closeAndWait()
	if got := f.b.Batches(); got != 2 {
		t.Fatalf("%d runs, want 2", got)
	}
}

// TestDispatchBusyEnginesPool: what arrives while every engine is busy
// is one batch for the next engine to free up, duplicates sharing a
// lane.
func TestDispatchBusyEnginesPool(t *testing.T) {
	f := newFleet(t, 1, bgl.MaxLanes)
	chFirst := f.submit(1)
	first := f.nextRun()
	srcs := []bgl.Vertex{42, 7, 42, 9, 11} // 4 distinct
	chans := make([]<-chan batchAnswer, len(srcs))
	for i, src := range srcs {
		chans[i] = f.submit(src)
	}
	f.finish(first)
	f.wantAnswer(chFirst, 1, 1, 1)
	pooled := f.nextRun()
	if got := fmt.Sprint(pooled.sources); got != "[42 7 9 11]" {
		t.Fatalf("pooled run took lanes %s, want the 4 distinct sources in arrival order", got)
	}
	f.finish(pooled)
	for i, ch := range chans {
		f.wantAnswer(ch, srcs[i], 5, 4)
	}
	f.closeAndWait()
	if f.b.Batches() != 2 || f.b.BatchedQueries() != 6 {
		t.Fatalf("%d runs over %d queries, want 2 over 6", f.b.Batches(), f.b.BatchedQueries())
	}
}

// TestDispatchDuplicatesShareASingle: two queries for one source are
// one lane even when that lane runs alone.
func TestDispatchDuplicatesShareASingle(t *testing.T) {
	f := newFleet(t, 1, bgl.MaxLanes)
	f.submit(1)
	first := f.nextRun()
	ch1, ch2 := f.submit(42), f.submit(42)
	f.finish(first)
	dup := f.nextRun()
	if len(dup.sources) != 1 || dup.sources[0] != 42 {
		t.Fatalf("duplicate queries ran as lanes %v, want the one source", dup.sources)
	}
	f.finish(dup)
	f.wantAnswer(ch1, 42, 2, 1)
	f.wantAnswer(ch2, 42, 2, 1)
	f.closeAndWait()
}

// TestShareRule pins the split: an even share of the distinct pending
// sources per idle engine, capped at MaxBatch, one at a time below the
// sweep floor.
func TestShareRule(t *testing.T) {
	for _, tc := range []struct{ pending, idle, maxBatch, want int }{
		{1, 1, 64, 1},
		{1, 4, 64, 1},
		{2, 2, 64, 1},
		{5, 2, 64, 1}, // ceil(5/2) = 3: under minSweepLanes
		{3, 1, 64, 1}, // likewise
		{4, 1, 64, 4}, // the smallest sweep
		{8, 2, 64, 4}, // an even split
		{9, 2, 64, 5}, // rounded up
		{62, 1, 64, 62},
		{64, 1, 64, 64},
		{200, 2, 64, 64}, // capped at the lane capacity
		{200, 2, 16, 16}, // capped at MaxBatch
		{10, 1, 1, 1},    // MaxBatch 1 never coalesces
		{10, 1, 3, 1},    // a cap under the floor never sweeps either
	} {
		if got := share(tc.pending, tc.idle, tc.maxBatch); got != tc.want {
			t.Errorf("share(pending %d, idle %d, max %d) = %d, want %d", tc.pending, tc.idle, tc.maxBatch, got, tc.want)
		}
	}
}

// TestDispatchShareByIdleEngines drives the rule through the
// dispatcher: the share an engine takes depends on how many others are
// idle when it is cut.
func TestDispatchShareByIdleEngines(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		engines, pending, freeUp int // freeUp engines come back together
		want                     []int
	}{
		{"62 on the only engine", 1, 62, 1, []int{62}},
		{"200 on one of two", 2, 200, 1, []int{64}},
		{"8 over two idle", 2, 8, 2, []int{4, 4}},
		{"5 over two idle", 2, 5, 2, []int{1, 4}}, // ceil(5/2) is under the floor; the 4 left are a sweep
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFleet(t, tc.engines, bgl.MaxLanes)
			// Occupy every engine, then let the arrivals pool.
			busy := make([]*fakeRun, tc.engines)
			for i := range busy {
				f.submit(bgl.Vertex(1000 + i))
				busy[i] = f.nextRun()
			}
			for i := 0; i < tc.pending; i++ {
				f.submit(bgl.Vertex(i))
			}
			// The dispatcher is blocked on the empty pool and cuts a share
			// under b.mu: hold it while the engines come back, so the first
			// share is cut with all of them idle.
			f.b.mu.Lock()
			for _, r := range busy[:tc.freeUp] {
				f.finish(r)
			}
			f.b.mu.Unlock()
			// Runs are cut one after another but start concurrently.
			var got []int
			for range tc.want {
				r := f.nextRun()
				got = append(got, len(r.sources))
				busy = append(busy, r)
			}
			slices.Sort(got)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("the freed engines took shares of %v lanes, want %v", got, tc.want)
			}
			// Drain: finish what is parked and whatever starts after.
			go func() {
				for r := range f.started {
					f.finish(r)
				}
			}()
			for _, r := range busy[tc.freeUp:] {
				f.finish(r)
			}
			f.closeAndWait()
			close(f.started)
		})
	}
}

// TestDispatchMaxBatchOneNeverCoalesces: the unbatched control serves a
// backlog one query per run, in arrival order.
func TestDispatchMaxBatchOneNeverCoalesces(t *testing.T) {
	f := newFleet(t, 1, 1)
	f.submit(100)
	first := f.nextRun()
	chans := make([]<-chan batchAnswer, 5)
	for i := range chans {
		chans[i] = f.submit(bgl.Vertex(i))
	}
	f.finish(first)
	for i, ch := range chans {
		r := f.nextRun()
		if len(r.sources) != 1 || r.sources[0] != bgl.Vertex(i) {
			t.Fatalf("run %d took %v, want the single source %d", i, r.sources, i)
		}
		f.finish(r)
		f.wantAnswer(ch, bgl.Vertex(i), 1, 1)
	}
	f.closeAndWait()
}

// TestDispatchSoloInArrivalOrder: path and SSSP queries wait in the one
// queue with BFS, in arrival order. A solo job at the head runs alone;
// a BFS head takes its share and leaves the solo job behind it waiting.
// b1 and b2 ask for one source, so a 1-lane share holds both.
func TestDispatchSoloInArrivalOrder(t *testing.T) {
	f := newFleet(t, 1, bgl.MaxLanes)
	f.submit(100)
	held := f.nextRun()
	chA := f.solo("A")
	chB1, chB2 := f.submit(7), f.submit(7)
	chC := f.solo("C")
	f.finish(held)
	for _, want := range []string{"A", "[7]", "C"} {
		r := f.nextRun()
		got := r.solo
		if got == "" {
			got = fmt.Sprint(r.sources)
		} else if r.sources != nil {
			t.Fatalf("solo job %s was handed sources %v", r.solo, r.sources)
		}
		if got != want {
			t.Fatalf("the engine ran %s, want %s", got, want)
		}
		f.finish(r)
	}
	for name, ch := range map[string]<-chan batchAnswer{"A": chA, "C": chC} {
		ans := recvAnswer(t, ch)
		if ans.err != nil || ans.levels != nil || ans.stats.BatchSize != 1 || ans.stats.BatchLanes != 1 {
			t.Fatalf("solo %s answered %+v, want a 1-query 1-lane run and no levels", name, ans)
		}
	}
	f.wantAnswer(chB1, 7, 2, 1)
	f.wantAnswer(chB2, 7, 2, 1)
	f.closeAndWait()
	if f.b.Batches() != 2 || f.b.BatchedQueries() != 3 {
		t.Fatalf("%d batches over %d queries, want 2 over 3: solo runs are not batches", f.b.Batches(), f.b.BatchedQueries())
	}
}

// TestDispatchCloseDrains: close answers every query admitted before
// it, as engines free up, and refuses the ones after.
func TestDispatchCloseDrains(t *testing.T) {
	f := newFleet(t, 1, bgl.MaxLanes)
	chA := f.submit(1)
	a := f.nextRun()
	chB, chC := f.submit(2), f.submit(3)
	closed := make(chan struct{})
	go func() { f.b.close(); close(closed) }()
	// close returns only after b and c have run, whenever it got to
	// mark the batcher closed.
	f.finish(a)
	f.wantAnswer(chA, 1, 1, 1)
	for _, want := range []bgl.Vertex{2, 3} {
		r := f.nextRun()
		if len(r.sources) != 1 || r.sources[0] != want {
			t.Fatalf("drain ran %v, want source %d alone", r.sources, want)
		}
		f.finish(r)
	}
	f.wantAnswer(chB, 2, 1, 1)
	f.wantAnswer(chC, 3, 1, 1)
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("batcher close did not return after draining")
	}
	if _, err := f.b.submit(&batchQuery{source: 4}); err != ErrDraining {
		t.Fatalf("submit after close: err = %v, want ErrDraining", err)
	}
}

// TestDispatchLoosestDeadline: a shared run executes under the loosest
// rider deadline, unbounded if any rider is.
func TestDispatchLoosestDeadline(t *testing.T) {
	f := newFleet(t, 1, bgl.MaxLanes)
	f.submit(100)
	first := f.nextRun()
	soon, later := time.Now().Add(time.Hour), time.Now().Add(2*time.Hour)
	for i, dl := range []time.Time{soon, later, soon, soon} {
		if _, err := f.b.submit(&batchQuery{source: bgl.Vertex(i), deadline: dl}); err != nil {
			t.Fatal(err)
		}
	}
	f.finish(first)
	bounded := f.nextRun()
	if !bounded.deadline.Equal(later) {
		t.Fatalf("4 bounded riders ran under deadline %v, want the loosest %v", bounded.deadline, later)
	}
	for i, dl := range []time.Time{soon, {}, soon, soon} {
		if _, err := f.b.submit(&batchQuery{source: bgl.Vertex(10 + i), deadline: dl}); err != nil {
			t.Fatal(err)
		}
	}
	f.finish(bounded)
	mixed := f.nextRun()
	if !mixed.deadline.IsZero() {
		t.Fatalf("a run with an unbounded rider got deadline %v", mixed.deadline)
	}
	f.finish(mixed)
	f.closeAndWait()
}

// TestDispatchDemuxPanicIsolated: a panic while demultiplexing one
// lane's answer (here: the sweep returned fewer level arrays than
// lanes) must not strand the other riders — they get a descriptive
// error instead of waiting forever.
func TestDispatchDemuxPanicIsolated(t *testing.T) {
	engines := make(chan *engine, 1)
	hold := &engine{}
	short := func(e *engine, sources []bgl.Vertex, _ time.Time) ([][]int32, sweepStats, error) {
		engines <- e
		// One array short: the highest lane's demux indexes past the end.
		return make([][]int32, len(sources)-1), sweepStats{}, nil
	}
	b := newBatcher(bgl.MaxLanes, engines, short, nil)
	chans := make([]<-chan batchAnswer, 4)
	for i := range chans {
		ch, err := b.submit(&batchQuery{source: bgl.Vertex(i)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	engines <- hold // all 4 are pending: one sweep
	for i, ch := range chans {
		ans := recvAnswer(t, ch)
		switch {
		case i < 3 && ans.err != nil:
			t.Fatalf("lane %d (inside the short answer) got error %v, want its levels", i, ans.err)
		case i == 3 && ans.err == nil:
			t.Fatal("lane 3 (past the short answer) got no error")
		case i == 3 && !strings.Contains(ans.err.Error(), "demux panicked"):
			t.Fatalf("lane 3 error %q does not name the demux panic", ans.err)
		}
	}
	done := make(chan struct{})
	go func() { b.close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("batcher close hung after a demux panic (wg leak)")
	}
}

// TestDispatchCloseRace hammers close against concurrent submitters on
// a real server (run under -race): every accepted query gets exactly
// one answer, every refused submit reports ErrDraining, and close
// returns.
func TestDispatchCloseRace(t *testing.T) {
	g := testGraph(t, 200)
	for round := 0; round < 5; round++ {
		s := newTestServer(t, g, func(c *Config) { c.Replicas = 2 })
		var wg sync.WaitGroup
		answers := make(chan error, 64)
		admitted := make(chan struct{}, 64)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					ch, err := s.batcher.submit(&batchQuery{source: bgl.Vertex(w*8 + i)})
					if err != nil {
						if err != ErrDraining {
							answers <- fmt.Errorf("submit: %v", err)
						}
						return // draining: later submits only get more of the same
					}
					admitted <- struct{}{}
					ans := recvAnswer(t, ch)
					answers <- ans.err
				}
			}(w)
		}
		// Close after a round-dependent number of admissions.
		for i := 0; i < 4*round; i++ {
			<-admitted
		}
		s.batcher.close()
		wg.Wait()
		close(answers)
		for err := range answers {
			if err != nil {
				t.Fatalf("round %d: accepted query answered with %v", round, err)
			}
		}
	}
}
