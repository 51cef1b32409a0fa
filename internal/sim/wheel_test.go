package sim

import "testing"

// testWheel builds a wheel over a fresh pool whose fired events append
// their arg to the returned log.
func testWheel(size int) (*wheel, *[]uint64) {
	pool := newEventPool(16)
	w := newWheel(size, pool)
	log := &[]uint64{}
	w.run = func(ev event) { *log = append(*log, ev.arg) }
	return w, log
}

func TestWheelRunsAtScheduledCycle(t *testing.T) {
	w, log := testWheel(16)
	w.tick(0)
	w.schedule(3, w.pool.alloc(evFillL1, 0, 0, 3))
	w.tick(1)
	w.tick(2)
	if len(*log) != 0 {
		t.Fatal("event fired early")
	}
	w.tick(3)
	if len(*log) != 1 || (*log)[0] != 3 {
		t.Fatalf("fired %v, want [3] at cycle 3", *log)
	}
}

func TestWheelZeroDelayBecomesOne(t *testing.T) {
	w, log := testWheel(16)
	w.tick(5)
	w.schedule(0, w.pool.alloc(evFillL1, 0, 0, 1))
	w.tick(6)
	if len(*log) != 1 {
		t.Fatal("zero-delay event not coerced to next cycle")
	}
}

func TestWheelChainedScheduling(t *testing.T) {
	pool := newEventPool(16)
	w := newWheel(16, pool)
	var order []uint64
	w.run = func(ev event) {
		order = append(order, ev.arg)
		if ev.arg == 1 {
			w.schedule(2, pool.alloc(evFillL1, 0, 0, 2))
		}
	}
	w.tick(0)
	w.schedule(1, pool.alloc(evFillL1, 0, 0, 1))
	for c := uint64(1); c <= 4; c++ {
		w.tick(c)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestWheelFarFutureSpillsAndFires(t *testing.T) {
	// Delays beyond the horizon park in the far list (the seed engine
	// panicked here) and still fire exactly at their due cycle.
	w, log := testWheel(16)
	w.tick(0)
	w.schedule(100, w.pool.alloc(evFillL1, 0, 0, 100))
	w.schedule(40, w.pool.alloc(evFillL1, 0, 0, 40))
	if w.pendingFar() != 2 {
		t.Fatalf("far list holds %d, want 2", w.pendingFar())
	}
	for c := uint64(1); c <= 99; c++ {
		w.tick(c)
		switch {
		case c < 40 && len(*log) != 0:
			t.Fatalf("cycle %d: early fire %v", c, *log)
		case c >= 40 && (len(*log) != 1 || (*log)[0] != 40):
			t.Fatalf("cycle %d: log %v, want [40]", c, *log)
		}
	}
	w.tick(100)
	if len(*log) != 2 || (*log)[1] != 100 {
		t.Fatalf("log = %v, want [40 100]", *log)
	}
	if w.pendingFar() != 0 {
		t.Fatalf("far list not drained: %d", w.pendingFar())
	}
}

func TestWheelFarFutureKeepsFIFOOnEqualDue(t *testing.T) {
	w, log := testWheel(8)
	w.tick(0)
	for i := uint64(0); i < 5; i++ {
		w.schedule(50, w.pool.alloc(evFillL1, 0, 0, i))
	}
	for c := uint64(1); c <= 50; c++ {
		w.tick(c)
	}
	if len(*log) != 5 {
		t.Fatalf("fired %d of 5", len(*log))
	}
	for i, v := range *log {
		if v != uint64(i) {
			t.Fatalf("order = %v, want FIFO", *log)
		}
	}
}

func TestWheelSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two wheel did not panic")
		}
	}()
	newWheel(10, newEventPool(16))
}

func TestWheelManyEventsSameCycle(t *testing.T) {
	w, log := testWheel(8)
	w.tick(0)
	for i := 0; i < 100; i++ {
		w.schedule(2, w.pool.alloc(evFillL1, 0, 0, uint64(i)))
	}
	w.tick(1)
	w.tick(2)
	if len(*log) != 100 {
		t.Fatalf("fired %d of 100", len(*log))
	}
	// Bucket is cleared: wrapping around must not re-fire.
	for c := uint64(3); c < 20; c++ {
		w.tick(c)
	}
	if len(*log) != 100 {
		t.Fatalf("events re-fired after wrap: %d", len(*log))
	}
	// Every node went back to the pool: the free list covers the slab.
	if got, want := len(w.pool.free), len(w.pool.nodes); got != want {
		t.Fatalf("pool leak: %d free of %d nodes", got, want)
	}
}

// TestWheelNext checks the wheel's next-event report: the limit when
// empty, the first non-empty bucket, and the cycle an over-horizon event
// folds into a bucket (due - mask); each fires or folds exactly then.
func TestWheelNext(t *testing.T) {
	w, log := testWheel(16)
	w.tick(10)
	if got := w.next(1000); got != 1000 {
		t.Fatalf("empty wheel: next = %d, want the limit 1000", got)
	}
	w.schedule(5, w.pool.alloc(evFillL1, 0, 0, 15))
	w.schedule(40, w.pool.alloc(evFillL1, 0, 0, 50)) // over the 15-cycle horizon
	if got := w.next(1000); got != 15 {
		t.Fatalf("next = %d, want 15", got)
	}
	if got := w.next(12); got != 12 {
		t.Fatalf("next under a limit of 12 = %d, want 12", got)
	}
	w.tick(15)
	if len(*log) != 1 {
		t.Fatalf("fired %v at cycle 15, want [15]", *log)
	}
	if got := w.next(1000); got != 50-15 {
		t.Fatalf("next with only a far event = %d, want its fold cycle %d", got, 50-15)
	}
	w.tick(35) // the fold cycle: the event joins its bucket
	if w.pendingFar() != 0 {
		t.Fatal("far event did not fold at due - mask")
	}
	if got := w.next(1000); got != 50 {
		t.Fatalf("next after folding = %d, want 50", got)
	}
	w.tick(50)
	if len(*log) != 2 || w.next(1000) != 1000 {
		t.Fatalf("fired %v; want [15 50] and an empty wheel", *log)
	}
}
