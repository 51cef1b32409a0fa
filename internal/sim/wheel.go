package sim

// wheel is a fixed-horizon timing wheel used to schedule the hierarchy's
// short, fixed-latency completions (L1 hits, L2 hits, fill hand-offs).
// Long, variable latencies live inside the DRAM model, so the horizon
// stays small.
//
// Buckets are intrusive FIFO lists over the shared event pool — scheduling
// links a pooled node, so the per-event cost is two index writes and no
// heap allocation. Events beyond the horizon (delay > mask) spill into a
// sorted far-future list and are folded back into buckets as the wheel
// wraps toward their due cycle, instead of panicking as the seed engine
// did.
type wheel struct {
	pool    *eventPool
	buckets []evList
	mask    uint64
	now     uint64
	// far holds over-horizon events ordered by due cycle (ties keep
	// insertion order, preserving scheduling FIFO fairness).
	far []farEvent
	// run dispatches one fired event; set once by the owning hierarchy.
	run func(ev event)
	// live counts the events in buckets, so next costs O(1) on an empty
	// wheel.
	live int
}

type farEvent struct {
	due uint64
	id  int32
}

func newWheel(size int, pool *eventPool) *wheel {
	if size&(size-1) != 0 || size <= 0 {
		panic("sim: wheel size must be a positive power of two")
	}
	w := &wheel{pool: pool, buckets: make([]evList, size), mask: uint64(size - 1)}
	for i := range w.buckets {
		w.buckets[i] = newEvList()
	}
	return w
}

// schedule fires the event node delay cycles from now; a delay of 0 is
// promoted to 1 (events never fire in the cycle that schedules them).
// Delays beyond the wheel horizon park in the far-future list.
func (w *wheel) schedule(delay uint64, id int32) {
	if delay == 0 {
		delay = 1
	}
	if delay > w.mask {
		w.scheduleFar(w.now+delay, id)
		return
	}
	w.buckets[(w.now+delay)&w.mask].push(w.pool, id)
	w.live++
}

// scheduleFar inserts an over-horizon event keeping far sorted by due
// cycle; equal due cycles keep arrival order.
func (w *wheel) scheduleFar(due uint64, id int32) {
	w.far = append(w.far, farEvent{due: due, id: id})
	for i := len(w.far) - 1; i > 0 && w.far[i-1].due > due; i-- {
		w.far[i], w.far[i-1] = w.far[i-1], w.far[i]
	}
}

// tick advances to the given cycle: far-future events whose due cycle has
// rotated inside the horizon drop into their buckets, then the cycle's
// bucket drains in FIFO order. Dispatched callbacks may schedule new
// events (at a minimum delay of 1, so never into the chain being walked);
// each node is copied and released before dispatch, so the pool may even
// grow mid-drain without invalidating the walk.
func (w *wheel) tick(cycle uint64) {
	w.now = cycle
	for len(w.far) > 0 && w.far[0].due <= cycle+w.mask {
		fe := w.far[0]
		copy(w.far, w.far[1:])
		w.far = w.far[:len(w.far)-1]
		slot := fe.due & w.mask
		if fe.due <= cycle {
			// Defensive: an already-due event joins the current bucket,
			// which drains below in this same tick.
			slot = cycle & w.mask
		}
		w.buckets[slot].push(w.pool, fe.id)
		w.live++
	}
	id := w.buckets[cycle&w.mask].take()
	for id != nilEvent {
		ev := *w.pool.at(id)
		w.pool.release(id)
		w.live--
		w.run(ev)
		id = ev.next
	}
}

// next returns the first cycle after now at which tick has work — the
// first non-empty bucket, or the cycle the earliest far-future event
// folds into one — or limit when that comes no sooner.
func (w *wheel) next(limit uint64) uint64 {
	if len(w.far) > 0 {
		// tick folds an event once due <= cycle+mask; scheduleFar keeps
		// due > now+mask, so this is after now.
		limit = min(limit, w.far[0].due-w.mask)
	}
	if w.live == 0 {
		return limit
	}
	for c := w.now + 1; c < limit; c++ {
		if !w.buckets[c&w.mask].empty() {
			return c
		}
	}
	return limit
}

// pendingFar returns the number of parked over-horizon events (tests).
func (w *wheel) pendingFar() int { return len(w.far) }
