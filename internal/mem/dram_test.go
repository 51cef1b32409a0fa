package mem

import (
	"testing"
	"testing/quick"
)

// drain ticks the model until quiet, returning the completion cycles seen.
func drain(d *DRAM, from, until uint64) {
	for c := from; c <= until && d.Busy(); c++ {
		d.Tick(c)
	}
}

func TestMinimumLatency(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	var done uint64
	r := &Request{Block: 0, Kind: Demand, Done: func(r *Request) { done = r.Finished }}
	d.Enqueue(r, 10)
	drain(d, 10, 10000)
	// First access: row conflict; latency = Cmd + RowConflict + Transfer.
	want := 10 + cfg.CmdLatency + cfg.RowConflict + cfg.Transfer
	if done != want {
		t.Fatalf("first-access completion = %d, want %d", done, want)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	var first, second uint64
	// Same bank, same row: the second access is a row hit.
	d.Enqueue(&Request{Block: 0, Kind: Demand, Done: func(r *Request) { first = r.Finished }}, 0)
	drain(d, 0, 20000)
	d.Enqueue(&Request{Block: 32, Kind: Demand, Done: func(r *Request) { second = r.Finished }}, first)
	drain(d, first, 20000)
	lat1 := first - 0
	lat2 := second - first
	if lat2 >= lat1 {
		t.Fatalf("row hit latency %d not faster than conflict %d", lat2, lat1)
	}
	st := d.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 {
		t.Fatalf("row stats: hits=%d misses=%d", st.RowHits, st.RowMisses)
	}
}

func TestBankConflictSerializes(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	var t1, t2 uint64
	// Two requests to the same bank but different rows: the second must
	// wait for the bank's conflict occupancy.
	blockA := uint64(0)
	blockB := uint64(cfg.Banks * cfg.BlocksPerRow) // same bank, next row
	d.Enqueue(&Request{Block: blockA, Kind: Demand, Done: func(r *Request) { t1 = r.Started }}, 0)
	d.Enqueue(&Request{Block: blockB, Kind: Demand, Done: func(r *Request) { t2 = r.Started }}, 0)
	drain(d, 0, 30000)
	if t2 < t1+cfg.BusyConflict {
		t.Fatalf("second start %d < first %d + busy %d", t2, t1, cfg.BusyConflict)
	}
}

func TestDifferentBanksOverlap(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	var starts []uint64
	for b := uint64(0); b < 4; b++ {
		d.Enqueue(&Request{Block: b, Kind: Demand, Done: func(r *Request) {
			starts = append(starts, r.Started)
		}}, 0)
	}
	drain(d, 0, 30000)
	if len(starts) != 4 {
		t.Fatalf("completed %d of 4", len(starts))
	}
	// One command per cycle: starts are consecutive-ish, far less than
	// serialized bank occupancy.
	for _, s := range starts {
		if s > uint64(cfg.CmdLatency)+10 {
			t.Fatalf("start %d indicates serialization across banks", s)
		}
	}
}

func TestBandwidthEnforced(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	const n = 20
	var last uint64
	for b := uint64(0); b < n; b++ {
		d.Enqueue(&Request{Block: b, Kind: Demand, Done: func(r *Request) {
			if r.Finished > last {
				last = r.Finished
			}
		}}, 0)
	}
	drain(d, 0, 100000)
	// n transfers cannot complete faster than n * Transfer cycles.
	if minSpan := uint64(n) * cfg.Transfer; last < minSpan {
		t.Fatalf("%d blocks done by cycle %d, violating the %d-cycle bus floor", n, last, minSpan)
	}
}

func TestDemandPriorityOverPrefetch(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	var prefStart, demandStart uint64
	// Enqueue a stack of prefetches first, then a demand; the demand must
	// start before the queued prefetches despite arriving later.
	for b := uint64(0); b < 8; b++ {
		blk := b
		d.Enqueue(&Request{Block: blk, Kind: Prefetch, Done: func(r *Request) {
			if r.Block == 7 {
				prefStart = r.Started
			}
		}}, 0)
	}
	d.Enqueue(&Request{Block: 100, Kind: Demand, Done: func(r *Request) { demandStart = r.Started }}, 1)
	drain(d, 0, 100000)
	if demandStart > prefStart {
		t.Fatalf("demand started at %d after last prefetch %d", demandStart, prefStart)
	}
}

func TestQueueCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueCap = 4
	d := New(cfg)
	for b := uint64(0); b < 4; b++ {
		if !d.Enqueue(&Request{Block: b, Kind: Prefetch}, 0) {
			t.Fatalf("enqueue %d rejected below capacity", b)
		}
	}
	if d.CanEnqueue(Prefetch) {
		t.Fatal("CanEnqueue true at capacity")
	}
	if d.Enqueue(&Request{Block: 99, Kind: Prefetch}, 0) {
		t.Fatal("enqueue accepted over capacity")
	}
	if d.Stats().Dropped[Prefetch] != 1 {
		t.Fatalf("dropped = %d, want 1", d.Stats().Dropped[Prefetch])
	}
	if !d.CanEnqueue(Demand) {
		t.Fatal("demand queue affected by prefetch queue fill")
	}
}

func TestPromote(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	r := &Request{Block: 5, Kind: Prefetch, WasPrefetch: true}
	d.Enqueue(r, 0)
	if !d.Promote(5) {
		t.Fatal("Promote missed queued prefetch")
	}
	if d.QueueLen(Prefetch) != 0 || d.QueueLen(Demand) != 1 {
		t.Fatal("Promote did not move the request between queues")
	}
	if r.Kind != Demand || !r.WasPrefetch {
		t.Fatalf("promoted request state: %+v", r)
	}
	if d.Promote(5) {
		t.Fatal("second Promote found the request again")
	}
}

func TestWritebackBackpressurePromotion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueCap = 8
	d := New(cfg)
	// More than half the queue in writebacks flips the scheduling order so
	// writebacks drain ahead of prefetches.
	for b := uint64(0); b < 5; b++ {
		d.Enqueue(&Request{Block: b, Kind: Writeback}, 0)
	}
	var prefStarted uint64
	d.Enqueue(&Request{Block: 100, Kind: Prefetch, Done: func(r *Request) { prefStarted = r.Started }}, 0)
	wbStarts := 0
	d.OnStart = func(r *Request) {
		if r.Kind == Writeback && prefStarted == 0 {
			wbStarts++
		}
	}
	drain(d, 0, 100000)
	if wbStarts < 2 {
		t.Fatalf("only %d writebacks started before the prefetch", wbStarts)
	}
}

func TestOnStartFires(t *testing.T) {
	d := New(DefaultConfig())
	var kinds []Kind
	d.OnStart = func(r *Request) { kinds = append(kinds, r.Kind) }
	d.Enqueue(&Request{Block: 1, Kind: Demand}, 0)
	d.Enqueue(&Request{Block: 2, Kind: Writeback}, 0)
	drain(d, 0, 10000)
	if len(kinds) != 2 || kinds[0] != Demand || kinds[1] != Writeback {
		t.Fatalf("OnStart kinds = %v", kinds)
	}
	st := d.Stats()
	if st.Started[Demand] != 1 || st.Started[Writeback] != 1 {
		t.Fatalf("started stats = %v", st.Started)
	}
}

func TestKindString(t *testing.T) {
	if Demand.String() != "demand" || Prefetch.String() != "prefetch" || Writeback.String() != "writeback" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() != "unknown" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Banks: 3, BlocksPerRow: 128},
		{Banks: 32, BlocksPerRow: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", bad)
				}
			}()
			New(bad)
		}()
	}
}

// TestFIFOWithinPriority: demands complete in enqueue order when they hit
// distinct banks (FCFS with bank bypass must not reorder independents that
// are all startable).
func TestFIFOWithinPriority(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%16) + 2
		d := New(DefaultConfig())
		var order []uint64
		for b := 0; b < n; b++ {
			d.Enqueue(&Request{Block: uint64(b), Kind: Demand, Done: func(r *Request) {
				order = append(order, r.Block)
			}}, 0)
		}
		drain(d, 0, 1_000_000)
		if len(order) != n {
			return false
		}
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestLatencyAccounting: demand latency statistics accumulate.
func TestLatencyAccounting(t *testing.T) {
	d := New(DefaultConfig())
	d.Enqueue(&Request{Block: 1, Kind: Demand}, 0)
	d.Enqueue(&Request{Block: 2, Kind: Prefetch}, 0)
	drain(d, 0, 10000)
	st := d.Stats()
	if st.DemandCount != 1 || st.DemandLatencySum == 0 {
		t.Fatalf("latency stats: count=%d sum=%d", st.DemandCount, st.DemandLatencySum)
	}
}

// TestNextEventVisitsOnlyActiveCycles drives the model by jumping from
// each reported next event to the following one, and checks it reaches
// the same completions as ticking every cycle: the report never skips a
// cycle in which Tick would start or finish a request.
func TestNextEventVisitsOnlyActiveCycles(t *testing.T) {
	run := func(jump bool) (finished []uint64, ticks int) {
		d := New(DefaultConfig())
		for i := uint64(0); i < 6; i++ {
			kind := Demand
			if i%3 == 2 {
				kind = Prefetch
			}
			// Blocks 0, 32, 64... share bank 0, so requests queue behind it.
			d.Enqueue(&Request{Block: i * 32, Kind: kind, Done: func(r *Request) { finished = append(finished, r.Finished) }}, i)
		}
		for c := uint64(6); d.Busy(); c++ {
			if jump {
				c = d.NextEvent(c - 1)
			}
			d.Tick(c)
			ticks++
		}
		return finished, ticks
	}
	want, stepped := run(false)
	got, jumped := run(true)
	if len(want) != 6 || len(got) != len(want) {
		t.Fatalf("completions: jumping %v, ticking %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion %d at cycle %d when jumping, %d when ticking", i, got[i], want[i])
		}
	}
	if jumped*4 > stepped {
		t.Errorf("jumping ticked %d of %d cycles; the memoized scan should skip most", jumped, stepped)
	}
}
