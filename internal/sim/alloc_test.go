package sim

import (
	"strings"
	"testing"

	"fdpsim/internal/cpu"
	"fdpsim/internal/workload"
)

// allocEngine wires an engine over a small, interval-heavy configuration
// (tiny L2 and TInterval so FDP decisions fire constantly — the hardest
// case for the allocation guarantee). One workload is a single-core run;
// with more, multi puts each on its own core on a shared DRAM and SMT
// (multi false) runs them as threads of one hierarchy.
func allocEngine(tb testing.TB, wls []string, multi bool, kind PrefetcherKind, attr bool) *engine {
	tb.Helper()
	cfg := WithFDP(kind)
	cfg.Workload = wls[0]
	cfg.L1Blocks, cfg.L1Ways = 256, 4
	cfg.L2Blocks, cfg.L2Ways = 1024, 16
	cfg.MSHRs = 32
	cfg.PrefQueueCap = 32
	cfg.FDP.TInterval = 64
	cfg.Attribution = attr
	e := newEngine(cfg.DRAM, !multi, 0)
	var n *node
	for i, wl := range wls {
		var src cpu.Source
		var err error
		if len(wls) == 1 {
			src, err = workload.New(wl, 1) // as a single-core run attaches it
		} else {
			src, err = laneSource(i, wl, 1, nil)
		}
		if err != nil {
			tb.Fatal(err)
		}
		if n == nil || multi {
			n = e.addNode(&cfg)
		}
		e.addLane(n, src)
	}
	return e
}

// TestPerInstructionAllocs is the event engine's core guarantee: after
// warmup (pools grown, maps sized, queues at working depth) the cycle loop
// performs zero heap allocations — no closures, no events, no requests, no
// prefetcher scratch — in every run mode. Guarded here so a regression
// fails CI, not a profile.
func TestPerInstructionAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-thousand-cycle warmups")
	}
	for _, tc := range []struct {
		wls   []string
		multi bool
		kind  PrefetcherKind
		attr  bool
	}{
		{[]string{"mixedphase"}, false, PrefStream, false},
		{[]string{"mixedphase"}, false, PrefGHB, false},
		{[]string{"mixedphase"}, false, PrefHybrid, false},
		{[]string{"chaserand"}, false, PrefStream, false},
		{[]string{"scanmod"}, false, PrefDahlgren, false},
		// Attribution on: per-cycle classification + occupancy sampling and
		// the timeliness maps must stay allocation-free once warmed.
		{[]string{"mixedphase"}, false, PrefStream, true},
		{[]string{"chaserand"}, false, PrefStream, true},
		// Two cores on one bus, and two SMT threads on one hierarchy.
		{[]string{"seqstream", "chaserand"}, true, PrefStream, false},
		{[]string{"multistream", "mixedphase"}, false, PrefStream, false},
	} {
		name := strings.Join(tc.wls, "+") + "/" + string(tc.kind)
		switch {
		case tc.multi:
			name = "multi/" + name
		case len(tc.wls) > 1:
			name = "smt/" + name
		}
		if tc.attr {
			name += "/attribution"
		}
		t.Run(name, func(t *testing.T) {
			e := allocEngine(t, tc.wls, tc.multi, tc.kind, tc.attr)
			for e.cycle < 300_000 {
				e.step()
			}
			allocs := testing.AllocsPerRun(5, func() {
				for i := 0; i < 20_000; i++ {
					e.step()
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state heap allocations: %.1f per 20k cycles, want 0", allocs)
			}
		})
	}
}

// BenchmarkPerInstruction measures the warmed cycle loop per retired
// instruction; allocs/op is the per-instruction allocation count the CI
// gate keeps at zero.
func BenchmarkPerInstruction(b *testing.B) {
	for _, tc := range []struct {
		name string
		attr bool
	}{
		{"base", false},
		{"attribution", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e := allocEngine(b, []string{"mixedphase"}, false, PrefStream, tc.attr)
			c := e.lanes[0].cpu
			for e.cycle < 200_000 {
				e.step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := c.Retired()
			for c.Retired()-start < uint64(b.N) {
				e.step()
			}
		})
	}
}
