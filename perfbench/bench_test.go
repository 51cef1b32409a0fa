package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"fdpsim/internal/sim"
	"fdpsim/internal/stats"
)

// small returns a lane cut down to test scale.
func small(l lane) lane {
	l.cfgs = append([]sim.Config(nil), l.cfgs...)
	for i := range l.cfgs {
		l.cfgs[i].MaxInsts = 20_000
		if l.cfgs[i].WarmupInsts > 0 {
			l.cfgs[i].WarmupInsts = 5_000
		}
	}
	return l
}

// TestTracedRunMatchesPlain checks that the instrumented seams (timed
// source, wrapped prefetcher behind PrefCustom, decision tracer,
// attribution) leave every simulated result bit-identical once the
// digest is normalised, for the stream and GHB prefetchers and for the
// multicore and SMT lanes.
func TestTracedRunMatchesPlain(t *testing.T) {
	memint, _ := findWorkload("memint")
	var lanes []lane
	for _, l := range memint.lanes(3) {
		if l.name != "seqstream/stream" && l.name != "mixedphase/stream" {
			lanes = append(lanes, small(l))
		}
	}
	if len(lanes) != 4 {
		t.Fatalf("picked %d lanes, want 4", len(lanes))
	}
	for _, l := range lanes {
		plain, _, err := l.run(nil)
		if err != nil {
			t.Fatalf("%s plain: %v", l.name, err)
		}
		tr := &tracer{}
		tr.beginLane()
		wrapped, out, err := l.run(tr)
		if err != nil {
			t.Fatalf("%s traced: %v", l.name, err)
		}
		if wrapped != plain {
			t.Errorf("%s: traced digest %s, plain %s", l.name, wrapped, plain)
		}
		if tr.obsCalls == 0 {
			t.Errorf("%s: wrapped prefetcher saw no calls", l.name)
		}
		if l.kind == single && tr.nextCalls == 0 {
			t.Errorf("%s: timed source saw no calls", l.name)
		}
		if l.kind != smt && out.results[0].Attribution == nil {
			t.Errorf("%s: traced run has no attribution block", l.name)
		}
	}
}

// TestNormalize checks the digest ignores exactly what a traced run
// changes: wall time, the "custom" prefetcher label and attribution.
func TestNormalize(t *testing.T) {
	base := sim.Result{Workload: "seqstream", Prefetcher: "stream", IPC: 0.5}
	base.Counters.Cycles = 1000
	want, err := resultDigest(base, sim.PrefStream)
	if err != nil {
		t.Fatal(err)
	}
	traced := base
	traced.Prefetcher = string(sim.PrefCustom)
	traced.Elapsed = 3 * time.Second
	traced.Attribution = &stats.Attribution{RowHits: 7}
	if got, _ := resultDigest(traced, sim.PrefStream); got != want {
		t.Errorf("normalised traced digest %s, want %s", got, want)
	}
	if traced.Prefetcher != string(sim.PrefCustom) || traced.Attribution == nil {
		t.Error("resultDigest modified its argument")
	}
	other := base
	other.Counters.Cycles++
	if got, _ := resultDigest(other, sim.PrefStream); got == want {
		t.Error("a changed counter kept the digest")
	}
	if got, _ := resultDigest(base, sim.PrefGHB); got == want {
		t.Error("a different prefetcher label kept the digest")
	}
	mr := sim.MultiResult{Cores: []sim.CoreResult{{Result: traced}, {Result: base}}}
	d1, _ := multiDigest(mr, []sim.PrefetcherKind{sim.PrefStream, sim.PrefStream})
	mr.Cores[0].Result = base
	d2, _ := multiDigest(mr, []sim.PrefetcherKind{sim.PrefStream, sim.PrefStream})
	if d1 != d2 {
		t.Errorf("normalised multicore digests differ: %s vs %s", d1, d2)
	}
}

// TestPercentileNeedsTenBeyond checks the percentile helper refuses a
// percentile with fewer than ten samples above it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true},
		{99, 0.9, 0, false},
		{110, 0.9, 99, true},
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{0, 0.5, 0, false},
	} {
		got, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, ok=%v", c.n, c.p, got, err, c.want, c.ok)
		}
	}
}

// TestParseTop checks the profile grouping on a `pprof -top` excerpt.
func TestParseTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 10s, 100% of 10s total
      flat  flat%   sum%        cum   cum%
        4s 40.00% 40.00%         5s 50.00%  fdpsim/internal/cpu.(*CPU).Tick
        2s 20.00% 60.00%         2s 20.00%  fdpsim/internal/cache.(*Cache).Access (inline)
        1s 10.00% 70.00%         9s 90.00%  fdpsim/internal/sim.runWith
        1s 10.00% 80.00%         1s 10.00%  fdpsim/internal/control.(*Tree).Decide
        1s 10.00% 90.00%         1s 10.00%  fdpsim/internal/workload/spec.gen
        1s 10.00%   100%         1s 10.00%  runtime.mallocgc
`)
	got, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cpu": 0.4, "cache": 0.2, "sim": 0.1, "core": 0.1, "workload": 0.1, "other": 0.1}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s share %g, want %g", k, got[k], v)
		}
	}
	if _, err := parseTop([]byte("no table here\n")); err == nil {
		t.Error("parseTop accepted output without a table")
	}
}

// TestBenchmarkJSONMatchesWorkloads keeps the repository's BENCHMARK.json
// in step with the workload table.
func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}
