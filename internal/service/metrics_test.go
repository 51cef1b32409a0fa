package service

import (
	"bytes"
	"math"
	"net/http"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"fdpsim/internal/cache"
	"fdpsim/internal/sim"
)

// TestHistogramInitSortsAndDedupes pins the registration-time cleanup:
// out-of-order and duplicated bucket bounds would otherwise render a
// histogram Prometheus rejects (buckets must be strictly increasing).
func TestHistogramInitSortsAndDedupes(t *testing.T) {
	var h histogram
	h.init([]float64{10, 0.1, 1, 0.1, 10, math.NaN(), math.Inf(+1), 0.001})
	want := []float64{0.001, 0.1, 1, 10}
	if !reflect.DeepEqual(h.bounds, want) {
		t.Fatalf("bounds = %v, want %v", h.bounds, want)
	}
	if len(h.counts) != len(want)+1 {
		t.Fatalf("counts has %d slots, want %d (bounds + +Inf)", len(h.counts), len(want)+1)
	}

	// Observations land in the right (deduplicated) buckets.
	h.observe(0.05) // ≤ 0.1
	h.observe(0.05)
	h.observe(5)   // ≤ 10
	h.observe(100) // +Inf
	cum, sum, count := h.snapshot()
	if count != 4 || sum != 105.1 {
		t.Fatalf("count=%d sum=%g, want 4 and 105.1", count, sum)
	}
	if got := []uint64{cum[0], cum[1], cum[2], cum[3], cum[4]}; !reflect.DeepEqual(got, []uint64{0, 2, 2, 3, 4}) {
		t.Fatalf("cumulative buckets = %v, want [0 2 2 3 4]", got)
	}
}

// TestQueueWaitBucketsConfig checks the misconfiguration end to end: a
// server configured with unsorted, duplicated queue-wait buckets must
// scrape with sorted, unique le= bounds.
func TestQueueWaitBucketsConfig(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueWaitBuckets: []float64{5, 0.5, 5, 0.05}})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck

	re := regexp.MustCompile(`fdpserved_queue_wait_seconds_bucket\{le="([^"]+)"\}`)
	var got []string
	for _, m := range re.FindAllStringSubmatch(buf.String(), -1) {
		got = append(got, m[1])
	}
	want := []string{"0.05", "0.5", "5", "+Inf"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rendered le bounds = %v, want %v", got, want)
	}
}

// TestMetricsNewSeries checks the observability additions render: the
// interval counter and rate, the per-position insertion counters, the DCC
// distribution gauges, the trace counters and the HTTP histogram.
func TestMetricsNewSeries(t *testing.T) {
	var m metrics
	m.init(nil)
	for i := 0; i < 7; i++ {
		m.observeSnapshot(intervalSample{insertion: cache.PosMID})
	}
	m.observeSnapshot(intervalSample{insertion: cache.PosMRU})
	m.observeSnapshot(intervalSample{final: true, insertion: cache.PosMRU})                // ignored
	m.observeSnapshot(intervalSample{controller: "dspatch-dual", insertion: cache.PosLRU}) // own series
	m.httpDur.observe(0.002)

	var buf bytes.Buffer
	m.render(&buf, 0, 10*time.Second, map[string][6]int{
		"fdp":  {0, 0, 1, 0, 0, 2},
		"tree": {0, 1, 0, 0, 0, 0},
	}, nil, 0, 0, 0)
	out := buf.String()

	for _, want := range []string{
		"fdpserved_sim_intervals_total 9",
		"fdpserved_sim_intervals_per_second 0.9",
		`fdpserved_insertion_policy_total{controller="fdp",position="MID"} 7`,
		`fdpserved_insertion_policy_total{controller="fdp",position="MRU"} 1`,
		`fdpserved_insertion_policy_total{controller="fdp",position="LRU"} 0`,
		`fdpserved_insertion_policy_total{controller="dspatch-dual",position="LRU"} 1`,
		`fdpserved_dcc_level_jobs{controller="fdp",level="2"} 1`,
		`fdpserved_dcc_level_jobs{controller="fdp",level="5"} 2`,
		`fdpserved_dcc_level_jobs{controller="tree",level="1"} 1`,
		"fdpserved_trace_events_truncated_total 0",
		"fdpserved_http_request_duration_seconds_count 1",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Histogram buckets must parse and be ascending for every family.
	re := regexp.MustCompile(`_bucket\{le="([^"]+)"\}`)
	prev := -1.0
	for _, match := range re.FindAllStringSubmatch(out, -1) {
		if match[1] == "+Inf" {
			prev = -1.0 // next family starts over
			continue
		}
		v, err := strconv.ParseFloat(match[1], 64)
		if err != nil {
			t.Fatalf("unparsable bucket bound %q", match[1])
		}
		if v <= prev {
			t.Fatalf("bucket bound %g not ascending (previous %g)", v, prev)
		}
		prev = v
	}
}

// TestMetricsEngineCycles checks that /metrics exports the cycle engine's
// split: a memory-bound job spends most cycles waiting on DRAM, so the
// engine must have skipped some. With no warmup the two counters add up
// to the job's simulated cycles; sim_cycles_total counts only post-warmup
// cycles, so after a warmed job they add up to more.
func TestMetricsEngineCycles(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	run := func(cfg sim.Config) {
		t.Helper()
		var st JobStatus
		if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", submitBody(t, cfg), &st); code != http.StatusAccepted {
			t.Fatalf("submit = %d, want 202", code)
		}
		final := pollUntil(t, ts.Client(), ts.URL+"/v1/jobs/"+st.ID, func(s JobStatus) bool { return s.State.Terminal() })
		if final.State != StateDone {
			t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
		}
	}
	counters := func() (active, skipped, cycles float64) {
		t.Helper()
		return metricValue(t, ts.Client(), ts.URL, "fdpserved_sim_engine_active_cycles_total"),
			metricValue(t, ts.Client(), ts.URL, "fdpserved_sim_engine_skipped_cycles_total"),
			metricValue(t, ts.Client(), ts.URL, "fdpserved_sim_cycles_total")
	}

	cfg := fastConfig(50_000, 7)
	cfg.Workload = "chaserand"
	run(cfg)
	active, skipped, cycles := counters()
	if active <= 0 || skipped <= 0 {
		t.Fatalf("engine cycles: active %v, skipped %v; want both > 0 for a memory-bound job", active, skipped)
	}
	if active+skipped != cycles {
		t.Errorf("no warmup: active %v + skipped %v != simulated cycles %v", active, skipped, cycles)
	}

	cfg.Seed = 8
	cfg.WarmupInsts = 20_000
	run(cfg)
	active, skipped, cycles = counters()
	if active+skipped <= cycles {
		t.Errorf("after a warmed job: active %v + skipped %v = %v, want more than the post-warmup cycles %v",
			active, skipped, active+skipped, cycles)
	}
}
