package series

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"fdpsim/internal/control"
	"fdpsim/internal/obs"
	"fdpsim/internal/sim"
)

// recordBoth runs one core's events into a JSONL tracer and a Recorder at
// once: the JSONL bytes are the direct reference the series must rebuild.
type recordBoth struct {
	buf   bytes.Buffer
	jsonl *obs.JSONL
	rec   *Recorder
}

func newRecordBoth(core int) *recordBoth {
	b := &recordBoth{rec: &Recorder{Core: core}}
	b.jsonl = obs.NewJSONL(&b.buf)
	return b
}

func (b *recordBoth) tracer() sim.Tracer { return obs.Tee(b.jsonl, b.rec) }

// check asserts the round trip: the encoded sidecar decodes, re-encodes to
// itself, and its rebuilt events render the direct JSONL byte for byte.
func (b *recordBoth) check(t *testing.T) []byte {
	t.Helper()
	if err := b.jsonl.Close(); err != nil {
		t.Fatalf("jsonl close: %v", err)
	}
	direct := b.buf.Bytes()
	if b.rec.Len() == 0 {
		t.Fatal("run closed no FDP intervals; the case checks nothing")
	}
	doc, err := Encode(b.rec.Series())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	s, err := Decode(doc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	again, err := Encode(s)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(again, doc) {
		t.Error("decoded document does not re-encode to itself")
	}
	events, err := s.Events()
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	var rendered bytes.Buffer
	if err := obs.WriteJSONL(&rendered, events); err != nil {
		t.Fatal(err)
	}
	if got := rendered.Bytes(); !bytes.Equal(got, direct) {
		gl, dl := bytes.Split(got, []byte("\n")), bytes.Split(direct, []byte("\n"))
		for i := 0; i < len(gl) && i < len(dl); i++ {
			if !bytes.Equal(gl[i], dl[i]) {
				t.Fatalf("rebuilt trace diverges at line %d:\ngot  %s\nwant %s", i+1, gl[i], dl[i])
			}
		}
		t.Fatalf("rebuilt trace has %d lines, direct trace %d", len(gl), len(dl))
	}
	return direct
}

func runRoundTrip(t *testing.T, cfg sim.Config) []byte {
	t.Helper()
	b := newRecordBoth(0)
	cfg.Tracer = b.tracer()
	if _, err := sim.Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return b.check(t)
}

// hostileConfig is the configuration internal/obs pins its decision-trace
// golden with.
func hostileConfig() sim.Config {
	cfg := sim.WithFDP(sim.PrefStream)
	cfg.Workload = "chaserand"
	cfg.MaxInsts = 150_000
	cfg.L2Blocks = 1024
	cfg.FDP.TInterval = 64
	return cfg
}

// TestEventsRoundTrip is the equivalence gate for serving the decision
// trace from the series sidecar: for the hostile golden run, an
// attribution run with warmup, every registered controller and a
// multi-core run, the trace rebuilt from Decode(Encode(series)) is
// byte-identical to the JSONL a tracer on the same run writes.
func TestEventsRoundTrip(t *testing.T) {
	t.Run("hostile-golden", func(t *testing.T) {
		got := runRoundTrip(t, hostileConfig())
		want, err := os.ReadFile(filepath.Join("..", "obs", "testdata", "hostile_decision_trace.golden.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("direct trace differs from the hostile golden")
		}
	})
	t.Run("attribution-warmup", func(t *testing.T) {
		cfg := seriesTestConfig()
		cfg.WarmupInsts = 30_000
		got := runRoundTrip(t, cfg)
		if !bytes.Contains(got, []byte(`"cycle":0,`)) || !bytes.Contains(got, []byte(`"sample":`)) {
			t.Fatal("the case needs warmup boundaries and attribution samples to check")
		}
	})
	for _, name := range control.Names() {
		t.Run("controller-"+name, func(t *testing.T) {
			cfg := hostileConfig()
			cfg.MaxInsts = 60_000
			cfg.Controller = name
			runRoundTrip(t, cfg)
		})
	}
	t.Run("multicore-core1", func(t *testing.T) {
		var mc sim.MultiConfig
		b := newRecordBoth(1)
		// Core 1 streams beside a storing core: its trace has late
		// prefetches, the Medium accuracy class and writeback bus cycles,
		// which the chaserand cases never show.
		for i, w := range []string{"scanmod", "multistream"} {
			cfg := hostileConfig()
			cfg.Workload = w
			cfg.MaxInsts = 60_000
			cfg.Attribution = true
			if i == 1 {
				cfg.Tracer = b.tracer()
			}
			mc.Cores = append(mc.Cores, cfg)
		}
		if _, err := sim.RunMulti(mc); err != nil {
			t.Fatalf("RunMulti: %v", err)
		}
		got := b.check(t)
		for _, want := range []string{`"late":true`, `"Medium"`, `"bus_writeback_cycles":[1-9]`} {
			if !regexp.MustCompile(want).Match(got) {
				t.Errorf("the case needs %s in its trace to check", want)
			}
		}
		if s := b.rec.Series(); s.Meta.Core != 1 {
			t.Errorf("Meta.Core = %d, want 1", s.Meta.Core)
		}
	})
}

// TestEventsMissingColumn checks a series without the full catalog (a
// projection, or a foreign document) refuses to rebuild a trace.
func TestEventsMissingColumn(t *testing.T) {
	s := sampleSeries(3)
	s.Meta.Metrics = s.Meta.Metrics[:NumMetrics-1]
	s.Columns = s.Columns[:NumMetrics-1]
	if _, err := s.Events(); err == nil {
		t.Fatal("Events accepted a series missing a catalog column")
	}
}
