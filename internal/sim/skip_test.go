package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// skipCase is one run shape under the skip-ahead equivalence test: a
// config and the entry point that runs it. run returns the result with
// its wall-clock fields zeroed and the engine's telemetry.
type skipCase struct {
	name string
	cfg  Config
	run  func(ctx context.Context, cfg Config) (any, EngineStats, error)
}

func runSingle(ctx context.Context, cfg Config) (any, EngineStats, error) {
	res, err := RunContext(ctx, cfg)
	res.Elapsed = 0
	return res, res.Engine, err
}

func runCode(ctx context.Context, cfg Config) (any, EngineStats, error) {
	// Four times the L1I: dispatch stalls on instruction fetch often.
	res, err := RunSourceContext(ctx, cfg, &codeSource{blocks: 4096})
	res.Elapsed = 0
	return res, res.Engine, err
}

// runPair runs cfg's workload on core 0 and the second name on core 1 of
// a shared bus, both with cfg's sinks.
func runPair(second string) func(ctx context.Context, cfg Config) (any, EngineStats, error) {
	return func(ctx context.Context, cfg Config) (any, EngineStats, error) {
		other := cfg
		other.Workload = second
		res, err := RunMultiContext(ctx, MultiConfig{Cores: []Config{cfg, other}})
		for i := range res.Cores {
			res.Cores[i].Elapsed = 0
		}
		return res, res.Engine, err
	}
}

// runThreads runs cfg's workload and the second name as two SMT threads.
func runThreads(second string) func(ctx context.Context, cfg Config) (any, EngineStats, error) {
	return func(ctx context.Context, cfg Config) (any, EngineStats, error) {
		res, err := RunSMTContext(ctx, SMTConfig{Base: cfg, Workloads: []string{cfg.Workload, second}})
		return res, res.Engine, err
	}
}

func skipCases() []skipCase {
	base := func(w string, kind PrefetcherKind) Config {
		cfg := WithFDP(kind)
		cfg.Workload = w
		cfg.MaxInsts = 100_000
		cfg.WarmupInsts = 20_000
		cfg.L2Blocks = 1024 // small L2 so sampling intervals close often
		cfg.FDP.TInterval = 256
		cfg.Attribution = true
		return cfg
	}
	stream := base("mixedphase", PrefStream)
	stream.ModelIFetch = true
	stream.PrefCacheBlocks = 256
	ghb := base("chaserand", PrefGHB)
	code := base("code", PrefStream)
	code.ModelIFetch = true
	multi := base("seqstream", PrefStream)
	stores := base("multistream", PrefGHB) // the other core runs scanmod, which stores
	stores.Attribution = false
	smt := base("multistream", PrefStream)
	smt.WarmupInsts = 0 // SMT runs take no warmup
	return []skipCase{
		{"single/mixedphase/stream", stream, runSingle},
		{"single/chaserand/ghb", ghb, runSingle},
		{"single/code/ifetch", code, runCode},
		{"multi/seqstream+mixedphase/stream", multi, runPair("mixedphase")},
		{"multi/multistream+scanmod/ghb", stores, runPair("scanmod")},
		{"smt/multistream+mixedphase/stream", smt, runThreads("mixedphase")},
	}
}

// skipOutcome is everything a run produces that must not depend on
// whether the engine skips quiet cycles.
type skipOutcome struct {
	Result    any
	Err       string
	Events    []DecisionEvent
	Snapshots []Snapshot
}

// observe runs c with skipping on or off, recording the decision trace
// and the progress stream. With cancelAt > 0 the progress sink cancels
// the run at that interval snapshot; with cancelAt < 0 the run starts
// cancelled, so the first cancellation poll stops it.
func observe(t *testing.T, c skipCase, cfg Config, step bool, cancelAt int) ([]byte, EngineStats, error) {
	t.Helper()
	stepEveryCycle = step
	defer func() { stepEveryCycle = false }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out skipOutcome
	tr := &collectTracer{}
	cfg.Tracer = tr
	cfg.Progress = func(s Snapshot) {
		s.Elapsed = 0
		out.Snapshots = append(out.Snapshots, s)
		if !s.Final && len(out.Snapshots) == cancelAt {
			cancel()
		}
	}
	if cancelAt < 0 {
		cancel()
	}
	res, es, err := c.run(ctx, cfg)
	out.Result, out.Events = res, tr.events
	if err != nil {
		out.Err = err.Error()
	}
	b, jerr := json.Marshal(out)
	if jerr != nil {
		t.Fatal(jerr)
	}
	return b, es, err
}

// TestSkipAheadMatchesStepping checks that jumping over quiet cycles is
// exact: every run shape — single-core with instruction fetch, a
// prefetch cache, warmup and attribution; two cores on one bus; two SMT
// threads — gives the same result, decision trace and progress stream as
// the reference loop that steps every cycle, also when the run is
// cancelled mid-way or from the start (so the periodic cancellation poll
// stops it) or fails on its cycle budget.
func TestSkipAheadMatchesStepping(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every shape twice at cycle granularity")
	}
	for _, c := range skipCases() {
		t.Run(c.name, func(t *testing.T) {
			compare := func(what string, cfg Config, cancelAt int) error {
				t.Helper()
				want, ref, _ := observe(t, c, cfg, true, cancelAt)
				got, es, err := observe(t, c, cfg, false, cancelAt)
				if !bytes.Equal(got, want) {
					t.Errorf("%s: skipping diverges from stepping %s", what, firstDiff(got, want))
				}
				if err != nil && !errors.Is(err, ErrCancelled) {
					return err // a failed run returns no result to count in
				}
				if ref.SkippedCycles != 0 || es.ActiveCycles+es.SkippedCycles != ref.ActiveCycles {
					t.Errorf("%s: skip run counted %+v, the stepping run %+v", what, es, ref)
				}
				if es.SkippedCycles == 0 {
					t.Errorf("%s: no cycle was skipped", what)
				}
				return err
			}
			if err := compare("full run", c.cfg, 0); err != nil {
				t.Fatal(err)
			}
			for _, cancelAt := range []int{3, -1} {
				what := fmt.Sprintf("cancelled at snapshot %d", cancelAt)
				var ce *CancelError
				if err := compare(what, c.cfg, cancelAt); !errors.As(err, &ce) {
					t.Errorf("%s: err = %v, want a *CancelError", what, err)
				}
			}
			if strings.HasPrefix(c.name, "single/") { // only single-core runs take MaxCycles
				cfg := c.cfg
				cfg.MaxCycles = 100_000
				if err := compare("cycle budget", cfg, 0); err == nil {
					t.Error("cycle budget: run finished within 100k cycles")
				}
			}
		})
	}
}

// firstDiff shows both encodings around their first differing byte.
func firstDiff(skip, step []byte) string {
	i := 0
	for i < len(skip) && i < len(step) && skip[i] == step[i] {
		i++
	}
	lo := max(i-100, 0)
	return fmt.Sprintf("at byte %d:\nskip: %s\nstep: %s", i, skip[lo:min(i+100, len(skip))], step[lo:min(i+100, len(step))])
}
