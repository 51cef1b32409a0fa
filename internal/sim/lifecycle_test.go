package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fdpCfg returns a fast FDP configuration whose sampling intervals close
// quickly, so lifecycle tests exercise the interval-boundary checks.
func fdpCfg(w string) Config {
	cfg := WithFDP(PrefStream)
	cfg.Workload = w
	cfg.MaxInsts = 2_000_000
	cfg.FDP.TInterval = 256
	return cfg
}

// lifecycleOutcome is a run's result, reduced to what the lifecycle
// contracts compare across run modes.
type lifecycleOutcome struct {
	// final holds the result's values the Final snapshot must match.
	// SMTResult carries no interval count, so the SMT mode leaves
	// final.Interval zero and the interval comparison is skipped.
	final   Snapshot
	partial bool
	slowest uint64 // post-warmup retired count of the slowest lane
}

// lifecycleModes runs one config in every mode. Core 0 of the two-core
// run (the other core runs seqstream without sinks) and the shared
// hierarchy of the two-thread SMT run carry cfg's progress sink and
// tracer.
var lifecycleModes = []struct {
	name string
	run  func(ctx context.Context, cfg Config) (lifecycleOutcome, error)
}{
	{"single", func(ctx context.Context, cfg Config) (lifecycleOutcome, error) {
		res, err := RunContext(ctx, cfg)
		return lifecycleOutcome{
			final: Snapshot{Cycle: res.Counters.Cycles, Retired: res.Counters.Retired, Target: cfg.MaxInsts,
				IPC: res.IPC, Interval: res.Intervals, Level: res.FinalLevel},
			partial: res.Partial,
			slowest: res.Counters.Retired,
		}, err
	}},
	{"multi", func(ctx context.Context, cfg Config) (lifecycleOutcome, error) {
		other := cfg
		other.Workload, other.Progress, other.Tracer = "seqstream", nil, nil
		res, err := RunMultiContext(ctx, MultiConfig{Cores: []Config{cfg, other}})
		if len(res.Cores) == 0 {
			return lifecycleOutcome{}, err
		}
		c := res.Cores[0]
		out := lifecycleOutcome{
			final: Snapshot{Cycle: c.Counters.Cycles, Retired: c.Counters.Retired, Target: cfg.MaxInsts,
				IPC: c.IPC, Interval: c.Intervals, Level: c.FinalLevel},
			partial: res.Partial,
			slowest: min(c.Counters.Retired, res.Cores[1].Counters.Retired),
		}
		return out, err
	}},
	{"smt", func(ctx context.Context, cfg Config) (lifecycleOutcome, error) {
		res, err := RunSMTContext(ctx, SMTConfig{Base: cfg, Workloads: []string{cfg.Workload, "seqstream"}})
		if len(res.Threads) == 0 {
			return lifecycleOutcome{}, err
		}
		return lifecycleOutcome{
			final: Snapshot{Cycle: res.Counters.Cycles, Retired: res.Counters.Retired, Target: 2 * cfg.MaxInsts,
				IPC: res.Counters.IPC(), Level: res.FinalLevel},
			partial: res.Partial,
			slowest: min(res.Threads[0].Retired, res.Threads[1].Retired),
		}, err
	}},
}

func TestRunContextCancelWithinOneInterval(t *testing.T) {
	type row struct {
		mode   int
		name   string
		warmup uint64
	}
	var rows []row
	for i, m := range lifecycleModes {
		rows = append(rows, row{i, m.name, 0})
	}
	// Warmup on: the CancelError must count post-warmup instructions only.
	rows = append(rows, row{1, "multi/warmup", 100_000})
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			cfg := fdpCfg("chaserand")
			cfg.WarmupInsts = tc.warmup
			var cancelAt, final Snapshot
			cfg.Progress = func(s Snapshot) {
				if s.Final {
					final = s
				}
				// Cancel at the first post-warmup boundary.
				if s.Final || cancelAt.Interval != 0 || s.Retired == 0 {
					return
				}
				cancelAt = s
				cancel()
			}

			out, err := lifecycleModes[tc.mode].run(ctx, cfg)
			if err == nil {
				t.Fatal("cancelled run returned nil error")
			}
			if !errors.Is(err, ErrCancelled) {
				t.Errorf("error %v does not match ErrCancelled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("error %v does not match context.Canceled", err)
			}
			var ce *CancelError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a *CancelError", err)
			}
			if !out.partial {
				t.Error("cancelled run not marked Partial")
			}
			if out.final.Retired >= cfg.MaxInsts {
				t.Errorf("retired %d reached the %d target despite cancellation", out.final.Retired, cfg.MaxInsts)
			}
			if ce.Retired != out.slowest || ce.Target != cfg.MaxInsts {
				t.Errorf("CancelError{Retired: %d, Target: %d} disagrees with the result (slowest lane retired %d, target %d)",
					ce.Retired, ce.Target, out.slowest, cfg.MaxInsts)
			}
			if cancelAt.Interval == 0 {
				t.Fatal("progress sink never saw a post-warmup boundary")
			}
			if !final.Final {
				t.Fatal("cancelled run sent no Final snapshot")
			}
			// The cancel fired inside the sink for interval cancelAt.Interval,
			// so the run must stop before another full sampling interval
			// elapses.
			if final.Interval > cancelAt.Interval+1 {
				t.Errorf("run continued for %d intervals after cancelling at interval %d",
					final.Interval-cancelAt.Interval, cancelAt.Interval)
			}
		})
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, fdpCfg("seqstream"))
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: err = %v", err)
	}
	if !res.Partial {
		t.Error("result not marked Partial")
	}
	// The stride fallback must notice the dead context almost immediately.
	if res.Counters.Retired > 100_000 {
		t.Errorf("retired %d instructions under a pre-cancelled context", res.Counters.Retired)
	}
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	cfg := fdpCfg("seqstream")
	cfg.MaxInsts = 50_000_000 // far more than a millisecond of simulation
	res, err := RunContext(ctx, cfg)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v", err)
	}
	if !res.Partial || res.Counters.Retired >= cfg.MaxInsts {
		t.Errorf("Partial=%v retired=%d after deadline expiry", res.Partial, res.Counters.Retired)
	}
}

func TestProgressSnapshotsMonotonicAndFinalMatchesResult(t *testing.T) {
	for _, mode := range lifecycleModes {
		t.Run(mode.name, func(t *testing.T) {
			cfg := fdpCfg("mixedphase")
			cfg.MaxInsts = 200_000
			cfg.L2Blocks = 1024 // small L2 so useful evictions (and intervals) come fast
			var snaps []Snapshot
			cfg.Progress = func(s Snapshot) { snaps = append(snaps, s) }
			tr := &collectTracer{}
			cfg.Tracer = tr

			out, err := mode.run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) < 2 {
				t.Fatalf("%d progress snapshots, want interval snapshots and a Final one", len(snaps))
			}
			var prev Snapshot
			for i, s := range snaps[:len(snaps)-1] {
				if s.Final {
					t.Fatalf("snapshot %d marked Final before the end of the run", i)
				}
				if s.Retired < prev.Retired || s.Cycle < prev.Cycle {
					t.Errorf("snapshot %d went backwards: retired %d->%d, cycle %d->%d",
						i, prev.Retired, s.Retired, prev.Cycle, s.Cycle)
				}
				if s.Interval != prev.Interval+1 {
					t.Errorf("snapshot %d: interval %d after %d", i, s.Interval, prev.Interval)
				}
				if s.Target != out.final.Target {
					t.Errorf("snapshot %d: target %d, want %d", i, s.Target, out.final.Target)
				}
				if s.Elapsed <= 0 {
					t.Errorf("snapshot %d: no elapsed wall time", i)
				}
				prev = s
			}
			last := snaps[len(snaps)-1]
			if !last.Final {
				t.Fatal("last snapshot not marked Final")
			}
			want := out.final
			if last.Retired != want.Retired || last.Cycle != want.Cycle {
				t.Errorf("final snapshot retired=%d cycle=%d, result retired=%d cycles=%d",
					last.Retired, last.Cycle, want.Retired, want.Cycle)
			}
			if last.IPC != want.IPC || last.Level != want.Level {
				t.Errorf("final snapshot IPC %v level %d, result IPC %v level %d", last.IPC, last.Level, want.IPC, want.Level)
			}
			if want.Interval != 0 && last.Interval != want.Interval {
				t.Errorf("final snapshot interval %d != result intervals %d", last.Interval, want.Interval)
			}
			if out.partial {
				t.Error("completed run marked Partial")
			}
			// The decision trace carries the same post-warmup stamps.
			if len(tr.events) != len(snaps)-1 {
				t.Fatalf("%d decision events for %d interval snapshots", len(tr.events), len(snaps)-1)
			}
			for i, ev := range tr.events {
				if ev.Retired == 0 || ev.Retired < tr.events[max(i-1, 0)].Retired {
					t.Errorf("event %d: retired %d after %d", i, ev.Retired, tr.events[max(i-1, 0)].Retired)
				}
				if ev.Retired != snaps[i].Retired || ev.Cycle != snaps[i].Cycle {
					t.Errorf("event %d stamped (%d, %d), snapshot (%d, %d)", i, ev.Retired, ev.Cycle, snaps[i].Retired, snaps[i].Cycle)
				}
			}
		})
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	cfg := fdpCfg("seqstream")
	cfg.MaxInsts = 60_000
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counters != b.Counters {
		t.Errorf("counters diverge:\nRun:        %+v\nRunContext: %+v", a.Counters, b.Counters)
	}
	if a.IPC != b.IPC || a.Partial || b.Partial {
		t.Errorf("IPC %v vs %v, Partial %v/%v", a.IPC, b.IPC, a.Partial, b.Partial)
	}
}

func TestRunMultiContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mc MultiConfig
	for _, w := range []string{"seqstream", "chaserand"} {
		cfg := fdpCfg(w)
		mc.Cores = append(mc.Cores, cfg)
	}
	mc.Cores[0].Progress = func(s Snapshot) { cancel() }

	res, err := RunMultiContext(ctx, mc)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled multicore run: err = %v", err)
	}
	if !res.Partial {
		t.Error("multicore result not marked Partial")
	}
	for i, c := range res.Cores {
		if !c.Partial {
			t.Errorf("core %d not marked Partial", i)
		}
		if c.Counters.Retired >= mc.Cores[i].MaxInsts {
			t.Errorf("core %d retired %d, reached target despite cancellation", i, c.Counters.Retired)
		}
	}
}

func TestRunSMTContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	base := fdpCfg("seqstream")
	base.Progress = func(s Snapshot) { cancel() }
	smt := SMTConfig{Base: base, Workloads: []string{"seqstream", "chaserand"}}

	res, err := RunSMTContext(ctx, smt)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled SMT run: err = %v", err)
	}
	if !res.Partial {
		t.Error("SMT result not marked Partial")
	}
}
