package sim

import (
	"context"
	"errors"
	"time"

	"fdpsim/internal/core"
	"fdpsim/internal/cpu"
	"fdpsim/internal/mem"
	"fdpsim/internal/stats"
	"fdpsim/internal/workload"
)

// Result is one simulation's output: raw counters plus the derived metrics
// the paper reports.
type Result struct {
	Workload   string
	Prefetcher string
	Level      int // static level, or 0 for dynamic

	Counters stats.Counters
	DRAM     mem.Stats

	IPC       float64
	BPKI      float64
	Accuracy  float64 // whole-run used/sent, as in Figure 2
	Lateness  float64 // whole-run late/used, as in Figure 3
	Pollution float64 // whole-run pollution estimate

	// LevelDist and InsertDist reproduce Figures 6 and 8 for FDP runs.
	LevelDist  *stats.Distribution
	InsertDist *stats.Distribution
	Intervals  uint64

	// History holds per-interval FDP records when Config.KeepFDPHistory
	// is set: the decision trace behind the distributions.
	History []core.IntervalRecord

	FinalLevel int

	// Partial marks a result whose run was cancelled before the retire
	// target; all metrics are valid up to the stop point.
	Partial bool
	// Elapsed is the run's wall-clock duration.
	Elapsed time.Duration

	// Attribution holds the cycle-accounting and bandwidth-attribution
	// block when Config.Attribution is set; nil (and omitted from JSON)
	// otherwise, keeping the Result shape of non-attribution runs — and
	// their golden fingerprints — unchanged.
	Attribution *stats.Attribution `json:",omitempty"`

	// Controller echoes Config.Controller: the feedback policy that drove
	// the run ("" = the built-in paper policy, identical to "fdp").
	// Omitted from JSON when empty, keeping default-run Results — and
	// their golden fingerprints — unchanged.
	Controller string `json:",omitempty"`

	// Engine is the cycle loop's telemetry; under RunMulti every core
	// reports the shared engine's. Not encoded.
	Engine EngineStats `json:"-"`
}

// Run executes one simulation to completion.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes one simulation under a context. Cancellation and
// deadlines are observed at every FDP sampling-interval boundary (and at
// least every cancelCheckStride cycles); on cancellation the core stops
// dispatch, drains in-flight instructions to a retire boundary, and the
// partial Result is returned together with a *CancelError that wraps both
// ErrCancelled and the context's cause.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	src, err := workload.New(cfg.Workload, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	return runWith(ctx, cfg, src)
}

// RunSource executes one simulation over a caller-provided micro-op source
// (used for trace replay and custom workloads).
func RunSource(cfg Config, src cpu.Source) (Result, error) {
	return RunSourceContext(context.Background(), cfg, src)
}

// RunSourceContext is RunSource under a context, with RunContext's
// cancellation, deadline and progress-streaming semantics.
func RunSourceContext(ctx context.Context, cfg Config, src cpu.Source) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	return runWith(ctx, cfg, src)
}

// runWith wires one hierarchy with one CPU in front of a private DRAM.
func runWith(ctx context.Context, cfg Config, src cpu.Source) (Result, error) {
	budget := cfg.MaxCycles
	if budget == 0 {
		// Generous default: even an IPC of 0.002 finishes.
		budget = max((cfg.MaxInsts+cfg.WarmupInsts)*500, 10_000_000)
	}
	e := newEngine(cfg.DRAM, true, budget)
	n := e.addNode(&cfg)
	l := e.addLane(n, src)
	err := e.run(ctx)
	if err != nil && !errors.Is(err, ErrCancelled) {
		return Result{}, err
	}
	res := n.result()
	res.Counters.StallFetch = l.cpu.StallFetch()
	res.DRAM = e.dram.Stats()
	return res, err
}
