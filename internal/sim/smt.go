package sim

import (
	"context"
	"errors"
	"fmt"

	"fdpsim/internal/cpu"
	"fdpsim/internal/stats"
)

// SMTConfig describes threads sharing one cache hierarchy — the "many
// threads sharing the same L2" setting of the paper's Section 4.3, which
// recommends reducing the pollution thresholds under such contention. All
// threads share the L2, MSHRs, prefetcher and one FDP engine (whose
// feedback then reflects the combined access stream); each thread has its
// own architectural core.
type SMTConfig struct {
	// Base carries the shared hierarchy, prefetcher and FDP parameters;
	// its Workload field is ignored.
	Base Config
	// Workloads names one workload per hardware thread.
	Workloads []string
	// Sources optionally provides one micro-op source per thread instead
	// of instantiating Workloads[i] by name; Workloads then only labels
	// the threads. When set, its length must equal len(Workloads) and the
	// sources are attached as-is — address-space disjointness is the
	// provider's concern (see RunSpecSMTContext).
	Sources []cpu.Source
}

// ThreadResult is one thread's outcome in an SMT run.
type ThreadResult struct {
	Workload string
	Retired  uint64
	// FinishCycle is when the thread hit the retire target; IPC is
	// computed against it.
	FinishCycle uint64
	IPC         float64
}

// SMTResult aggregates an SMT run. The cache-hierarchy counters are
// shared, so bandwidth and prefetch metrics are reported once.
type SMTResult struct {
	Threads  []ThreadResult
	Counters stats.Counters
	Cycles   uint64
	// BPKI is shared bus accesses per 1000 instructions summed over all
	// threads.
	BPKI       float64
	Accuracy   float64
	Pollution  float64
	FinalLevel int
	// Partial marks a cancelled run; threads that had not reached the
	// retire target carry an IPC measured at the stop cycle.
	Partial bool
	// Engine is the cycle loop's telemetry. Not encoded.
	Engine EngineStats `json:"-"`
}

// AggregateIPC returns the sum of per-thread IPCs.
func (r *SMTResult) AggregateIPC() float64 {
	var s float64
	for i := range r.Threads {
		s += r.Threads[i].IPC
	}
	return s
}

// offsetSource relocates a workload into a private address space.
type offsetSource struct {
	src  cpu.Source
	base uint64
}

// Name implements cpu.Source.
func (o *offsetSource) Name() string { return o.src.Name() }

// Next implements cpu.Source.
func (o *offsetSource) Next() cpu.MicroOp {
	op := o.src.Next()
	if op.Kind != cpu.Nop {
		op.Addr += o.base
	}
	if op.PC != 0 {
		op.PC += o.base
	}
	return op
}

// RunSMT executes threads over one shared hierarchy until every thread
// has retired Base.MaxInsts instructions. Threads that finish keep
// running (preserving contention); their IPC is fixed at the finish line.
// Base.WarmupInsts is not supported in this mode.
func RunSMT(cfg SMTConfig) (SMTResult, error) {
	return RunSMTContext(context.Background(), cfg)
}

// RunSMTContext is RunSMT under a context: cancellation and deadlines
// stop every thread at a retire boundary and return the partial SMTResult
// together with a *CancelError. Base.Progress streams the shared FDP
// engine's per-interval snapshots (whose feedback reflects the combined
// access stream of all threads); their Retired and Target sum over the
// threads.
func RunSMTContext(ctx context.Context, cfg SMTConfig) (SMTResult, error) {
	if len(cfg.Workloads) == 0 {
		return SMTResult{}, fmt.Errorf("%w: SMT run needs at least one thread", ErrInvalidConfig)
	}
	if cfg.Sources != nil && len(cfg.Sources) != len(cfg.Workloads) {
		return SMTResult{}, fmt.Errorf("%w: %d sources for %d threads", ErrInvalidConfig, len(cfg.Sources), len(cfg.Workloads))
	}
	base := cfg.Base
	base.Workload = cfg.Workloads[0] // satisfy validation; sources are per-thread
	if err := base.Validate(); err != nil {
		return SMTResult{}, err
	}
	if base.WarmupInsts != 0 {
		return SMTResult{}, fmt.Errorf("%w: WarmupInsts is not supported in SMT mode", ErrInvalidConfig)
	}

	e := newEngine(base.DRAM, true, max(base.MaxInsts*2000, 50_000_000))
	nd := e.addNode(&base)
	for i, w := range cfg.Workloads {
		src, err := laneSource(i, w, base.Seed, cfg.Sources)
		if err != nil {
			return SMTResult{}, err
		}
		e.addLane(nd, src)
	}
	err := e.run(ctx)
	if err != nil && !errors.Is(err, ErrCancelled) {
		return SMTResult{}, err
	}
	// The hierarchy counters are shared, so the result reports them once,
	// with the threads' retirements summed.
	ctr := nd.ctr
	ctr.Retired, ctr.Cycles = nd.snap.Retired, nd.snap.Cycles
	res := SMTResult{
		Counters:   ctr,
		Cycles:     e.cycle,
		BPKI:       ctr.BPKI(),
		Accuracy:   ctr.Accuracy(),
		Pollution:  ctr.Pollution(),
		FinalLevel: nd.h.finalLevel(),
		Partial:    err != nil,
		Engine:     e.stats,
	}
	for i, l := range nd.lanes {
		res.Threads = append(res.Threads, ThreadResult{
			Workload:    cfg.Workloads[i],
			Retired:     l.retired,
			FinishCycle: l.finish,
			IPC:         float64(l.retired) / float64(l.finish),
		})
	}
	return res, err
}
