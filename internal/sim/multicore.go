package sim

import (
	"context"
	"errors"
	"fmt"

	"fdpsim/internal/cpu"
)

// MultiConfig describes a chip multiprocessor run: several cores, each
// with a private L1/L2, prefetcher and FDP engine, contending for one
// shared memory bus — the setting the paper's introduction argues makes
// bandwidth-efficient prefetching "more desirable and valuable in future
// processors". The shared DRAM takes its parameters from Cores[0].
type MultiConfig struct {
	Cores []Config
	// Sources optionally provides one micro-op source per core instead of
	// instantiating Cores[i].Workload by name. When set, its length must
	// equal len(Cores) and the sources are attached as-is — address-space
	// disjointness is the provider's concern (WorkloadSpec lanes give every
	// client a private window; see RunSpecMultiContext).
	Sources []cpu.Source
}

// CoreResult is one core's outcome within a multi-core run. Statistics
// are snapshotted the moment the core reaches its retire target, so later
// contention from still-running cores does not dilute them.
type CoreResult struct {
	Result
	// FinishCycle is the cycle at which the core hit its retire target
	// (or, for a Partial core, the cycle the run was cancelled).
	FinishCycle uint64
}

// MultiResult aggregates a multi-core run.
type MultiResult struct {
	Cores []CoreResult
	// Cycles is the cycle at which the last core finished.
	Cycles uint64
	// TotalBusAccesses counts all bus transactions over the full run.
	TotalBusAccesses uint64
	// Partial marks a cancelled run; cores that had not reached their
	// retire target carry Partial results snapshotted at the stop cycle.
	Partial bool
	// Engine is the cycle loop's telemetry. Not encoded.
	Engine EngineStats `json:"-"`
}

// AggregateIPC returns the sum of per-core IPCs (system throughput).
func (m *MultiResult) AggregateIPC() float64 {
	var s float64
	for i := range m.Cores {
		s += m.Cores[i].IPC
	}
	return s
}

// RunMulti executes a multi-core simulation. Every core runs until it has
// retired its MaxInsts; cores that finish early keep executing (so the
// bus contention seen by laggards stays realistic) but their statistics
// are frozen at the finish line.
func RunMulti(mc MultiConfig) (MultiResult, error) {
	return RunMultiContext(context.Background(), mc)
}

// RunMultiContext is RunMulti under a context: cancellation and deadlines
// stop all cores at a retire boundary and return the partial MultiResult
// together with a *CancelError. Each core's Config.Progress streams that
// core's per-interval snapshots (Snapshot.Core identifies the emitter).
func RunMultiContext(ctx context.Context, mc MultiConfig) (MultiResult, error) {
	n := len(mc.Cores)
	if n == 0 {
		return MultiResult{}, fmt.Errorf("%w: multi-core run needs at least one core", ErrInvalidConfig)
	}
	if mc.Sources != nil && len(mc.Sources) != n {
		return MultiResult{}, fmt.Errorf("%w: %d sources for %d cores", ErrInvalidConfig, len(mc.Sources), n)
	}
	for i := range mc.Cores {
		if err := mc.Cores[i].Validate(); err != nil {
			return MultiResult{}, fmt.Errorf("core %d: %w", i, err)
		}
	}

	budget := uint64(50_000_000)
	for i := range mc.Cores {
		budget = max(budget, (mc.Cores[i].MaxInsts+mc.Cores[i].WarmupInsts)*1000)
	}
	e := newEngine(mc.Cores[0].DRAM, false, budget)
	for i := range mc.Cores {
		cfg := mc.Cores[i] // copy
		src, err := laneSource(i, cfg.Workload, cfg.Seed, mc.Sources)
		if err != nil {
			return MultiResult{}, err
		}
		nd := e.addNode(&cfg)
		// RunMulti ends warmup on the first cycle even with WarmupInsts ==
		// 0, discarding that cycle's statistics; perfbench's pinned multi
		// lane digest depends on it.
		nd.warmed = false
		e.addLane(nd, src)
	}
	err := e.run(ctx)
	if err != nil && !errors.Is(err, ErrCancelled) {
		return MultiResult{}, err
	}
	res := MultiResult{Cycles: e.cycle, Partial: err != nil, Engine: e.stats}
	for _, nd := range e.nodes {
		// Cycle accounting and prefetch timeliness are per-core; the
		// bus/queue/row telemetry inside reflects the shared DRAM, so
		// every core reports the same chip-wide memory pressure.
		res.Cores = append(res.Cores, CoreResult{Result: nd.result(), FinishCycle: nd.lanes[0].finish})
		res.TotalBusAccesses += nd.ctr.BusAccesses()
	}
	return res, err
}
