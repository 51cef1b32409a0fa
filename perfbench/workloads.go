package main

import (
	"context"
	"fmt"

	"fdpsim/internal/service"
	"fdpsim/internal/sim"
	"fdpsim/internal/workload"
)

// defaultSeed is the workload seed the pin table is recorded for.
const defaultSeed = 1

// missJobs is the number of first-time service jobs per run: enough that
// at least ten samples lie beyond the p90 of their latency.
const missJobs = 110

// hitRounds is how many fresh servers resubmit the miss phase's
// fingerprints; each round serves every hit from disk.
const hitRounds = 20

// jobInsts sizes each service job.
const jobInsts = 200_000

type laneKind int

const (
	single laneKind = iota // one core, Run/RunSourceContext
	multi                  // private hierarchies on one bus, RunMulti
	smt                    // threads sharing one hierarchy, RunSMT
)

// lane is one simulation configuration a workload runs per repetition.
type lane struct {
	name string
	kind laneKind
	// cfgs holds the single-core config, one config per multicore core,
	// or the SMT base config.
	cfgs []sim.Config
	// threads names the SMT threads' workloads.
	threads []string
}

// benchWorkload is one traffic mix: simulator lanes driven directly
// through the library, and a job template submitted to fdpserved.
type benchWorkload struct {
	name  string
	why   string
	lanes func(seed uint64) []lane
	// jobKind and jobPref are the service jobs' workload and prefetcher.
	jobKind string
	jobPref sim.PrefetcherKind
}

func fdpConfig(w string, kind sim.PrefetcherKind, seed, insts, warmup uint64) sim.Config {
	cfg := sim.WithFDP(kind)
	cfg.Workload = w
	cfg.Seed = seed
	cfg.MaxInsts = insts
	cfg.WarmupInsts = warmup
	return cfg
}

func singleLanes(ws []string, kinds []sim.PrefetcherKind, seed, insts, warmup uint64) []lane {
	var out []lane
	for i, w := range ws {
		cfg := fdpConfig(w, kinds[i], seed, insts, warmup)
		out = append(out, lane{name: w + "/" + string(kinds[i]), kind: single, cfgs: []sim.Config{cfg}})
	}
	return out
}

// workloads is the benchmark's workload table. The reasons are repeated
// in README.md and BENCHMARK.json.
var workloads = []benchWorkload{
	{
		name: "memint",
		why:  "memory-bound FDP runs (IPC 0.08-0.56, ~90% idle cycles) plus 2-core RunMulti and 2-thread RunSMT on one bus; transpose/GHB jobs",
		lanes: func(seed uint64) []lane {
			lanes := singleLanes(
				[]string{"seqstream", "mixedphase", "chaserand", "transpose"},
				[]sim.PrefetcherKind{sim.PrefStream, sim.PrefStream, sim.PrefStream, sim.PrefGHB},
				seed, 1_000_000, 250_000)
			// The multicore and SMT lanes start from empty caches:
			// RunSMT rejects WarmupInsts.
			a := fdpConfig("seqstream", sim.PrefStream, seed, 500_000, 0)
			b := fdpConfig("mixedphase", sim.PrefStream, seed, 500_000, 0)
			return append(lanes,
				lane{name: "multi/seqstream+mixedphase", kind: multi, cfgs: []sim.Config{a, b}},
				lane{name: "smt/seqstream+mixedphase", kind: smt, cfgs: []sim.Config{a},
					threads: []string{"seqstream", "mixedphase"}})
		},
		jobKind: "transpose", jobPref: sim.PrefGHB,
	},
	{
		name: "cacheres",
		why:  "cache-resident runs (IPC 4.7-7.8, no FDP interval, almost no DRAM) and short cachefit jobs: CPU, workload generator, L1 and service costs show",
		lanes: func(seed uint64) []lane {
			k := sim.PrefStream
			return singleLanes(
				[]string{"tinyloop", "computebound", "cachefit", "smallrand"},
				[]sim.PrefetcherKind{k, k, k, k},
				seed, 5_000_000, 0)
		},
		jobKind: "cachefit", jobPref: sim.PrefStream,
	},
}

func findWorkload(name string) (*benchWorkload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// job returns the i-th miss-phase job of a run with the given seed. Job
// seeds start far above any lane seed so each run's fingerprints are new.
func (w *benchWorkload) job(seed uint64, i int) service.JobRequest {
	return service.JobRequest{
		Workload:   w.jobKind,
		Prefetcher: string(w.jobPref),
		FDP:        true,
		Insts:      jobInsts,
		Seed:       seed*1_000_000 + uint64(i),
		Series:     true,
	}
}

// insts is the number of instructions the host simulates for the lane:
// every core's or thread's retire target, warmup included.
func (l lane) insts() uint64 {
	var n uint64
	switch l.kind {
	case smt:
		n = uint64(len(l.threads)) * l.cfgs[0].MaxInsts
	default:
		for _, c := range l.cfgs {
			n += c.MaxInsts + c.WarmupInsts
		}
	}
	return n
}

// tiny returns the lane cut down to a one-instruction run: the set-up
// cost (hierarchy, caches, DRAM and prefetcher allocation) without the
// simulation.
func (l lane) tiny() lane {
	t := l
	t.cfgs = append([]sim.Config(nil), l.cfgs...)
	for i := range t.cfgs {
		t.cfgs[i].MaxInsts = 1
		t.cfgs[i].WarmupInsts = 0
	}
	return t
}

// laneOut is what a lane run yields besides its digest.
type laneOut struct {
	results []sim.Result   // single-core result, or every multicore core
	smt     *sim.SMTResult // SMT runs only
	cycles  uint64         // simulated cycles of the whole lane
}

// run executes the lane once and digests its result. With a tracer the
// run goes through the instrumented seams; the digest is normalised so
// it must equal the plain run's.
func (l lane) run(tr *tracer) (string, laneOut, error) {
	ctx := context.Background()
	switch l.kind {
	case single:
		cfg := l.cfgs[0]
		label := cfg.Prefetcher
		var res sim.Result
		var err error
		if tr == nil {
			res, err = sim.RunContext(ctx, cfg)
		} else {
			src, serr := workload.New(cfg.Workload, cfg.Seed)
			if serr != nil {
				return "", laneOut{}, serr
			}
			tr.instrument(&cfg, true)
			res, err = sim.RunSourceContext(ctx, cfg, tr.source(src))
		}
		if err != nil {
			return "", laneOut{}, fmt.Errorf("%s: %w", l.name, err)
		}
		d, err := resultDigest(res, label)
		return d, laneOut{results: []sim.Result{res}, cycles: res.Counters.Cycles}, err
	case multi:
		mc := sim.MultiConfig{Cores: append([]sim.Config(nil), l.cfgs...)}
		labels := make([]sim.PrefetcherKind, len(mc.Cores))
		for i := range mc.Cores {
			labels[i] = mc.Cores[i].Prefetcher
			if tr != nil {
				tr.instrument(&mc.Cores[i], true)
			}
		}
		res, err := sim.RunMultiContext(ctx, mc)
		if err != nil {
			return "", laneOut{}, fmt.Errorf("%s: %w", l.name, err)
		}
		out := laneOut{cycles: res.Cycles}
		for _, c := range res.Cores {
			out.results = append(out.results, c.Result)
		}
		d, err := multiDigest(res, labels)
		return d, out, err
	default:
		sc := sim.SMTConfig{Base: l.cfgs[0], Workloads: l.threads}
		if tr != nil {
			// RunSMT reports no attribution block, so none is asked for.
			tr.instrument(&sc.Base, false)
		}
		res, err := sim.RunSMTContext(ctx, sc)
		if err != nil {
			return "", laneOut{}, fmt.Errorf("%s: %w", l.name, err)
		}
		d, err := digestJSON(res)
		return d, laneOut{smt: &res, cycles: res.Cycles}, err
	}
}
