package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"fdpsim/internal/cache"
	"fdpsim/internal/cpu"
	"fdpsim/internal/mem"
	"fdpsim/internal/prefetch"
	"fdpsim/internal/series"
	"fdpsim/internal/sim"
	"fdpsim/internal/store"
	"fdpsim/internal/workload"
)

// Capture limits for the streams the component replays re-drive.
const (
	maxL2Refs     = 1 << 20
	maxMissRefs   = 1 << 17
	maxReplayOps  = 1_000_000
	timerLoopRuns = 1 << 20
	timerBlock    = 1 << 10
)

// sampleEvery is the seam timing rate: one call in sampleEvery is timed
// and stands for the rest. Timing every call would add two clock reads
// to each of tens of millions of calls and dwarf the cost measured.
const sampleEvery = 16

// tracer instruments the simulator's public seams for one traced pass:
// the workload source (single-core runs only; the multicore and SMT
// runners relocate named sources privately, so those stay untimed), the
// prefetcher (wrapped behind PrefCustom around the constructor the engine
// itself uses) and the FDP decision stream (sim.Tracer).
type tracer struct {
	nextCalls uint64
	nextNS    int64 // over sampled calls
	obsCalls  uint64
	obsNS     int64 // over sampled calls
	cands     uint64

	lane    int
	events  [][]sim.DecisionEvent // per lane
	streams []*l2Stream
}

// l2Stream is the demand stream one prefetcher instance observed at its
// L2, and the subset that missed.
type l2Stream struct {
	cfg    sim.Config
	demand []uint64
	misses []uint64
}

func (t *tracer) beginLane() {
	t.lane = len(t.events)
	t.events = append(t.events, nil)
}

// TraceDecision implements sim.Tracer.
func (t *tracer) TraceDecision(ev sim.DecisionEvent) {
	t.events[t.lane] = append(t.events[t.lane], ev)
}

// instrument rewires cfg onto the timed seams.
func (t *tracer) instrument(cfg *sim.Config, attribution bool) {
	var inner prefetch.Prefetcher
	switch cfg.Prefetcher {
	case sim.PrefStream:
		p := prefetch.NewStream(cfg.StreamEntries)
		p.SetPerStreamRamp(cfg.PerStreamRamp)
		inner = p
	case sim.PrefGHB:
		inner = prefetch.NewGHB(256, 256, 1024)
	default:
		panic("perfbench: no traced constructor for prefetcher " + string(cfg.Prefetcher))
	}
	st := &l2Stream{cfg: *cfg}
	t.streams = append(t.streams, st)
	cfg.Prefetcher = sim.PrefCustom
	cfg.Custom = &timedPrefetcher{Prefetcher: inner, t: t, st: st}
	cfg.Tracer = t
	cfg.Attribution = attribution
}

func (t *tracer) source(src cpu.Source) cpu.Source { return &timedSource{Source: src, t: t} }

type timedSource struct {
	cpu.Source
	t *tracer
}

// Next implements cpu.Source.
func (s *timedSource) Next() cpu.MicroOp {
	s.t.nextCalls++
	if s.t.nextCalls%sampleEvery != 0 {
		return s.Source.Next()
	}
	t0 := time.Now()
	op := s.Source.Next()
	s.t.nextNS += int64(time.Since(t0))
	return op
}

type timedPrefetcher struct {
	prefetch.Prefetcher
	t  *tracer
	st *l2Stream
}

// Observe implements prefetch.Prefetcher.
func (p *timedPrefetcher) Observe(ev *prefetch.Event, out []uint64) []uint64 {
	if len(p.st.demand) < maxL2Refs {
		p.st.demand = append(p.st.demand, ev.Block)
	}
	if ev.Miss && len(p.st.misses) < maxMissRefs {
		p.st.misses = append(p.st.misses, ev.Block)
	}
	n := len(out)
	p.t.obsCalls++
	if p.t.obsCalls%sampleEvery != 0 {
		out = p.Prefetcher.Observe(ev, out)
	} else {
		t0 := time.Now()
		out = p.Prefetcher.Observe(ev, out)
		p.t.obsNS += int64(time.Since(t0))
	}
	p.t.cands += uint64(len(out) - n)
	return out
}

// timerCost is the cost of one empty timed region, subtracted from every
// sampled seam call: the median over blocks of timerBlock regions, so a
// preempted block does not inflate it.
func timerCost() float64 {
	var blocks []float64
	for range timerLoopRuns / timerBlock {
		var sum int64
		for range timerBlock {
			t0 := time.Now()
			sum += int64(time.Since(t0))
		}
		blocks = append(blocks, float64(sum)/timerBlock)
	}
	return median(blocks)
}

// seamNS estimates a seam's total time from its sampled calls, with the
// timer cost of each sampled call removed.
func seamNS(sampled int64, calls uint64, cost float64) float64 {
	n := calls / sampleEvery
	if n == 0 {
		return 0
	}
	return max(float64(sampled)-cost*float64(n), 0) * float64(calls) / float64(n)
}

// spanLog keeps the traced run's spans in memory; they are written out
// once when the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// end closes a span opened with add(name, parent, start, start).
func (l *spanLog) end(id int, t time.Time) { l.spans[id-1].End = int64(t.Sub(l.t0)) }

func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0))})
	return id
}

// simAgg sums the simulated statistics of a pass's lanes.
type simAgg struct {
	cycles, retired, bus                uint64
	l1acc, l1miss, l2acc, l2miss        uint64
	sent, used, late, demMiss, pollHits uint64
	intervals, rowHits, rowMisses       uint64
	attrCycles, memStall, robFull       uint64
	mshrWeighted                        float64
	transfer                            uint64
}

func (a *simAgg) counters(res *sim.Result) {
	c := &res.Counters
	a.bus += c.BusAccesses()
	a.l1acc += c.L1Accesses
	a.l1miss += c.L1Misses
	a.l2acc += c.L2DemandAccesses
	a.l2miss += c.L2DemandMisses
	a.sent += c.PrefSent
	a.used += c.PrefUsed
	a.late += c.PrefLate
	a.demMiss += c.DemandMisses
	a.pollHits += c.PollutionHits
	a.intervals += res.Intervals
	if at := res.Attribution; at != nil {
		t := at.Cycles.Total()
		a.attrCycles += t
		a.memStall += at.Cycles.StallLoadMiss + at.Cycles.StallDRAMBP
		a.robFull += at.Cycles.StallROBFull
		a.mshrWeighted += at.MSHROcc.Mean() * float64(t)
	}
}

func (a *simAgg) add(l lane, o laneOut) {
	a.cycles += o.cycles
	a.transfer = l.cfgs[0].DRAM.Transfer
	for i := range o.results {
		r := &o.results[i]
		a.counters(r)
		a.retired += r.Counters.Retired
	}
	switch {
	case o.smt != nil:
		c := o.smt.Counters
		a.counters(&sim.Result{Counters: c, Intervals: c.Intervals})
		for _, th := range o.smt.Threads {
			a.retired += th.Retired
		}
	case l.kind == single:
		a.rowHits += o.results[0].DRAM.RowHits
		a.rowMisses += o.results[0].DRAM.RowMisses
	case l.kind == multi:
		// Every core reports the one shared DRAM's row outcomes.
		if at := o.results[0].Attribution; at != nil {
			a.rowHits += at.RowHits
			a.rowMisses += at.RowMisses
		}
	}
}

// traced is the per-layer run: an untraced pass and a traced, profiled
// pass over the same lanes (their wall-time ratio is the tracing
// overhead), a traced service round, then component replays of the
// streams the traced pass captured.
func traced(w *benchWorkload, seed uint64, runDir, outDir string, m machine) (report, error) {
	rep := report{Metrics: map[string]metric{}}
	add := func(name, unit string, v float64) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	lanes := w.lanes(seed)
	check, err := newLaneChecker(w, seed)
	if err != nil {
		return rep, err
	}
	want, err := jobPins(w, seed)
	if err != nil {
		return rep, err
	}
	timer := timerCost()
	logf("clock read pair costs %.1f ns", timer)
	log := &spanLog{t0: time.Now()}
	root := 0

	// Untraced pass.
	pStart := time.Now()
	untracedPass := log.add("untraced-pass", root, pStart, pStart)
	plain := make([]string, len(lanes))
	var plainCycles uint64
	for i, l := range lanes {
		start := time.Now()
		rep.Attempted++
		d, o, err := l.run(nil)
		if err != nil {
			logf("%v", err)
			rep.Failed++
			continue
		}
		log.add("lane "+l.name, untracedPass, start, time.Now())
		if !check.check(l, d) {
			rep.Failed++
		}
		plain[i] = d
		plainCycles += o.cycles
	}
	pEnd := time.Now()
	log.end(untracedPass, pEnd)
	untracedWall := pEnd.Sub(pStart)

	// Traced, profiled pass and service round.
	profPath := filepath.Join(runDir, "cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return rep, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return rep, err
	}
	tr := &tracer{}
	var agg simAgg
	tStart := time.Now()
	tracedPass := log.add("traced-pass", root, tStart, tStart)
	for i, l := range lanes {
		tr.beginLane()
		start := time.Now()
		rep.Attempted++
		d, o, err := l.run(tr)
		if err != nil {
			logf("traced %v", err)
			rep.Failed++
			continue
		}
		log.add("lane "+l.name, tracedPass, start, time.Now())
		if d != plain[i] {
			logf("traced lane %s digest %s, untraced %s", l.name, d, plain[i])
			rep.Failed++
		}
		agg.add(l, o)
	}
	tEnd := time.Now()
	log.end(tracedPass, tEnd)
	tracedWall := tEnd.Sub(tStart)

	svcStart := time.Now()
	storeDir := filepath.Join(runDir, "store")
	round, err := newServiceRound(storeDir, w, seed, want, true)
	if err == nil {
		err = round.finish()
		round.close()
	}
	pprof.StopCPUProfile()
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return rep, err
	}
	printJobDigest(w, round)
	rep.Attempted += round.attempted()
	rep.Failed += round.failed()
	svcSpan := log.add("service-round", root, svcStart, time.Now())
	svc := serviceSpans(log, svcSpan, round)

	// Simulated statistics (exact) and host time per layer.
	tracedNS := float64(tracedWall)
	nextNS := seamNS(tr.nextNS, tr.nextCalls, timer)
	obsNS := seamNS(tr.obsNS, tr.obsCalls, timer)
	add("sim.cycles", "cycles", float64(agg.cycles))
	add("sim.ipc", "insts/cycle", ratio(float64(agg.retired), float64(agg.cycles)))
	add("sim.bpki", "bus/kinst", ratio(1000*float64(agg.bus), float64(agg.retired)))
	add("sim.host_ns_per_cycle", "ns", ratio(float64(untracedWall), float64(plainCycles)))
	add("sim.self_share", "share", ratio(tracedNS-nextNS-obsNS, tracedNS))
	add("workload.next_calls", "count", float64(tr.nextCalls))
	add("workload.next_ns", "ns", ratio(nextNS, float64(tr.nextCalls)))
	add("workload.share", "share", ratio(nextNS, tracedNS))
	add("prefetch.observe_calls", "count", float64(tr.obsCalls))
	add("prefetch.observe_ns", "ns", ratio(obsNS, float64(tr.obsCalls)))
	add("prefetch.candidates_per_call", "count", ratio(float64(tr.cands), float64(tr.obsCalls)))
	add("prefetch.share", "share", ratio(obsNS, tracedNS))
	add("prefetch.accuracy", "share", ratio(float64(agg.used), float64(agg.sent)))
	add("prefetch.lateness", "share", ratio(float64(agg.late), float64(agg.used)))
	add("cpu.mem_stall_share", "share", ratio(float64(agg.memStall), float64(agg.attrCycles)))
	add("cpu.rob_full_share", "share", ratio(float64(agg.robFull), float64(agg.attrCycles)))
	add("cache.l1_miss_ratio", "share", ratio(float64(agg.l1miss), float64(agg.l1acc)))
	add("cache.l2_miss_ratio", "share", ratio(float64(agg.l2miss), float64(agg.l2acc)))
	add("cache.mshr_occupancy", "entries", ratio(agg.mshrWeighted, float64(agg.attrCycles)))
	add("mem.requests", "count", float64(agg.bus))
	add("mem.row_hit_ratio", "share", ratio(float64(agg.rowHits), float64(agg.rowHits+agg.rowMisses)))
	add("mem.bus_util", "share", ratio(float64(agg.bus*agg.transfer), float64(agg.cycles)))
	add("core.intervals", "count", float64(agg.intervals))
	var changes uint64
	for _, evs := range tr.events {
		for _, ev := range evs {
			if ev.DCCBefore != ev.DCCAfter {
				changes++
			}
		}
	}
	add("core.level_changes", "count", float64(changes))
	add("core.pollution", "share", ratio(float64(agg.pollHits), float64(agg.demMiss)))
	add("trace.overhead_share", "share", ratio(float64(tracedWall-untracedWall), float64(untracedWall)))
	for k, v := range svc {
		add(k, "ms", v)
	}
	add("service.executions", "count", float64(round.executions))

	// Component replays, outside the profile.
	rStart := time.Now()
	replays := log.add("replays", root, rStart, rStart)
	cpuNS, l1NS := replayCPUAndL1(log, replays, lanes)
	add("cpu.tick_ns", "ns", cpuNS)
	add("cache.l1_access_ns", "ns", l1NS)
	l2NS, memTickNS, memReqNS := replayL2AndMem(log, replays, tr.streams)
	add("cache.l2_access_ns", "ns", l2NS)
	add("mem.tick_ns", "ns", memTickNS)
	add("mem.ns_per_request", "ns", memReqNS)
	log.end(replays, time.Now())

	failed, err := seriesAndStore(add, log, root, tr.events, round, storeDir, filepath.Join(runDir, "store-replay"))
	if err != nil {
		return rep, err
	}
	rep.Failed += failed

	pStart = time.Now()
	shares, err := profileShares(profPath)
	if err != nil {
		return rep, err
	}
	log.add("pprof", root, pStart, time.Now())
	for _, layer := range profLayers {
		add("prof."+layer+"_share", "share", shares[layer])
	}

	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	raw, err := json.Marshal(struct {
		Machine machine `json:"machine"`
		Spans   []span  `json:"spans"`
	}{m, log.spans})
	if err != nil {
		return rep, err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return rep, err
	}
	logf("wrote %d spans to %s", len(log.spans), path)
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// serviceSpans copies the miss jobs' fabric spans (from Job.Spans) under
// client-side job spans and returns the median per-stage times in ms.
func serviceSpans(log *spanLog, parent int, r *svcRound) map[string]float64 {
	stages := map[string][]float64{}
	var post []float64
	for i, o := range r.miss.out {
		if r.miss.digests[i] == "" {
			continue
		}
		post = append(post, float64(o.post)/float64(time.Millisecond))
		var jobStart time.Time
		for _, sp := range r.spans[i] {
			if sp.Name == "job" {
				jobStart = sp.Start
			}
		}
		if jobStart.IsZero() {
			continue
		}
		job := log.add("job "+o.status.ID, parent, jobStart, jobStart.Add(o.total))
		for _, sp := range r.spans[i] {
			if sp.Name == "job" {
				continue
			}
			log.add("service."+sp.Name, job, sp.Start, sp.End)
			stages[sp.Name] = append(stages[sp.Name], float64(sp.End.Sub(sp.Start))/float64(time.Millisecond))
		}
	}
	return map[string]float64{
		"service.post_ms":  median(post),
		"service.queue_ms": median(stages["queue"]),
		"service.claim_ms": median(stages["claim"]),
		"service.run_ms":   median(stages["run"]),
		"service.store_ms": median(stages["store"]),
	}
}

// replayCPUAndL1 drives cpu.New/Tick/CompleteLoad over each lane
// workload's micro-op stream with a fixed L1-latency memory, then replays
// that stream's data addresses into an L1-geometry cache. It returns ns
// per core tick and ns per L1 access.
func replayCPUAndL1(log *spanLog, parent int, lanes []lane) (tickNS, l1NS float64) {
	var ticks, accesses uint64
	var cpuTime, l1Time time.Duration
	for _, l := range lanes {
		for _, src := range l.sources() {
			ops := min(src.cfg.MaxInsts+src.cfg.WarmupInsts, maxReplayOps)
			start := time.Now()
			n, d := replayCPU(src.cfg, src.name, ops)
			log.add("replay.cpu "+src.name, parent, start, time.Now())
			ticks += n
			cpuTime += d
			start = time.Now()
			n, d = replayL1(src.cfg, src.name, ops)
			log.add("replay.l1 "+src.name, parent, start, time.Now())
			accesses += n
			l1Time += d
		}
	}
	return ratio(float64(cpuTime), float64(ticks)), ratio(float64(l1Time), float64(accesses))
}

// laneSource is one core's or thread's workload within a lane.
type laneSource struct {
	cfg  sim.Config
	name string
}

func (l lane) sources() []laneSource {
	var out []laneSource
	if l.kind == smt {
		for _, t := range l.threads {
			out = append(out, laneSource{l.cfgs[0], t})
		}
		return out
	}
	for _, c := range l.cfgs {
		out = append(out, laneSource{c, c.Workload})
	}
	return out
}

// replayCPU retires ops instructions of a fresh source on a bare core
// whose loads all complete after the L1 latency.
func replayCPU(cfg sim.Config, name string, ops uint64) (uint64, time.Duration) {
	src, err := workload.New(name, cfg.Seed)
	if err != nil {
		panic(err) // the lane already ran this workload
	}
	type load struct {
		due uint64
		rob int32
		seq uint64
	}
	var pending []load
	head := 0
	var cycle uint64
	c := cpu.New(cfg.CPU, src, func(_, _ uint64, _ bool, rob int32, seq uint64) {
		if rob >= 0 {
			pending = append(pending, load{due: cycle + cfg.L1Latency, rob: rob, seq: seq})
		}
	})
	start := time.Now()
	for c.Retired() < ops {
		cycle++
		for head < len(pending) && pending[head].due <= cycle {
			c.CompleteLoad(pending[head].rob, pending[head].seq)
			head++
		}
		if head == len(pending) {
			pending, head = pending[:0], 0
		}
		c.Tick()
	}
	return cycle, time.Since(start)
}

// replayL1 replays the data addresses of a fresh source's first ops
// micro-ops into an L1-geometry cache.
func replayL1(cfg sim.Config, name string, ops uint64) (uint64, time.Duration) {
	src, err := workload.New(name, cfg.Seed)
	if err != nil {
		panic(err)
	}
	type ref struct {
		block uint64
		store bool
	}
	var refs []ref
	for range ops {
		op := src.Next()
		if op.Kind == cpu.Load || op.Kind == cpu.Store {
			refs = append(refs, ref{op.Addr >> cfg.BlockShift, op.Kind == cpu.Store})
		}
	}
	c := cache.New("L1D", cfg.L1Blocks, cfg.L1Ways)
	start := time.Now()
	for _, r := range refs {
		if b := c.Access(r.block); b != nil {
			b.Dirty = b.Dirty || r.store
		} else {
			c.Insert(r.block, cache.PosMRU, false, r.store)
		}
	}
	return uint64(len(refs)), time.Since(start)
}

// replayL2AndMem replays each captured L2 demand stream into an
// L2-geometry cache, and each captured L2-miss stream through a fresh
// DRAM model as demand reads (one enqueue per cycle when the queue has
// room). It returns ns per L2 access, per DRAM tick and per request.
func replayL2AndMem(log *spanLog, parent int, streams []*l2Stream) (l2NS, tickNS, reqNS float64) {
	var l2n, ticks, reqs uint64
	var l2t, memt time.Duration
	for _, st := range streams {
		cfg := st.cfg
		start := time.Now()
		c := cache.New("L2", cfg.L2Blocks, cfg.L2Ways)
		for _, b := range st.demand {
			if c.Access(b) == nil {
				c.Insert(b, cache.PosMRU, false, false)
			}
		}
		end := time.Now()
		log.add("replay.l2", parent, start, end)
		l2t += end.Sub(start)
		l2n += uint64(len(st.demand))

		if len(st.misses) == 0 {
			continue
		}
		d := mem.New(cfg.DRAM)
		done := 0
		onDone := func(*mem.Request) { done++ }
		var cycle uint64
		next := 0
		start = time.Now()
		for done < len(st.misses) {
			cycle++
			if next < len(st.misses) && d.CanEnqueue(mem.Demand) {
				r := d.Acquire()
				r.Block, r.Kind, r.Done = st.misses[next], mem.Demand, onDone
				d.Enqueue(r, cycle)
				next++
			}
			d.Tick(cycle)
		}
		end = time.Now()
		log.add("replay.mem", parent, start, end)
		memt += end.Sub(start)
		ticks += cycle
		reqs += uint64(len(st.misses))
	}
	return ratio(float64(l2t), float64(l2n)), ratio(float64(memt), float64(ticks)), ratio(float64(memt), float64(reqs))
}

// seriesAndStore times the series recorder on the traced pass's decision
// events, the series codec on the service round's stored sidecars, and
// the store's Put/Get on the round's results in a fresh directory (gets
// from a freshly opened store, so every read is served from disk).
func seriesAndStore(set func(name, unit string, v float64), log *spanLog, parent int,
	events [][]sim.DecisionEvent, r *svcRound, roundDir, dir string) (failed int, err error) {

	start := time.Now()
	var recNS time.Duration
	var recs int
	for _, evs := range events {
		byCore := map[int][]sim.DecisionEvent{}
		for _, ev := range evs {
			byCore[ev.Core] = append(byCore[ev.Core], ev)
		}
		for core, evs := range byCore {
			rec := &series.Recorder{Core: core}
			rec.Reserve(len(evs))
			t0 := time.Now()
			for _, ev := range evs {
				rec.TraceDecision(ev)
			}
			recNS += time.Since(t0)
			recs += len(evs)
		}
	}
	set("series.record_ns", "ns", ratio(float64(recNS), float64(recs)))

	src, err := store.Open(roundDir)
	if err != nil {
		return failed, err
	}
	var docs [][]byte
	var fps []string
	var results []sim.Result
	var encNS, decNS time.Duration
	var nbytes int
	for i, o := range r.miss.out {
		if r.miss.digests[i] == "" {
			continue
		}
		fp := o.status.Fingerprint
		doc, ok := src.GetSeries(fp)
		if !ok {
			logf("no series sidecar for job %d", i)
			failed++
			continue
		}
		t0 := time.Now()
		s, err := series.Decode(doc)
		decNS += time.Since(t0)
		if err != nil {
			return failed, err
		}
		t0 = time.Now()
		again, err := series.Encode(s)
		encNS += time.Since(t0)
		if err != nil {
			return failed, err
		}
		if !bytes.Equal(again, doc) {
			logf("series sidecar for job %d does not re-encode to itself", i)
			failed++
		}
		docs = append(docs, doc)
		fps = append(fps, fp)
		results = append(results, *o.status.Result)
		nbytes += len(doc)
	}
	n := float64(len(docs))
	set("series.encode_ns", "ns", ratio(float64(encNS), n))
	set("series.decode_ns", "ns", ratio(float64(decNS), n))
	set("series.bytes", "bytes", ratio(float64(nbytes), n))
	log.add("series", parent, start, time.Now())

	start = time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return failed, err
	}
	var put, putSeries, get, getSeries []float64
	msSince := func(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }
	for i, fp := range fps {
		t0 := time.Now()
		if err := st.Put(fp, results[i]); err != nil {
			return failed, err
		}
		put = append(put, msSince(t0))
		t0 = time.Now()
		if err := st.PutSeries(fp, docs[i]); err != nil {
			return failed, err
		}
		putSeries = append(putSeries, msSince(t0))
	}
	fresh, err := store.Open(dir)
	if err != nil {
		return failed, err
	}
	for i, fp := range fps {
		t0 := time.Now()
		res, ok := fresh.Get(fp)
		get = append(get, msSince(t0))
		t0 = time.Now()
		doc, sok := fresh.GetSeries(fp)
		getSeries = append(getSeries, msSince(t0))
		if !ok || !sok || !bytes.Equal(doc, docs[i]) {
			logf("store round trip lost job %d", i)
			failed++
			continue
		}
		a, _ := resultDigest(res, "")
		b, _ := resultDigest(results[i], "")
		if a != b {
			logf("store round trip changed job %d's result", i)
			failed++
		}
	}
	set("store.put_ms", "ms", median(put))
	set("store.put_series_ms", "ms", median(putSeries))
	set("store.get_ms", "ms", median(get))
	set("store.get_series_ms", "ms", median(getSeries))
	log.add("store", parent, start, time.Now())
	return failed, nil
}

// profLayers are the modules a profile's host CPU is grouped into;
// "other" is the runtime, the standard library and the benchmark itself.
var profLayers = []string{"sim", "workload", "cpu", "cache", "mem", "prefetch", "core", "series", "store", "service", "other"}

// layerOf maps a profiled function to its module.
func layerOf(fn string) string {
	const p = "fdpsim/internal/"
	rest, ok := strings.CutPrefix(fn, p)
	if !ok {
		if strings.HasPrefix(fn, "fdpsim.") {
			return "sim"
		}
		return "other"
	}
	pkg, _, _ := strings.Cut(rest, ".")
	pkg, _, _ = strings.Cut(pkg, "/")
	switch pkg {
	case "sim", "stats":
		return "sim"
	case "workload", "cpu", "cache", "mem", "prefetch", "core", "series", "store", "service":
		return pkg
	case "control":
		return "core"
	case "obs", "sweep":
		return "service"
	}
	return "other"
}

// profileShares runs `go tool pprof -top` on the profile and sums each
// function's flat share into its module.
func profileShares(path string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", path)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(raw)
}

// parseTop sums the flat% column of `pprof -top` output by module.
func parseTop(raw []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", sc.Text(), err)
		}
		shares[layerOf(f[5])] += pct / 100
	}
	if !header {
		return nil, fmt.Errorf("pprof -top printed no table")
	}
	return shares, nil
}
