package sim

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"fdpsim/internal/core"
	"fdpsim/internal/cpu"
	"fdpsim/internal/mem"
	"fdpsim/internal/stats"
	"fdpsim/internal/workload"
)

// cancelCheckStride bounds cancellation latency for runs that close no
// FDP sampling intervals (cache-resident loops evict nothing): the cycle
// loop polls ctx at least this often. Must be a power of two.
const cancelCheckStride = 4096

// drainBudget bounds the extra cycles spent retiring in-flight
// instructions after cancellation, so a wedged memory system cannot turn
// a cancel into a hang.
const drainBudget = 50_000

// stallLimit is the watchdog: a run in which no lane retires anything for
// this many cycles fails instead of spinning to its cycle budget.
const stallLimit = 2_000_000

// engine is the one cycle loop behind every run mode. It owns the DRAM
// and a list of nodes — cache hierarchies — each serving one or more
// lanes (CPUs). The entry points are wiring: a single-core run is one
// node with one lane, RunMulti one node per core on a shared DRAM, RunSMT
// one node with one lane per thread. Each cycle ticks the DRAM, then every
// node's hierarchy followed by that node's lanes in order.
type engine struct {
	dram *mem.DRAM
	// private marks a DRAM that serves one node. That node's clock
	// advances before the DRAM ticks, so fill-triggered writebacks are
	// stamped with the current cycle; RunMulti's shared DRAM ticks first
	// and stamps them with the previous one. The
	// multi/multistream+scanmod/ghb golden pins the shared order.
	private bool
	nodes   []*node
	lanes   []*lane // every node's lanes, in tick order
	budget  uint64  // the run fails once the cycle count reaches it
	start   time.Time
	elapsed time.Duration // wall-clock run time, set when the run ends

	cycle     uint64
	remaining int // lanes short of their retire target
	// intervalClosed is set at every FDP interval boundary and arms the
	// cancellation poll, so a cancel lands within one interval.
	intervalClosed bool
}

// node is one cache hierarchy and the lanes it serves.
type node struct {
	e     *engine
	h     *hierarchy
	ctr   stats.Counters
	lanes []*lane
	// Statistics start once every lane has retired warmup instructions:
	// the counters reset at warmCycle, microarchitectural state is kept.
	warmup    uint64
	warmed    bool
	warmCycle uint64
	target    uint64 // the lanes' post-warmup retire targets, summed
	active    int    // lanes short of their retire target
	// snap holds the post-warmup counters frozen when the last lane
	// reached its target, or at the stop cycle of a cancelled run.
	snap stats.Counters
}

// lane is one CPU plus its warmup and finish bookkeeping.
type lane struct {
	cpu    *cpu.CPU
	name   string // the source's workload name, for error messages
	target uint64 // lifetime retire target: warmup plus MaxInsts
	// mark is the retire count of the lane's next milestone (the node's
	// warmup, then target); reaching it makes the node settle.
	mark uint64
	// Retire counts when the node's warmup ended.
	warmRetired, warmLoads, warmStores uint64

	done    bool
	finish  uint64 // cycle the target was reached, or the stop cycle
	retired uint64 // post-warmup retired at finish
}

// newEngine builds an engine around a fresh DRAM that fails runs at
// budget cycles. private selects the single-hierarchy clock order (see
// engine.private).
func newEngine(dram mem.Config, private bool, budget uint64) *engine {
	e := &engine{dram: mem.New(dram), private: private, budget: budget, start: time.Now()}
	// The bus reports each transfer start to the hierarchy that issued it.
	e.dram.OnStart = func(r *mem.Request) {
		if r.Owner >= 0 && r.Owner < len(e.nodes) {
			e.nodes[r.Owner].h.onBusStart(r)
		}
	}
	return e
}

// addNode adds a hierarchy configured by cfg. A node with no warmup
// starts warmed.
func (e *engine) addNode(cfg *Config) *node {
	n := &node{e: e, warmup: cfg.WarmupInsts, warmed: cfg.WarmupInsts == 0}
	n.h = newHierarchy(cfg, &n.ctr, e.dram, len(e.nodes))
	n.h.fdp.OnInterval = n.onInterval
	e.nodes = append(e.nodes, n)
	return n
}

// addLane attaches a CPU running src to node n. It must retire n's
// config's MaxInsts after warmup.
func (e *engine) addLane(n *node, src cpu.Source) *lane {
	cfg := n.h.cfg
	l := &lane{cpu: n.h.attach(cfg, src), name: src.Name(), target: cfg.WarmupInsts + cfg.MaxInsts, mark: n.warmup}
	n.lanes = append(n.lanes, l)
	n.active++
	n.target += cfg.MaxInsts
	e.lanes = append(e.lanes, l)
	e.remaining++
	return l
}

// laneSource returns lane i's micro-op source: given[i] when sources are
// provided (their address spaces are the provider's concern), otherwise
// the named workload seeded with seed+i and relocated into a private
// address space, so co-running lanes interact only through shared
// resources.
func laneSource(i int, name string, seed uint64, given []cpu.Source) (cpu.Source, error) {
	if given != nil {
		return given[i], nil
	}
	src, err := workload.New(name, seed+uint64(i))
	if err != nil {
		return nil, err
	}
	return &offsetSource{src: src, base: uint64(i) << 44}, nil
}

// step advances the machine one cycle and returns the lanes' lifetime
// retire count, which the watchdog tracks. The run loop and the
// cancellation drain both advance through it.
func (e *engine) step() (retired uint64) {
	e.cycle++
	cycle := e.cycle
	if len(e.nodes) == 1 && len(e.nodes[0].lanes) == 1 {
		// One core: the loop below with its pointers loaded before the
		// first call. Chasing them after every call made memory-bound
		// single-core runs about 10% slower on a 2-vCPU Xeon.
		n := e.nodes[0]
		h, l := n.h, n.lanes[0]
		c := l.cpu
		if e.private {
			h.cyc = cycle
		}
		e.dram.Tick(cycle)
		h.Tick(cycle)
		c.Tick()
		if retired = c.Retired(); retired >= l.mark {
			n.settle()
		}
		return retired
	}
	if e.private {
		e.nodes[0].h.cyc = cycle
	}
	e.dram.Tick(cycle)
	for _, n := range e.nodes {
		n.h.Tick(cycle)
		due := false
		for _, l := range n.lanes {
			l.cpu.Tick()
			r := l.cpu.Retired()
			retired += r
			due = due || r >= l.mark
		}
		if due {
			n.settle()
		}
	}
	return retired
}

// run steps until every lane reaches its target. On cancellation it
// drains and returns a *CancelError, with every node frozen so the
// partial results are valid; the watchdog and the cycle budget return
// plain errors.
func (e *engine) run(ctx context.Context) error {
	cancellable := ctx.Done() != nil
	var lastRetired, lastProgress uint64
	for {
		retired := e.step()
		if e.remaining == 0 {
			break
		}
		if e.intervalClosed || e.cycle&(cancelCheckStride-1) == 0 {
			e.intervalClosed = false
			if cancellable {
				if err := ctx.Err(); err != nil {
					return e.cancel(err)
				}
			}
		}
		if retired != lastRetired {
			lastRetired, lastProgress = retired, e.cycle
		} else if e.cycle-lastProgress > stallLimit {
			return e.fail("no retirement progress for 2M cycles")
		}
		if e.cycle >= e.budget {
			return e.fail(fmt.Sprintf("exceeded cycle budget %d", e.budget))
		}
	}
	e.end()
	return nil
}

// cancel performs the clean stop: dispatch halts everywhere, in-flight
// instructions drain to a retire boundary (bounded), and every node still
// running is frozen at the stop cycle. The error reports the slowest
// lane's post-warmup progress.
func (e *engine) cancel(cause error) error {
	for _, l := range e.lanes {
		l.cpu.Halt()
	}
	for extra := 0; extra < drainBudget && e.inFlight(); extra++ {
		e.step()
	}
	ce := &CancelError{Cause: cause, Cycle: e.cycle, Target: e.lanes[0].target - e.nodes[0].warmup}
	for i, l := range e.lanes {
		if !l.done {
			l.finish = e.cycle
			l.retired = l.cpu.Retired() - l.warmRetired
		}
		if i == 0 || l.retired < ce.Retired {
			ce.Retired = l.retired
		}
	}
	for _, n := range e.nodes {
		if n.active > 0 {
			n.freeze()
		}
	}
	e.end()
	return ce
}

// inFlight reports whether any lane still has instructions in flight.
func (e *engine) inFlight() bool {
	for _, l := range e.lanes {
		if l.cpu.InFlight() > 0 {
			return true
		}
	}
	return false
}

// fail reports a run that cannot finish, naming every lane's progress.
func (e *engine) fail(what string) error {
	var b strings.Builder
	for i, l := range e.lanes {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "workload %s, retired %d of %d", l.name, l.cpu.Retired(), l.target)
	}
	return fmt.Errorf("sim: %s at cycle %d (%s)", what, e.cycle, b.String())
}

// end stamps the run's wall time and sends every node's Final snapshot.
func (e *engine) end() {
	e.elapsed = time.Since(e.start)
	for _, n := range e.nodes {
		if progress := n.h.cfg.Progress; progress != nil {
			acc, late, poll := n.h.fdp.Metrics()
			progress(Snapshot{
				Core:      n.h.coreID,
				Cycle:     n.snap.Cycles,
				Retired:   n.snap.Retired,
				Target:    n.target,
				IPC:       n.snap.IPC(),
				BPKI:      n.snap.BPKI(),
				Interval:  n.snap.Intervals,
				Accuracy:  acc,
				Lateness:  late,
				Pollution: poll,
				Level:     n.h.finalLevel(),
				Insertion: n.h.fdp.Insertion(),
				Elapsed:   e.elapsed,
				Final:     true,
			})
		}
	}
}

// settle runs once a lane has reached its mark, after all of the node's
// lanes ticked. Warmup ends when every lane has reached it: the node's
// statistics reset and each lane's retire counts become its baseline.
// After that, lanes reaching their target are marked done, and the
// node's statistics freeze when the last one is; finished lanes keep
// running, so the contention the others see stays realistic.
func (n *node) settle() {
	cycle := n.e.cycle
	if !n.warmed && n.allRetired(n.warmup) {
		n.warmed = true
		n.warmCycle = cycle
		for _, l := range n.lanes {
			l.warmRetired, l.warmLoads, l.warmStores = l.cpu.Retired(), l.cpu.RetiredLoads(), l.cpu.RetiredStores()
		}
		n.ctr = stats.Counters{}
		if n.h.attr != nil {
			n.h.attrWarmupReset()
		}
	}
	for _, l := range n.lanes {
		switch {
		case !n.warmed:
			l.mark = n.warmup
		case l.done:
		case l.cpu.Retired() >= l.target:
			l.done = true
			l.mark = math.MaxUint64
			l.finish = cycle
			l.retired = l.cpu.Retired() - l.warmRetired
			n.active--
			n.e.remaining--
			if n.active == 0 {
				n.freeze()
			}
		default:
			l.mark = l.target
		}
	}
}

// allRetired reports whether every lane has retired at least count
// instructions.
func (n *node) allRetired(count uint64) bool {
	for _, l := range n.lanes {
		if l.cpu.Retired() < count {
			return false
		}
	}
	return true
}

// freeze snapshots the node's post-warmup counters at the current cycle.
func (n *node) freeze() {
	n.snap = n.ctr
	n.snap.Cycles = n.e.cycle - n.warmCycle
	n.snap.Retired, n.snap.RetiredLoads, n.snap.RetiredStores = 0, 0, 0
	for _, l := range n.lanes {
		n.snap.Retired += l.cpu.Retired() - l.warmRetired
		n.snap.RetiredLoads += l.cpu.RetiredLoads() - l.warmLoads
		n.snap.RetiredStores += l.cpu.RetiredStores() - l.warmStores
	}
	n.snap.Intervals = n.h.fdp.Intervals()
}

// onInterval is the node's FDP interval-boundary hook: it arms the
// cancellation poll and feeds the decision tracer and the progress sink.
// Cycle and retire stamps are post-warmup and read zero during warmup.
func (n *node) onInterval(rec core.IntervalRecord) {
	e := n.e
	e.intervalClosed = true
	cfg := n.h.cfg
	if cfg.Tracer == nil && cfg.Progress == nil {
		return
	}
	var pcyc, pret uint64
	var sample stats.IntervalSample
	if n.warmed {
		pcyc = e.cycle - n.warmCycle
		for _, l := range n.lanes {
			pret += l.cpu.Retired() - l.warmRetired
		}
		if n.h.attr != nil {
			sample = n.h.attrIntervalSample()
		}
	}
	n.h.traceDecision(rec, pcyc, pret, sample)
	if cfg.Progress == nil {
		return
	}
	s := Snapshot{
		Core:      n.h.coreID,
		Cycle:     pcyc,
		Retired:   pret,
		Target:    n.target,
		Interval:  n.h.fdp.Intervals(),
		Accuracy:  rec.Accuracy,
		Lateness:  rec.Lateness,
		Pollution: rec.Pollution,
		Case:      rec.Case,
		Level:     rec.Level,
		Insertion: rec.Insertion,
		Elapsed:   time.Since(e.start),
		Sample:    sample,
	}
	if pcyc > 0 {
		s.IPC = float64(pret) / float64(pcyc)
	}
	if pret > 0 {
		// Counters.Retired is only set when the node freezes; derive BPKI
		// from the live bus counters and the post-warmup retire count.
		s.BPKI = 1000 * float64(n.ctr.BusAccesses()) / float64(pret)
	}
	if n.h.pf != nil {
		s.Level = n.h.pf.Level()
	}
	cfg.Progress(s)
}

// result assembles the node's Result from its frozen counters. Partial
// marks a node whose lanes had not all reached their target.
func (n *node) result() Result {
	cfg, ctr := n.h.cfg, n.snap
	return Result{
		Workload:    cfg.Workload,
		Prefetcher:  string(cfg.Prefetcher),
		Level:       cfg.StaticLevel,
		Counters:    ctr,
		IPC:         ctr.IPC(),
		BPKI:        ctr.BPKI(),
		Accuracy:    ctr.Accuracy(),
		Lateness:    ctr.Lateness(),
		Pollution:   ctr.Pollution(),
		LevelDist:   n.h.fdp.LevelDist,
		InsertDist:  n.h.fdp.InsertDist,
		Intervals:   ctr.Intervals,
		History:     n.h.fdp.History,
		FinalLevel:  n.h.finalLevel(),
		Partial:     n.active > 0,
		Elapsed:     n.e.elapsed,
		Attribution: n.h.attrFinalize(),
		Controller:  cfg.Controller,
	}
}
