// Command perfbench is the repository benchmark. It drives the simulator
// and fdpserved through their Go APIs from one process and prints, as
// the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (simulated insts/s,
// service miss/hit latency and throughput, set-up time, peak RSS); with
// --trace 1 a separate traced run reports the per-layer ones. See
// README.md for the workloads and what each metric should move.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload memint --seed 1 --seconds 50 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	name := flag.String("workload", "memint", "workload: memint or cacheres")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 50, "measured time per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the measured one")
	out := flag.String("out", ".bench_build", "directory for scratch stores, profiles and span files")
	pin := flag.String("pin", "", "rewrite the pin table at this path from default-seed runs, then exit")
	flag.Parse()

	if *pin != "" {
		if err := writePins(*pin); err != nil {
			logf("pin: %v", err)
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil || *seed == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		logf("bad arguments: %v", err)
		flag.Usage()
		os.Exit(2)
	}
	runDir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	defer os.RemoveAll(runDir)

	m := fingerprint()
	raw, _ := json.Marshal(m)
	fmt.Printf("machine %s\n", raw)

	var rep report
	if *trace == 1 {
		rep, err = traced(w, *seed, runDir, *out, m)
	} else {
		rep, err = measured(w, *seed, time.Duration(*seconds)*time.Second, runDir)
	}
	if err != nil {
		logf("%s: %v", w.name, err)
		os.RemoveAll(runDir)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// machine identifies the host and build a run was measured on.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func fingerprint() machine {
	m := machine{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	// The commit is stamped by the Go toolchain when the benchmark is
	// built inside a git work tree; an exported source tree has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			m.Commit = rev + dirty
		}
	}
	return m
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 15

// setupOnce times what precedes the first measured operation: a
// one-instruction run of every lane configuration, then opening a store,
// starting the service and getting its listener ready.
func setupOnce(lanes []lane, dir string) (time.Duration, error) {
	t0 := time.Now()
	for _, l := range lanes {
		if _, _, err := l.tiny().run(nil); err != nil {
			return 0, err
		}
	}
	s, err := startServer(dir)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, s.stop()
}

func setupTime(lanes []lane, runDir string) (float64, error) {
	var ds []float64
	for i := range setupReps {
		// Each set-up starts from a collected heap, so a collection
		// triggered by the previous one's garbage is not timed.
		runtime.GC()
		d, err := setupOnce(lanes, filepath.Join(runDir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, d.Seconds())
	}
	return median(ds), nil
}

// minReps is the fewest simulator repetitions a measured run makes, even
// when the service round used up the measured time.
const minReps = 3

// laneChecker checks lane digests: against the pin table for the default
// seed, otherwise against the run's first repetition (determinism). The
// first repetition's digests are printed so two commits can be compared
// on any seed.
type laneChecker struct {
	w      *benchWorkload
	pinned map[string]string
	first  map[string]string
}

func newLaneChecker(w *benchWorkload, seed uint64) (*laneChecker, error) {
	c := &laneChecker{w: w, first: map[string]string{}}
	if seed == defaultSeed {
		p, err := loadPins()
		if err != nil {
			return nil, err
		}
		c.pinned = p.Lanes
	}
	return c, nil
}

func (c *laneChecker) check(l lane, d string) bool {
	key := c.w.name + "/" + l.name
	want, ok := c.pinned[key]
	if c.pinned == nil {
		want, ok = c.first[key]
	}
	if _, seen := c.first[key]; !seen {
		c.first[key] = d
		fmt.Printf("digest lane %s %s\n", key, d)
	}
	if c.pinned == nil && !ok {
		return true
	}
	if d != want {
		logf("lane %s digest %s, want %s", key, d, want)
		return false
	}
	return true
}

// jobPins returns the pinned service-job digests for the default seed.
func jobPins(w *benchWorkload, seed uint64) ([]string, error) {
	if seed != defaultSeed {
		return nil, nil
	}
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	want := p.Jobs[w.name]
	if len(want) != missJobs {
		return nil, fmt.Errorf("pinned.json has %d job digests for %s, want %d", len(want), w.name, missJobs)
	}
	return want, nil
}

// printJobDigest prints one digest over the miss phase's job digests, in
// job order, so two commits can be compared on any seed.
func printJobDigest(w *benchWorkload, r *svcRound) {
	d, _ := digestJSON(r.miss.digests)
	fmt.Printf("digest jobs %s %s\n", w.name, d)
}

// measured is the untraced run: set-up, then simulator repetitions until
// the measured time is used up, with the service round's steps spread
// between them so that every metric samples the whole measured time.
func measured(w *benchWorkload, seed uint64, dur time.Duration, runDir string) (report, error) {
	lanes := w.lanes(seed)
	rep := report{Metrics: map[string]metric{}}
	setup, err := setupTime(lanes, runDir)
	if err != nil {
		return rep, err
	}
	check, err := newLaneChecker(w, seed)
	if err != nil {
		return rep, err
	}
	want, err := jobPins(w, seed)
	if err != nil {
		return rep, err
	}
	round, err := newServiceRound(filepath.Join(runDir, "store"), w, seed, want, false)
	if err != nil {
		return rep, err
	}
	defer round.close()

	var ips []float64
	var insts uint64
	for _, l := range lanes {
		insts += l.insts()
	}
	// catchUp keeps the service round's progress level with the elapsed
	// share of the measured time; it is called between lane runs.
	t0 := time.Now()
	catchUp := func() error {
		for round.done < round.steps() && float64(round.done)/float64(round.steps()) <= time.Since(t0).Seconds()/dur.Seconds() {
			// A real fdpserved does not host the benchmark's simulator
			// lanes, so their garbage is collected before a service step
			// rather than during it.
			runtime.GC()
			if err := round.step(); err != nil {
				return err
			}
		}
		return nil
	}
	for reps := 0; reps < minReps || time.Since(t0) < dur; reps++ {
		var busy time.Duration
		ok := true
		for _, l := range lanes {
			if err := catchUp(); err != nil {
				return rep, err
			}
			start := time.Now()
			rep.Attempted++
			d, _, err := l.run(nil)
			busy += time.Since(start)
			if err != nil {
				logf("%v", err)
			}
			if err != nil || !check.check(l, d) {
				rep.Failed++
				ok = false
			}
		}
		if ok {
			ips = append(ips, float64(insts)/busy.Seconds())
		}
	}
	if err := round.finish(); err != nil {
		return rep, err
	}
	printJobDigest(w, round)
	rep.Attempted += round.attempted()
	rep.Failed += round.failed()

	add := func(name, unit string, v float64) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	add("insts_per_s", "insts/s", median(ips))
	// Miss percentiles pool the round's 110 jobs. Each hit step has 110
	// jobs of its own, so a hit percentile is the median over the steps
	// of that step's percentile, and a slow spell of the host during a
	// few steps does not set it; throughput likewise.
	missLat := ms(round.miss.latencies(0, missJobs))
	for _, q := range []struct {
		name string
		p    float64
	}{{"p50", 0.5}, {"p90", 0.9}} {
		v, err := percentile(missLat, q.p)
		if err != nil {
			return rep, fmt.Errorf("svc_miss_%s_ms: %w", q.name, err)
		}
		add("svc_miss_"+q.name+"_ms", "ms", v)
		var perStep []float64
		for k := range round.hitRuns {
			v, err := percentile(ms(round.hits.latencies(k*missJobs, (k+1)*missJobs)), q.p)
			if err != nil {
				return rep, fmt.Errorf("svc_hit_%s_ms: %w", q.name, err)
			}
			perStep = append(perStep, v)
		}
		add("svc_hit_"+q.name+"_ms", "ms", median(perStep))
	}
	add("svc_miss_jobs_per_s", "jobs/s", median(round.miss.rates))
	add("svc_hit_jobs_per_s", "jobs/s", median(round.hits.rates))
	add("setup_s", "s", setup)
	rss, err := peakRSSMB()
	if err != nil {
		return rep, err
	}
	add("max_rss_mb", "MB", rss)
	rep.Correct = rep.Failed == 0
	return rep, nil
}
