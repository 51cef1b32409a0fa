package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fdpsim/internal/obs"
	"fdpsim/internal/service"
	"fdpsim/internal/sim"
	"fdpsim/internal/store"
)

// clients is the closed loop's client count: each client sends its next
// job only after the previous one's result arrived.
const clients = 2

// server is one in-process fdpserved: a service over an on-disk store,
// behind a loopback HTTP listener.
type server struct {
	svc    *service.Server
	http   *http.Server
	served chan error
	client *http.Client
	base   string
}

// startServer opens the store in dir, starts a 2-worker service and its
// HTTP listener, and returns once /healthz answers.
func startServer(dir string) (*server, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	// FleetWorker makes every run go through the store's claim files, so
	// the claim stage shows in the job spans.
	svc := service.New(service.Config{Workers: 2, Store: st, FleetWorker: "perfbench"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown(context.Background()) //nolint:errcheck // reporting the listen error
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		svc:    svc,
		http:   &http.Server{Handler: svc.Handler()},
		served: make(chan error, 1),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
			Timeout:   2 * time.Minute,
		},
		base: "http://" + ln.Addr().String(),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	resp, err := s.client.Get(s.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // body only drained for reuse
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

// stop shuts the listener and the worker pool down and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.client.CloseIdleConnections()
	return errors.Join(err, s.svc.Shutdown(ctx))
}

// jobOut is one job's outcome as a client saw it.
type jobOut struct {
	status service.JobStatus
	post   time.Duration // POST round trip
	total  time.Duration // submit → result
}

// submit POSTs a job and, unless the server answered it from the cache,
// follows its event stream until the final status arrives.
func (s *server) submit(req service.JobRequest) (jobOut, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return jobOut{}, err
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobOut{}, fmt.Errorf("post: %w", err)
	}
	var out jobOut
	err = json.NewDecoder(resp.Body).Decode(&out.status)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // body only drained for reuse
	resp.Body.Close()
	out.post = time.Since(t0)
	if err != nil {
		return jobOut{}, fmt.Errorf("post: %s: %w", resp.Status, err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusAccepted:
		if out.status, err = s.await(out.status.ID); err != nil {
			return jobOut{}, err
		}
	default:
		return jobOut{}, fmt.Errorf("post: %s", resp.Status)
	}
	out.total = time.Since(t0)
	return out, nil
}

// await reads a job's SSE stream up to its "done" event.
func (s *server) await(id string) (service.JobStatus, error) {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return service.JobStatus{}, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case event == "done" && strings.HasPrefix(line, "data: "):
			var st service.JobStatus
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return st, fmt.Errorf("events: %w", err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // body only drained for reuse
			return st, nil
		}
	}
	return service.JobStatus{}, fmt.Errorf("events for %s ended without a result: %v", id, sc.Err())
}

// phase collects the outcomes of closed-loop passes over one job list.
type phase struct {
	out     []jobOut
	digests []string  // "" for a failed job
	rates   []float64 // jobs/s of each pass
	failed  int
}

func newPhase(n int) phase { return phase{out: make([]jobOut, n), digests: make([]string, n)} }

// latencies returns the submit→result times of the successful jobs in
// slots lo..hi-1.
func (p *phase) latencies(lo, hi int) []time.Duration {
	var total []time.Duration
	for i := lo; i < hi; i++ {
		if p.digests[i] != "" {
			total = append(total, p.out[i].total)
		}
	}
	return total
}

// run fills slots lo..hi-1 by sending request i mod len(reqs) for slot i
// through the closed loop, and checks each answer: a finished job with a
// result, served from the cache exactly when wantHit, whose digest
// matches want[i mod len(reqs)] when want is given.
func (p *phase) run(s *server, reqs []service.JobRequest, lo, hi int, wantHit bool, want []string) {
	var next atomic.Int64
	next.Store(int64(lo))
	var failed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				j := i % len(reqs)
				o, err := s.submit(reqs[j])
				d, cerr := checkJob(o.status, reqs[j], wantHit)
				if err == nil {
					err = cerr
				}
				if err == nil && want != nil && d != want[j] {
					err = fmt.Errorf("digest %s, want %s", d, want[j])
				}
				if err != nil {
					logf("service job %d: %v", i, err)
					failed.Add(1)
					continue
				}
				p.out[i], p.digests[i] = o, d
			}
		}()
	}
	wg.Wait()
	n := hi - lo - int(failed.Load())
	p.rates = append(p.rates, float64(n)/time.Since(t0).Seconds())
	p.failed += int(failed.Load())
}

func checkJob(st service.JobStatus, req service.JobRequest, wantHit bool) (string, error) {
	switch {
	case st.State != service.StateDone:
		return "", fmt.Errorf("state %s: %s", st.State, st.Error)
	case st.Result == nil:
		return "", errors.New("done without a result")
	case st.CacheHit != wantHit:
		return "", fmt.Errorf("cache_hit=%v, want %v", st.CacheHit, wantHit)
	}
	return resultDigest(*st.Result, sim.PrefetcherKind(req.Prefetcher))
}

// missChunks splits the miss phase so a measured run can spread it over
// its whole measured time, between simulator repetitions.
const missChunks = 10

// svcRound is one service measurement, run as missChunks + hitRounds
// steps: the miss phase in chunks on one server over a fresh store, then
// hitRounds fresh servers over the same store resubmitting every job.
type svcRound struct {
	dir        string
	reqs       []service.JobRequest
	want       []string // pinned miss digests, or nil
	keepSpans  bool
	missSrv    *server
	miss       phase
	hits       phase // every hit round's outcomes, pooled
	hitRuns    int
	executions uint64       // simulations the miss server ran
	hitExecs   uint64       // simulations the hit servers ran (want 0)
	spans      [][]obs.Span // per miss job, kept when traced
	done       int          // steps taken
}

func newServiceRound(dir string, w *benchWorkload, seed uint64, want []string, keepSpans bool) (*svcRound, error) {
	r := &svcRound{dir: dir, reqs: make([]service.JobRequest, missJobs), want: want, keepSpans: keepSpans}
	for i := range r.reqs {
		r.reqs[i] = w.job(seed, i)
	}
	r.miss = newPhase(missJobs)
	r.hits = newPhase(missJobs * hitRounds)
	s, err := startServer(dir)
	if err != nil {
		return nil, err
	}
	r.missSrv = s
	return r, nil
}

func (r *svcRound) steps() int { return missChunks + hitRounds }

// step takes the next step: a miss chunk, or a hit round once every miss
// chunk is done.
func (r *svcRound) step() error {
	defer func() { r.done++ }()
	if r.done < missChunks {
		lo, hi := r.done*missJobs/missChunks, (r.done+1)*missJobs/missChunks
		r.miss.run(r.missSrv, r.reqs, lo, hi, false, r.want)
		if r.done < missChunks-1 {
			return nil
		}
		return r.stopMiss()
	}
	s, err := startServer(r.dir)
	if err != nil {
		return err
	}
	// Hit round k fills slots k*missJobs.. of the pooled phase.
	k := r.hitRuns
	r.hits.run(s, r.reqs, k*missJobs, (k+1)*missJobs, true, r.miss.digests)
	r.hitRuns++
	r.hitExecs += s.svc.Executions()
	return s.stop()
}

// stopMiss records the miss server's execution count and spans, then
// stops it.
func (r *svcRound) stopMiss() error {
	s := r.missSrv
	r.missSrv = nil
	r.executions = s.svc.Executions()
	if r.keepSpans {
		for _, o := range r.miss.out {
			var sp []obs.Span
			if j, ok := s.svc.Job(o.status.ID); ok {
				sp = j.Spans()
			}
			r.spans = append(r.spans, sp)
		}
	}
	return s.stop()
}

// finish takes every remaining step.
func (r *svcRound) finish() error {
	for r.done < r.steps() {
		if err := r.step(); err != nil {
			return err
		}
	}
	return nil
}

// close stops a miss server left running by an aborted round.
func (r *svcRound) close() {
	if r.missSrv != nil {
		if err := r.missSrv.stop(); err != nil {
			logf("stop service: %v", err)
		}
		r.missSrv = nil
	}
}

// failed counts failed jobs, plus the distinct-fingerprint invariant: the
// miss server simulates each fingerprint exactly once and the hit servers
// simulate nothing.
func (r *svcRound) failed() int {
	n := r.miss.failed + r.hits.failed
	if r.executions != uint64(len(r.reqs)) || r.hitExecs != 0 {
		logf("service executions: miss server %d (want %d), hit servers %d (want 0)",
			r.executions, len(r.reqs), r.hitExecs)
		n++
	}
	return n
}

func (r *svcRound) attempted() int { return len(r.reqs) * (1 + r.hitRuns) }
