// Package service is the simulation job service: a bounded worker pool
// with a FIFO queue behind an HTTP JSON API (see http.go), turning the
// one-shot simulator into a shared daemon that sweeps of prefetcher
// configurations — Puppeteer-style managers, POWER7-style reconfiguration
// studies — can drive concurrently.
//
// Jobs are deduplicated by their configuration fingerprint
// (sim.Fingerprint): an in-memory memo acts as a read-through layer over
// an optional content-addressed on-disk store (internal/store), so an
// identical submission — even across daemon restarts — completes
// immediately as a cache hit without re-simulating.
//
// Lifecycle: Submit validates and either answers from cache, enqueues, or
// reports backpressure (ErrQueueFull → HTTP 429). Cancel stops a queued
// job in place or cancels a running one at the next FDP interval boundary
// (PR 1's retire-boundary drain), preserving the partial result. Shutdown
// stops intake, cancels in-flight runs the same way, and waits for the
// workers to drain.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fdpsim/internal/obs"
	"fdpsim/internal/series"
	"fdpsim/internal/sim"
	"fdpsim/internal/store"
	"fdpsim/internal/workload/spec"
)

// Sentinel errors; the HTTP layer maps them to status codes.
var (
	// ErrQueueFull reports that the FIFO queue is at capacity (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrShuttingDown reports a submission after Shutdown began (HTTP 503).
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrUnknownJob reports a job ID that was never issued (HTTP 404).
	ErrUnknownJob = errors.New("service: unknown job")
)

// Config sizes the service.
type Config struct {
	// Workers is the worker-pool width: at most this many simulations run
	// concurrently. 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the FIFO queue of jobs waiting for a worker;
	// submissions beyond it are rejected with ErrQueueFull so load sheds
	// at the edge instead of accumulating unboundedly. 0 means 64.
	QueueDepth int
	// Store, when non-nil, persists completed results on disk and serves
	// identical submissions across restarts. The in-memory memo reads
	// through it either way.
	Store *store.Store
	// JobTimeout, when non-zero, bounds each simulation's wall-clock run
	// time; expiry cancels it at the next interval boundary and the job
	// completes as cancelled with its partial result.
	JobTimeout time.Duration
	// Logger receives structured job-lifecycle and HTTP request logs.
	// Nil discards them.
	Logger *slog.Logger
	// QueueWaitBuckets overrides the queue-wait histogram's bucket upper
	// bounds (seconds). Bounds are sorted and deduplicated at registration,
	// so misconfigured orderings cannot produce broken scrape output.
	// Empty means the default sub-millisecond-to-tens-of-seconds ladder.
	QueueWaitBuckets []float64

	// Tenants is the scheduler roster: per-tenant fair-share weights and
	// quotas. Tenants absent from the roster auto-register at weight 1
	// unless StrictTenants is set.
	Tenants map[string]TenantConfig
	// StrictTenants rejects submissions naming a tenant outside the
	// roster (sweep.ErrUnknownTenant → HTTP 400) instead of
	// auto-registering it. The default tenant always exists.
	StrictTenants bool

	// FleetWorker, when non-empty, names this process in a worker fleet:
	// multiple fdpserved processes sharing one Store coordinate through
	// atomic claim files so each fingerprint is simulated once fleet-wide.
	// Requires Store; ignored without one.
	FleetWorker string
	// LeaseTTL is the fleet claim lease. A worker renews its lease while
	// simulating; a claim past its lease is stolen by the next worker
	// (the crashed-worker path). 0 means 30s.
	LeaseTTL time.Duration
	// ClaimAttempts bounds how many times a worker re-checks a held claim
	// (with backoff) before falling back to executing locally — execution
	// is at-least-once, results are exactly-once via the store's atomic
	// writes. 0 means 32.
	ClaimAttempts int

	// SpanLimit caps the fabric-span flight recorder (GET /debug/events):
	// the last N spans across all jobs, oldest evicted. 0 means 4096.
	SpanLimit int
	// SSEKeepalive is the idle interval after which the SSE handlers emit
	// a ": keepalive" comment frame so intermediaries do not drop a quiet
	// stream. 0 means 15s; negative disables keepalives.
	SSEKeepalive time.Duration
}

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states. Queued and running are transient; done, failed
// and cancelled are terminal.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one submitted simulation. All mutable fields are guarded by mu;
// done is closed exactly once when the job reaches a terminal state.
type Job struct {
	id  string
	fp  string
	cfg sim.Config
	// spec, when non-nil, is the declarative WorkloadSpec this job runs
	// instead of a registered workload name (WithWorkloadSpec). The
	// fingerprint is then sim.FingerprintSpec's domain-separated digest, so
	// spec jobs share the cache machinery without aliasing named jobs.
	spec *spec.Spec
	// tenant and priority place the job in the fair scheduler; sweepID
	// links it to the sweep that expanded it (empty for direct jobs).
	tenant   string
	priority int
	sweepID  string

	mu          sync.Mutex
	state       JobState
	cacheHit    bool
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	result      *sim.Result
	errMsg      string
	cancel      context.CancelCauseFunc // set while running
	lastSnap    *sim.Snapshot
	subs        map[int]chan sim.Snapshot
	nextSub     int
	done        chan struct{}
	doneOnce    sync.Once

	// series, when non-nil, records the run's interval timeseries (the
	// job was submitted with WithSeriesRecording). seriesBin is the
	// encoded sidecar document — the job's one per-interval artifact, from
	// which the decision trace also renders — set when the job reaches a
	// terminal state (or immediately on a cache hit whose sidecar the store
	// still has).
	series    *series.Recorder
	seriesBin []byte

	// Fabric trace identity (immutable after Submit): traceID threads the
	// job's spans, rootSpan is its "job" span ID, parentSpan links it under
	// a submitter's span (sweep root, or an X-Fdp-Trace header). spans are
	// the completed fabric spans, guarded by mu.
	traceID    string
	rootSpan   string
	parentSpan string
	spans      []obs.Span
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job has reached a terminal
// state and its root span and provenance entry are recorded.
func (j *Job) Done() <-chan struct{} { return j.done }

// signalDone closes Done. Callers run it after finishLocked and after
// writing the job's root span and provenance entry, so a waiter woken by
// Done sees the job's whole record.
func (j *Job) signalDone() { j.doneOnce.Do(func() { close(j.done) }) }

// SeriesData returns the job's encoded interval-timeseries sidecar
// (internal/series binary document). ok is false when the job was not
// submitted with series recording, has not reached a terminal state yet,
// or completed as a cache hit whose sidecar the store no longer has.
func (j *Job) SeriesData() (doc []byte, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.seriesBin == nil {
		return nil, false
	}
	return j.seriesBin, true
}

// JobStatus is the JSON shape of a job, returned by poll and embedded in
// the SSE "done" event.
type JobStatus struct {
	ID          string      `json:"id"`
	State       JobState    `json:"state"`
	Workload    string      `json:"workload"`
	Prefetcher  string      `json:"prefetcher"`
	Fingerprint string      `json:"fingerprint"`
	Tenant      string      `json:"tenant"`
	Priority    int         `json:"priority,omitempty"`
	Sweep       string      `json:"sweep,omitempty"`
	CacheHit    bool        `json:"cache_hit"`
	SubmittedAt time.Time   `json:"submitted_at"`
	StartedAt   *time.Time  `json:"started_at,omitempty"`
	FinishedAt  *time.Time  `json:"finished_at,omitempty"`
	Error       string      `json:"error,omitempty"`
	Result      *sim.Result `json:"result,omitempty"`
	// Trace and Series both report the job's interval-timeseries
	// artifact: queryable at GET /v1/jobs/{id}/series, and rendered as
	// the decision trace at GET /v1/jobs/{id}/trace.
	Trace  bool `json:"trace,omitempty"`
	Series bool `json:"series,omitempty"`
}

// Status snapshots the job for serialization.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Workload:    j.cfg.Workload,
		Prefetcher:  string(j.cfg.Prefetcher),
		Fingerprint: j.fp,
		Tenant:      j.tenant,
		Priority:    j.priority,
		Sweep:       j.sweepID,
		CacheHit:    j.cacheHit,
		SubmittedAt: j.submittedAt,
		Error:       j.errMsg,
		Result:      j.result,
		Trace:       j.seriesBin != nil,
		Series:      j.seriesBin != nil,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		st.FinishedAt = &t
	}
	return st
}

// publish is the job's sim.ProgressFunc: it retains the latest snapshot
// for late subscribers and fans it out without blocking the simulation
// (slow subscribers drop intermediate snapshots, never stall the run).
func (j *Job) publish(s sim.Snapshot) {
	j.mu.Lock()
	snap := s
	j.lastSnap = &snap
	for _, ch := range j.subs {
		select {
		case ch <- s:
		default:
		}
	}
	j.mu.Unlock()
}

// subscribe registers an SSE listener and returns the latest snapshot so
// a late joiner sees where the run is immediately.
func (j *Job) subscribe() (id int, ch chan sim.Snapshot, last *sim.Snapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch = make(chan sim.Snapshot, 16)
	id = j.nextSub
	j.nextSub++
	j.subs[id] = ch
	return id, ch, j.lastSnap
}

func (j *Job) unsubscribe(id int) {
	j.mu.Lock()
	delete(j.subs, id)
	j.mu.Unlock()
}

// finishLocked moves the job to a terminal state. Caller holds j.mu and
// calls signalDone once the job's record is complete.
func (j *Job) finishLocked(state JobState, res *sim.Result, errMsg string) {
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.result = res
	j.errMsg = errMsg
	j.finishedAt = time.Now()
}

// Server owns the job table, the worker pool and the result cache.
type Server struct {
	cfg Config
	log *slog.Logger

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	sched      *fairQueue
	wg         sync.WaitGroup

	mu        sync.Mutex
	jobs      map[string]*Job
	memo      map[string]sim.Result
	sweeps    map[string]*Sweep
	nextID    uint64
	nextSweep uint64
	closed    bool

	started time.Time
	reqSeq  atomic.Uint64 // HTTP request IDs for log correlation
	m       metrics
	// spans is the fabric-span flight recorder behind /debug/events: the
	// last Config.SpanLimit spans across all jobs, drop-oldest.
	spans *obs.SpanBuffer
}

// maxIntervals bounds a job's recorded intervals (~27 MB of columns in
// memory); later boundaries are counted as truncated in the sidecar's Meta.
const maxIntervals = 65536

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.ClaimAttempts <= 0 {
		cfg.ClaimAttempts = 32
	}
	if cfg.FleetWorker != "" && cfg.Store == nil {
		cfg.FleetWorker = "" // fleet coordination lives in the store
	}
	if cfg.SSEKeepalive == 0 {
		cfg.SSEKeepalive = 15 * time.Second
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		log:        logger,
		baseCtx:    ctx,
		baseCancel: cancel,
		sched:      newFairQueue(cfg.QueueDepth, cfg.StrictTenants, cfg.Tenants),
		jobs:       make(map[string]*Job),
		memo:       make(map[string]sim.Result),
		sweeps:     make(map[string]*Sweep),
		started:    time.Now(),
		spans:      &obs.SpanBuffer{Limit: cfg.SpanLimit},
	}
	s.m.init(cfg.QueueWaitBuckets)
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.log.Info("service started", "workers", cfg.Workers, "queue_depth", cfg.QueueDepth,
		"store", cfg.Store != nil, "job_timeout", cfg.JobTimeout,
		"fleet_worker", cfg.FleetWorker, "strict_tenants", cfg.StrictTenants)
	return s
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job, newest last (insertion order is not preserved
// by the map; callers sort by SubmittedAt).
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	return out
}

// cacheLookup consults the memo, then the on-disk store (populating the
// memo on a store hit so the disk is read once per fingerprint).
func (s *Server) cacheLookup(fp string) (sim.Result, bool) {
	s.mu.Lock()
	res, ok := s.memo[fp]
	s.mu.Unlock()
	if ok {
		return res, true
	}
	if s.cfg.Store != nil {
		if res, ok := s.cfg.Store.Get(fp); ok {
			s.mu.Lock()
			s.memo[fp] = res
			s.mu.Unlock()
			return res, true
		}
	}
	return sim.Result{}, false
}

// storeResult writes a completed result back through both cache layers.
func (s *Server) storeResult(fp string, res sim.Result) {
	s.mu.Lock()
	s.memo[fp] = res
	s.mu.Unlock()
	if s.cfg.Store != nil {
		// Best-effort: a full disk costs future cache hits, not this job.
		_ = s.cfg.Store.Put(fp, res)
	}
}

// SubmitOption customizes one submission.
type SubmitOption func(*submitOptions)

type submitOptions struct {
	series     bool
	spec       *spec.Spec
	specSet    bool // WithWorkloadSpec given, even with a nil spec (rejected)
	tenant     string
	priority   int
	sweepID    string // set by SubmitSweep; sweep jobs bypass queued quotas
	traceID    string // fabric trace to join (WithTraceContext); "" = fresh
	parentSpan string
}

// WithSeriesRecording makes the job record its interval timeseries (one
// catalog row per FDP sampling interval, at most 65536), queryable at
// GET /v1/jobs/{id}/series, diffable at GET /v1/diff and rendered as the
// decision trace at GET /v1/jobs/{id}/trace once the job is terminal.
// Cache hits reuse the persisted sidecar when the store still has one.
func WithSeriesRecording() SubmitOption {
	return func(o *submitOptions) { o.series = true }
}

// WithWorkloadSpec makes the job run a declarative WorkloadSpec instead
// of a registered workload name: the configuration's Workload field is
// overwritten with the spec's name, validation goes through
// sim.ValidateSpecJob (single-lane specs only — a multi-lane spec needs a
// multicore run the job service does not model), and deduplication keys
// on sim.FingerprintSpec, which canonicalizes the spec so spelled-out
// defaults hit the same cache entry.
func WithWorkloadSpec(sp *spec.Spec) SubmitOption {
	return func(o *submitOptions) { o.spec, o.specSet = sp, true }
}

// WithTenant attributes the job to a scheduler tenant for fair queueing
// and quotas. Empty (or omitted) means the default tenant. Under a
// strict roster, an unknown tenant fails the submission with
// sweep.ErrUnknownTenant.
func WithTenant(name string) SubmitOption {
	return func(o *submitOptions) { o.tenant = name }
}

// WithPriority orders the job against the tenant's other queued work;
// higher runs sooner (default 0). Priority is within-tenant only — it
// never lets one tenant jump another's share.
func WithPriority(p int) SubmitOption {
	return func(o *submitOptions) { o.priority = p }
}

// forSweep links the job to a sweep and lets it bypass queued quotas
// (sweep admission is bounded at expansion by sweep.MaxJobs).
func forSweep(id string) SubmitOption {
	return func(o *submitOptions) { o.sweepID = id }
}

// Submit validates a configuration and either completes it from cache,
// enqueues it, or rejects it (ErrQueueFull, ErrShuttingDown, or a
// validation error wrapping sim.ErrInvalidConfig/sim.ErrUnknownWorkload).
//
// Two identical submissions racing before either completes both simulate;
// the store's atomic Put makes the duplicate write harmless. Deduplication
// is an at-most-once-after-completion guarantee, not an in-flight one.
func (s *Server) Submit(cfg sim.Config, opts ...SubmitOption) (*Job, error) {
	var o submitOptions
	for _, opt := range opts {
		opt(&o)
	}
	var fp string
	var ok bool
	if o.specSet {
		if err := sim.ValidateSpecJob(cfg, o.spec); err != nil {
			return nil, err
		}
		cfg.Workload = o.spec.Name
		fp, ok = sim.FingerprintSpec(cfg, o.spec)
	} else {
		if err := cfg.ValidateJob(); err != nil {
			return nil, err
		}
		fp, ok = sim.Fingerprint(cfg)
	}
	if !ok {
		// Unreachable: ValidateJob/ValidateSpecJob reject custom prefetchers.
		return nil, fmt.Errorf("%w: configuration is not fingerprintable", sim.ErrInvalidConfig)
	}
	cfg.Progress = nil // the worker installs its own sinks
	cfg.Tracer = nil

	tenant := o.tenant
	if tenant == "" {
		tenant = defaultTenant
	}
	if err := s.sched.validateTenant(tenant); err != nil {
		return nil, err
	}

	traceID := o.traceID
	if traceID == "" {
		traceID = obs.NewTraceID()
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	s.nextID++
	job := &Job{
		id:          fmt.Sprintf("job-%06d", s.nextID),
		fp:          fp,
		cfg:         cfg,
		spec:        o.spec,
		tenant:      tenant,
		priority:    o.priority,
		sweepID:     o.sweepID,
		traceID:     traceID,
		rootSpan:    obs.NewSpanID(),
		parentSpan:  o.parentSpan,
		state:       StateQueued,
		submittedAt: time.Now(),
		subs:        make(map[int]chan sim.Snapshot),
		done:        make(chan struct{}),
	}
	if o.series {
		job.series = &series.Recorder{Limit: maxIntervals}
	}
	s.jobs[job.id] = job
	s.mu.Unlock()
	s.m.submitted.Add(1)
	s.log.Info("job submitted", "job", job.id, "fingerprint", shortFP(fp),
		"workload", cfg.Workload, "prefetcher", cfg.Prefetcher, "series", o.series)

	if res, ok := s.cacheLookup(fp); ok {
		s.m.cacheHits.Add(1)
		s.m.completed.Add(1)
		var seriesBin []byte
		if o.series && s.cfg.Store != nil {
			seriesBin, _ = s.cfg.Store.GetSeries(fp)
		}
		job.mu.Lock()
		job.cacheHit = true
		job.seriesBin = seriesBin
		job.finishLocked(StateDone, &res, "")
		submitted, finished := job.submittedAt, job.finishedAt
		job.mu.Unlock()
		s.addSpan(job, obs.Span{SpanID: job.rootSpan, Parent: job.parentSpan,
			Name: "job", Start: submitted, End: finished,
			Attrs: map[string]string{"outcome": "cache_hit", "tenant": job.tenant}})
		s.writeProvenance(job, store.OutcomeCacheHit, "", -1, false, 0, 0, 0)
		job.signalDone()
		s.log.Info("job done", "job", job.id, "cache_hit", true, "series", seriesBin != nil)
		return job, nil
	}
	s.m.cacheMisses.Add(1)

	// Sweep jobs bypass the queued quotas: the sweep was admitted whole
	// at expansion and fairness, not admission, spreads its load.
	if err := s.sched.push(job, o.sweepID != ""); err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.m.rejected.Add(1)
		}
		s.dropJob(job, err)
		return nil, err
	}
	return job, nil
}

// shortFP abbreviates a fingerprint for log lines (the full 64 hex chars
// drown the rest of the record; 12 is plenty to correlate).
func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// dropJob removes a job that never entered the queue.
func (s *Server) dropJob(job *Job, cause error) {
	s.mu.Lock()
	delete(s.jobs, job.id)
	s.mu.Unlock()
	job.mu.Lock()
	job.finishLocked(StateFailed, nil, cause.Error())
	job.mu.Unlock()
	job.signalDone()
}

// Cancel stops a job: a queued job is finalized in place, a running one
// is cancelled at the next FDP interval boundary (its partial result is
// preserved when the worker finishes it). Cancelling a terminal job is a
// no-op. Returns ErrUnknownJob for an ID that was never issued.
func (s *Server) Cancel(id string) (*Job, error) {
	job, ok := s.Job(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	job.mu.Lock()
	state := job.state
	switch job.state {
	case StateQueued:
		job.finishLocked(StateCancelled, nil, "cancelled before start")
		s.m.cancelled.Add(1)
	case StateRunning:
		// The worker observes the cause via RunContext's CancelError and
		// finalizes the job with its partial result.
		job.cancel(errors.New("cancelled by client"))
	}
	job.mu.Unlock()
	if state == StateQueued {
		job.signalDone()
	}
	s.log.Info("job cancel requested", "job", job.id, "state", string(state))
	return job, nil
}

// QueueDepth returns the configured queue bound.
func (s *Server) QueueDepth() int { return s.cfg.QueueDepth }

// worker pops from the fair scheduler until Shutdown closes it. The pop
// holds a running slot on the job's tenant; release returns it whatever
// runJob decides (including skipping an already-cancelled job).
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job, ok := s.sched.pop()
		if !ok {
			return
		}
		s.runJob(job)
		s.sched.release(job.tenant)
	}
}

// runJob executes one queued job end to end.
func (s *Server) runJob(job *Job) {
	job.mu.Lock()
	if job.state != StateQueued { // cancelled while waiting
		job.mu.Unlock()
		return
	}
	if s.baseCtx.Err() != nil { // shutdown won the race: never start
		job.finishLocked(StateCancelled, nil, "server shutting down")
		job.mu.Unlock()
		job.signalDone()
		s.m.cancelled.Add(1)
		return
	}
	wait := time.Since(job.submittedAt)
	job.state = StateRunning
	job.startedAt = time.Now()
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	job.cancel = cancel
	job.mu.Unlock()
	defer cancel(nil)

	s.m.queueWait.observe(wait.Seconds())
	s.m.observeTenantWait(job.tenant, wait.Seconds())
	s.m.running.Add(1)
	defer s.m.running.Add(-1)
	s.log.Info("job started", "job", job.id, "queue_wait", wait)
	s.addSpan(job, obs.Span{Parent: job.rootSpan, Name: "queue",
		Start: job.submittedAt, End: job.startedAt,
		Attrs: map[string]string{"tenant": job.tenant}})

	runCtx := ctx
	if s.cfg.JobTimeout > 0 {
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer tcancel()
	}

	// Fleet coordination: claim the fingerprint before simulating. Another
	// worker may already have the result (adopt it), hold a live lease
	// (wait with backoff, steal past expiry), or have crashed mid-write
	// (the claim machinery recovers). Exhausted attempts fall back to
	// executing locally: execution is at-least-once, results are
	// exactly-once through the store's atomic Put.
	var fleetAcquired bool
	claimGen, claimStolen := -1, false
	if s.cfg.FleetWorker != "" {
		claimStart := time.Now()
		acquired, res, fromStore, info, claimEvents := s.fleetClaim(runCtx, job)
		claimSpan := obs.Span{Parent: job.rootSpan, Name: "claim",
			Start: claimStart, End: time.Now(), Events: claimEvents,
			Attrs: map[string]string{"worker": s.cfg.FleetWorker}}
		if fromStore {
			claimSpan.Attrs["outcome"] = "adopted"
			if info.Trace != "" {
				claimSpan.Attrs["executor_trace"] = info.Trace
			}
			s.addSpan(job, claimSpan)
			s.storeResult(job.fp, res)
			s.m.fleetAdopted.Add(1)
			s.m.completed.Add(1)
			job.mu.Lock()
			job.cacheHit = true
			job.finishLocked(StateDone, &res, "")
			submitted, finished := job.submittedAt, job.finishedAt
			job.mu.Unlock()
			s.addSpan(job, obs.Span{SpanID: job.rootSpan, Parent: job.parentSpan,
				Name: "job", Start: submitted, End: finished,
				Attrs: map[string]string{"outcome": "adopted", "tenant": job.tenant}})
			s.writeProvenance(job, store.OutcomeAdopted, "", -1, false, wait, 0, 0)
			job.signalDone()
			s.log.Info("job finished", "job", job.id, "state", "done", "fleet_adopted", true)
			return
		}
		fleetAcquired = acquired
		if fleetAcquired {
			claimGen, claimStolen = info.Gen(), info.Stolen
			claimSpan.Attrs["outcome"] = "acquired"
			claimSpan.Attrs["lease_gen"] = strconv.Itoa(claimGen)
			if claimStolen {
				claimSpan.Attrs["stolen"] = "true"
			}
			// The claim outlives the run only until the result is stored;
			// released on every exit so a failed run frees the fingerprint.
			defer s.cfg.Store.Release(job.fp, s.cfg.FleetWorker)
		} else {
			claimSpan.Attrs["outcome"] = "local_fallback"
		}
		s.addSpan(job, claimSpan)
	}

	cfg := job.cfg
	ctl := controllerLabel(cfg)
	cfg.Progress = func(snap sim.Snapshot) {
		s.m.observeSnapshot(intervalSample{final: snap.Final, controller: ctl, insertion: snap.Insertion, sample: snap.Sample})
		job.publish(snap)
	}
	// runEvents collects in-run span events (lease renewals and losses);
	// Progress runs synchronously on this goroutine, so no lock is needed.
	var runEvents []obs.SpanEvent
	if fleetAcquired {
		// Piggyback lease renewal on progress so a live simulation never
		// loses its claim; a renewal that fails (lease stolen after a long
		// stall) is logged but the run continues — the store's atomic Put
		// keeps duplicate execution harmless.
		inner := cfg.Progress
		lastRenew := time.Now()
		cfg.Progress = func(snap sim.Snapshot) {
			inner(snap)
			if time.Since(lastRenew) >= s.cfg.LeaseTTL/3 {
				lastRenew = time.Now()
				if s.cfg.Store.Renew(job.fp, s.cfg.FleetWorker, s.cfg.LeaseTTL) {
					runEvents = append(runEvents, obs.SpanEvent{Name: "lease-renew", Time: time.Now()})
				} else {
					s.m.leaseLost.Add(1)
					runEvents = append(runEvents, obs.SpanEvent{Name: "lease-lost", Time: time.Now()})
					s.log.Warn("fleet lease lost mid-run", "job", job.id, "fingerprint", shortFP(job.fp))
				}
			}
		}
	}
	if job.series != nil {
		cfg.Tracer = job.series
	}
	s.m.executions.Add(1)
	runStart := time.Now()
	var res sim.Result
	var err error
	if job.spec != nil {
		res, err = sim.RunSpecContext(runCtx, cfg, job.spec)
	} else {
		res, err = sim.RunContext(runCtx, cfg)
	}
	runDur := time.Since(runStart)

	s.m.simCycles.Add(res.Counters.Cycles)
	s.m.engineActive.Add(res.Engine.ActiveCycles)
	s.m.engineSkipped.Add(res.Engine.SkippedCycles)
	s.m.simNanos.Add(uint64(res.Elapsed.Nanoseconds()))

	runSpan := obs.Span{Parent: job.rootSpan, Name: "run",
		Start: runStart, End: runStart.Add(runDur), Events: runEvents,
		Attrs: map[string]string{
			"workload":  cfg.Workload,
			"intervals": strconv.FormatUint(res.Intervals, 10),
		}}
	if job.series != nil {
		// Link the fabric span to the in-run DecisionEvent stream it wraps.
		runSpan.Attrs["decision_events"] = strconv.Itoa(job.series.Len())
	}
	s.addSpan(job, runSpan)

	// Encode the interval-timeseries sidecar before finishing so the
	// series and trace endpoints see a complete artifact the moment Done()
	// closes. Cancelled runs keep their partial series (it matches the
	// partial result) but only full runs are persisted, mirroring
	// store.Put; losing the write costs a future cache hit, not this job.
	var seriesBin []byte
	if job.series != nil {
		sr := job.series.Series()
		sr.Meta.Workload = cfg.Workload
		sr.Meta.Prefetcher = string(cfg.Prefetcher)
		if doc, serr := series.Encode(sr); serr == nil {
			seriesBin = doc
			s.m.seriesPoints.Add(uint64(sr.Len() * len(sr.Meta.Metrics)))
			s.m.seriesBytes.Add(uint64(len(doc)))
			if err == nil && s.cfg.Store != nil {
				_ = s.cfg.Store.PutSeries(job.fp, doc)
			}
		}
		s.m.traceTruncated.Add(job.series.Truncated())
		if truncated := job.series.Truncated(); truncated > 0 {
			s.log.Warn("interval series truncated", "job", job.id,
				"kept", job.series.Len(), "truncated", truncated)
		}
	}

	var storeDur time.Duration
	if err == nil {
		// Cache before finishing so a poller that sees state "done" and
		// immediately resubmits an identical config gets the hit.
		storeStart := time.Now()
		s.storeResult(job.fp, res)
		storeDur = time.Since(storeStart)
		s.addSpan(job, obs.Span{Parent: job.rootSpan, Name: "store",
			Start: storeStart, End: storeStart.Add(storeDur)})
	}
	job.mu.Lock()
	job.seriesBin = seriesBin
	switch {
	case err == nil:
		s.m.completed.Add(1)
		job.finishLocked(StateDone, &res, "")
	case errors.Is(err, sim.ErrCancelled):
		s.m.cancelled.Add(1)
		partial := res
		job.finishLocked(StateCancelled, &partial, err.Error())
	default:
		s.m.failed.Add(1)
		job.finishLocked(StateFailed, nil, err.Error())
	}
	state, started := job.state, job.startedAt
	submitted, finished := job.submittedAt, job.finishedAt
	job.mu.Unlock()

	s.addSpan(job, obs.Span{SpanID: job.rootSpan, Parent: job.parentSpan,
		Name: "job", Start: submitted, End: finished,
		Attrs: map[string]string{"outcome": string(state), "tenant": job.tenant}})
	outcome, errMsg := store.OutcomeExecuted, ""
	switch {
	case errors.Is(err, sim.ErrCancelled):
		outcome, errMsg = store.OutcomeCancelled, err.Error()
	case err != nil:
		outcome, errMsg = store.OutcomeFailed, err.Error()
	}
	s.writeProvenance(job, outcome, errMsg, claimGen, claimStolen, wait, runDur, storeDur)
	job.signalDone()

	attrs := []any{"job", job.id, "state", string(state),
		"duration", time.Since(started), "intervals", res.Intervals}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
		s.log.Warn("job finished", attrs...)
		return
	}
	s.log.Info("job finished", attrs...)
}

// fleetClaim negotiates fingerprint ownership with the rest of the
// fleet. It returns fromStore with the finished result when another
// worker completed it, acquired when this worker won the claim, or
// neither when the bounded retries ran out (execute locally) or ctx
// ended (the run exits immediately anyway). info describes the claim
// outcome (the acquired lease, or the holder observed last); events are
// the negotiation's span events (waits, steals) for the claim span.
func (s *Server) fleetClaim(ctx context.Context, job *Job) (acquired bool, res sim.Result, fromStore bool, info store.ClaimInfo, events []obs.SpanEvent) {
	st := s.cfg.Store
	backoff := 25 * time.Millisecond
	for attempt := 0; attempt < s.cfg.ClaimAttempts; attempt++ {
		state, cur, err := st.ClaimTrace(job.fp, s.cfg.FleetWorker, s.cfg.LeaseTTL, job.traceID)
		if err != nil {
			s.log.Warn("fleet claim error; executing locally", "job", job.id, "error", err)
			return false, sim.Result{}, false, cur, events
		}
		switch state {
		case store.ClaimDone:
			if r, ok := st.Get(job.fp); ok {
				return false, r, true, cur, events
			}
			// The result was discarded as corrupt between Claim and Get;
			// recover by executing locally.
			return false, sim.Result{}, false, cur, events
		case store.ClaimAcquired:
			s.m.claimsAcquired.Add(1)
			if cur.Stolen {
				s.m.claimsStolen.Add(1)
				events = append(events, obs.SpanEvent{Name: "lease-steal", Time: time.Now(),
					Attrs: map[string]string{"lease_gen": strconv.Itoa(cur.Gen())}})
				s.log.Info("fleet claim stolen from expired lease", "job", job.id,
					"fingerprint", shortFP(job.fp))
			}
			return true, sim.Result{}, false, cur, events
		case store.ClaimHeld:
			s.m.claimsWaited.Add(1)
			wait := backoff
			// Never sleep far past the holder's lease: the moment it
			// expires this worker is eligible to steal.
			if until := time.Until(cur.Expires); until > 0 && until+5*time.Millisecond < wait {
				wait = until + 5*time.Millisecond
			}
			events = append(events, obs.SpanEvent{Name: "claim-wait", Time: time.Now(),
				Attrs: map[string]string{"holder": cur.Owner, "wait": wait.String()}})
			select {
			case <-ctx.Done():
				return false, sim.Result{}, false, cur, events
			case <-time.After(wait):
			}
			if backoff < 2*time.Second {
				backoff *= 2
			}
		}
	}
	s.log.Warn("fleet claim attempts exhausted; executing locally",
		"job", job.id, "fingerprint", shortFP(job.fp), "attempts", s.cfg.ClaimAttempts)
	return false, sim.Result{}, false, store.ClaimInfo{}, events
}

// Executions returns how many simulations this server actually ran
// (excluding cache hits and fleet-adopted results) — the fleet e2e's
// exactly-once bookkeeping.
func (s *Server) Executions() uint64 { return s.m.executions.Load() }

// Tenants exports the scheduler's per-tenant state.
func (s *Server) Tenants() []TenantSnapshot { return s.sched.snapshot() }

// SetTenant registers or reconfigures a scheduler tenant at runtime.
func (s *Server) SetTenant(name string, cfg TenantConfig) { s.sched.register(name, cfg) }

// controllerLabel names a configuration's decision policy for metrics
// series: the explicit Controller, or the paper default.
func controllerLabel(cfg sim.Config) string {
	if cfg.Controller != "" {
		return cfg.Controller
	}
	return defaultController
}

// dccDistribution samples, for the metrics endpoint, how many currently
// running jobs sit at each Dynamic Configuration Counter level (1..5,
// from their latest progress snapshot), grouped by the job's decision
// policy. Inner index 0 is unused.
func (s *Server) dccDistribution() map[string][6]int {
	dist := make(map[string][6]int)
	for _, job := range s.Jobs() {
		job.mu.Lock()
		if job.state == StateRunning && job.lastSnap != nil {
			if lvl := job.lastSnap.Level; lvl >= 1 && lvl <= 5 {
				ctl := controllerLabel(job.cfg)
				d := dist[ctl]
				d[lvl]++
				dist[ctl] = d
			}
		}
		job.mu.Unlock()
	}
	return dist
}

// Shutdown stops intake (submissions fail with ErrShuttingDown), cancels
// queued and in-flight jobs — running simulations stop at their next FDP
// interval boundary and keep their partial results — and waits for the
// worker pool to drain, up to ctx's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.sched.close()
	}
	s.mu.Unlock()
	s.log.Info("shutdown: draining worker pool", "running", s.m.running.Load())
	s.baseCancel(ErrShuttingDown)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
