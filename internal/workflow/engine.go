// Package workflow implements the ESSE many-task workflow of the paper's
// Section 4: the serial reference implementation (Fig. 3) and the
// parallel MTC implementation (Fig. 4) with a pool of concurrent
// perturb/forecast tasks, a continuously running diff stage, a
// continuously running SVD + convergence stage, adaptive ensemble
// growth, convergence-driven cancellation, deadline tolerance and
// failure tolerance.
//
// Members may finish in any order, but both engines admit them to the
// ensemble in member-index order: member i joins only once every lower
// index has settled (completed, or failed and abandoned after retries).
// SVD rounds, the convergence decision, growth and the final subspace
// therefore depend only on which indices completed, never on which
// finished first, so with a runner that derives its randomness from the
// index the Result is bit-identical for any Workers value. The one
// timing-dependent path is cancellation by the clock or the caller
// (Config.Deadline, ctx): whatever prefix had settled by then is used.
//
// The five ESSE-vs-high-throughput differences the paper enumerates map
// to engine features as follows:
//
//  1. hard forecast deadline        → Config.Deadline, late members ignored
//  2. dynamically adjusted size     → Config.GrowthFactor / MaxSize
//  3. individual members ignorable  → failure counting, no global abort
//  4. full member datasets required → members return complete state vectors
//  5. members may be parallel codes → MemberRunner is free to fan out
package workflow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"esse/internal/core"
	"esse/internal/covstore"
	"esse/internal/linalg"
	"esse/internal/telemetry"
	"esse/internal/trace"
)

// MemberRunner computes one ensemble member: it perturbs the initial
// conditions for the given member index and integrates the forecast,
// returning the packed forecast state. Implementations must be safe for
// concurrent invocation and should derive all randomness from the index
// so results are independent of scheduling order.
type MemberRunner func(ctx context.Context, index int) ([]float64, error)

// Config parameterizes an ESSE workflow run.
type Config struct {
	// InitialSize is N, the first ensemble size attempted.
	InitialSize int
	// MaxSize is Nmax, the ensemble size cap.
	MaxSize int
	// GrowthFactor scales the pool when convergence fails (N → ⌈N·g⌉).
	GrowthFactor float64
	// MaxRank caps the error subspace rank (0 = ensemble size).
	MaxRank int
	// SVDBatch runs the SVD stage each time the admitted index prefix
	// grows by this many members ("a multiple of a set number of
	// realizations"). Convergence cancels the rest of the ensemble and
	// the converging round's subspace is final: the paper's drain-and-use
	// variant is not offered, because which members are still running
	// at that instant depends on timing.
	SVDBatch int
	// Criterion is the subspace convergence test.
	Criterion core.ConvergenceCriterion
	// Workers is the number of concurrent forecast tasks (pool width).
	Workers int
	// Deadline bounds the wall-clock time of the whole ensemble (Tmax).
	// Zero means no deadline. Members not admitted by the deadline are
	// ignored, per the paper; this is the only setting under which the
	// Result depends on timing.
	Deadline time.Duration
	// SigmaRelTol drops subspace modes below this fraction of σmax.
	SigmaRelTol float64
	// Retries is how many times a failed member is retried before its
	// index is abandoned (failures are tolerable, not catastrophic).
	Retries int
	// Store, when non-nil, routes anomaly snapshots through the on-disk
	// triple-file protocol: the diff stage publishes and the SVD stage
	// reads back the safe file, exactly as the shell implementation did.
	Store *covstore.Store
	// OnProgress, when non-nil, is invoked from the coordinator after
	// every member settles and every SVD round with a progress snapshot —
	// the monitoring hook the shell implementation lacked ("no easy way
	// for the user to monitor the progress of one's jobs", §5.3.1). The
	// callback runs on the coordinator goroutine and must be fast.
	OnProgress func(Progress)
	// Telemetry, when non-nil, receives per-member lifecycle events
	// (queued → dispatched → running → retried → done/failed/cancelled),
	// wall-clock spans for members and SVD rounds, and engine metrics.
	// The nil default makes every instrumentation call a no-op.
	Telemetry *telemetry.Telemetry
}

// Progress is a point-in-time snapshot of a running ensemble.
type Progress struct {
	Completed, Failed, Cancelled int
	Target                       int
	SVDRounds                    int
	Converged                    bool
	Rho                          float64
	Elapsed                      time.Duration
}

// DefaultConfig returns a workable configuration for tests and examples.
func DefaultConfig() Config {
	return Config{
		InitialSize:  16,
		MaxSize:      64,
		GrowthFactor: 1.5,
		MaxRank:      0,
		SVDBatch:     8,
		Criterion:    core.DefaultConvergence(),
		Workers:      4,
		SigmaRelTol:  1e-8,
		Retries:      1,
	}
}

func (c *Config) validate() error {
	if c.InitialSize < 2 {
		return errors.New("workflow: InitialSize must be >= 2")
	}
	if c.MaxSize < c.InitialSize {
		return errors.New("workflow: MaxSize must be >= InitialSize")
	}
	if c.GrowthFactor < 1 {
		return errors.New("workflow: GrowthFactor must be >= 1")
	}
	if c.Workers < 1 {
		return errors.New("workflow: Workers must be >= 1")
	}
	if c.SVDBatch < 1 {
		return errors.New("workflow: SVDBatch must be >= 1")
	}
	return nil
}

// Result summarizes an ESSE ensemble run.
type Result struct {
	// Subspace is the final error subspace estimate.
	Subspace *core.Subspace
	// Mean is the ensemble mean state (central + mean anomaly).
	Mean []float64
	// Central is the unperturbed central forecast.
	Central []float64
	// Converged reports whether the convergence criterion was met.
	Converged bool
	// Rho is the last measured subspace similarity coefficient.
	Rho float64
	// MembersUsed counts members contributing to the final subspace.
	MembersUsed int
	// MembersFailed counts members abandoned after retries.
	MembersFailed int
	// MembersCancelled counts target members neither used nor failed:
	// cancelled by convergence, deadline or the caller, never started,
	// or finished but not admitted before the run ended.
	MembersCancelled int
	// SVDRounds counts SVD/convergence stage executions.
	SVDRounds int
	// PoolSizes records the ensemble size after each growth step,
	// starting with the initial size.
	PoolSizes []int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Timeline carries per-member simulation spans (Fig. 1 material).
	Timeline *trace.Timeline
	// Anomalies is the final member-anomaly matrix (stateDim × used) and
	// MemberIndices its column-to-member bookkeeping — the inputs the
	// ESSE smoother needs (core.SmoothPrevious).
	Anomalies *linalg.Dense
	// MemberIndices records which member produced each anomaly column.
	MemberIndices []int
}

// growTarget computes the next pool size.
func growTarget(cur int, cfg *Config) int {
	next := int(float64(cur)*cfg.GrowthFactor + 0.999999)
	if next <= cur {
		next = cur + 1
	}
	if next > cfg.MaxSize {
		next = cfg.MaxSize
	}
	return next
}

type memberDone struct {
	index      int
	state      []float64
	err        error
	start, end time.Duration
}

// RunParallel executes the parallel (Fig. 4) ESSE workflow: a pool of
// Workers goroutines computes members concurrently; completions are
// admitted to the diff accumulator in member-index order as the settled
// prefix advances; the SVD/convergence stage runs on batch boundaries of
// that prefix; the pool grows on convergence failure and is cancelled on
// success, deadline expiry, or external context cancellation.
func RunParallel(ctx context.Context, cfg Config, central []float64, runner MemberRunner) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if cfg.Deadline > 0 {
		var cancelT context.CancelFunc
		runCtx, cancelT = context.WithTimeout(runCtx, cfg.Deadline)
		defer cancelT()
	}

	acc := core.NewAccumulator(central)
	tl := trace.New()

	// Metric registration may allocate, so it happens once up front; the
	// handles below are lock-free (and nil no-ops when telemetry is off).
	tel := cfg.Telemetry
	cMembersDone := tel.Counter("esse_workflow_members_total", "Ensemble members by final outcome.", "outcome", "done")
	cMembersFailed := tel.Counter("esse_workflow_members_total", "Ensemble members by final outcome.", "outcome", "failed")
	cMembersCancelled := tel.Counter("esse_workflow_members_total", "Ensemble members by final outcome.", "outcome", "cancelled")
	cRetries := tel.Counter("esse_workflow_retries_total", "Member attempts that failed and were retried.")
	cSVDRounds := tel.Counter("esse_workflow_svd_rounds_total", "SVD/convergence stage executions.")
	hMemberSec := tel.Histogram("esse_workflow_member_seconds", "Wall-clock duration of one ensemble member forecast.", nil)
	hSVDSec := tel.Histogram("esse_workflow_svd_seconds", "Wall-clock duration of one SVD/convergence round.", nil)
	gTarget := tel.Gauge("esse_workflow_target_members", "Current ensemble size target.")
	gTarget.Set(float64(cfg.InitialSize))

	var target atomic.Int64
	target.Store(int64(cfg.InitialSize))
	targetChanged := make(chan struct{}, 1)

	jobs := make(chan int)
	results := make(chan memberDone, cfg.Workers*2)

	// Dispatcher: hands out member indices up to the (growing) target
	// until the run is cancelled.
	go func() {
		defer close(jobs)
		next := 0
		queued := -1
		for {
			t := int(target.Load())
			if next < t {
				if next > queued {
					queued = next
					tel.Emit("member", next, 0, telemetry.PhaseQueued)
				}
				select {
				case jobs <- next:
					next++
				case <-runCtx.Done():
					return
				}
				continue
			}
			select {
			case <-targetChanged:
			case <-runCtx.Done():
				return
			}
		}
	}()

	// Worker pool: the MTC element. Each worker perturbs + forecasts.
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		lane := int64(w + 1) // trace tid; lane 0 is the coordinator
		go func() {
			defer wg.Done()
			for idx := range jobs {
				t0 := time.Since(start)
				// Dispatched is emitted by the receiving worker, not the
				// dispatcher after its send: both orderings are the same
				// instant on an unbuffered channel, but this one makes
				// queued < dispatched < running a per-member guarantee in
				// the event stream rather than a goroutine race.
				tel.Emit("member", idx, 0, telemetry.PhaseDispatched)
				tel.Emit("member", idx, 0, telemetry.PhaseRunning)
				// The member span carries the worker's lane and rides the
				// context into the runner, so phase spans the runner opens
				// (perturb, forecast) land on the same lane as children.
				mctx, sp := tel.SpanCtx(runCtx, "workflow", "member", int64(idx), lane)
				state, err := runWithRetries(mctx, cfg.Retries, idx, runner, tel, cRetries)
				sp.End()
				results <- memberDone{index: idx, state: state, err: err, start: t0, end: time.Since(start)}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Coordinator: the continuous diff + SVD/convergence stages.
	res := &Result{Timeline: tl, PoolSizes: []int{cfg.InitialSize}, Central: acc.Central()}
	var prev, cur *core.Subspace
	lastSVD := 0

	runSVD := func() error {
		// ctx (not runCtx) on purpose: runCtx is already cancelled when
		// the run ends, but the final SVD must still parent under the
		// caller's span; SpanCtx uses the context only for lineage.
		svdCtx, sp := tel.SpanCtx(ctx, "workflow", "svd", int64(res.SVDRounds), 0)
		defer sp.End()
		svdStart := time.Now()
		defer func() { hSVDSec.Observe(time.Since(svdStart).Seconds()) }()
		anoms := acc.Anomalies()
		indices := acc.Indices()
		if cfg.Store != nil {
			// Publish through the triple-file protocol and read back the
			// safe file, like the shell implementation's differ/SVD pair.
			if _, err := cfg.Store.WriteSnapshotCtx(svdCtx, anoms, indices); err != nil {
				return fmt.Errorf("workflow: diff publish: %w", err)
			}
			m, _, _, err := cfg.Store.ReadSafeCtx(svdCtx)
			if err != nil {
				return fmt.Errorf("workflow: SVD read: %w", err)
			}
			anoms = m
		}
		if anoms.Cols < 2 {
			return nil
		}
		cur = core.SubspaceFromAnomalies(anoms, cfg.MaxRank, cfg.SigmaRelTol)
		res.SVDRounds++
		cSVDRounds.Inc()
		lastSVD = anoms.Cols
		if prev != nil {
			ok, rho := cfg.Criterion.Converged(prev, cur)
			res.Rho = rho
			if ok {
				res.Converged = true
				cancel()
			}
		}
		prev = cur
		return nil
	}

	notify := func() {
		if cfg.OnProgress == nil {
			return
		}
		cfg.OnProgress(Progress{
			Completed: res.MembersUsed,
			Failed:    res.MembersFailed,
			Cancelled: res.MembersCancelled,
			Target:    int(target.Load()),
			SVDRounds: res.SVDRounds,
			Converged: res.Converged,
			Rho:       res.Rho,
			Elapsed:   time.Since(start),
		})
	}

	// settle folds the next member of the prefix into the result: a
	// completion is admitted to the ensemble and may close an SVD batch;
	// a failure is only counted.
	settle := func(d memberDone) error {
		if d.err != nil {
			res.MembersFailed++
			cMembersFailed.Inc()
			tel.Emit("member", d.index, 0, telemetry.PhaseFailed)
			return nil
		}
		if err := acc.Add(d.index, d.state); err != nil {
			return err
		}
		res.MembersUsed++
		cMembersDone.Inc()
		hMemberSec.Observe((d.end - d.start).Seconds())
		tel.Emit("member", d.index, 0, telemetry.PhaseDone)
		tl.Add(trace.SimulationTime, fmt.Sprintf("member-%d", d.index),
			d.start.Seconds(), d.end.Seconds())
		if res.MembersUsed >= lastSVD+cfg.SVDBatch {
			return runSVD()
		}
		return nil
	}

	// held keeps completions that arrived beyond the settled prefix
	// [0, settled). Once runCtx is done — convergence, deadline, the
	// caller, the pool running out, or an error — nothing more settles,
	// so a member that returns because it was cancelled stays held.
	held := make(map[int]memberDone)
	settled := 0
	var loopErr error
	for done := range results {
		held[done.index] = done
		for runCtx.Err() == nil {
			d, ok := held[settled]
			if !ok {
				break
			}
			delete(held, settled)
			settled++
			if err := settle(d); err != nil {
				loopErr = err
				cancel()
				break
			}
			notify()
		}

		t := int(target.Load())
		if settled < t || runCtx.Err() != nil {
			continue
		}
		if t >= cfg.MaxSize {
			cancel() // out of budget: use what we have
			continue
		}
		next := growTarget(t, &cfg)
		target.Store(int64(next))
		gTarget.Set(float64(next))
		res.PoolSizes = append(res.PoolSizes, next)
		select {
		case targetChanged <- struct{}{}:
		default:
		}
	}
	for idx := range held {
		tel.Emit("member", idx, 0, telemetry.PhaseCancelled)
	}
	res.MembersCancelled = int(target.Load()) - res.MembersUsed - res.MembersFailed
	cMembersCancelled.Add(uint64(res.MembersCancelled))
	if loopErr != nil {
		return nil, loopErr
	}

	// Final SVD over a prefix that ended between batch boundaries: the
	// pool ran out, or the deadline or the caller cut the run short.
	// After convergence nothing is admitted, so the converging round's
	// subspace stands.
	if acc.Len() >= 2 && (acc.Len() != lastSVD || cur == nil) {
		if err := runSVD(); err != nil {
			return nil, err
		}
	}
	if cur == nil {
		return nil, fmt.Errorf("workflow: only %d members completed; cannot form a subspace", acc.Len())
	}
	res.Subspace = cur
	res.Mean = acc.EnsembleMean()
	res.Anomalies = acc.Anomalies()
	res.MemberIndices = acc.Indices()
	res.Elapsed = time.Since(start)
	return res, nil
}

func runWithRetries(ctx context.Context, retries, idx int, runner MemberRunner, tel *telemetry.Telemetry, cRetries *telemetry.Counter) ([]float64, error) {
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if attempt > 0 {
			tel.Emit("member", idx, attempt, telemetry.PhaseRetried)
			cRetries.Inc()
		}
		var state []float64
		state, err = runner(ctx, idx)
		if err == nil {
			return state, nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
	}
	return nil, err
}
