package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"esse/internal/covstore"
	"esse/internal/realtime"
	"esse/internal/rng"
)

// options configures one benchmark run.
type options struct {
	w    workload
	seed uint64
	// budget is the wall time of the measured closed loop.
	budget time.Duration
	// maxCycles caps the measured cycles (0 = run for the whole budget).
	maxCycles int
	// scratch holds the covstore directories of workloads that use one.
	scratch string
	// spanDir, when set, receives the traced run's spans as JSON lines.
	spanDir string
}

const (
	// twins is how many independent twin experiments an end-to-end run
	// interleaves. A cycle's cost and skill depend on the twin's state,
	// so one twin per run would make the run-to-run spread the spread
	// between twins; averaging over several keeps a run steady across
	// seeds.
	twins = 4
	// setupReps is how many times a run builds each twin's System;
	// setup_s is the median over all builds.
	setupReps = 2
	// subspaceTol is the orthonormality tolerance of the posterior check.
	subspaceTol = 1e-6
)

// twinSeed derives the j-th twin's realtime seed from the workload seed.
func twinSeed(seed uint64, j int) uint64 {
	return rng.New(seed).Split(uint64(j)).Uint64()
}

// loopStats is what the closed loop measured.
type loopStats struct {
	cycleS    []float64 // RunCycle wall time of each passing cycle
	ensembleS []float64 // workflow.Result.Elapsed of each passing cycle
	// The sums run over passing cycles. rmseRatioSum adds each cycle's
	// analysis RMSE ÷ forecast RMSE (temperature, against truth).
	membersUsed  int
	cycleWall    float64
	rmseSum      float64
	rmseRatioSum float64
	attempted    int
	failed       int
	// allocBytes is the TotalAlloc growth over the loop and heapPeak the
	// largest sampled heap-object footprint.
	allocBytes uint64
	heapPeak   uint64
}

// openStore gives a workload that uses covstore a fresh directory under
// scratch; the caller removes scratch when the run ends.
func openStore(o options, name string) (*covstore.Store, error) {
	if !o.w.store {
		return nil, nil
	}
	return covstore.Open(filepath.Join(o.scratch, name))
}

// setUp builds one System per configuration, setupReps times each after
// a forced GC, and returns the last builds with the median build time in
// seconds.
func setUp(cfgs []realtime.Config) ([]*realtime.System, float64, error) {
	var times []float64
	systems := make([]*realtime.System, len(cfgs))
	for j, cfg := range cfgs {
		for r := 0; r < setupReps; r++ {
			runtime.GC()
			t0 := time.Now()
			s, err := realtime.NewSystem(cfg)
			d := time.Since(t0).Seconds()
			if err != nil {
				return nil, 0, fmt.Errorf("setup: %w", err)
			}
			times = append(times, d)
			systems[j] = s
		}
	}
	return systems, median(times), nil
}

// closedLoop runs one warm-up cycle per system, so lazy allocations,
// heap growth and each twin's first cycle off its climatological
// subspace are not measured. It then runs cycles back to back, taking
// the systems in turn, until the budget is spent or maxCycles have been
// measured. A cycle that returns an error or fails checkCycle counts as
// failed and is left out of the timing samples. A non-nil tracer observes
// every cycle, warm-up cycles included.
func closedLoop(ctx context.Context, systems []*realtime.System, o options, budget time.Duration, h *tracer, sampleHeap bool) (*loopStats, error) {
	for _, sys := range systems {
		if h != nil {
			h.before(sys)
		}
		t0 := time.Now()
		res, err := sys.RunCycle(ctx)
		wall := time.Since(t0)
		if err == nil {
			err = checkCycle(sys, res)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up cycle: %w", err)
		}
		if h != nil {
			if err := h.after(sys, res, wall, false); err != nil {
				return nil, err
			}
		}
	}

	st := &loopStats{}
	runtime.GC()
	var sampler *heapSampler
	if sampleHeap {
		sampler = startHeapSampler()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for time.Since(start) < budget && (o.maxCycles == 0 || st.attempted < o.maxCycles) {
		sys := systems[st.attempted%len(systems)]
		if h != nil {
			h.before(sys)
		}
		t0 := time.Now()
		res, err := sys.RunCycle(ctx)
		wall := time.Since(t0)
		st.attempted++
		if err == nil {
			err = checkCycle(sys, res)
		}
		if err != nil {
			st.failed++
			fmt.Fprintf(os.Stderr, "cyclebench: cycle %d failed: %v\n", st.attempted, err)
			continue
		}
		st.cycleS = append(st.cycleS, wall.Seconds())
		st.ensembleS = append(st.ensembleS, res.Ensemble.Elapsed.Seconds())
		st.membersUsed += res.Ensemble.MembersUsed
		st.cycleWall += wall.Seconds()
		st.rmseSum += res.RMSEAnalysisT
		st.rmseRatioSum += res.RMSEAnalysisT / res.RMSEForecastT
		if h != nil {
			if err := h.after(sys, res, wall, true); err != nil {
				return nil, err
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	st.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if sampler != nil {
		st.heapPeak = sampler.stop()
	}
	return st, nil
}

// checkCycle is the per-cycle correctness verdict: a finite analysis, an
// update that reduced the R-weighted misfit, a structurally valid
// posterior subspace, and an ensemble that used at least two members and
// either converged or exhausted its size budget.
func checkCycle(sys *realtime.System, res *realtime.CycleResult) error {
	for i, v := range sys.Analysis() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("analysis element %d is %v", i, v)
		}
	}
	if !(res.ResidualNorm < res.InnovationNorm) {
		return fmt.Errorf("residual norm %v not below innovation norm %v", res.ResidualNorm, res.InnovationNorm)
	}
	if err := sys.Subspace().Check(subspaceTol); err != nil {
		return fmt.Errorf("posterior subspace: %w", err)
	}
	ens := res.Ensemble
	if ens.MembersUsed < 2 {
		return fmt.Errorf("only %d members used", ens.MembersUsed)
	}
	if maxSize := sys.Cfg.Ensemble.MaxSize; !ens.Converged && ens.MembersUsed+ens.MembersFailed < maxSize {
		return fmt.Errorf("ensemble stopped at %d of %d members without converging", ens.MembersUsed+ens.MembersFailed, maxSize)
	}
	return nil
}

// heapSampler polls the live heap-object footprint; the runtime/metrics
// read does not stop the world, so polling does not perturb the cycles.
type heapSampler struct {
	done chan struct{}
	peak chan uint64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.done:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler, waits for it, and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	return <-h.peak
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// The reported tail is the tailPercentile-th percentile, or, when fewer
// than tailSamples samples would lie beyond it, the highest percentile
// with tailSamples beyond it. A fixed percentile keeps the tail
// comparable between runs that fit different numbers of cycles into the
// same budget (a faster program would otherwise report a higher, noisier
// percentile), and p90 of the hundreds of cycles a fast workload runs is
// far steadier than its p99.
const (
	tailPercentile = 90
	tailSamples    = 10
)

// tail returns the tail sample and its percentile. With too few samples
// it returns the maximum (percentile 100).
func tail(v []float64) (value, percentile float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	i := int(math.Ceil(tailPercentile*float64(n)/100)) - 1
	if n-1-i < tailSamples {
		i = n - 1 - tailSamples
	}
	if i < 0 {
		return s[n-1], 100
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

// errNoCycles reports a run in which no cycle passed.
var errNoCycles = errors.New("no cycle passed its checks")
