package main

// The traced run: a per-layer ledger recorded from the benchmark's own
// files. No span lives inside the program. The ledger has three sources:
//
//   - the member runner, wrapped through realtime.Config.WrapRunner, gives
//     one span per member call (busy time, launch/outcome counts);
//   - workflow.Config.OnProgress gives the SVD-round prefix sizes;
//   - after each cycle, direct timed calls replay the layers the cycle
//     reaches only internally, on that cycle's own inputs (its starting
//     analysis, subspace and truth, its ensemble result) and at the call
//     counts it made (members run, SVD-round prefix sizes, observations).
//
// Replays run single-threaded between cycles, outside the cycle's wall
// time, so they measure each layer without contention from the other
// worker. The program's own phase spans (realtime.Config.Telemetry → the
// internal/forensics digest) are recorded in the same run and compared
// with the ledger, layer by layer.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"esse/internal/adaptive"
	"esse/internal/core"
	"esse/internal/covstore"
	"esse/internal/forensics"
	"esse/internal/linalg"
	"esse/internal/obs"
	"esse/internal/ocean"
	"esse/internal/realtime"
	"esse/internal/rng"
	"esse/internal/telemetry"
	"esse/internal/workflow"
)

// Span names, "<layer>.<call>". Each is a direct call into the layer's
// public API, except cycle and member, which are the benchmark's spans
// around RunCycle and the member runner.
const (
	spCycle      = "realtime.cycle"
	spMember     = "workflow.member"
	spTruth      = "realtime.truth"
	spCentral    = "realtime.central_forecast"
	spPerturb    = "core.perturb"
	spModelNew   = "ocean.model_new"
	spForecast   = "ocean.forecast"
	spNormVec    = "rng.norm_vec"
	spAccAdd     = "core.accumulate_add"
	spAccAnoms   = "core.accumulate_anomalies"
	spStoreWrite = "covstore.write"
	spStoreRead  = "covstore.read"
	spSVD        = "core.svd"
	spConverge   = "core.converge"
	spPlan       = "adaptive.plan"
	spAssimilate = "core.assimilate"
	spSmooth     = "core.smooth"
)

const (
	// tracedShare: the untraced reference segment of a traced run gets
	// 1/tracedShare of the budget, the traced segment the rest.
	tracedShare = 3
	// normChunk is the buffer length of the timed NormVec sweep.
	normChunk = 1 << 12
	// replayStreams splits the replays' random streams off the workload
	// seed, apart from every stream the twin itself uses.
	replayStreams = 0xBE
)

// span is one recorded interval. Start is relative to its parent: the
// cycle for cycle/member spans, the replay of that cycle for replays.
type span struct {
	Cycle   int     `json:"cycle"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// memberCall is one invocation of the wrapped member runner.
type memberCall struct {
	index      int
	start, end time.Duration // since the cycle began
	ran        bool          // returned a forecast state (did the full work)
}

// cycleTrace collects what the wrapper and the progress hook saw during
// one RunCycle. Member calls arrive from worker goroutines.
type cycleTrace struct {
	start  time.Time
	mu     sync.Mutex
	calls  []memberCall
	rounds []int // SVD-round prefix sizes, from OnProgress
	seen   int   // SVD rounds reported so far
}

// preState is the cycle's input, captured before RunCycle.
type preState struct {
	analysis []float64
	sub      *core.Subspace
	truth    []float64
}

// counts are the per-cycle work counts, summed over measured cycles.
// They are computed from the configuration and the call counts, so they
// repeat exactly for a given schedule.
type counts struct {
	cycles                                    int
	wall, ensemble, busy                      float64 // seconds
	launched, used, cancelled, failed         int
	growths, rounds, obs                      int
	cellSteps, normals, gramFlops, assimFlops float64
	bytesWritten, bytesRead                   float64
	memberCellSteps                           float64 // cell steps of the replayed member forecasts
}

// tracer observes the cycles of the traced segment: before captures a
// cycle's inputs, after records its spans and replays its layers
// (measured is false for warm-up cycles).
type tracer struct {
	o        options
	cfg      realtime.Config
	oceanCfg ocean.Config
	scaler   *core.Scaler
	scaled   *obs.ScaledNetwork
	cands    []adaptive.Candidate
	candLocs [][2]int
	castStd  float64
	store    *covstore.Store // replay store, apart from the program's
	streams  *rng.Stream
	tel      *telemetry.Telemetry

	cur     *cycleTrace
	pre     preState
	spans   []span
	total   map[string]float64 // seconds per span name, measured cycles
	calls   map[string]int
	cnt     counts
	cycleNo []int // RunCycle numbers of the measured cycles
	normBuf []float64
}

// instrument returns cfg with the benchmark's hooks and the program's
// telemetry attached.
func (t *tracer) instrument(cfg realtime.Config) realtime.Config {
	cfg.WrapRunner = func(_ int, r workflow.MemberRunner) workflow.MemberRunner {
		ct := t.cur
		return func(ctx context.Context, index int) ([]float64, error) {
			t0 := time.Since(ct.start)
			state, err := r(ctx, index)
			t1 := time.Since(ct.start)
			ct.mu.Lock()
			ct.calls = append(ct.calls, memberCall{index: index, start: t0, end: t1, ran: err == nil && state != nil})
			ct.mu.Unlock()
			return state, err
		}
	}
	// OnProgress runs on the coordinator, which is RunCycle's goroutine.
	cfg.Ensemble.OnProgress = func(p workflow.Progress) {
		if ct := t.cur; p.SVDRounds > ct.seen {
			ct.rounds = append(ct.rounds, p.Completed)
			ct.seen = p.SVDRounds
		}
	}
	t.tel = telemetry.New()
	t.tel.Tracer().SetTraceID(telemetry.DeriveTraceID(t.o.seed))
	cfg.Telemetry = t.tel
	if cfg.Ensemble.Store != nil {
		cfg.Ensemble.Store.Instrument(t.tel)
	}
	return cfg
}

// bind prepares the replay inputs that do not change between cycles,
// rebuilt from public constructors exactly as NewSystem builds them.
func (t *tracer) bind(sys *realtime.System) error {
	t.oceanCfg = ocean.DefaultConfig(sys.Layout.G)
	sc, err := core.NewScaler(sys.Layout, core.DefaultVarScales())
	if err != nil {
		return err
	}
	t.scaler = sc
	if t.scaled, err = obs.NewScaled(sys.Network, sc.Scale); err != nil {
		return err
	}
	t.castStd = t.cfg.AdaptiveCastStd
	if t.castStd <= 0 {
		t.castStd = 0.05
	}
	g := sys.Layout.G
	tIdx := sys.Layout.VarIndex("T")
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			off := sys.Layout.Offset(tIdx, i, j, 0)
			t.cands = append(t.cands, adaptive.Candidate{Offset: off, Stddev: t.castStd / sc.At(off)})
			t.candLocs = append(t.candLocs, [2]int{i, j})
		}
	}
	if t.o.w.store {
		if t.store, err = covstore.Open(filepath.Join(t.o.scratch, "replay")); err != nil {
			return err
		}
	}
	t.streams = rng.New(t.o.seed).Split(replayStreams)
	t.total = map[string]float64{}
	t.calls = map[string]int{}
	return nil
}

func (t *tracer) before(sys *realtime.System) {
	t.pre = preState{
		analysis: append([]float64(nil), sys.Analysis()...),
		sub:      sys.Subspace(),
		truth:    sys.TruthState(),
	}
	// RunCycle starts right after this returns; the wrapper's offsets
	// are relative to this instant.
	t.cur = &cycleTrace{start: time.Now()}
}

// record adds a span; only measured cycles feed the totals.
func (t *tracer) record(cycle int, name, parent string, origin, start time.Time, d time.Duration, measured bool) {
	if !measured {
		return
	}
	t.spans = append(t.spans, span{
		Cycle: cycle, Name: name, Parent: parent,
		StartUS: float64(start.Sub(origin)) / 1e3, DurUS: float64(d) / 1e3,
	})
	t.total[name] += d.Seconds()
	t.calls[name]++
}

// timed runs fn as one replay span.
func (t *tracer) timed(cycle int, name string, origin time.Time, measured bool, fn func()) {
	t0 := time.Now()
	fn()
	t.record(cycle, name, "replay", origin, t0, time.Since(t0), measured)
}

func (t *tracer) after(sys *realtime.System, res *realtime.CycleResult, wall time.Duration, measured bool) error {
	ct, ens, k := t.cur, res.Ensemble, res.Cycle
	t.record(k, spCycle, "", ct.start, ct.start, wall, measured)
	sort.Slice(ct.calls, func(a, b int) bool { return ct.calls[a].end < ct.calls[b].end })
	var ran []memberCall
	for _, c := range ct.calls {
		t.record(k, spMember, spCycle, ct.start, ct.start.Add(c.start), c.end-c.start, measured)
		if c.ran {
			ran = append(ran, c)
		}
	}
	rounds := ct.rounds
	if ens.SVDRounds > len(rounds) {
		// The engine's final SVD after the member loop reports no progress.
		rounds = append(rounds, ens.MembersUsed)
	}
	if err := t.replay(sys, res, ran, rounds, measured); err != nil {
		return fmt.Errorf("replaying cycle %d: %w", k, err)
	}
	if !measured {
		return nil
	}
	c := &t.cnt
	c.cycles++
	t.cycleNo = append(t.cycleNo, k)
	c.wall += wall.Seconds()
	c.ensemble += ens.Elapsed.Seconds()
	for _, m := range ct.calls {
		c.busy += (m.end - m.start).Seconds()
	}
	c.launched += len(ct.calls)
	c.used += ens.MembersUsed
	c.cancelled += ens.MembersCancelled
	c.failed += ens.MembersFailed
	c.growths += len(ens.PoolSizes) - 1
	c.rounds += len(rounds)
	c.obs += res.Observations

	g := sys.Layout.G
	steps := float64(t.cfg.StepsPerCycle)
	runs := float64(len(ran) + 2) // members, central forecast, truth
	c.cellSteps += float64(g.N3()) * steps * runs
	c.memberCellSteps += float64(g.N3()) * steps * float64(len(ran))
	c.normals += float64(t.normalsPerStep()) * steps * runs
	dim := float64(sys.Layout.Dim())
	for _, n := range rounds {
		c.gramFlops += dim * float64(n) * float64(n)
		if t.store != nil {
			b := snapshotBytes(sys.Layout.Dim(), n)
			c.bytesWritten += b
			c.bytesRead += b
		}
	}
	m, p := float64(res.Observations), float64(ens.Subspace.Rank())
	c.assimFlops += m*m*m + m*m*p
	return nil
}

// normalsPerStep is the number of standard normals one model step draws
// for its stochastic forcing: two wind components and one tracer term
// per horizontal cell when the respective noise is on.
func (t *tracer) normalsPerStep() int {
	per := 0
	if t.oceanCfg.NoiseWind > 0 {
		per += 2
	}
	if t.oceanCfg.NoiseTracer > 0 {
		per++
	}
	return per * t.oceanCfg.Grid.N2()
}

// snapshotBytes is the covstore file size of a dim×n snapshot: magic,
// three int64 header words, n member indices, the matrix, a checksum.
func snapshotBytes(dim, n int) float64 {
	return float64(8 + 3*8 + 8*n + 8*dim*n + 8)
}

// replay times the layers the cycle reached only internally.
func (t *tracer) replay(sys *realtime.System, res *realtime.CycleResult, ran []memberCall, rounds []int, measured bool) error {
	k, ens, cfg := res.Cycle, res.Ensemble, t.cfg
	origin := time.Now()
	st := t.streams.Split(uint64(k))
	truthPost := sys.TruthState()

	// Truth advance and central forecast: the serial head of the cycle.
	truth := ocean.New(t.oceanCfg, st.Split(0))
	truth.SetState(t.pre.truth)
	t.timed(k, spTruth, origin, measured, func() { truth.Run(cfg.StepsPerCycle) })
	t.timed(k, spCentral, origin, measured, func() {
		m := ocean.New(t.oceanCfg, st.Split(1))
		m.SetState(t.pre.analysis)
		m.Run(cfg.StepsPerCycle)
		t.scaler.ToScaled(nil, m.State(nil))
	})

	// Members, in member-index order: perturb, build the model, forecast.
	// The smoother replay needs each member's initial perturbation.
	sort.Slice(ran, func(a, b int) bool { return ran[a].index < ran[b].index })
	perts := map[int][]float64{}
	for _, c := range ran {
		ms := st.Split(uint64(c.index + 2))
		var initial, pz []float64
		t.timed(k, spPerturb, origin, measured, func() {
			pz = t.pre.sub.Perturb(nil, ms, cfg.WhiteNoise)
			pert := t.scaler.FromScaled(nil, pz)
			initial = make([]float64, len(t.pre.analysis))
			for i := range initial {
				initial[i] = t.pre.analysis[i] + pert[i]
			}
		})
		if cfg.Smooth {
			perts[c.index] = pz
		}
		var m *ocean.Model
		t.timed(k, spModelNew, origin, measured, func() { m = ocean.New(t.oceanCfg, ms.Split(7)) })
		t.timed(k, spForecast, origin, measured, func() {
			m.SetState(initial)
			m.Run(cfg.StepsPerCycle)
			state := m.State(nil)
			t.scaler.ToScaled(state, state)
		})
	}

	// The stochastic forcing's normals, drawn in one timed sweep.
	nNorm := t.normalsPerStep() * cfg.StepsPerCycle * (len(ran) + 2)
	if t.normBuf == nil {
		t.normBuf = make([]float64, normChunk)
	}
	ns := st.Split(3)
	t.timed(k, spNormVec, origin, measured, func() {
		for left := nNorm; left > 0; left -= normChunk {
			ns.NormVec(t.normBuf, min(left, normChunk))
		}
	})

	if err := t.replayRounds(k, ens, ran, rounds, origin, measured); err != nil {
		return err
	}

	// Adaptive planning, then assimilation against the same network the
	// cycle used (base plus the planned casts).
	network, scaled := sys.Network, t.scaled
	var err error
	if cfg.AdaptiveCasts > 0 {
		var plan *adaptive.Plan
		t.timed(k, spPlan, origin, measured, func() { plan, err = adaptive.Greedy(ens.Subspace, t.cands, cfg.AdaptiveCasts) })
		if err != nil {
			return err
		}
		locs := make([][2]int, len(plan.Chosen))
		for i, ci := range plan.Chosen {
			locs[i] = t.candLocs[ci]
		}
		if network, scaled, err = sys.AugmentedNetwork(locs, t.castStd); err != nil {
			return err
		}
	}
	if network.Len() != res.Observations {
		return fmt.Errorf("replayed network has %d observations, cycle had %d", network.Len(), res.Observations)
	}
	yz := scaled.ScaleObs(network.Sample(truthPost, st.Split(4)))
	t.timed(k, spAssimilate, origin, measured, func() { _, err = core.Assimilate(ens.Mean, ens.Subspace, scaled, yz) })
	if err != nil {
		return err
	}

	if cfg.Smooth {
		a0 := linalg.NewDense(sys.Layout.Dim(), len(ens.MemberIndices))
		for col, idx := range ens.MemberIndices {
			pz, ok := perts[idx]
			if !ok {
				return fmt.Errorf("member %d used but never run", idx)
			}
			a0.SetCol(col, pz)
		}
		startZ := t.scaler.ToScaled(nil, t.pre.analysis)
		innovZ := linalg.VecSub(t.scaled.ScaleObs(sys.Network.Sample(truthPost, st.Split(5))), t.scaled.ApplyH(ens.Mean))
		t.timed(k, spSmooth, origin, measured, func() { _, err = core.SmoothPrevious(startZ, a0, ens.Anomalies, t.scaled, innovZ) })
		if err != nil {
			return err
		}
	}
	return nil
}

// replayRounds re-runs the diff → (covstore) → SVD → convergence stage at
// the cycle's SVD-round prefix sizes, adding members in completion order
// as the engine's coordinator did.
func (t *tracer) replayRounds(k int, ens *workflow.Result, ran []memberCall, rounds []int, origin time.Time, measured bool) error {
	col := make(map[int]int, len(ens.MemberIndices))
	for c, idx := range ens.MemberIndices {
		col[idx] = c
	}
	arrival := append([]memberCall(nil), ran...)
	sort.Slice(arrival, func(a, b int) bool { return arrival[a].end < arrival[b].end })
	var order []int
	for _, c := range arrival {
		if _, ok := col[c.index]; ok {
			order = append(order, c.index)
		}
	}
	states := make(map[int][]float64, len(order))
	for _, idx := range order {
		s := ens.Anomalies.Col(nil, col[idx])
		for i, c := range ens.Central {
			s[i] += c
		}
		states[idx] = s
	}

	acc := core.NewAccumulator(ens.Central)
	crit := t.cfg.Ensemble.Criterion
	var prev *core.Subspace
	added := 0
	for _, n := range rounds {
		n = min(n, len(order))
		var err error
		t.timed(k, spAccAdd, origin, measured, func() {
			for ; added < n && err == nil; added++ {
				err = acc.Add(order[added], states[order[added]])
			}
		})
		if err != nil {
			return err
		}
		var anoms *linalg.Dense
		t.timed(k, spAccAnoms, origin, measured, func() { anoms = acc.Anomalies() })
		if t.store != nil {
			indices := acc.Indices()
			t.timed(k, spStoreWrite, origin, measured, func() { _, err = t.store.WriteSnapshot(anoms, indices) })
			if err != nil {
				return err
			}
			t.timed(k, spStoreRead, origin, measured, func() { anoms, _, _, err = t.store.ReadSafe() })
			if err != nil {
				return err
			}
		}
		if anoms.Cols < 2 {
			continue
		}
		var cur *core.Subspace
		t.timed(k, spSVD, origin, measured, func() {
			cur = core.SubspaceFromAnomalies(anoms, t.cfg.Ensemble.MaxRank, t.cfg.Ensemble.SigmaRelTol)
		})
		if prev != nil {
			t.timed(k, spConverge, origin, measured, func() { crit.Converged(prev, cur) })
		}
		prev = cur
	}
	return nil
}

// runTraced measures the per-layer ledger on one twin (the first twin of
// the end-to-end run). It runs the closed loop untraced for a share of
// the budget, then rebuilds the same twin with the benchmark's tracing
// and the program's telemetry attached and runs the traced segment for
// the rest; the difference between the two segments' median cycle times
// is the tracing overhead.
func runTraced(ctx context.Context, o options) (*report, error) {
	cfg := o.w.config(twinSeed(o.seed, 0))
	storeU, err := openStore(o, "untraced")
	if err != nil {
		return nil, err
	}
	cfgU := cfg
	cfgU.Ensemble.Store = storeU
	sysU, _, err := setUp([]realtime.Config{cfgU})
	if err != nil {
		return nil, err
	}
	stU, err := closedLoop(ctx, sysU, o, o.budget/tracedShare, nil, false)
	if err != nil {
		return nil, err
	}

	t := &tracer{o: o, cfg: cfg}
	storeT, err := openStore(o, "traced")
	if err != nil {
		return nil, err
	}
	cfgT := cfg
	cfgT.Ensemble.Store = storeT
	cfgT = t.instrument(cfgT)
	sysT, _, err := setUp([]realtime.Config{cfgT})
	if err != nil {
		return nil, err
	}
	if err := t.bind(sysT[0]); err != nil {
		return nil, err
	}
	stT, err := closedLoop(ctx, sysT, o, o.budget-o.budget/tracedShare, t, false)
	if err != nil {
		return nil, err
	}
	if len(stU.cycleS) == 0 || t.cnt.cycles == 0 {
		return nil, errNoCycles
	}
	if o.spanDir != "" {
		if err := t.writeSpans(o); err != nil {
			return nil, err
		}
	}
	return t.report(stU, stT)
}

// report turns the ledger into the per-layer metrics.
func (t *tracer) report(stU, stT *loopStats) (*report, error) {
	rep := newReport()
	rep.Attempted = stU.attempted + stT.attempted
	rep.Failed = stU.failed + stT.failed
	rep.Correct = rep.Failed == 0
	c := t.cnt
	cyc := float64(c.cycles)
	perCycle := func(name string) float64 { return t.total[name] / cyc }
	perCall := func(names ...string) float64 {
		s, n := 0.0, 0
		for _, name := range names {
			s += t.total[name]
			n = max(n, t.calls[name])
		}
		if n == 0 {
			return 0
		}
		return s / float64(n)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	rep.set("realtime.central_forecast_s", "s", perCycle(spCentral))
	rep.set("realtime.truth_s", "s", perCycle(spTruth))
	rep.set("ocean.forecast_s", "s", perCall(spForecast))
	rep.set("ocean.model_new_s", "s", perCall(spModelNew))
	rep.set("ocean.cell_steps", "count", c.cellSteps/cyc)
	rep.set("ocean.cell_steps_per_s", "1/s", ratio(c.memberCellSteps, t.total[spForecast]))
	rep.set("rng.normals", "count", c.normals/cyc)
	rep.set("rng.norm_ns", "ns", ratio(t.total[spNormVec]*1e9, c.normals))
	rep.set("core.perturb_s", "s", perCall(spPerturb))
	rep.set("core.accumulate_s", "s", perCall(spAccAdd, spAccAnoms))
	rep.set("core.svd_s", "s", perCall(spSVD))
	rep.set("core.converge_s", "s", perCall(spConverge))
	rep.set("core.svd_rounds", "count", float64(c.rounds)/cyc)
	rep.set("core.gram_flops", "count", c.gramFlops/cyc)
	rep.set("core.assimilate_s", "s", perCycle(spAssimilate))
	rep.set("core.assim_obs", "count", float64(c.obs)/cyc)
	rep.set("core.assim_flops", "count", c.assimFlops/cyc)
	rep.set("core.smooth_s", "s", perCycle(spSmooth))
	rep.set("adaptive.plan_s", "s", perCycle(spPlan))
	rep.set("covstore.write_s", "s", perCall(spStoreWrite))
	rep.set("covstore.read_s", "s", perCall(spStoreRead))
	rep.set("covstore.bytes_written", "B", c.bytesWritten/cyc)
	rep.set("covstore.bytes_read", "B", c.bytesRead/cyc)
	rep.set("workflow.members_launched", "count", float64(c.launched)/cyc)
	rep.set("workflow.members_used", "count", float64(c.used)/cyc)
	rep.set("workflow.members_cancelled", "count", float64(c.cancelled)/cyc)
	rep.set("workflow.members_failed", "count", float64(c.failed)/cyc)
	rep.set("workflow.pool_growths", "count", float64(c.growths)/cyc)
	rep.set("workflow.ensemble_s.p50", "s", median(stT.ensembleS))
	rep.set("workflow.useful_frac", "1", ratio(float64(c.used), float64(c.launched)))
	rep.set("workflow.worker_busy_frac", "1", ratio(c.busy, c.ensemble*float64(t.cfg.Ensemble.Workers)))
	rep.set("cycles_failed_frac", "1", ratio(float64(rep.Failed), float64(rep.Attempted)))
	rep.set("realtime.analysis_rmse_T", "degC", stT.rmseSum/float64(len(stT.cycleS)))

	// Per-cycle layer totals, the basis of the layer-ordering checks.
	layers := []struct {
		name  string
		spans []string
	}{
		{"ledger.truth_s", []string{spTruth}},
		{"ledger.central_forecast_s", []string{spCentral}},
		{"ledger.perturb_s", []string{spPerturb}},
		{"ledger.ocean_forecast_s", []string{spModelNew, spForecast}},
		{"ledger.diff_svd_s", []string{spAccAdd, spAccAnoms, spSVD, spConverge}},
		{"ledger.covstore_s", []string{spStoreWrite, spStoreRead}},
		{"ledger.plan_s", []string{spPlan}},
		{"ledger.assimilate_s", []string{spAssimilate}},
		{"ledger.smooth_s", []string{spSmooth}},
	}
	lt := map[string]float64{}
	for _, l := range layers {
		v := 0.0
		for _, s := range l.spans {
			v += perCycle(s)
		}
		lt[l.name] = v
		rep.set(l.name, "s", v)
	}
	rep.set("ledger.cycle_s", "s", c.wall/cyc)

	// Coverage: the share of traced cycle wall time that the blocking-path
	// layers account for — the serial head (truth, central forecast), the
	// ensemble engine, and the serial tail (plan, assimilate, smooth).
	blocking := t.total[spTruth] + t.total[spCentral] + c.ensemble +
		t.total[spPlan] + t.total[spAssimilate] + t.total[spSmooth]
	rep.set("ledger.coverage", "1", blocking/c.wall)

	// Tracing overhead: median traced vs untraced cycle time over the
	// cycle indices both segments ran.
	n := min(len(stU.cycleS), len(stT.cycleS))
	mu, mt := median(stU.cycleS[:n]), median(stT.cycleS[:n])
	rep.set("trace.overhead_frac", "1", mt/mu-1)
	rep.note("trace overhead: untraced p50 %.4g s, traced p50 %.4g s over %d cycles each", mu, mt, n)

	dis, table, err := t.agreement()
	if err != nil {
		return nil, err
	}
	rep.set("ledger.span_disagreement", "1", dis)
	rep.notes = append(rep.notes, table...)

	// The layer separation each workload was chosen for.
	switch t.o.w.name {
	case "twin-default":
		largest := "ledger.ocean_forecast_s"
		for name, v := range lt {
			if v > lt[largest] {
				largest = name
			}
		}
		rep.note("prediction ocean forecast is the largest layer: %v (largest %s)", largest == "ledger.ocean_forecast_s", largest)
	case "ensemble-growth":
		a, b := lt["ledger.diff_svd_s"]+lt["ledger.covstore_s"], lt["ledger.assimilate_s"]
		rep.note("prediction svd+converge+covstore (%.4g s) > assimilate (%.4g s): %v", a, b, a > b)
	case "obs-dense":
		a, b := lt["ledger.assimilate_s"]+lt["ledger.smooth_s"]+lt["ledger.plan_s"], lt["ledger.ocean_forecast_s"]
		rep.note("prediction assimilate+smooth+plan (%.4g s) > ocean forecast (%.4g s): %v", a, b, a > b)
	}
	return rep, nil
}

// agreement compares the ledger with the program's own phase spans over
// the measured cycles. It returns Σ|ledger − spans| / Σ spans over the
// compared phases and a per-phase table.
func (t *tracer) agreement() (float64, []string, error) {
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, t.tel.Tracer().ChromeEvents()); err != nil {
		return 0, nil, err
	}
	tree, err := forensics.ParseTrace(&buf)
	if err != nil {
		return 0, nil, err
	}
	dg := forensics.BuildDigest(tree, nil, nil)
	measured := map[string]bool{}
	for _, k := range t.cycleNo {
		measured[fmt.Sprintf("cycle-%d", k)] = true
	}
	inside := map[string]float64{} // seconds per "cat/name"
	for _, cd := range dg.Cycles {
		if !measured[cd.Root] {
			continue
		}
		for _, ph := range cd.Phases {
			inside[ph.Cat+"/"+ph.Name] += ph.TotalMS / 1e3
		}
	}
	pairs := []struct {
		phase   string
		ledger  []string
		program string
	}{
		{"central forecast", []string{spCentral}, "realtime/central-forecast"},
		{"member", []string{spMember}, "workflow/member"},
		{"perturb", []string{spPerturb}, "realtime/perturb"},
		{"forecast", []string{spModelNew, spForecast}, "realtime/forecast"},
		{"svd round", []string{spAccAnoms, spStoreWrite, spStoreRead, spSVD, spConverge}, "workflow/svd"},
		{"covstore write", []string{spStoreWrite}, "covstore/write"},
		{"covstore read", []string{spStoreRead}, "covstore/read"},
		{"adaptive plan", []string{spPlan}, "realtime/adaptive-sampling"},
		{"assimilate", []string{spAssimilate}, "realtime/assimilate"},
		{"smooth", []string{spSmooth}, "realtime/smooth"},
	}
	cyc := float64(t.cnt.cycles)
	table := []string{fmt.Sprintf("%-17s %12s %12s %8s", "ledger vs spans", "ledger ms/c", "spans ms/c", "ratio")}
	var diff, base float64
	for _, p := range pairs {
		in, out := inside[p.program], 0.0
		for _, s := range p.ledger {
			out += t.total[s]
		}
		if in == 0 && out == 0 {
			continue
		}
		diff += math.Abs(out - in)
		base += in
		r := math.NaN()
		if in > 0 {
			r = out / in
		}
		table = append(table, fmt.Sprintf("%-17s %12.4f %12.4f %8.3f", p.phase, 1e3*out/cyc, 1e3*in/cyc, r))
	}
	if base == 0 {
		return 0, nil, fmt.Errorf("the program recorded no phase spans for the measured cycles")
	}
	return diff / base, table, nil
}

// writeSpans writes the ledger's spans, one JSON object a line.
func (t *tracer) writeSpans(o options) error {
	if err := os.MkdirAll(o.spanDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.spanDir, fmt.Sprintf("%s-seed%d.jsonl", o.w.name, o.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
