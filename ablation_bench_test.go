// Ablation benchmarks for the design choices DESIGN.md calls out:
// streaming vs batched SVD cadence, the on-disk triple-file covariance
// protocol vs in-memory exchange, job arrays vs singleton submissions,
// the convergence cancellation policy, Gram-based thin SVD vs one-sided
// Jacobi on ensemble-shaped matrices, and the output transfer
// strategies.
package esse_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"esse/internal/adaptive"
	"esse/internal/cluster"
	"esse/internal/core"
	"esse/internal/covstore"
	"esse/internal/linalg"
	"esse/internal/realtime"
	"esse/internal/remote"
	"esse/internal/rng"
	"esse/internal/sched"
	"esse/internal/workflow"
)

// ablationSubspace builds the toy truth used by the workflow ablations.
func ablationSubspace(seed uint64, dim, p int) *core.Subspace {
	s := rng.New(seed)
	a := linalg.NewDense(dim, p)
	for i := range a.Data {
		a.Data[i] = s.Norm()
	}
	f := linalg.QR(a)
	sigma := make([]float64, p)
	for i := range sigma {
		sigma[i] = float64(p - i)
	}
	return &core.Subspace{Modes: f.Q, Sigma: sigma}
}

func ablationRunner(truth *core.Subspace, seed uint64, delay time.Duration) workflow.MemberRunner {
	master := rng.New(seed)
	return func(ctx context.Context, index int) ([]float64, error) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return truth.Perturb(nil, master.Split(uint64(index)), 0.01), nil
	}
}

func ablationConfig(members int) workflow.Config {
	cfg := workflow.DefaultConfig()
	cfg.InitialSize = members
	cfg.MaxSize = members
	cfg.Workers = 8
	cfg.SVDBatch = members / 4
	cfg.Criterion = core.ConvergenceCriterion{MinSimilarity: 2} // fixed workload
	return cfg
}

// BenchmarkAblationSVDCadence sweeps the SVD batch size: small batches
// give earlier convergence detection at higher SVD cost; one terminal
// SVD is the Fig. 3 behaviour.
func BenchmarkAblationSVDCadence(b *testing.B) {
	truth := ablationSubspace(1, 200, 4)
	for _, batch := range []int{4, 16, 64} {
		b.Run(byName("batch", batch), func(b *testing.B) {
			cfg := ablationConfig(64)
			cfg.SVDBatch = batch
			runner := ablationRunner(truth, 2, 0)
			for i := 0; i < b.N; i++ {
				res, err := workflow.RunParallel(context.Background(), cfg, make([]float64, 200), runner)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.SVDRounds), "svd-rounds")
				}
			}
		})
	}
}

// BenchmarkAblationTripleFileStore measures the cost of routing anomaly
// snapshots through the on-disk triple-file protocol versus keeping them
// in memory (the protocol buys crash-safe decoupling of the diff and SVD
// stages at the cost of serialization I/O).
func BenchmarkAblationTripleFileStore(b *testing.B) {
	truth := ablationSubspace(3, 400, 4)
	run := func(b *testing.B, store *covstore.Store) {
		cfg := ablationConfig(32)
		cfg.Store = store
		runner := ablationRunner(truth, 4, 0)
		for i := 0; i < b.N; i++ {
			if _, err := workflow.RunParallel(context.Background(), cfg, make([]float64, 400), runner); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("in-memory", func(b *testing.B) { run(b, nil) })
	b.Run("triple-file", func(b *testing.B) {
		store, err := covstore.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		run(b, store)
	})
}

// BenchmarkAblationJobArrays quantifies the scheduler-strain argument
// for job arrays versus one submission per perturbation index.
func BenchmarkAblationJobArrays(b *testing.B) {
	c := cluster.MITAvailable(210)
	for _, array := range []bool{true, false} {
		name := "job-array"
		if !array {
			name = "singletons"
		}
		b.Run(name, func(b *testing.B) {
			cfg := sched.DefaultConfig()
			cfg.JobArray = array
			for i := 0; i < b.N; i++ {
				res := sched.Simulate(c, 600, sched.ESSEJob(), cfg)
				if i == 0 {
					b.ReportMetric(res.Makespan/60, "makespan-min")
				}
			}
		})
	}
}

// BenchmarkAblationThinSVD compares the two SVD algorithms on the
// ensemble-shaped (very tall) anomaly matrices ESSE produces: the Gram
// approach does one pass over the tall matrix plus an n×n eigenproblem;
// one-sided Jacobi sweeps the tall columns repeatedly.
func BenchmarkAblationThinSVD(b *testing.B) {
	s := rng.New(7)
	a := linalg.NewDense(4000, 48)
	for i := range a.Data {
		a.Data[i] = s.Norm()
	}
	b.Run("gram-thin-svd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.ThinSVDGram(a, 48)
		}
	})
	b.Run("one-sided-jacobi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.SVD(a)
		}
	})
}

// BenchmarkAblationTransferStrategy evaluates the §5.3.2 output return
// strategies for the 960-member EC2 scenario.
func BenchmarkAblationTransferStrategy(b *testing.B) {
	for _, strat := range []remote.TransferStrategy{remote.Push, remote.Pull, remote.TwoStage} {
		b.Run(strat.String(), func(b *testing.B) {
			cfg := remote.DefaultTransferConfig()
			for i := 0; i < b.N; i++ {
				res := remote.SimulateTransfer(strat, cfg)
				if i == 0 {
					b.ReportMetric(res.CompletionAfterBatch, "tail-seconds")
				}
			}
		})
	}
}

func byName(prefix string, v int) string {
	return fmt.Sprintf("%s-%d", prefix, v)
}

// BenchmarkAblationBatchedSingletons quantifies the §5.3.4 batching
// refactor under Condor's expensive dispatch: batches amortize
// negotiation waits and input reads at the cost of tail granularity.
func BenchmarkAblationBatchedSingletons(b *testing.B) {
	c := cluster.MITAvailable(210)
	for _, batch := range []int{1, 2, 4} {
		b.Run(byName("batch", batch), func(b *testing.B) {
			cfg := sched.DefaultConfig()
			cfg.Policy = sched.Condor
			cfg.IOMode = sched.MixedNFS
			cfg.PrestageMB = 0
			for i := 0; i < b.N; i++ {
				res := sched.SimulateBatched(c, 600, sched.ESSEJob(), cfg, batch)
				if i == 0 {
					b.ReportMetric(res.Makespan/60, "makespan-min")
					b.ReportMetric(res.NFSMBMoved/1000, "nfs-GB")
				}
			}
		})
	}
}

// BenchmarkAblationAdaptivePlanner compares the sequential greedy
// planner against the naive top-k-variance ranking on a correlated
// subspace: the metric is the exact expected variance reduction of the
// chosen batch.
func BenchmarkAblationAdaptivePlanner(b *testing.B) {
	s := rng.New(9)
	dim := 200
	a := linalg.NewDense(dim, 4)
	for j := 0; j < 4; j++ {
		for i := 0; i < dim; i++ {
			a.Set(i, j, 1/(1+0.05*float64((i-40*j)*(i-40*j)))+0.05*s.Norm())
		}
	}
	f := linalg.QR(a)
	sub := &core.Subspace{Modes: f.Q, Sigma: []float64{4, 3, 2, 1}}
	var cands []adaptive.Candidate
	for off := 0; off < dim; off += 2 {
		cands = append(cands, adaptive.Candidate{Offset: off, Stddev: 0.3})
	}
	b.Run("greedy", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			plan, err := adaptive.Greedy(sub, cands, 6)
			if err != nil {
				b.Fatal(err)
			}
			last = plan.Reduction[len(plan.Reduction)-1]
		}
		b.ReportMetric(last, "variance-reduced")
	})
	b.Run("naive-topk", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			order := adaptive.RankCandidatesByVariance(sub, cands)[:6]
			// Evaluate the naive batch with the same exact formula.
			picked := make([]adaptive.Candidate, len(order))
			for k, ci := range order {
				picked[k] = cands[ci]
			}
			plan, err := adaptive.Greedy(sub, picked, len(picked))
			if err != nil {
				b.Fatal(err)
			}
			last = plan.Reduction[len(plan.Reduction)-1]
		}
		b.ReportMetric(last, "variance-reduced")
	})
}

// BenchmarkAblationEnsembleVsDeterministic compares the two uncertainty
// forecast mechanisms of the realtime system: the stochastic MTC
// ensemble and the DO-style deterministic subspace propagation (p+1
// quiet model runs).
func BenchmarkAblationEnsembleVsDeterministic(b *testing.B) {
	base := realtime.DefaultConfig()
	base.NX, base.NY, base.NZ = 12, 12, 4
	base.Cycles = 1
	base.StepsPerCycle = 15
	base.Ensemble.InitialSize = 16
	base.Ensemble.MaxSize = 16
	base.Ensemble.Criterion = core.ConvergenceCriterion{MinSimilarity: 2}
	for _, det := range []bool{false, true} {
		name := "stochastic-ensemble"
		if det {
			name = "deterministic-DO"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := base
				cfg.Deterministic = det
				sys, err := realtime.NewSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				r, err := sys.RunCycle(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(r.Ensemble.MembersUsed), "model-runs")
					b.ReportMetric(r.RMSEAnalysisT, "rmseA-degC")
				}
			}
		})
	}
}
