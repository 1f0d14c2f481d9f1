package esse_test

import (
	"context"
	"slices"
	"testing"

	"esse/internal/realtime"
)

// TestEnsembleSchedulingOrderIndependence pins the determinism contract
// the esselint analyzers exist to protect: a fixed-master-seed twin
// experiment must produce bit-identical science whether the ensemble
// runs on one worker, two or eight. Member randomness derives from
// (seed, member index), the accumulator canonicalizes anomaly columns
// by member index, and the engine admits members in index order, so
// completion order must not leak into results — not even through
// convergence-driven cancellation, which is left on here with the
// real-time default criterion so the pool grows and stops adaptively.
func TestEnsembleSchedulingOrderIndependence(t *testing.T) {
	type outcome struct {
		analysis []float64
		sigma    []float64
		rmse     []float64
		rho      []float64
		members  []int
	}
	run := func(workers int) outcome {
		cfg := integrationConfig()
		cfg.Ensemble.Criterion = realtime.DefaultConfig().Ensemble.Criterion
		cfg.Ensemble.InitialSize = 8
		cfg.Ensemble.MaxSize = 32
		cfg.Ensemble.SVDBatch = 4
		cfg.Ensemble.Workers = workers
		sys, err := realtime.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results, err := sys.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{
			analysis: append([]float64(nil), sys.Analysis()...),
			sigma:    append([]float64(nil), sys.Subspace().Sigma...),
		}
		for _, r := range results {
			out.rmse = append(out.rmse, r.RMSEForecastT, r.RMSEAnalysisT)
			out.rho = append(out.rho, r.Ensemble.Rho)
			out.members = append(out.members, r.Ensemble.MembersUsed, r.Ensemble.SVDRounds)
			out.members = append(out.members, r.Ensemble.MemberIndices...)
			out.members = append(out.members, r.Ensemble.PoolSizes...)
		}
		return out
	}

	serial := run(1)
	for _, workers := range []int{2, 8} {
		parallel := run(workers)
		bitEqual := func(name string, a, b []float64) {
			t.Helper()
			if len(a) != len(b) {
				t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("%s[%d]: Workers=1 gives %v, Workers=%d gives %v", name, i, a[i], workers, b[i])
					return
				}
			}
		}
		bitEqual("analysis", serial.analysis, parallel.analysis)
		bitEqual("sigma", serial.sigma, parallel.sigma)
		bitEqual("rmse", serial.rmse, parallel.rmse)
		bitEqual("rho", serial.rho, parallel.rho)
		if !slices.Equal(serial.members, parallel.members) {
			t.Errorf("members: Workers=1 gives %v, Workers=%d gives %v", serial.members, workers, parallel.members)
		}
	}
}
