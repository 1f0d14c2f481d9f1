package main

import (
	"fmt"
	"runtime"

	"esse/internal/realtime"
)

// workload is one named twin configuration. Every workload is a closed
// loop: one forecaster runs cycles back to back on a single process, each
// cycle starting when the previous one returns, with Ensemble.Workers =
// the machine's core count and nothing else adding compute threads.
type workload struct {
	name string
	// store routes the ensemble's SVD rounds through a covstore directory.
	store bool
	// config returns the realtime configuration for a workload seed; the
	// seed is the twin's only source of randomness (truth, noise, obs).
	config func(seed uint64) realtime.Config
}

// workloads is ordered as in BENCHMARK.json. The reasons for each choice
// (which layer dominates it, which changes must show nothing on it) are
// recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	{
		// The ROADMAP reference cycle: the member forecast dominates.
		name: "twin-default",
		config: func(seed uint64) realtime.Config {
			cfg := realtime.DefaultConfig()
			cfg.Seed = seed
			cfg.Ensemble.Workers = runtime.NumCPU()
			return cfg
		},
	},
	{
		// A 15 360-element state whose pool grows in most cycles: SVD,
		// convergence and the covstore triple-file protocol dominate. The
		// strict similarity threshold keeps most cycles growing to MaxSize
		// (at 0.995 cycles split between 24, 36 and 48 members and the
		// cycle-time median jumps between those levels from seed to seed).
		name:  "ensemble-growth",
		store: true,
		config: func(seed uint64) realtime.Config {
			cfg := realtime.DefaultConfig()
			cfg.NX, cfg.NY, cfg.NZ = 32, 32, 6
			cfg.StepsPerCycle = 10
			cfg.Seed = seed
			cfg.Ensemble.Workers = runtime.NumCPU()
			cfg.Ensemble.InitialSize = 16
			cfg.Ensemble.MaxSize = 48
			cfg.Ensemble.GrowthFactor = 1.5
			cfg.Ensemble.SVDBatch = 8
			cfg.Ensemble.Criterion.MinSimilarity = 0.9995
			return cfg
		},
	},
	{
		// Many observations: the post-ensemble serial tail (assimilation,
		// smoother, adaptive planner) dominates.
		name: "obs-dense",
		config: func(seed uint64) realtime.Config {
			cfg := realtime.DefaultConfig()
			cfg.NZ = 6
			cfg.StepsPerCycle = 10
			cfg.AdaptiveCasts = 16
			cfg.Smooth = true
			cfg.Seed = seed
			cfg.Ensemble.Workers = runtime.NumCPU()
			return cfg
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
