package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"esse/internal/realtime"
	"esse/internal/rng"
)

// spec is the part of BENCHMARK.json the smoke test holds the program to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smokeRun measures a couple of cycles of one workload.
func smokeRun(t *testing.T, w workload, seed uint64, traced bool) *report {
	t.Helper()
	o := options{w: w, seed: seed, budget: time.Minute, maxCycles: 1, scratch: t.TempDir()}
	run := runEndToEnd
	if traced {
		run = runTraced
	}
	rep, err := run(context.Background(), o)
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", w.name, seed, traced, err)
	}
	return rep
}

// checkMetrics asserts that rep carries exactly the metrics of want, each
// finite and with its declared unit, and that its last output line is
// the JSON summary with exactly the four contract keys.
func checkMetrics(t *testing.T, label string, rep *report, want []specMetric) {
	t.Helper()
	var got []string
	for name := range rep.Metrics {
		got = append(got, name)
	}
	sort.Strings(got)
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		v, ok := rep.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, m.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s = %v", label, m.Name, v.Value)
		case v.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, m.Name, v.Unit, m.Unit)
		}
	}
	sort.Strings(names)
	if !slices.Equal(got, names) {
		t.Errorf("%s: emitted metrics %v, BENCHMARK.json names %v", label, got, names)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: verdict correct=%v attempted=%d failed=%d", label, rep.Correct, rep.Attempted, rep.Failed)
	}
	var out bytes.Buffer
	if err := rep.write(&out); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", label, err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("%s: JSON keys %v, want %v", label, keys, want)
	}
}

func TestSmoke(t *testing.T) {
	s := readSpec(t)
	var listed []string
	for _, w := range s.Workloads {
		listed = append(listed, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !slices.Equal(listed, defined) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark defines %v", listed, defined)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				a := smokeRun(t, w, 1, traced)
				b := smokeRun(t, w, 2, traced)
				checkMetrics(t, w.name+" seed 1", a, want)
				checkMetrics(t, w.name+" seed 2", b, want)
			}
		})
	}
}

// TestSeedChangesTwin pins that the workload seed is the twin's source of
// randomness: another seed gives another truth and other observations on
// the same network.
func TestSeedChangesTwin(t *testing.T) {
	for _, w := range workloads {
		var truth [2][]float64
		var y [2][]float64
		var nObs [2]int
		for i, seed := range []uint64{1, 2} {
			sys, err := realtime.NewSystem(w.config(twinSeed(seed, 0)))
			if err != nil {
				t.Fatal(err)
			}
			truth[i] = sys.TruthState()
			y[i] = sys.Network.Sample(truth[i], rng.New(7))
			nObs[i] = sys.Network.Len()
		}
		if slices.Equal(truth[0], truth[1]) {
			t.Errorf("%s: seeds 1 and 2 give the same truth", w.name)
		}
		if nObs[0] != nObs[1] || slices.Equal(y[0], y[1]) {
			t.Errorf("%s: observations: %d vs %d, identical=%v", w.name, nObs[0], nObs[1], slices.Equal(y[0], y[1]))
		}
		again, err := realtime.NewSystem(w.config(twinSeed(1, 0)))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(again.TruthState(), truth[0]) {
			t.Errorf("%s: the same seed gave a different truth", w.name)
		}
	}
}

func TestTail(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ n, want, p float64 }{
		{200, 180, 90}, // p90, with 20 samples beyond it
		{40, 30, 75},   // p90 would leave 4 beyond: ten beyond instead
		{5, 5, 100},    // too few samples: the maximum
	} {
		if got, p := tail(v[:int(c.n)]); got != c.want || p != c.p {
			t.Errorf("tail of 1..%v = %v at p%v, want %v at p%v", c.n, got, p, c.want, c.p)
		}
	}
}
