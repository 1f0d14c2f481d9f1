// Command cyclebench is the repository's end-to-end benchmark. It drives
// realtime.NewSystem + System.RunCycle in a closed loop — one forecaster
// running ESSE forecast/assimilation cycles back to back on one process,
// with Ensemble.Workers equal to the core count — for a named workload,
// checks every cycle's outputs, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 they are the per-layer ledger of a separate traced run
// (see ledger.go). Build and run it through run.sh:
//
//	bash cyclebench/run.sh --workload twin-default --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"esse/internal/realtime"
)

// buildDir is the run's scratch space, relative to the checkout root the
// benchmark runs from; run.sh builds the binary there too.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cyclebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (twin-default, ensemble-growth, obs-dense)")
	seed := fs.Uint64("seed", 1, "workload seed: drives the twin's truth, noise and observations")
	seconds := fs.Float64("seconds", 10, "wall time of the measured closed loop")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer ledger from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "cyclebench:", err)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "cyclebench: need -seconds > 0 and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "cyclebench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "covstore-")
	if err != nil {
		fmt.Fprintln(stderr, "cyclebench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	o := options{
		w:       w,
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		scratch: dir,
		spanDir: filepath.Join(buildDir, "spans"),
	}
	var rep *report
	if *traced == 1 {
		rep, err = runTraced(context.Background(), o)
	} else {
		rep, err = runEndToEnd(context.Background(), o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "cyclebench:", err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "cyclebench:", err)
		return 1
	}
	return 0
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's result: the JSON summary plus human-readable notes
// printed above it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// write prints the notes, one "name value unit" line per metric, and the
// JSON summary as the last line. A non-finite metric is an error: it
// would mean a broken measurement, and JSON cannot carry it.
func (r *report) write(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runEndToEnd measures the untraced closed loop over several twins and
// reports the end-to-end metrics.
func runEndToEnd(ctx context.Context, o options) (*report, error) {
	store, err := openStore(o, "run")
	if err != nil {
		return nil, err
	}
	cfgs := make([]realtime.Config, twins)
	for j := range cfgs {
		cfgs[j] = o.w.config(twinSeed(o.seed, j))
		cfgs[j].Ensemble.Store = store
	}
	systems, setupS, err := setUp(cfgs)
	if err != nil {
		return nil, err
	}
	st, err := closedLoop(ctx, systems, o, o.budget, nil, true)
	if err != nil {
		return nil, err
	}
	if len(st.cycleS) == 0 {
		return nil, errNoCycles
	}
	passed := float64(len(st.cycleS))
	rep := newReport()
	rep.Attempted, rep.Failed = st.attempted, st.failed
	rep.Correct = st.failed == 0
	tailV, tailP := tail(st.cycleS)
	workers := cfgs[0].Ensemble.Workers
	rep.note("workload %s seed %d: %d twins, %d cycles attempted, %d failed; closed loop, 1 forecaster, Workers=%d, %d cores",
		o.w.name, o.seed, twins, st.attempted, st.failed, workers, runtime.NumCPU())
	rep.note("cycle_s.tail is p%.1f of %d cycles; mean analysis RMSE %.4g degC", tailP, len(st.cycleS), st.rmseSum/passed)
	rep.set("setup_s", "s", setupS)
	rep.set("cycle_s.p50", "s", median(st.cycleS))
	rep.set("cycle_s.tail", "s", tailV)
	rep.set("members_per_s", "1/s", float64(st.membersUsed)/st.cycleWall)
	rep.set("analysis_rmse_ratio", "1", st.rmseRatioSum/passed)
	rep.set("alloc_mb_per_cycle", "MB", float64(st.allocBytes)/1e6/float64(st.attempted))
	rep.set("heap_peak_mb", "MB", float64(st.heapPeak)/1e6)
	return rep, nil
}
