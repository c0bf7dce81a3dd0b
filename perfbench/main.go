// Command perfbench is the repository benchmark. It runs one workload
// through the public acacia API, checks every run's simulated output, and
// prints the host-time metrics as one JSON object on the last line of
// standard output.
//
//	go build -o .bench_build/perfbench . && .bench_build/perfbench \
//	    --workload paper --seed 2016 --seconds 20 --trace 0
//
// Workloads:
//
//	metro    acacia.RunScaleScenario on the full preset (10,000 UEs)
//	paper    acacia.RunAllExperiments, quick mode, Parallel = 2
//	session  a closed loop of testbed procedures on one acacia.NewTestbed
//
// With --trace 0 the run reports the end-to-end metrics (wall_s, setup_s,
// peak_rss_mb, success_frac) with tracing and profiling off. With --trace 1
// it reports the per-layer metrics instead: spans recorded around calls
// into each layer, layer probes, a CPU profile split by internal package,
// and the metro scale and execution-mode sweep. Spans and the profile are
// written under --out when the run ends.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"
)

// defaultSeed is the seed the golden output digests were recorded at; it
// is also acacia-sim's default.
const defaultSeed = 2016

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload to run: metro, paper or session")
	seed := flags.Uint64("seed", defaultSeed, "seed the workload inputs are generated from")
	seconds := flags.Float64("seconds", 20, "host seconds to measure for")
	trace := flags.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	out := flags.String("out", ".bench_build/trace", "directory the traced run writes spans and the CPU profile to")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w := lookupWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	var rep *report
	var err error
	if *trace == 0 {
		rep, err = measure(w, *seed, *seconds, stderr)
	} else {
		rep, err = traced(w, *seed, *out, stdout, stderr)
	}
	if err == nil {
		err = rep.matchSpec(specFile, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// specFile declares the benchmark's metrics; runs start in the directory
// that holds it.
const specFile = "BENCHMARK.json"

// benchmarkSpec is the part of BENCHMARK.json the benchmark checks its
// output against.
type benchmarkSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// matchSpec checks that the report carries exactly the metrics the spec
// declares for this kind of run, with the declared units. A run started
// where there is no spec skips the check.
func (r *report) matchSpec(path string, traced bool) error {
	spec, err := readSpec(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("declared metric %s was not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s has unit %s, declared %s", m.Name, got.Unit, m.Unit)
		}
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("run reported %d metrics, %s declares %d", len(r.Metrics), path, len(want))
	}
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newReport starts a report that stays correct until a check fails.
func newReport() *report { return &report{Correct: true, Metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// tally folds one checked workload run into the operation counts.
func (r *report) tally(c checked) {
	r.Attempted += c.ops
	r.Failed += c.failed
}

// write prints the result line. Metric names are validated here so a typo
// can never reach the output, and non-finite values are refused because
// JSON cannot carry them.
func (r *report) write(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !validMetricName(n) {
			return fmt.Errorf("invalid metric name %q", n)
		}
		if v := r.Metrics[n].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", n)
		}
	}
	r.Correct = r.Correct && r.Failed == 0
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// validMetricName reports whether name follows the benchmark's naming
// rule: a leading letter or digit, then at most 63 more letters, digits,
// '_', '.' or '-'.
func validMetricName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i, c := range name {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}
