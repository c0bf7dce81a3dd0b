package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"acacia"
)

// count is one program-reported count read back after a run. Counts must
// repeat exactly between two runs of the same seed.
type count struct {
	name  string
	value uint64
}

// outcome is what one workload run produced, before the cross-run checks.
type outcome struct {
	digest   string   // SHA-256 of the rendered simulated output
	counts   []count  // program-reported counts, in a fixed order
	ops      int      // operations attempted
	failed   int      // operations that returned an error or broke an invariant
	problems []string // what failed, for the log
}

// fail records n failed operations and why.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// checked is an outcome after the golden-digest and determinism checks.
type checked struct {
	ops, failed int
	problems    []string
}

// workload is one benchmark input set and how to run it.
type workload struct {
	name string
	// golden is the SHA-256 of the rendered output at defaultSeed.
	golden string
	// setupReps is how many times setup is timed per run (median kept).
	setupReps int
	// setup builds what the workload builds before simulated time
	// advances, and nothing more.
	setup func(seed uint64)
	// run executes the workload once. sp is nil on untraced runs.
	run func(seed uint64, sp *tracer) outcome
}

var workloads = []*workload{
	{name: "metro", golden: goldenMetro, setupReps: 5, setup: metroSetup, run: metroRun},
	{name: "paper", golden: goldenPaper, setupReps: 15, setup: testbedSetup, run: paperRun},
	{name: "session", golden: goldenSession, setupReps: 15, setup: sessionSetup, run: sessionRunDefault},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// check applies the golden digest (at the default seed only: other seeds
// have no recorded output) and, when ref is a run of the same seed, the
// determinism check. A digest mismatch or a changed count fails every
// operation of the run.
func check(w *workload, seed uint64, out *outcome, ref *outcome) checked {
	c := checked{ops: out.ops, failed: out.failed, problems: out.problems}
	failAll := func(format string, args ...any) {
		c.failed = c.ops
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
	if seed == defaultSeed && out.digest != w.golden {
		failAll("%s: output digest %s, golden %s", w.name, out.digest, w.golden)
	}
	if ref != nil {
		if out.digest != ref.digest {
			failAll("%s: output digest changed between runs of seed %d", w.name, seed)
		}
		if diff := diffCounts(ref.counts, out.counts); diff != "" {
			failAll("%s: %s", w.name, diff)
		}
	}
	if c.ops < 1 {
		c.ops = 1
		failAll("%s: no operations attempted", w.name)
	}
	return c
}

// diffCounts describes the first difference between two count lists, or
// returns "" when they are identical.
func diffCounts(a, b []count) string {
	if len(a) != len(b) {
		return fmt.Sprintf("count list length changed: %d then %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("count %s=%d changed to %s=%d between runs of the same seed",
				a[i].name, a[i].value, b[i].name, b[i].value)
		}
	}
	return ""
}

// measure is the untraced run: setup_s is the median of setupReps set-ups,
// wall_s the median over workload runs repeated for about seconds of host
// time (at least minRuns), and peak_rss_mb the median of the runs' peak
// resident sets. Every run is checked.
func measure(w *workload, seed uint64, seconds float64, log io.Writer) (*report, error) {
	const minRuns = 2
	rep := newReport()
	setups := make([]float64, 0, w.setupReps)
	for i := 0; i < w.setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		w.setup(seed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	var walls, peaks, cpus []float64
	var ref *outcome
	start := time.Now()
	for len(walls) < minRuns || time.Since(start).Seconds()+median(walls)/2 < seconds {
		// Hand the previous run's heap back to the OS and restart the
		// peak, so each run's peak is its own.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		c0 := cpuSeconds()
		t0 := time.Now()
		out := w.run(seed, nil)
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, cpuSeconds()-c0)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, rss)
		c := check(w, seed, &out, ref)
		rep.tally(c)
		logProblems(log, c.problems)
		if ref == nil {
			ref = &out
		}
	}
	rep.set("wall_s", median(walls), "s")
	rep.set("setup_s", median(setups), "s")
	rep.set("peak_rss_mb", median(peaks), "MB")
	rep.set("success_frac", 1-float64(rep.Failed)/float64(rep.Attempted), "frac")
	fmt.Fprintf(log, "perfbench: %s seed %d: %d runs, wall_s %v, cpu_s %v, peak_rss_mb %v, setup_s %v\n",
		w.name, seed, len(walls), walls, cpus, peaks, setups)
	return rep, nil
}

func logProblems(log io.Writer, problems []string) {
	for _, p := range problems {
		fmt.Fprintln(log, "perfbench: FAIL", p)
	}
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) watermark at the
// current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func digestOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// --- metro ---

// metroConfig is the full metro preset at the given population and
// execution mode. The seed rotates the flash crowd to another site (the
// scenario itself draws no randomness); the default seed keeps the
// preset's site-5.
func metroConfig(seed uint64, ues, workers int) acacia.ScaleConfig {
	cfg := acacia.DefaultScaleConfig(true)
	n := uint64(cfg.Sites)
	cfg.FlashSite = int((uint64(cfg.FlashSite) + seed%n + n - defaultSeed%n) % n)
	cfg.UEs = ues
	cfg.Workers = workers
	return cfg
}

const metroUEs = 10000

func metroSetup(seed uint64) {
	cfg := metroConfig(seed, metroUEs, 0)
	cfg.Ramp, cfg.Hold = time.Nanosecond, time.Nanosecond
	acacia.RunScaleScenario(seed, cfg)
}

func metroRun(seed uint64, sp *tracer) outcome {
	return metroRunShape(seed, metroUEs, 0, sp)
}

func metroRunShape(seed uint64, ues, workers int, sp *tracer) outcome {
	cfg := metroConfig(seed, ues, workers)
	id := sp.begin("acacia.RunScaleScenario")
	r := acacia.RunScaleScenario(seed, cfg)
	sp.end(id)
	return metroOutcome(cfg, r)
}

// metroOutcome checks a scale result against the seed-independent
// invariants: every UE attached and every frame sent completed.
func metroOutcome(cfg acacia.ScaleConfig, r *acacia.ExperimentResult) outcome {
	out := outcome{digest: digestOf(r.String(), "\n"), ops: cfg.UEs}
	var attached, total, bound, sent, done, rejections, retries uint64
	if len(r.Notes) < 2 {
		out.fail(out.ops, "metro: result has %d notes, want 2", len(r.Notes))
		return out
	}
	if _, err := fmt.Sscanf(r.Notes[0], "attached %d/%d UEs, %d bound to CI servers; %d frames sent, %d completed",
		&attached, &total, &bound, &sent, &done); err != nil {
		out.fail(out.ops, "metro: unparsable note %q: %v", r.Notes[0], err)
		return out
	}
	if _, err := fmt.Sscanf(r.Notes[1], "admission: %d rejections (every site full at request time), %d backoff retries",
		&rejections, &retries); err != nil {
		out.fail(out.ops, "metro: unparsable note %q: %v", r.Notes[1], err)
		return out
	}
	out.ops += int(sent)
	if total != uint64(cfg.UEs) || attached != total {
		out.fail(int(total-attached), "metro: attached %d of %d UEs, want all %d", attached, total, cfg.UEs)
	}
	if sent == 0 || done != sent {
		out.fail(int(sent-done), "metro: %d frames sent, %d completed", sent, done)
	}
	out.counts = []count{
		{"attached", attached}, {"bound", bound}, {"frames_sent", sent},
		{"frames_done", done}, {"rejections", rejections}, {"retries", retries},
	}
	return out
}

// --- paper ---

// paperParallel is the trial concurrency of the paper workload, fixed so
// the work per run does not depend on the host's core count.
const paperParallel = 2

func paperOptions(seed uint64) acacia.ExperimentOptions {
	return acacia.ExperimentOptions{Seed: seed, SeedSet: true, Parallel: paperParallel}
}

// testbedSetup is one default testbed build: most of its cost is the
// retail feature DB every testbed-backed trial rebuilds.
func testbedSetup(seed uint64) { acacia.NewTestbed(acacia.TestbedConfig{Seed: seed}) }

func paperRun(seed uint64, sp *tracer) outcome {
	id := sp.begin("acacia.RunAllExperiments")
	results, err := acacia.RunAllExperiments(paperOptions(seed))
	sp.end(id)
	return paperOutcome(acacia.ExperimentIDs(), results, err)
}

// paperOutcome renders the results exactly as acacia-sim -all prints them
// and checks that every experiment ran. Its counts are read from each
// experiment's merged telemetry.
func paperOutcome(ids []string, results []*acacia.ExperimentResult, err error) outcome {
	out := outcome{ops: len(ids)}
	if err != nil {
		out.problems = append(out.problems, fmt.Sprintf("paper: %v", err))
	}
	got := make(map[string]bool, len(results))
	parts := make([]string, 0, len(results))
	for _, r := range results {
		got[r.ID] = true
		parts = append(parts, r.String()+"\n")
		var series, total, events uint64
		if m := r.Metrics; m != nil {
			series, events = uint64(len(m.Metrics)), uint64(len(m.Events))
			for _, x := range m.Metrics {
				total += x.Count
			}
		}
		out.counts = append(out.counts,
			count{r.ID + ".series", series}, count{r.ID + ".count_total", total}, count{r.ID + ".events", events})
	}
	for _, id := range ids {
		if !got[id] {
			out.fail(1, "paper: experiment %s returned no result", id)
		}
	}
	out.digest = digestOf(parts...)
	return out
}
