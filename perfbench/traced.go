package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"acacia"
)

// spanExperiments are the experiments timed one by one in the traced run:
// the heaviest of the paper workload, and the ablations that isolate the
// fast path, the search index and QCI scheduling.
var spanExperiments = []string{"3g", "8", "10b", "ablation-fastpath", "ablation-index", "ablation-qci"}

// layerReport is a traced run's result: metric values plus the number of
// samples each was computed from.
type layerReport struct {
	*report
	samples map[string]int
	log     io.Writer
}

// record tallies a checked run and logs what failed in it.
func (l *layerReport) record(c checked) {
	l.tally(c)
	logProblems(l.log, c.problems)
}

func (l *layerReport) put(name string, v float64, unit string, n int) {
	l.set(name, v, unit)
	l.samples[name] = n
}

// traced is the per-layer run. It times the workload once untraced and
// once traced under the CPU profiler (the difference is the tracing
// overhead; the profile gives each layer's self time), then runs the layer
// suite that is the same for every workload: the layer probes, the session
// loop with a span around every procedure, the metro scale and
// execution-mode sweep, and the heaviest experiments one by one. Spans,
// the metrics with their sample counts, and the profile are written to
// outDir.
func traced(w *workload, seed uint64, outDir string, stdout, log io.Writer) (*report, error) {
	rep := &layerReport{report: newReport(), samples: map[string]int{}, log: log}
	tr := newTracer(fmt.Sprintf("%s-seed%d", w.name, seed))
	root := tr.begin("run." + w.name)

	runtime.GC()
	t0 := time.Now()
	ref := w.run(seed, nil)
	wallUntraced := time.Since(t0).Seconds()
	rep.record(check(w, seed, &ref, nil))

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	ws := tr.begin("workload." + w.name)
	t1 := time.Now()
	out := w.run(seed, tr)
	wallTraced := time.Since(t1).Seconds()
	tr.end(ws)
	pprof.StopCPUProfile()
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	rep.record(check(w, seed, &out, &ref))

	self, nSamples, err := selfByLayer(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for _, l := range profileLayers {
		rep.put(l+".self_frac", self[l], "frac", nSamples)
	}
	rep.put("runtime.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), "MB", 1)
	rep.put("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count", 1)
	rep.put("runtime.cpu_s", cpu1-cpu0, "s", 1)
	rep.put("trace.overhead_frac", wallTraced/wallUntraced-1, "frac", 2)

	for _, p := range probes {
		id := tr.begin("probe." + p.metric)
		v, n, err := p.run(seed)
		tr.end(id)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			logProblems(rep.log, []string{err.Error()})
		}
		rep.put(p.metric, v, p.unit, n)
	}

	sess := out
	if w.name != "session" {
		id := tr.begin("suite.session")
		sess = runSession(seed, sessionFull, tr)
		tr.end(id)
		rep.record(check(lookupWorkload("session"), seed, &sess, nil))
	}
	rep.sessionMetrics(tr, sess.counts)

	rep.metroSweep(tr, seed, w.name == "metro", wallUntraced, ref)

	for _, id := range spanExperiments {
		sp := tr.begin("experiment." + id)
		t := time.Now()
		_, err := acacia.RunExperiment(id, paperOptions(seed))
		rep.put("experiments."+id+"_s", time.Since(t).Seconds(), "s", 1)
		tr.end(sp)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			logProblems(rep.log, []string{fmt.Sprintf("experiment %s: %v", id, err)})
		}
	}
	tr.end(root)

	if err := tr.write(outDir); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(filepath.Join(outDir, tr.run+".cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("writing CPU profile: %w", err)
	}
	if err := rep.writeSamples(filepath.Join(outDir, tr.run+".metrics.json")); err != nil {
		return nil, fmt.Errorf("writing per-layer metrics: %w", err)
	}
	rep.printTable(stdout)
	return rep.report, nil
}

// writeSamples saves every per-layer metric with its unit and sample
// count.
func (rep *layerReport) writeSamples(path string) error {
	type entry struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples"`
	}
	all := make(map[string]entry, len(rep.Metrics))
	for name, m := range rep.Metrics {
		all[name] = entry{m.Value, m.Unit, rep.samples[name]}
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sessionMetrics derives the core span metrics and the program-reported
// counts from a session run.
func (rep *layerReport) sessionMetrics(tr *tracer, counts []count) {
	spanPercentiles := []struct {
		span, metric string
		tail         float64
	}{
		{"core.attach", "core.attach_ms", 95},
		{"core.handover", "core.handover_ms", 98},
		{"core.detach", "core.detach_ms", 95},
	}
	for _, s := range spanPercentiles {
		ms, _ := tr.durations(s.span)
		if !tailSupported(len(ms), s.tail) {
			rep.Correct = false
			logProblems(rep.log, []string{fmt.Sprintf("%s: %d samples do not support p%v", s.span, len(ms), s.tail)})
		}
		rep.put(s.metric+".p50", percentile(ms, 50), "ms", len(ms))
		rep.put(fmt.Sprintf("%s.p%v", s.metric, s.tail), percentile(ms, s.tail), "ms", len(ms))
	}
	runMs, simS := tr.durations("core.run")
	total := 0.0
	for _, m := range runMs {
		total += m
	}
	if simS > 0 {
		rep.put("core.run_ms_per_sim_s", total/simS, "ms/s", len(runMs))
	}

	sum := func(prefix, suffix string) (v uint64, n int) {
		for _, c := range counts {
			if strings.HasPrefix(c.name, prefix) && strings.HasSuffix(c.name, suffix) {
				v += c.value
				n++
			}
		}
		return v, n
	}
	one := func(metric, name string) {
		rep.put(metric, float64(countValue(counts, name)), "count", 1)
	}
	one("sim.events", "sim.events")
	delivered, links := sum("netsim/link/", "/delivered")
	dropped, _ := sum("netsim/link/", "/dropped")
	rep.put("netsim.delivered", float64(delivered), "count", links)
	rep.put("netsim.dropped", float64(dropped), "count", links)
	one("ctl.retransmissions", "epc/txn/retransmissions")
	one("ctl.timeouts", "epc/txn/timeouts")
	one("epc.handover_completed", "epc/handover/completed")
	one("epc.handover_failed", "epc/handover/failed")
	one("core.migrations", "core.migrations")
	one("core.relocations", "core.relocations")
	fast, switches := sum("sdn/", "/fastpath/hits")
	slow, _ := sum("sdn/", "/slowpath/hits")
	if fast+slow > 0 {
		rep.put("sdn.megaflow_hit_ratio", float64(fast)/float64(fast+slow), "frac", int(fast+slow))
	}
	fmt.Fprintf(rep.log, "perfbench: megaflow hit ratio base: %d fast-path + %d slow-path hits on %d switches\n", fast, slow, switches)
}

// metroSweep times the metro preset at 1k and 10k UEs and at Workers 0
// and 2. The Workers = 2 run must render byte-identical output to the
// sequential one. When the traced workload is metro itself, its untraced
// run is the 10k sequential point.
func (rep *layerReport) metroSweep(tr *tracer, seed uint64, isMetro bool, metroWall float64, metroOut outcome) {
	timed := func(name string, ues, workers int) (float64, outcome) {
		id := tr.begin("sweep." + name)
		runtime.GC()
		t := time.Now()
		o := metroRunShape(seed, ues, workers, nil)
		d := time.Since(t).Seconds()
		tr.end(id)
		return d, o
	}
	metro := lookupWorkload("metro")
	if !isMetro {
		metroWall, metroOut = timed("metro_10k_workers0", metroUEs, 0)
		rep.record(check(metro, seed, &metroOut, nil))
	}
	gangWall, gangOut := timed("metro_10k_workers2", metroUEs, 2)
	rep.record(check(metro, seed, &gangOut, &metroOut))
	smallWall, smallOut := timed("metro_1k_workers0", metroUEs/10, 0)
	rep.record(checked{ops: smallOut.ops, failed: smallOut.failed, problems: smallOut.problems})
	rep.put("sim.gang_speedup", metroWall/gangWall, "ratio", 2)
	rep.put("core.metro_growth_10x", metroWall/smallWall, "ratio", 2)
}

// printTable writes the per-layer metrics with their sample counts, one
// per line, ahead of the result line.
func (rep *layerReport) printTable(w io.Writer) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "%-34s %16.6g %-6s n=%d\n", n, m.Value, m.Unit, rep.samples[n])
	}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
