package main

import (
	"bytes"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"acacia"
)

// tinySession is a session shape small enough for unit tests.
var tinySession = sessionShape{UEs: 2, Rounds: 2}

func TestCorruptedDigestFailsEveryOperation(t *testing.T) {
	w := &workload{name: "t", golden: digestOf("expected")}
	out := outcome{digest: digestOf("expected"), ops: 7}
	if c := check(w, defaultSeed, &out, nil); c.failed != 0 {
		t.Fatalf("matching digest: failed=%d, want 0 (%v)", c.failed, c.problems)
	}
	out.digest = digestOf("corrupted")
	if c := check(w, defaultSeed, &out, nil); c.failed != 7 {
		t.Fatalf("corrupted digest: failed=%d, want all 7", c.failed)
	}
	// Other seeds have no golden output; only the determinism check
	// applies to them.
	if c := check(w, defaultSeed+1, &out, nil); c.failed != 0 {
		t.Fatalf("non-default seed: failed=%d, want 0", c.failed)
	}
}

func TestChangedCountFailsEveryOperation(t *testing.T) {
	w := &workload{name: "t"}
	ref := outcome{digest: "d", ops: 5, counts: []count{{"a", 1}, {"b", 2}}}
	same := ref
	if c := check(w, 1, &same, &ref); c.failed != 0 {
		t.Fatalf("identical rerun: failed=%d (%v)", c.failed, c.problems)
	}
	changed := ref
	changed.counts = []count{{"a", 1}, {"b", 3}}
	c := check(w, 1, &changed, &ref)
	if c.failed != 5 || len(c.problems) == 0 || !strings.Contains(c.problems[0], "b=2") {
		t.Fatalf("changed count: failed=%d problems=%v", c.failed, c.problems)
	}
	changed.counts = ref.counts
	changed.digest = "other"
	if c := check(w, 1, &changed, &ref); c.failed != 5 {
		t.Fatalf("changed digest: failed=%d, want 5", c.failed)
	}
}

func TestSessionIsDeterministic(t *testing.T) {
	a := runSession(3, tinySession, nil)
	b := runSession(3, tinySession, newTracer("t"))
	if a.failed != 0 || len(a.problems) != 0 {
		t.Fatalf("tiny session failed: %v", a.problems)
	}
	w := &workload{name: "session"}
	if c := check(w, 3, &b, &a); c.failed != 0 {
		t.Fatalf("same seed, traced vs untraced: %v", c.problems)
	}
	if countValue(a.counts, "core.migrations") == 0 || countValue(a.counts, "epc/handover/completed") == 0 {
		t.Fatalf("tiny session moved no sessions: %v", a.counts[:4])
	}
	if c := runSession(4, tinySession, nil); c.digest == a.digest {
		t.Fatal("seeds 3 and 4 rendered identical session output")
	}
}

func TestMetroOutcomeInvariants(t *testing.T) {
	cfg := metroConfig(1, 1000, 0)
	out := metroOutcome(cfg, acacia.RunScaleScenario(1, cfg))
	if out.failed != 0 || len(out.counts) != 6 {
		t.Fatalf("1k-UE metro: failed=%d counts=%v problems=%v", out.failed, out.counts, out.problems)
	}
	if out.ops <= cfg.UEs {
		t.Fatalf("ops=%d, want UEs plus frames", out.ops)
	}
	r := acacia.RunScaleScenario(1, cfg)
	r.Notes[0] = strings.Replace(r.Notes[0], "attached 1000/1000", "attached 999/1000", 1)
	if bad := metroOutcome(cfg, r); bad.failed != 1 {
		t.Fatalf("one unattached UE: failed=%d problems=%v", bad.failed, bad.problems)
	}
}

func TestPaperOutcomeCountsMissingExperiments(t *testing.T) {
	r, err := acacia.RunExperiment("6", paperOptions(defaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	out := paperOutcome([]string{"6", "missing"}, []*acacia.ExperimentResult{r}, nil)
	if out.ops != 2 || out.failed != 1 {
		t.Fatalf("ops=%d failed=%d, want 2/1", out.ops, out.failed)
	}
	if out.digest != digestOf(r.String()+"\n") {
		t.Fatal("paper digest does not cover the rendered result")
	}
}

func TestMetroConfigKeepsPresetAtDefaultSeed(t *testing.T) {
	preset := acacia.DefaultScaleConfig(true)
	if got := metroConfig(defaultSeed, metroUEs, 0); got != preset {
		t.Fatalf("default seed changed the preset: %+v", got)
	}
	seen := map[int]bool{}
	for s := uint64(0); s < 24; s++ {
		seen[metroConfig(s, metroUEs, 0).FlashSite] = true
	}
	if len(seen) != preset.Sites {
		t.Fatalf("seeds reach %d flash sites, want %d", len(seen), preset.Sites)
	}
}

func TestProfileSelfTimeByLayer(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		runSession(5, sessionShape{UEs: 1, Rounds: 1}, nil)
	}
	pprof.StopCPUProfile()
	frac, n, err := selfByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("no samples collected")
	}
	sum := 0.0
	for _, l := range profileLayers {
		if frac[l] < 0 || frac[l] > 1 {
			t.Fatalf("%s self_frac %v out of [0,1]", l, frac[l])
		}
		sum += frac[l]
	}
	if sum <= 0 || sum > 1+1e-9 {
		t.Fatalf("layer shares sum to %v", sum)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, want string }{
		{"acacia/internal/sim.(*Engine).Run", "sim"},
		{"acacia/internal/sdn.(*Switch).installFlow", "sdn"},
		{"acacia/internal/telemetry.(*Registry).Scope", "telemetry"},
		{"acacia/internal/experiments.runScale", ""},
		{"acacia/internal/simx.f", ""},
		{"runtime.mallocgc", "runtime"},
		{"container/heap.down", ""},
	} {
		if got := layerOf(c.fn); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.fn, got, c.want)
		}
	}
}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestMetricNamesAreValid(t *testing.T) {
	grammar := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	spec := loadSpec(t)
	seen := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !grammar.MatchString(m.Name) || !validMetricName(m.Name) {
			t.Errorf("metric name %q breaks the naming rule", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", strings.Repeat("a", 65)} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
	for _, p := range probes {
		if !seen[p.metric] {
			t.Errorf("probe metric %s is not declared in BENCHMARK.json", p.metric)
		}
	}
	for _, l := range profileLayers {
		if !seen[l+".self_frac"] {
			t.Errorf("%s.self_frac is not declared in BENCHMARK.json", l)
		}
	}
}

func TestReportRefusesInvalidNames(t *testing.T) {
	rep := newReport()
	rep.Attempted = 1
	rep.set("bad name", 1, "s")
	if err := rep.write(&bytes.Buffer{}); err == nil {
		t.Fatal("invalid metric name was written")
	}
}

func TestReportMatchesSpec(t *testing.T) {
	spec := loadSpec(t)
	rep := newReport()
	for _, m := range spec.EndToEnd {
		rep.set(m.Name, 1, m.Unit)
	}
	if err := rep.matchSpec("../BENCHMARK.json", false); err != nil {
		t.Fatalf("complete end-to-end report: %v", err)
	}
	if err := rep.matchSpec("../BENCHMARK.json", true); err == nil {
		t.Fatal("end-to-end report passed as a traced one")
	}
	delete(rep.Metrics, spec.EndToEnd[0].Name)
	if err := rep.matchSpec("../BENCHMARK.json", false); err == nil {
		t.Fatal("report missing a declared metric passed")
	}
}
