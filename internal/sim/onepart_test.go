package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// randProgram is a seeded random event program: every handler logs its
// firing, spawns children through all three scheduling entry points
// (zero delays included, to exercise same-timestamp ties), cancels earlier
// handles (fired or not), and one handler stops the engine mid-run. A
// ticker runs alongside and is stopped from a handler. The program draws
// from its own RNG in firing order, so two engines that fire identically
// draw identically.
type randProgram struct {
	e       *Engine
	rng     *RNG
	log     []string
	handles []*Event
	next    int
	fired   int
	ticks   int
	tick    *Ticker
	fireArg func(any)
}

func newRandProgram(e *Engine, seed uint64) *randProgram {
	p := &randProgram{e: e, rng: NewRNG(seed)}
	p.fireArg = func(arg any) { p.fire(arg.(int)) }
	for i := 0; i < 8; i++ {
		p.spawn()
	}
	p.tick = NewTicker(e, 700*time.Microsecond, func() {
		p.ticks++
		p.log = append(p.log, fmt.Sprintf("%v tick%d", e.Now(), p.ticks))
		if p.ticks == 12 {
			p.tick.Stop()
		}
	})
	return p
}

func (p *randProgram) spawn() {
	id := p.next
	p.next++
	d := time.Duration(p.rng.Intn(40)) * 100 * time.Microsecond
	switch p.rng.Intn(3) {
	case 0:
		p.handles = append(p.handles, p.e.Schedule(d, func() { p.fire(id) }))
	case 1:
		p.e.After(d, func() { p.fire(id) })
	default:
		p.e.AfterArg(d, p.fireArg, id)
	}
}

func (p *randProgram) fire(id int) {
	p.fired++
	p.log = append(p.log, fmt.Sprintf("%v ev%d", p.e.Now(), id))
	if p.fired == 50 {
		p.e.Stop()
	}
	if p.fired == 30 {
		p.tick.Stop()
	}
	for k := 1 + p.rng.Intn(2); k > 0 && p.next < 300; k-- {
		p.spawn()
	}
	if len(p.handles) > 0 && p.rng.Intn(3) == 0 {
		p.handles[p.rng.Intn(len(p.handles))].Cancel()
	}
}

// TestOnePartitionClusterMatchesEngine is the differential check behind
// running every simulation through a sim.Cluster: a one-partition
// Cluster.RunUntil must be indistinguishable from a bare Engine.RunUntil —
// same firing order, and the same Now, Processed and Pending after every
// run step, across random programs with cancels, nested scheduling, a
// ticker and a mid-run Stop.
func TestOnePartitionClusterMatchesEngine(t *testing.T) {
	type step struct {
		now       Time
		processed uint64
		pending   int
	}
	drive := func(seed uint64, useCluster bool) (*randProgram, []step) {
		e := NewEngine(seed)
		runUntil := e.RunUntil
		if useCluster {
			c := NewCluster(e, seed)
			c.SetWorkers(4)
			runUntil = c.RunUntil
		}
		p := newRandProgram(e, seed)
		targets := NewRNG(seed ^ 0xfeed)
		var steps []step
		at := Time(0)
		for i := 0; i < 40; i++ {
			at += Time(targets.Intn(8)) * 250 * Microsecond
			runUntil(at)
			steps = append(steps, step{e.Now(), e.Processed(), e.Pending()})
		}
		return p, steps
	}
	for seed := uint64(1); seed <= 25; seed++ {
		want, wantSteps := drive(seed, false)
		got, gotSteps := drive(seed, true)
		if fmt.Sprint(got.log) != fmt.Sprint(want.log) {
			t.Fatalf("seed %d: firing order diverged\ncluster: %v\nengine:  %v", seed, got.log, want.log)
		}
		for i := range wantSteps {
			if gotSteps[i] != wantSteps[i] {
				t.Fatalf("seed %d step %d: cluster %+v, engine %+v", seed, i, gotSteps[i], wantSteps[i])
			}
		}
		if want.fired < 50 {
			t.Fatalf("seed %d: program fired only %d times; the mid-run Stop was never reached", seed, want.fired)
		}
	}
}

// TestOnePartitionClusterStartsNoGang checks a worker count above 1 on a
// one-partition cluster runs windows inline: no goroutine appears while the
// partition's handlers execute.
func TestOnePartitionClusterStartsNoGang(t *testing.T) {
	e := NewEngine(1)
	c := NewCluster(e, 1)
	c.SetWorkers(8)
	base := runtime.NumGoroutine()
	during := -1
	e.Schedule(time.Millisecond, func() { during = runtime.NumGoroutine() })
	c.RunFor(10 * time.Millisecond)
	if during > base {
		t.Errorf("goroutines during a one-partition run = %d, want at most the baseline %d", during, base)
	}
}

// TestClusterWorkersReleaseGoroutines checks a multi-partition run with
// workers executes its windows on a gang — draining cross sends buffered
// mid-run, with Processed summing the partition counters — and stops the
// gang before RunFor returns: the goroutine count rises during the run and
// falls back to its baseline afterwards.
func TestClusterWorkersReleaseGoroutines(t *testing.T) {
	master := NewEngine(1)
	c := NewCluster(master, 1)
	edge := c.AddPartition("site/a")
	other := c.AddPartition("site/b")
	c.SetLookahead(time.Millisecond)
	c.SetWorkers(3)

	base := runtime.NumGoroutine()
	during := 0
	master.Schedule(time.Millisecond, func() {
		master.SendTo(edge, 2*time.Millisecond, func(any) { during = runtime.NumGoroutine() }, nil)
	})
	other.Schedule(5*time.Millisecond, func() {})
	c.RunFor(10 * time.Millisecond)
	if during <= base {
		t.Errorf("goroutines during the run = %d, want above the baseline %d (a gang)", during, base)
	}
	if got := c.Processed(); got != 3 {
		t.Errorf("Processed() = %d, want 3 across partitions", got)
	}
	if master.Pending()+edge.Pending()+other.Pending() != 0 {
		t.Error("queues not drained")
	}
	// Stopped workers exit asynchronously after their channels close; yield
	// until they have.
	for i := 0; i < 1_000_000 && runtime.NumGoroutine() != base; i++ {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Errorf("goroutines after RunFor = %d, want the baseline %d", got, base)
	}
}
