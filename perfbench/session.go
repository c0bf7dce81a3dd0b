package main

import (
	"fmt"
	"strings"
	"time"

	"acacia"
	"acacia/internal/sim"
)

// sessionShape sizes the session workload: UEs customers on a two-cell,
// two-site store, driven through Rounds of the procedure cycle.
type sessionShape struct {
	UEs, Rounds int
}

// sessionFull is the benchmark's session workload: about 2,000 procedures.
var sessionFull = sessionShape{UEs: 16, Rounds: 20}

func sessionConfig(seed uint64, shape sessionShape) acacia.TestbedConfig {
	return acacia.TestbedConfig{Seed: seed, NumUEs: shape.UEs}
}

func sessionSetup(seed uint64) { acacia.NewTestbed(sessionConfig(seed, sessionFull)) }

func sessionRunDefault(seed uint64, sp *tracer) outcome { return runSession(seed, sessionFull, sp) }

// runSession is a closed loop on one testbed: each call returns before the
// next is issued. Every round attaches all UEs, starts the retail app on a
// section drawn from the seed, lets the sessions run, hands every UE over
// to the other cell (the MRS relocates its binding to that cell's site and
// the AR state migrates) and back, then unregisters and detaches them.
// Dwell times are drawn from the seed too.
func runSession(seed uint64, shape sessionShape, sp *tracer) outcome {
	var out outcome
	rng := sim.NewRNG(seed ^ 0x5e55_1011)
	tb := acacia.NewTestbed(sessionConfig(seed, shape))
	home := tb.ENB
	east := tb.AddCellENB("enb-east")
	site2 := tb.AddEdgeSite("edge-2")
	tb.BindSiteToENB(site2.Name, "enb-east")
	sections := tb.Floor.Sections

	call := func(span string, fn func() error) {
		out.ops++
		id := sp.begin(span)
		err := fn()
		sp.end(id)
		if err != nil {
			out.fail(1, "session: %s: %v", span, err)
		}
	}
	runFor := func(d time.Duration) {
		out.ops++
		id := sp.begin("core.run")
		tb.Run(d)
		sp.endSim(id, d)
	}
	handovers := 0
	for round := 0; round < shape.Rounds; round++ {
		for _, b := range tb.UEs {
			call("core.attach", func() error { return tb.Attach(b) })
		}
		for _, b := range tb.UEs {
			section := sections[rng.Intn(len(sections))]
			call("core.start_app", func() error { return tb.StartRetailApp(b, section) })
		}
		runFor(time.Duration(2000+rng.Intn(2000)) * time.Millisecond)
		for _, b := range tb.UEs {
			call("core.handover", func() error { return tb.Handover(b, east) })
		}
		runFor(time.Duration(1000+rng.Intn(2000)) * time.Millisecond)
		for _, b := range tb.UEs {
			call("core.handover", func() error { return tb.Handover(b, home) })
		}
		handovers += 2 * len(tb.UEs)
		runFor(time.Second)
		for _, b := range tb.UEs {
			call("core.unregister", func() error { return b.DM.Unregister(acacia.RetailServiceName) })
			call("core.detach", func() error {
				done := false
				if err := b.UE.Detach(func() { done = true }); err != nil {
					return err
				}
				tb.Run(time.Second)
				if !done {
					return fmt.Errorf("detach of %s did not complete", b.Name)
				}
				return nil
			})
		}
	}

	// The rendered summary the golden digest covers: per-UE frontend
	// stats plus the mobility totals.
	var sum strings.Builder
	var migrations uint64
	for _, b := range tb.UEs {
		fe := b.Frontend
		migrations += fe.Migrations
		fmt.Fprintf(&sum, "%s responses=%d found=%d timeouts=%d migrations=%d migrated-bytes=%d migration-timeouts=%d total-ms=%.6f\n",
			b.Name, fe.Responses, fe.Found, fe.Timeouts, fe.Migrations, fe.MigratedBytes, fe.MigrationTimeouts, fe.Stats.Total.Mean())
	}
	fmt.Fprintf(&sum, "handovers=%d relocations=%d requests=%d deletes=%d events=%d now=%v\n",
		tb.EPC.MME.Handovers, tb.MRS.Relocations, tb.MRS.Requests, tb.MRS.Deletes, tb.Eng.Processed(), tb.Eng.Now())
	out.digest = digestOf(sum.String())

	snap := tb.MetricsSnapshot()
	out.counts = []count{
		{"sim.events", tb.Eng.Processed()},
		{"core.migrations", migrations},
		{"core.relocations", tb.MRS.Relocations},
		{"epc.handovers", tb.EPC.MME.Handovers},
	}
	for _, m := range snap.Metrics {
		out.counts = append(out.counts, count{m.Name, m.Count})
	}
	if got := countValue(out.counts, "epc/handover/completed"); got != uint64(handovers) {
		out.fail(handovers-int(got), "session: %d of %d handovers completed", got, handovers)
	}
	return out
}

// countValue returns the named count, or 0 when absent.
func countValue(counts []count, name string) uint64 {
	for _, c := range counts {
		if c.name == name {
			return c.value
		}
	}
	return 0
}
