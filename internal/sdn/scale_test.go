package sdn

import (
	"math/rand"
	"testing"

	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// benchSwitch builds a bare switch (no links, no controller) to exercise
// table lookup in isolation.
func benchSwitch() *Switch {
	eng := sim.NewEngine(11)
	nw := netsim.New(eng)
	n := nw.AddNode("gw-u", pkt.AddrFrom(10, 9, 0, 1))
	return NewSwitch(1, n, ACACIAGWCosts)
}

// fillScaleTable installs n entries in the shapes the testbed actually uses:
// uplink TunnelID exact-match, downlink IPv4Dst (every fourth with IPv4Src
// too), and a low-priority background IPv4Src chain, plus one match-all
// catch-all so every probe resolves.
func fillScaleTable(sw *Switch, n int) {
	for i := 0; i < n; i++ {
		var e FlowEntry
		switch i % 4 {
		case 0:
			e = FlowEntry{Priority: 100, Cookie: uint64(i),
				Match:   pkt.Match{TunnelID: pkt.U64(uint64(1000 + i))},
				Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 0}}}
		case 1:
			e = FlowEntry{Priority: 100, Cookie: uint64(i),
				Match:   pkt.Match{IPv4Dst: pkt.AddrPtr(pkt.AddrFrom(172, 16, byte(i/250%250), byte(2+i%250)))},
				Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 0}}}
		case 2:
			e = FlowEntry{Priority: 110, Cookie: uint64(i),
				Match: pkt.Match{
					IPv4Dst: pkt.AddrPtr(pkt.AddrFrom(172, 16, byte(i/250%250), byte(2+i%250))),
					IPv4Src: pkt.AddrPtr(pkt.AddrFrom(10, 3, 0, 10)),
				},
				Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 0}}}
		default:
			e = FlowEntry{Priority: 50, Cookie: uint64(i),
				Match:   pkt.Match{IPv4Src: pkt.AddrPtr(pkt.AddrFrom(10, 1, byte(i/250%250), byte(1+i%250)))},
				Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 0}}}
		}
		sw.installFlow(e)
	}
	sw.installFlow(FlowEntry{Priority: 1, Cookie: 0xca7c4a11,
		Actions: []pkt.Action{{Type: pkt.ActionDrop}}})
}

// randProbe draws a packet view that may or may not hit one of the
// installed entries.
func randProbe(rng *rand.Rand, n int) (uint32, pkt.FiveTuple, uint64) {
	i := rng.Intn(2 * n)
	ft := pkt.FiveTuple{
		Src:     pkt.AddrFrom(10, 3, 0, 10),
		Dst:     pkt.AddrFrom(172, 16, byte(i/250%250), byte(2+i%250)),
		SrcPort: uint16(7000), DstPort: uint16(7000), Proto: pkt.ProtoTCP,
	}
	if i%3 == 0 {
		ft.Src = pkt.AddrFrom(10, 1, byte(i/250%250), byte(1+i%250))
	}
	teid := uint64(0)
	if i%2 == 0 {
		teid = uint64(1000 + i)
	}
	return uint32(rng.Intn(3)), ft, teid
}

// TestLookupMatchesScan holds the tuple-space index to the linear scan's
// semantics — winner identity under overlapping priorities, specificities
// and insertion order — over a randomized probe stream.
func TestLookupMatchesScan(t *testing.T) {
	sw := benchSwitch()
	fillScaleTable(sw, 400)
	// Overlap block: same key reachable through several shapes and equal
	// priorities, so tie-breaks are actually exercised.
	dst := pkt.AddrFrom(172, 16, 0, 7)
	sw.installFlow(FlowEntry{Priority: 100, Cookie: 0xa,
		Match:   pkt.Match{IPv4Dst: pkt.AddrPtr(dst)},
		Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 1}}})
	sw.installFlow(FlowEntry{Priority: 100, Cookie: 0xb,
		Match:   pkt.Match{IPv4Dst: pkt.AddrPtr(dst), IPProto: pkt.U8(pkt.ProtoTCP)},
		Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 2}}})
	sw.installFlow(FlowEntry{Priority: 100, Cookie: 0xc,
		Match:   pkt.Match{IPv4Dst: pkt.AddrPtr(dst)},
		Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 3}}})

	rng := rand.New(rand.NewSource(2016))
	for trial := 0; trial < 5000; trial++ {
		inPort, ft, teid := randProbe(rng, 400)
		if trial%7 == 0 {
			ft.Dst = dst
		}
		got := sw.lookup(inPort, ft, teid)
		want := sw.lookupScan(inPort, ft, teid)
		if got != want {
			t.Fatalf("probe %d: lookup=%d scan=%d (inPort=%d ft=%+v teid=%d)",
				trial, got, want, inPort, ft, teid)
		}
	}
}

// TestLookupTracksMutations verifies the dirty-rebuild discipline across
// install, cookie removal and idle expiry.
func TestLookupTracksMutations(t *testing.T) {
	sw := benchSwitch()
	fillScaleTable(sw, 64)
	rng := rand.New(rand.NewSource(7))
	check := func(stage string) {
		t.Helper()
		for i := 0; i < 500; i++ {
			inPort, ft, teid := randProbe(rng, 64)
			if got, want := sw.lookup(inPort, ft, teid), sw.lookupScan(inPort, ft, teid); got != want {
				t.Fatalf("%s: lookup=%d scan=%d", stage, got, want)
			}
		}
	}
	check("initial")
	sw.removeFlows(2) // one of the DL entries
	check("after remove")
	sw.installFlow(FlowEntry{Priority: 200, Cookie: 0xf00,
		Match:   pkt.Match{TunnelID: pkt.U64(1000)},
		Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 2}}})
	check("after install")
	sw.ExpireIdleFlows()
	check("after expiry pass")
}

// The acceptance witness: indexed lookup vs the historical scan at 10k
// installed entries.
func BenchmarkScaleLookupIndexed10k(b *testing.B) {
	sw := benchSwitch()
	fillScaleTable(sw, 10000)
	rng := rand.New(rand.NewSource(2016))
	inPort, ft, teid := randProbe(rng, 10000)
	sw.lookup(inPort, ft, teid) // settle the index outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.lookup(inPort, ft, teid)
	}
}

func BenchmarkScaleLookupScan10k(b *testing.B) {
	sw := benchSwitch()
	fillScaleTable(sw, 10000)
	rng := rand.New(rand.NewSource(2016))
	inPort, ft, teid := randProbe(rng, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.lookupScan(inPort, ft, teid)
	}
}

// fillBearerTable installs n entries shaped like a central GW-U's table:
// priority-100 bearer rules alternating uplink TunnelID and downlink IPv4Dst
// matches, above one priority-50 background rule.
func fillBearerTable(sw *Switch, n int) {
	for i := 0; i < n; i++ {
		m := pkt.Match{TunnelID: pkt.U64(uint64(1000 + i))}
		if i%2 == 1 {
			m = pkt.Match{IPv4Dst: pkt.AddrPtr(pkt.AddrFrom(172, byte(16+i/62500), byte(i/250%250), byte(2+i%250)))}
		}
		sw.installFlow(FlowEntry{Priority: 100, Cookie: uint64(i), Match: m,
			Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 0}}})
	}
	sw.installFlow(FlowEntry{Priority: 50, Cookie: 0xb6b6b6,
		Match:   pkt.Match{IPv4Src: pkt.AddrPtr(pkt.AddrFrom(10, 1, 0, 1))},
		Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 1}}})
}

// benchInstallFlow times installing one fresh bearer rule into a table of
// about n rules. Every installBatch installs the timer stops and a single
// removeFlows call takes the batch out again, so the table size holds and
// the per-op figure is the install cost at size n.
func benchInstallFlow(b *testing.B, n int) {
	const installBatch = 1024
	const batchCookie = 0xba7c4
	sw := benchSwitch()
	fillBearerTable(sw, n)
	batch := make([]FlowEntry, installBatch)
	for i := range batch {
		batch[i] = FlowEntry{Priority: 100, Cookie: batchCookie,
			Match:   pkt.Match{TunnelID: pkt.U64(uint64(1<<32 + i))},
			Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 0}}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%installBatch == 0 {
			b.StopTimer()
			sw.removeFlows(batchCookie)
			b.StartTimer()
		}
		sw.installFlow(batch[i%installBatch])
	}
}

func BenchmarkInstallFlow1k(b *testing.B)  { benchInstallFlow(b, 1000) }
func BenchmarkInstallFlow20k(b *testing.B) { benchInstallFlow(b, 20000) }
