package sdn

import (
	"math/rand"
	"testing"
	"time"

	"acacia/internal/pkt"
	"acacia/internal/sim"
)

// refTable is the naive flow table the keyed one is held to: install scans
// every entry with a field-by-field match comparison to find a
// replacement, exactly as the switch did before it kept a key set.
type refTable struct {
	table    []FlowEntry
	lastUsed []sim.Time
}

func refMatchEqual(a, b *pkt.Match) bool {
	eqU32 := func(x, y *uint32) bool { return (x == nil) == (y == nil) && (x == nil || *x == *y) }
	eqU16 := func(x, y *uint16) bool { return (x == nil) == (y == nil) && (x == nil || *x == *y) }
	eqU8 := func(x, y *uint8) bool { return (x == nil) == (y == nil) && (x == nil || *x == *y) }
	eqU64 := func(x, y *uint64) bool { return (x == nil) == (y == nil) && (x == nil || *x == *y) }
	eqAddr := func(x, y *pkt.Addr) bool { return (x == nil) == (y == nil) && (x == nil || *x == *y) }
	return eqU32(a.InPort, b.InPort) && eqU16(a.EthType, b.EthType) && eqU8(a.IPProto, b.IPProto) &&
		eqAddr(a.IPv4Src, b.IPv4Src) && eqAddr(a.IPv4Dst, b.IPv4Dst) &&
		eqU16(a.UDPSrc, b.UDPSrc) && eqU16(a.UDPDst, b.UDPDst) && eqU64(a.TunnelID, b.TunnelID)
}

func (r *refTable) install(e FlowEntry, now sim.Time) {
	for i := range r.table {
		if r.table[i].Priority == e.Priority && refMatchEqual(&r.table[i].Match, &e.Match) {
			r.table[i], r.lastUsed[i] = e, now
			return
		}
	}
	i := 0
	for i < len(r.table) && r.table[i].Priority >= e.Priority {
		i++
	}
	r.table = append(r.table[:i], append([]FlowEntry{e}, r.table[i:]...)...)
	r.lastUsed = append(r.lastUsed[:i], append([]sim.Time{now}, r.lastUsed[i:]...)...)
}

func (r *refTable) filter(drop func(i int) bool) int {
	var table []FlowEntry
	var used []sim.Time
	for i := range r.table {
		if !drop(i) {
			table, used = append(table, r.table[i]), append(used, r.lastUsed[i])
		}
	}
	removed := len(r.table) - len(table)
	r.table, r.lastUsed = table, used
	return removed
}

func (r *refTable) remove(cookie uint64) int {
	return r.filter(func(i int) bool { return r.table[i].Cookie == cookie })
}

func (r *refTable) expire(now sim.Time) int {
	return r.filter(func(i int) bool {
		to := r.table[i].IdleTimeout
		return to > 0 && now.Sub(r.lastUsed[i]) >= to
	})
}

// lookup is the linear scan: highest priority, then most specific, then
// first in table order.
func (r *refTable) lookup(inPort uint32, flow pkt.FiveTuple, teid uint64) int {
	best := -1
	for i := range r.table {
		e := &r.table[i]
		if !e.Match.Matches(inPort, flow, teid) {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := &r.table[best]
		if e.Priority > b.Priority ||
			(e.Priority == b.Priority && e.Match.SpecificityScore() > b.Match.SpecificityScore()) {
			best = i
		}
	}
	return best
}

// randTableMatch draws a match from small value pools, so installs collide
// often: exact duplicates, matches that differ only in EthType, and equal
// priorities over different matches all occur.
func randTableMatch(rng *rand.Rand) pkt.Match {
	var m pkt.Match
	switch rng.Intn(3) {
	case 0:
		m.TunnelID = pkt.U64(uint64(1 + rng.Intn(3)))
	case 1:
		m.IPv4Dst = pkt.AddrPtr(pkt.AddrFrom(172, 16, 0, byte(2+rng.Intn(2))))
		if rng.Intn(2) == 0 {
			m.IPv4Src = pkt.AddrPtr(pkt.AddrFrom(10, 3, 0, byte(10+rng.Intn(2))))
		}
	}
	if rng.Intn(3) == 0 {
		m.EthType = pkt.U16([]uint16{0x0800, 0x86dd}[rng.Intn(2)])
	}
	if rng.Intn(4) == 0 {
		m.IPProto = pkt.U8([]uint8{pkt.ProtoTCP, pkt.ProtoUDP}[rng.Intn(2)])
	}
	if rng.Intn(4) == 0 {
		m.InPort = pkt.U32(uint32(1 + rng.Intn(2)))
	}
	if rng.Intn(5) == 0 {
		m.UDPDst = pkt.U16(7000)
	}
	return m
}

func randTableProbe(rng *rand.Rand) (uint32, pkt.FiveTuple, uint64) {
	ft := pkt.FiveTuple{
		Src:     pkt.AddrFrom(10, 3, 0, byte(10+rng.Intn(2))),
		Dst:     pkt.AddrFrom(172, 16, 0, byte(2+rng.Intn(2))),
		SrcPort: 7000, DstPort: uint16(6999 + rng.Intn(2)),
		Proto: []uint8{pkt.ProtoTCP, pkt.ProtoUDP}[rng.Intn(2)],
	}
	return uint32(rng.Intn(3)), ft, uint64(rng.Intn(4))
}

// TestFlowTableMatchesReference runs seeded install / replace /
// remove-by-cookie / idle-expiry streams against the keyed switch table and
// the scan-based reference. After every operation the two tables must hold
// the same entries in the same order, lookups must agree, and the switch's
// key set must hold exactly the table's distinct keys.
func TestFlowTableMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sw := benchSwitch()
		eng := sw.eng
		var ref refTable
		for op := 0; op < 600; op++ {
			var what string
			switch r := rng.Intn(10); {
			case r < 6:
				what = "install"
				e := FlowEntry{
					Priority:    []uint16{50, 100, 100, 110}[rng.Intn(4)],
					Cookie:      uint64(1 + rng.Intn(6)),
					Match:       randTableMatch(rng),
					IdleTimeout: []time.Duration{0, 0, 5 * time.Millisecond, 20 * time.Millisecond}[rng.Intn(4)],
					// The output port tags each install, so a replacement
					// is told apart from the entry it replaced.
					Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: uint32(op)}},
				}
				sw.installFlow(e)
				ref.install(e, eng.Now())
			case r < 8:
				what = "remove"
				c := uint64(1 + rng.Intn(6))
				if got, want := sw.removeFlows(c), ref.remove(c); got != want {
					t.Fatalf("seed %d op %d: removeFlows(%d) = %d, want %d", seed, op, c, got, want)
				}
			default:
				what = "expire"
				eng.RunUntil(eng.Now().Add(time.Duration(rng.Intn(8)) * time.Millisecond))
				if got, want := sw.ExpireIdleFlows(), ref.expire(eng.Now()); got != want {
					t.Fatalf("seed %d op %d: ExpireIdleFlows = %d, want %d", seed, op, got, want)
				}
			}
			checkFlowTable(t, sw, &ref, rng, seed, op, what)
		}
	}
}

func checkFlowTable(t *testing.T, sw *Switch, ref *refTable, rng *rand.Rand, seed int64, op int, what string) {
	t.Helper()
	if len(sw.table) != len(ref.table) {
		t.Fatalf("seed %d op %d (%s): %d entries, want %d", seed, op, what, len(sw.table), len(ref.table))
	}
	distinct := map[flowKey]bool{}
	for i := range sw.table {
		g, w := &sw.table[i], &ref.table[i]
		if g.Priority != w.Priority || g.Cookie != w.Cookie || g.Actions[0].Port != w.Actions[0].Port ||
			!refMatchEqual(&g.Match, &w.Match) {
			t.Fatalf("seed %d op %d (%s): entry %d is prio=%d cookie=%d tag=%d, want prio=%d cookie=%d tag=%d",
				seed, op, what, i, g.Priority, g.Cookie, g.Actions[0].Port, w.Priority, w.Cookie, w.Actions[0].Port)
		}
		k := flowKeyOf(g)
		if _, ok := sw.keys[k]; !ok {
			t.Fatalf("seed %d op %d (%s): entry %d's key is missing from the key set", seed, op, what, i)
		}
		distinct[k] = true
	}
	if len(sw.keys) != len(distinct) {
		t.Fatalf("seed %d op %d (%s): key set holds %d keys, table has %d distinct", seed, op, what, len(sw.keys), len(distinct))
	}
	for p := 0; p < 20; p++ {
		inPort, ft, teid := randTableProbe(rng)
		if got, want := sw.lookup(inPort, ft, teid), ref.lookup(inPort, ft, teid); got != want {
			t.Fatalf("seed %d op %d (%s): lookup(%d, %+v, %d) = %d, want %d", seed, op, what, inPort, ft, teid, got, want)
		}
	}
}
