package main

import (
	"fmt"
	"strconv"
	"time"

	"acacia"
	"acacia/internal/ctl"
	"acacia/internal/epc"
	"acacia/internal/netsim"
	"acacia/internal/pkt"
	"acacia/internal/sdn"
	"acacia/internal/sim"
	"acacia/internal/telemetry"
)

// A probe times one layer through its public constructors and calls,
// isolated from the rest of the stack. Each returns the median of its
// per-batch per-operation times, so one descheduled batch does not move
// it, and the number of operations timed.
type probe struct {
	metric string
	unit   string
	run    func(seed uint64) (value float64, n int, err error)
}

var probes = []probe{
	{"sim.event_ns", "ns", probeSimEvent},
	{"netsim.hop_ns", "ns", probeNetsimHop},
	{"pkt.gtpu_ns", "ns", probeGTPU},
	{"pkt.gtpv2_ns", "ns", probeGTPv2},
	{"pkt.s1ap_ns", "ns", probeS1AP},
	{"pkt.flowmod_ns", "ns", probeFlowMod},
	{"ctl.txn_us", "us", probeCtlTxn},
	{"sdn.install_us_1k", "us", func(uint64) (float64, int, error) { return probeSDNInstall(1000) }},
	{"sdn.remove_us_1k", "us", probeSDNRemove},
	{"sdn.install_us_20k", "us", func(uint64) (float64, int, error) { return probeSDNInstall(20000) }},
	{"sdn.classify_hit_ns", "ns", func(uint64) (float64, int, error) { return probeSDNClassify(true) }},
	{"sdn.classify_miss_ns", "ns", func(uint64) (float64, int, error) { return probeSDNClassify(false) }},
	{"epc.attach_batch_ms", "ms", probeAttachBatch},
	{"telemetry.snapshot_ms_100k", "ms", probeSnapshot},
}

// batches times batches of ops calls of fn and returns the median
// per-call time in the given unit.
func batches(nBatches, ops int, unit time.Duration, fn func()) (float64, int) {
	per := make([]float64, 0, nBatches)
	for b := 0; b < nBatches; b++ {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(ops)/float64(unit))
	}
	return median(per), nBatches * ops
}

// probeSimEvent measures Schedule + fire at a steady queue depth of 1,024
// pending events: every handler reschedules itself at a delay drawn from
// a fixed table, so the queue neither grows nor drains.
func probeSimEvent(seed uint64) (float64, int, error) {
	const depth = 1024
	eng := sim.NewEngine(seed)
	rng := sim.NewRNG(seed)
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(1+rng.Intn(1000)) * time.Microsecond
	}
	next := 0
	var fire func()
	fire = func() {
		next = (next + 1) & (len(delays) - 1)
		eng.Schedule(delays[next], fire)
	}
	for i := 0; i < depth; i++ {
		fire()
	}
	eng.RunFor(10 * time.Millisecond) // warm the queue
	per := make([]float64, 0, 40)
	total := 0
	for b := 0; b < cap(per); b++ {
		before := eng.Processed()
		t0 := time.Now()
		eng.RunFor(25 * time.Millisecond)
		n := eng.Processed() - before
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
		total += int(n)
	}
	return median(per), total, nil
}

// probeNetsimHop sends packets from a host through a chain of routers to a
// sink and reports host time per packet per link hop.
func probeNetsimHop(uint64) (float64, int, error) {
	const (
		links = 8
		burst = 32
	)
	eng := sim.NewEngine(1)
	nw := netsim.New(eng)
	cfg := netsim.LinkConfig{BitsPerSecond: 1e9, Propagation: 50 * time.Microsecond}
	src := nw.AddNode("h0", pkt.AddrFrom(10, 0, 0, 1))
	host := netsim.NewHost(src)
	dst := pkt.AddrFrom(10, 0, 1, 1)
	prev, prevRouter := src, (*netsim.Router)(nil)
	for i := 1; i <= links; i++ {
		var n *netsim.Node
		if i == links {
			n = nw.AddNode("sink", dst)
		} else {
			n = nw.AddNode("r"+strconv.Itoa(i), pkt.AddrFrom(10, 0, 0, byte(1+i)))
		}
		l := nw.ConnectSymmetric(prev, n, cfg)
		if prevRouter != nil {
			prevRouter.AddDefaultRoute(l.A)
		}
		if i < links {
			prevRouter = netsim.NewRouter(n)
		}
		prev = n
	}
	sink := netsim.NewSink(netsim.NewHost(prev), 9000)
	v, n := batches(40, 64, time.Nanosecond, func() {
		for i := 0; i < burst; i++ {
			host.Send(dst, 30000, 9000, pkt.ProtoUDP, 1000, nil)
		}
		eng.Run()
	})
	if want := uint64(n * burst); sink.Packets != want {
		return 0, 0, fmt.Errorf("netsim probe: sink got %d of %d packets", sink.Packets, want)
	}
	return v / (burst * links), n * burst * links, nil
}

func probeGTPU(uint64) (float64, int, error) {
	src, dst := pkt.AddrFrom(10, 0, 0, 1), pkt.AddrFrom(10, 0, 0, 2)
	inner := make([]byte, 1400)
	buf := make([]byte, 0, pkt.GTPUOverhead+len(inner))
	var err error
	v, n := batches(40, 20000, time.Nanosecond, func() {
		buf = pkt.AppendGPDU(buf[:0], src, dst, 0xbeef, len(inner))
		buf = append(buf, inner...)
		if _, _, e := pkt.DecapsulateGPDU(buf); e != nil {
			err = e
		}
	})
	return v, n, err
}

func probeGTPv2(uint64) (float64, int, error) {
	tft := pkt.DedicatedBearerTFT(pkt.AddrFrom(10, 3, 0, 10))
	msg := &pkt.GTPv2Msg{
		Type: pkt.GTPv2CreateBearerRequest, Seq: 7,
		Bearers: []pkt.BearerContext{{
			EBI: 6, TFT: &tft, QoS: &pkt.BearerQoS{QCI: 5, ARP: 2},
			FTEIDs: []pkt.FTEID{{IfaceType: pkt.FTEIDIfaceS1USGW, TEID: 1, Addr: pkt.AddrFrom(10, 3, 0, 1)}},
		}},
	}
	var buf []byte
	var err error
	v, n := batches(40, 5000, time.Nanosecond, func() {
		buf = msg.Encode(buf[:0])
		var out pkt.GTPv2Msg
		if _, e := out.Decode(buf); e != nil {
			err = e
		}
	})
	return v, n, err
}

func probeS1AP(uint64) (float64, int, error) {
	tft := pkt.DedicatedBearerTFT(pkt.AddrFrom(10, 3, 0, 10))
	msg := &pkt.S1APMsg{
		Procedure: pkt.S1APInitialContextSetupRequest, TSN: 9, ENBUEID: 17, MMEUEID: 33,
		NAS: make([]byte, 64),
		ERABs: []pkt.ERABItem{{
			ERABID: 5, QoS: &pkt.BearerQoS{QCI: 9, ARP: 8}, TFT: &tft,
			Transport: pkt.FTEID{IfaceType: pkt.FTEIDIfaceS1USGW, TEID: 0x1001, Addr: pkt.AddrFrom(10, 3, 0, 1)},
		}},
	}
	var buf []byte
	var err error
	v, n := batches(40, 5000, time.Nanosecond, func() {
		buf = msg.Encode(buf[:0])
		var out pkt.S1APMsg
		if _, e := out.Decode(buf); e != nil {
			err = e
		}
	})
	return v, n, err
}

func probeFlowMod(uint64) (float64, int, error) {
	msg := &pkt.OFMsg{
		Type: pkt.OFFlowMod, Command: pkt.FlowModAdd, Priority: 100, Cookie: 1,
		Match: pkt.Match{TunnelID: pkt.U64(101), IPv4Dst: pkt.AddrPtr(pkt.AddrFrom(172, 16, 0, 2))},
		Actions: []pkt.Action{
			{Type: pkt.ActionSetTunnel, TunnelID: 201, TunnelDst: pkt.AddrFrom(10, 3, 0, 2)},
			{Type: pkt.ActionOutput, Port: 1},
		},
	}
	var buf []byte
	var err error
	v, n := batches(40, 5000, time.Nanosecond, func() {
		buf = msg.Encode(buf[:0])
		var out pkt.OFMsg
		if _, e := out.Decode(buf); e != nil {
			err = e
		}
	})
	return v, n, err
}

// probeCtlTxn runs acked transactions one at a time over a lossless
// 1 ms control link.
func probeCtlTxn(uint64) (float64, int, error) {
	eng := sim.NewEngine(7)
	nw := netsim.New(eng)
	tr := ctl.NewTransport(eng)
	a := tr.Endpoint(nw.AddNode("a", pkt.AddrFrom(10, 0, 0, 1)), true)
	b := tr.Endpoint(nw.AddNode("b", pkt.AddrFrom(10, 0, 0, 2)), true)
	ctl.Connect(a, b, netsim.LinkConfig{BitsPerSecond: 1e9, Propagation: time.Millisecond})
	delivered, acked, failed := 0, 0, 0
	deliver := func() { delivered++ }
	onFail := func(error) { failed++ }
	onDone := func(ctl.TxInfo) { acked++ }
	v, n := batches(40, 500, time.Microsecond, func() {
		a.Send(b.Addr(), a.NextSeq(b.Addr()), "Req", 120, deliver, onFail, onDone)
		eng.Run()
	})
	if delivered != n || acked != n || failed != 0 {
		return 0, 0, fmt.Errorf("ctl probe: %d sent, %d delivered, %d acked, %d failed", n, delivered, acked, failed)
	}
	return v, n, nil
}

// sdnBench is a GW-U switch under a controller, wired between a traffic
// source and a sink, whose table holds metro's central PGW-U rule shapes:
// per UE an uplink TunnelID rule and a downlink IPv4Dst rule that
// re-tunnels toward the SGW-U.
type sdnBench struct {
	eng  *sim.Engine
	nw   *netsim.Network
	sw   *sdn.Switch
	ctrl *sdn.Controller
	src  *netsim.Host
	sunk uint64
}

func newSDNBench() *sdnBench {
	eng := sim.NewEngine(3)
	nw := netsim.New(eng)
	cfg := netsim.LinkConfig{Propagation: 10 * time.Microsecond}
	srcN := nw.AddNode("src", pkt.AddrFrom(10, 9, 0, 2))
	swN := nw.AddNode("pgw-u", pkt.AddrFrom(10, 9, 0, 1))
	sinkN := nw.AddNode("sgw-u", pkt.AddrFrom(10, 9, 0, 3))
	nw.ConnectSymmetric(srcN, swN, cfg)  // switch port 0: SGi side
	nw.ConnectSymmetric(swN, sinkN, cfg) // switch port 1: S5 side
	s := &sdnBench{eng: eng, nw: nw, src: netsim.NewHost(srcN)}
	sinkN.SetHandler(func(_ *netsim.Port, p *netsim.Packet) {
		s.sunk++
		nw.Release(p)
	})
	s.sw = sdn.NewSwitch(1, swN, sdn.ACACIAGWCosts)
	s.sw.MarkGTPPort(1)
	s.ctrl = sdn.NewController(eng)
	s.ctrl.AddSwitch(s.sw)
	return s
}

func ueAddr(i int) pkt.Addr {
	return pkt.AddrFrom(172, 16+byte(i/62500), byte(i/250%250), byte(2+i%250))
}

// rule is UE i's uplink (even k) or downlink (odd k) rule; cookies are
// unique per rule.
func (s *sdnBench) rule(k int) sdn.FlowEntry {
	i := k / 2
	if k%2 == 0 {
		return sdn.FlowEntry{Priority: 100, Cookie: uint64(k) + 1,
			Match:   pkt.Match{TunnelID: pkt.U64(uint64(0x10000 + i))},
			Actions: []pkt.Action{{Type: pkt.ActionOutput, Port: 1}}}
	}
	return sdn.FlowEntry{Priority: 100, Cookie: uint64(k) + 1,
		Match: pkt.Match{IPv4Dst: pkt.AddrPtr(ueAddr(i))},
		Actions: []pkt.Action{
			{Type: pkt.ActionSetTunnel, TunnelID: uint64(0x80000 + i), TunnelDst: pkt.AddrFrom(10, 9, 0, 3)},
			{Type: pkt.ActionOutput, Port: 1},
		}}
}

// fill installs rules [from, to) and drains the controller channel.
func (s *sdnBench) fill(from, to int) {
	for k := from; k < to; k++ {
		s.ctrl.InstallFlow(s.sw, s.rule(k))
	}
	s.eng.Run()
}

// probeSDNInstall times InstallFlow + drain of one rule on a table holding
// about size rules; each batch's rules are removed again so the table
// size holds.
func probeSDNInstall(size int) (float64, int, error) {
	const perBatch = 50
	s := newSDNBench()
	s.fill(0, size-perBatch)
	per := make([]float64, 0, 10)
	for b := 0; b < cap(per); b++ {
		t0 := time.Now()
		s.fill(size-perBatch, size)
		per = append(per, float64(time.Since(t0).Microseconds())/perBatch)
		if got := s.sw.FlowCount(); got != size {
			return 0, 0, fmt.Errorf("sdn install probe: %d flows, want %d", got, size)
		}
		for k := size - perBatch; k < size; k++ {
			s.ctrl.RemoveFlows(s.sw, uint64(k)+1)
		}
		s.eng.Run()
	}
	return median(per), perBatch * len(per), nil
}

// probeSDNRemove times RemoveFlows by cookie + drain on a 1k-rule table;
// the removed rules are reinstalled between batches.
func probeSDNRemove(uint64) (float64, int, error) {
	const size, perBatch = 1000, 50
	s := newSDNBench()
	s.fill(0, size)
	per := make([]float64, 0, 20)
	for b := 0; b < cap(per); b++ {
		t0 := time.Now()
		for k := size - perBatch; k < size; k++ {
			s.ctrl.RemoveFlows(s.sw, uint64(k)+1)
			s.eng.Run()
		}
		per = append(per, float64(time.Since(t0).Microseconds())/perBatch)
		if got := s.sw.FlowCount(); got != size-perBatch {
			return 0, 0, fmt.Errorf("sdn remove probe: %d flows, want %d", got, size-perBatch)
		}
		s.fill(size-perBatch, size)
	}
	return median(per), perBatch * len(per), nil
}

// probeSDNClassify sends downlink packets through the switch at 20k rules:
// hit repeats one flow per UE so the megaflow cache answers; miss gives
// every packet a new source port so each one takes the slow path.
func probeSDNClassify(hit bool) (float64, int, error) {
	const size, burst = 20000, 32
	s := newSDNBench()
	s.fill(0, size)
	port := uint16(1024)
	ue := 0
	send := func() {
		for i := 0; i < burst; i++ {
			if !hit {
				port++
				if port == 0 {
					port = 1024
				}
			}
			s.src.Send(ueAddr(ue%64), port, 7000, pkt.ProtoUDP, 800, nil)
			ue++
		}
		s.eng.Run()
	}
	for i := 0; i < 4; i++ { // warm: index rebuild and, for hit, the cache
		send()
	}
	before, slowBefore := s.sunk, s.sw.Stats().SlowPathHits
	v, n := batches(40, 32, time.Nanosecond, send)
	if got := s.sunk - before; got != uint64(n*burst) {
		return 0, 0, fmt.Errorf("sdn classify probe: %d of %d packets forwarded", got, n*burst)
	}
	slow := s.sw.Stats().SlowPathHits - slowBefore
	if hit && slow != 0 || !hit && slow != uint64(n*burst) {
		return 0, 0, fmt.Errorf("sdn classify probe (hit=%v): %d slow-path hits of %d packets", hit, slow, n*burst)
	}
	return v / burst, n * burst, nil
}

// probeAttachBatch attaches and detaches one 64-UE cohort with
// Core.AttachBatch on a testbed, timing the attach and its completion.
func probeAttachBatch(seed uint64) (float64, int, error) {
	const cohort = 64
	tb := acacia.NewTestbed(acacia.TestbedConfig{Seed: seed, NumUEs: cohort})
	ues := make([]*epc.UE, cohort)
	for i, b := range tb.UEs {
		ues[i] = b.UE
	}
	per := make([]float64, 0, 15)
	var err error
	for b := 0; b < cap(per); b++ {
		attached, detached := 0, 0
		t0 := time.Now()
		tb.EPC.AttachBatch(ues, "core-sgw", "core-pgw", func(_ *epc.UE, e error) {
			if e != nil && err == nil {
				err = e
			}
			attached++
		})
		tb.Run(2 * time.Second)
		per = append(per, float64(time.Since(t0).Microseconds())/1000)
		tb.EPC.DetachBatch(ues, func(_ *epc.UE, e error) {
			if e != nil && err == nil {
				err = e
			}
			detached++
		})
		tb.Run(2 * time.Second)
		if attached != cohort || detached != cohort {
			return 0, 0, fmt.Errorf("attach batch probe: %d attached, %d detached of %d", attached, detached, cohort)
		}
	}
	if err != nil {
		return 0, 0, fmt.Errorf("attach batch probe: %w", err)
	}
	return median(per), len(per), nil
}

// probeSnapshot snapshots and renders a registry of 100,000 counters named
// like metro's per-link series.
func probeSnapshot(uint64) (float64, int, error) {
	reg := telemetry.New()
	links := reg.Scope("netsim").Scope("link")
	for i := 0; i < 25000; i++ {
		s := links.Scope(strconv.Itoa(i)).Scope("n" + strconv.Itoa(i) + "->n" + strconv.Itoa(i+1))
		s.Counter("sent").Add(uint64(i))
		s.Counter("delivered").Add(uint64(i))
		s.Counter("dropped")
		s.Counter("bytes").Add(uint64(i) * 1000)
	}
	per := make([]float64, 0, 5)
	rendered := 0
	for b := 0; b < cap(per); b++ {
		t0 := time.Now()
		rendered = len(reg.Snapshot().String())
		per = append(per, float64(time.Since(t0).Microseconds())/1000)
	}
	if rendered == 0 {
		return 0, 0, fmt.Errorf("snapshot probe: empty rendering")
	}
	return median(per), len(per), nil
}
