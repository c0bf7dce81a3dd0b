package sim

import (
	"sort"
	"testing"
	"time"
)

// refPop is the naive reference for eventQueue.pop: scan the unordered
// slots for the (at, seq) minimum and cut it out.
func refPop(r *[]queued) *Event {
	m := 0
	for i := range *r {
		if (*r)[i].before(&(*r)[m]) {
			m = i
		}
	}
	ev := (*r)[m].ev
	*r = append((*r)[:m], (*r)[m+1:]...)
	return ev
}

// TestEventQueueMatchesReference drives the 4-ary heap and the linear-scan
// reference with the same seeded push/pop streams. Timestamps come from a
// handful of values, so most comparisons are decided by seq.
func TestEventQueueMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRNG(seed)
		var q eventQueue
		var ref []queued
		var seq uint64
		spread := 1 + rng.Intn(16)
		for op := 0; op < 4000; op++ {
			if len(ref) == 0 || rng.Intn(5) < 3 {
				ev := &Event{at: Time(rng.Intn(spread)), seq: seq}
				seq++
				q.push(ev)
				ref = append(ref, queued{at: ev.at, seq: ev.seq, ev: ev})
				continue
			}
			if got, want := q.pop(), refPop(&ref); got != want {
				t.Fatalf("seed %d op %d: pop (%v,%d), want (%v,%d)", seed, op, got.at, got.seq, want.at, want.seq)
			}
		}
		for len(ref) > 0 {
			if got, want := q.pop(), refPop(&ref); got != want {
				t.Fatalf("seed %d drain: pop (%v,%d), want (%v,%d)", seed, got.at, got.seq, want.at, want.seq)
			}
		}
		if len(q) != 0 {
			t.Fatalf("seed %d: %d slots left after drain", seed, len(q))
		}
	}
}

// TestEngineFiresInAtSeqOrder runs seeded streams of Schedule, After,
// Cancel and partial RunUntil calls — with handlers that schedule more
// events at the current instant — and checks the fired sequence equals
// every uncancelled event sorted by (at, seq).
func TestEngineFiresInAtSeqOrder(t *testing.T) {
	type rec struct {
		at        Time
		seq       uint64
		fired     bool
		cancelled bool
	}
	for seed := uint64(1); seed <= 20; seed++ {
		eng := NewEngine(seed)
		rng := NewRNG(seed ^ 0x5eed)
		var recs []*rec
		var fired []int
		var handles []*Event
		handleID := map[*Event]int{}
		var schedule func(d time.Duration)
		fire := func(id int) {
			recs[id].fired = true
			fired = append(fired, id)
			if id%4 == 0 && len(recs) < 3000 {
				schedule(time.Duration(rng.Intn(2)) * time.Millisecond)
			}
		}
		schedule = func(d time.Duration) {
			id := len(recs)
			recs = append(recs, &rec{at: eng.Now().Add(d), seq: eng.seq})
			if rng.Intn(2) == 0 {
				eng.After(d, func() { fire(id) })
				return
			}
			ev := eng.Schedule(d, func() { fire(id) })
			handles = append(handles, ev)
			handleID[ev] = id
		}
		for op := 0; op < 1500; op++ {
			switch r := rng.Intn(10); {
			case r < 6:
				schedule(time.Duration(rng.Intn(4)) * time.Millisecond)
			case r < 8 && len(handles) > 0:
				ev := handles[rng.Intn(len(handles))]
				if rc := recs[handleID[ev]]; !rc.fired {
					rc.cancelled = true
				}
				ev.Cancel()
			default:
				eng.RunUntil(eng.Now().Add(time.Duration(rng.Intn(3)) * time.Millisecond))
			}
		}
		eng.Run()

		var want []int
		for id, rc := range recs {
			if !rc.cancelled {
				want = append(want, id)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := recs[want[i]], recs[want[j]]
			return a.at < b.at || (a.at == b.at && a.seq < b.seq)
		})
		if len(fired) != len(want) {
			t.Fatalf("seed %d: fired %d events, want %d", seed, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: fire #%d was event %d, want %d", seed, i, fired[i], want[i])
			}
		}
	}
}
