package tlb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"latr/internal/mem"
	"latr/internal/pt"
	"latr/internal/topo"
)

// trackedFrames is the frame universe of TestTrackerExactlyMatchesTLBs:
// three huge pages' worth, so base and huge translations share frames.
const trackedFrames = 3 * pt.HugePages

// wantEntries rebuilds the tracker's contents from what the TLBs cache:
// every base line tracks its own frame, every huge line all 512 of its
// frames.
func wantEntries(tlbs []*TLB) map[mem.PFN][]CachedEntry {
	want := map[mem.PFN][]CachedEntry{}
	for _, tb := range tlbs {
		base := func(ln Line) {
			want[ln.PFN] = append(want[ln.PFN], CachedEntry{Core: tb.core, Key: ln.Key})
		}
		tb.l1.forEach(base)
		tb.l2.forEach(base)
		tb.huge.forEach(func(ln Line) {
			for i := pt.VPN(0); i < pt.HugePages; i++ {
				pfn := ln.PFN + mem.PFN(i)
				want[pfn] = append(want[pfn], CachedEntry{Core: tb.core, Key: Key{ln.Key.Tag, ln.Key.VPN + i}})
			}
		})
	}
	return want
}

// checkTracker reports the first frame whose tracked entries differ from
// the TLBs' contents, or a wrong Frames count.
func checkTracker(tr *Tracker, tlbs []*TLB) error {
	want := wantEntries(tlbs)
	for pfn := mem.PFN(0); pfn < trackedFrames; pfn++ {
		w := want[pfn]
		slices.SortFunc(w, func(a, b CachedEntry) int {
			switch {
			case a.Core != b.Core:
				return int(a.Core) - int(b.Core)
			case a.Key.Tag != b.Key.Tag:
				return int(a.Key.Tag.PCID) - int(b.Key.Tag.PCID)
			}
			return int(a.Key.VPN) - int(b.Key.VPN)
		})
		if got := tr.EntriesOn(pfn); !slices.Equal(got, w) {
			return fmt.Errorf("frame %d: tracked %v, cached %v", pfn, got, w)
		}
	}
	if tr.Frames() != len(want) {
		return fmt.Errorf("Frames = %d, want %d", tr.Frames(), len(want))
	}
	return nil
}

// TestTrackerExactlyMatchesTLBs drives two cores sharing one tracker
// through random inserts (replacing keys with new frames), huge inserts,
// invalidations and flushes, and checks after every op that the tracker
// holds exactly the cached entries: none missing, none left behind.
func TestTrackerExactlyMatchesTLBs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := NewTracker()
	tlbs := []*TLB{New(0, 4, 8, tr), New(topo.CoreID(1), 2, 0, tr)}
	tags := []Tag{{PCID: 1}, {PCID: 2}}
	for i := 0; i < 3000; i++ {
		tb := tlbs[rng.Intn(len(tlbs))]
		tag := tags[rng.Intn(len(tags))]
		vpn := pt.VPN(rng.Intn(3 * pt.HugePages))
		var op string
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			pfn := mem.PFN(rng.Intn(trackedFrames))
			tb.Insert(tag, vpn, pfn, true)
			op = fmt.Sprintf("Insert(%v, %d → %d)", tag, vpn, pfn)
		case 4:
			pfn := mem.PFN(rng.Intn(3)) * pt.HugePages
			tb.InsertHuge(tag, vpn, pfn, true)
			op = fmt.Sprintf("InsertHuge(%v, %d → %d)", tag, vpn, pfn)
		case 5, 6:
			tb.Invalidate(tag, vpn)
			op = fmt.Sprintf("Invalidate(%v, %d)", tag, vpn)
		case 7:
			tb.InvalidateRange(tag, vpn, vpn+8)
			op = fmt.Sprintf("InvalidateRange(%v, %d, +8)", tag, vpn)
		case 8:
			tb.Lookup(tag, vpn) // promotes L2 hits into L1
			op = fmt.Sprintf("Lookup(%v, %d)", tag, vpn)
		default:
			if rng.Intn(4) == 0 {
				tb.FlushAll()
				op = "FlushAll"
			} else {
				tb.FlushTag(tag)
				op = fmt.Sprintf("FlushTag(%v)", tag)
			}
		}
		if err := checkTracker(tr, tlbs); err != nil {
			t.Fatalf("op %d core %d %s: %v", i, tb.core, op, err)
		}
	}
}
