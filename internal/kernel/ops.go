package kernel

import (
	"fmt"

	"latr/internal/mem"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/tlb"
	"latr/internal/topo"
	"latr/internal/vm"
)

// Op is one unit of work a Program asks the kernel to run. Results land in
// the thread's Last* fields before the next Program.Next call.
type Op interface{ isOp() }

// OpCompute burns CPU for D nanoseconds (preemptible at tick granularity).
type OpCompute struct{ D sim.Time }

// OpSleep blocks the thread for D nanoseconds without consuming CPU.
type OpSleep struct{ D sim.Time }

// OpYield surrenders the CPU to the next runnable thread.
type OpYield struct{}

// OpTouch performs memory accesses to the listed pages in order. Faults
// (demand paging, NUMA hints, segfaults on unmapped pages) are handled
// inline; segfaults increment th.LastFault instead of killing the thread so
// programs can observe them.
type OpTouch struct {
	Pages []pt.VPN
	Write bool
	// Accesses is how many accesses hit each page (default 1). The TLB is
	// consulted once per page; DRAM cost scales with Accesses, so locality
	// effects (NUMA migration) are weighted like cacheline-granular code.
	Accesses int
}

// OpTouchRange is the bulk form of OpTouch: Pages pages starting at Start
// with the given stride (in pages, default 1).
type OpTouchRange struct {
	Start    pt.VPN
	Pages    int
	Stride   int
	Write    bool
	Accesses int
}

// OpMmap maps a fresh region of Pages pages; the base VPN is reported in
// th.LastAddr. Populate allocates and maps frames eagerly (on Node, or the
// calling core's node when Node < 0); otherwise pages fault in on first
// touch.
type OpMmap struct {
	Pages    int
	Kind     vm.Kind
	Writable bool
	Populate bool
	Node     int
	// Huge requests 2 MB mappings: Pages must be a multiple of 512 and
	// Populate must be set (demand-paged THP allocation is out of scope).
	// The §7 THP extension: LATR's range-based states and range
	// invalidation cover huge mappings without a new state format.
	Huge bool
}

// OpMunmap unmaps [Addr, Addr+Pages), freeing VA and frames subject to the
// coherence policy. ForceSync requests synchronous semantics even under a
// lazy policy — the opt-out flag §7 proposes for applications that unmap
// to provoke faults (use-after-free detectors).
type OpMunmap struct {
	Addr      pt.VPN
	Pages     int
	ForceSync bool
}

// OpMadvise models madvise(MADV_DONTNEED/MADV_FREE): frames are freed and
// PTEs cleared but the VA range stays reserved.
type OpMadvise struct {
	Addr  pt.VPN
	Pages int
}

// OpMprotect changes page protection — a synchronous operation under every
// policy (Table 1).
type OpMprotect struct {
	Addr     pt.VPN
	Pages    int
	Writable bool
}

// OpMremap moves a mapping to a new VA range — synchronous under every
// policy (Table 1). The new base lands in th.LastAddr.
type OpMremap struct {
	Addr  pt.VPN
	Pages int
}

// OpCall runs arbitrary kernel-extension work (AutoNUMA scanning, policy
// background threads) in thread context. Fn must call done exactly once,
// at a segment boundary, to complete the op.
type OpCall struct {
	Fn func(c *Core, th *Thread, done func())
}

func (OpCall) isOp() {}

func (OpCompute) isOp()    {}
func (OpSleep) isOp()      {}
func (OpYield) isOp()      {}
func (OpTouch) isOp()      {}
func (OpTouchRange) isOp() {}
func (OpMmap) isOp()       {}
func (OpMunmap) isOp()     {}
func (OpMadvise) isOp()    {}
func (OpMprotect) isOp()   {}
func (OpMremap) isOp()     {}

// execOp starts executing op for the current thread.
func (c *Core) execOp(th *Thread, op Op) {
	th.LastErr = nil
	th.LastFault = 0
	switch o := op.(type) {
	case OpCall:
		o.Fn(c, th, c.opBoundary)
	case OpCompute:
		c.computeChunk(th, o.D)
	case OpSleep:
		c.doSleep(th, o.D)
	case OpYield:
		c.doYield(th)
	case OpTouch:
		c.touchPages(th, o.Pages, o.Write, max(1, o.Accesses), 0, 0)
	case OpTouchRange:
		stride := o.Stride
		if stride == 0 {
			stride = 1
		}
		pages := make([]pt.VPN, o.Pages)
		for i := range pages {
			pages[i] = o.Start + pt.VPN(i*stride)
		}
		c.touchPages(th, pages, o.Write, max(1, o.Accesses), 0, 0)
	case OpMmap:
		c.doMmap(th, o)
	case OpMunmap:
		c.doMunmap(th, o.Addr, o.Pages, false, o.ForceSync)
	case OpMadvise:
		c.doMunmap(th, o.Addr, o.Pages, true, false)
	case OpMprotect:
		c.doMprotect(th, o)
	case OpMremap:
		c.doMremap(th, o)
	case OpFork:
		c.doFork(th)
	default:
		panic(fmt.Sprintf("kernel: unknown op %T", op))
	}
}

// computeChunk burns CPU in tick-sized chunks so preemption latency stays
// bounded for long computations.
func (c *Core) computeChunk(th *Thread, remaining sim.Time) {
	chunk := remaining
	if max := c.k.Cost.SchedTickPeriod; chunk > max {
		chunk = max
	}
	c.busy(chunk, false, func() {
		if rem := remaining - chunk; rem > 0 {
			th.resume = func() { c.computeChunk(th, rem) }
		}
		c.opBoundary()
	})
}

func (c *Core) doSleep(th *Thread, d sim.Time) {
	k := c.k
	c.block(th, c.opBoundary)
	k.Engine.After(d, func(sim.Time) { k.wake(th) })
}

func (c *Core) doYield(th *Thread) {
	th.State = Ready
	th.cpuTime += c.k.Now() - th.scheduledAt
	c.cur = nil
	c.runq = append(c.runq, th)
	c.maybeDispatch()
}

// touchPages is the memory-access engine: per page it models the TLB
// lookup, hardware walk on miss, DRAM access at NUMA-dependent latency,
// and fault handling. Costs accumulate and are paid in one busy segment
// per fault-free run of pages.
func (c *Core) touchPages(th *Thread, pages []pt.VPN, write bool, accesses int, idx int, acc sim.Time) {
	k := c.k
	m := &k.Cost
	mm := th.Proc.MM
	pcid := c.pcid(mm)
	myNode := k.Spec.NodeOf(c.ID)

	for i := idx; i < len(pages); i++ {
		vpn := pages[i]
		if line, hit := c.TLB.LookupHuge(pcid, vpn); hit && (!write || line.Writable) {
			off := mem.PFN(vpn - pt.HugeBase(vpn))
			acc += m.TLBHit + sim.Time(accesses)*c.dramCost(myNode, line.PFN+off)
			continue
		}
		if line, hit := c.TLB.Lookup(pcid, vpn); hit && (!write || line.Writable) {
			acc += m.TLBHit + sim.Time(accesses)*c.dramCost(myNode, line.PFN)
			// Detect accesses through stale entries (the §4.4 races): the
			// TLB permitted an access the page table no longer backs. For
			// guest address spaces the cached entry is the combined
			// translation, so the comparison goes through both levels.
			if k.Tracker != nil {
				if e, ok := mm.PT.Get(vpn); !ok || !c.backsLine(mm, e.PFN, line.PFN) {
					if write {
						k.Metrics.Inc("race.stale_write", 1)
					} else {
						k.Metrics.Inc("race.stale_read", 1)
					}
					// A stale access is benign while the frame sits on the
					// lazy lists (refcount held); touching a frame already
					// returned to the allocator is a coherence violation —
					// the data belongs to nobody, or soon to someone else.
					if k.Audit != nil && k.Alloc.Refs(line.PFN) == 0 {
						k.Metrics.Inc("audit.stale_use", 1)
						kind := "read"
						if write {
							kind = "write"
						}
						k.Audit.Report(tlb.Violation{
							Kind:   tlb.ViolationStaleUse,
							Time:   k.Now(),
							Core:   c.ID,
							VPN:    vpn,
							PFN:    line.PFN,
							Detail: fmt.Sprintf("stale %s through freed frame (mm %d)", kind, mm.ID),
						})
					}
				}
			}
			continue
		}
		// TLB miss: hardware walk (huge-aware; two-dimensional for guests,
		// which may take an EPT violation to re-back a reclaimed frame).
		// With page-table replication installed the walk is routed to the
		// socket-local replica or charged the remote-master penalty.
		acc += k.replWalkCost(c, mm, vpn)
		e, huge, ok := mm.PT.WalkAny(vpn, write)
		if ok {
			hpfn, extra, err := c.framePhys(mm, e.PFN)
			acc += extra
			if err != nil {
				// Host memory exhausted while re-backing: the access cannot
				// complete. Surfaced like an allocation failure on the
				// demand-paging path.
				th.LastErr = err
				th.LastFault++
				continue
			}
			if huge {
				base := hpfn - mem.PFN(vpn-pt.HugeBase(vpn))
				c.TLB.InsertHuge(pcid, pt.HugeBase(vpn), base, e.Writable)
				acc += k.policy.OnPageTouch(c, mm, vpn)
			} else {
				acc += k.FillTLB(c, mm, vpn, hpfn, e.Writable)
			}
			acc += sim.Time(accesses) * c.dramCost(myNode, hpfn)
			continue
		}
		// The master walk failed. A replica that has not yet absorbed a
		// lazily propagated unmap may still serve the old translation —
		// the replica-level analogue of a stale TLB entry. The access
		// completes through it (and lands in the TLB like any walk); the
		// auditor's stale-use machinery judges whether the backing frame
		// was still reference-held or already reallocated.
		if se, stale := k.replStaleWalk(c, mm, vpn, write); stale {
			acc += k.FillTLB(c, mm, vpn, se.PFN, se.Writable)
			if write {
				k.Metrics.Inc("race.stale_write", 1)
			} else {
				k.Metrics.Inc("race.stale_read", 1)
			}
			if k.Audit != nil && k.Alloc.Refs(se.PFN) == 0 {
				k.Metrics.Inc("audit.stale_use", 1)
				kind := "read"
				if write {
					kind = "write"
				}
				k.Audit.Report(tlb.Violation{
					Kind:   tlb.ViolationStaleUse,
					Time:   k.Now(),
					Core:   c.ID,
					VPN:    vpn,
					PFN:    se.PFN,
					Detail: fmt.Sprintf("stale %s served by page-table replica over freed frame (mm %d)", kind, mm.ID),
				})
			}
			acc += sim.Time(accesses) * c.dramCost(myNode, se.PFN)
			continue
		}
		// Fault. Pay the accumulated access cost plus fault entry, then
		// run the handler; the touch resumes at the next page after.
		i := i
		c.busy(acc+m.PageFaultEntry, false, func() {
			c.handleFault(th, vpn, write, e, func() {
				c.touchPages(th, pages, write, accesses, i+1, 0)
			})
		})
		return
	}
	c.busy(acc, false, c.opBoundary)
}

// dramCost returns the access latency to a frame from the given node.
func (c *Core) dramCost(from topo.NodeID, pfn mem.PFN) sim.Time {
	if c.k.Alloc.NodeOf(pfn) == from {
		return c.k.Cost.DRAMLocal
	}
	return c.k.Cost.DRAMRemote
}
