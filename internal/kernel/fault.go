package kernel

import (
	"latr/internal/mem"
	"latr/internal/pt"
	"latr/internal/sim"
)

// FillTLB caches vpn → pfn on core c for address space mm and reports the
// fill to the coherence policy, which is how ABIS learns a page's sharers.
// It returns the policy's hook cost for the caller to charge to c. Every
// base-page TLB fill goes through here: a fill the policy never hears of
// is a sharer a later shootdown misses.
func (k *Kernel) FillTLB(c *Core, mm *MM, vpn pt.VPN, pfn mem.PFN, writable bool) sim.Time {
	c.TLB.Insert(c.pcid(mm), vpn, pfn, writable)
	return k.policy.OnPageTouch(c, mm, vpn)
}

// NUMAHandler receives NUMA-hint faults (accesses to pages that the
// AutoNUMA scanner marked PROT_NONE). The AutoNUMA implementation in
// internal/numa decides whether to migrate. cont resumes the faulting
// access; the handler must arrange for the page to become accessible
// before (or as part of) calling cont.
type NUMAHandler interface {
	OnHintFault(c *Core, th *Thread, vpn pt.VPN, cont func())
}

// SetNUMAHandler installs the AutoNUMA fault handler.
func (k *Kernel) SetNUMAHandler(h NUMAHandler) { k.numa = h }

// SwapHandler receives faults on pages that may be swap-resident. It
// returns false when the page is not on the swap device (the fault then
// proceeds as ordinary demand paging); returning true means the handler
// owns the fault and will call cont after the swap-in.
type SwapHandler interface {
	OnSwapFault(c *Core, th *Thread, vpn pt.VPN, cont func()) bool
}

// SetSwapHandler installs the page-swap fault handler.
func (k *Kernel) SetSwapHandler(h SwapHandler) { k.swap = h }

// SwapUnmapper is an optional SwapHandler extension: the kernel calls
// OnUnmap whenever a VA range leaves the address space (munmap, the mremap
// source range, exit teardown) so the handler can discard swap-resident
// copies and release their device frames. Without it, a later mmap that
// reuses the VA would wrongly satisfy its first touch from stale swap
// contents instead of demand-zero memory.
type SwapUnmapper interface {
	OnUnmap(mm *MM, start pt.VPN, pages int)
}

// notifySwapUnmap forwards a VA-range removal to the swap handler, if one
// is installed and cares.
func (k *Kernel) notifySwapUnmap(mm *MM, start pt.VPN, pages int) {
	if su, ok := k.swap.(SwapUnmapper); ok {
		su.OnUnmap(mm, start, pages)
	}
}

// NUMAHandlerInstalled reports whether AutoNUMA is active.
func (k *Kernel) NUMAHandlerInstalled() bool { return k.numa != nil }

// handleFault resolves a faulting access to vpn. The PageFaultEntry cost
// has already been charged by the caller; handleFault runs at a segment
// boundary.
func (c *Core) handleFault(th *Thread, vpn pt.VPN, write bool, e pt.Entry, cont func()) {
	k := c.k
	mm := th.Proc.MM

	// NUMA-hint fault: present but marked for sampling.
	if e.Present && e.NUMAHint {
		k.Metrics.Inc("fault.numa_hint", 1)
		if k.numa != nil {
			k.numa.OnHintFault(c, th, vpn, cont)
			return
		}
		// No AutoNUMA installed: clear the hint and continue.
		mm.PT.SetNUMAHint(vpn, false)
		cont()
		return
	}

	// Write-protection fault on a present page: a CoW page if the VMA
	// permits writes (fork shared it read-only), otherwise an application
	// error against an mprotect-ed region.
	if e.Present && write && !e.Writable {
		if vmWritable(mm, vpn) {
			c.breakCoW(th, vpn, cont)
			return
		}
		k.Metrics.Inc("fault.prot", 1)
		th.LastFault++
		cont()
		return
	}

	// Swap-resident pages take a major fault through the swap handler.
	if k.swap != nil && k.swap.OnSwapFault(c, th, vpn, cont) {
		k.Metrics.Inc("fault.major", 1)
		return
	}

	// Demand-paging (or segfault) path: needs mmap_sem shared.
	mm.Sem.AcquireRead(c, th, func() {
		// Re-check under the lock: another thread may have mapped it while
		// we waited.
		if e2, ok := mm.PT.Get(vpn); ok && !e2.NUMAHint {
			hpfn, extra, err := c.framePhys(mm, e2.PFN)
			if err != nil {
				th.LastErr = err
				th.LastFault++
				mm.Sem.ReleaseRead()
				cont()
				return
			}
			hook := k.FillTLB(c, mm, vpn, hpfn, e2.Writable)
			c.busy(hook+extra, false, func() {
				mm.Sem.ReleaseRead()
				cont()
			})
			return
		}
		vma, ok := mm.Space.Find(vpn)
		if !ok {
			// Unmapped address: segmentation fault. Programs observe it in
			// th.LastFault (§4.4: post-sweep accesses to freed ranges).
			k.Metrics.Inc("fault.segv", 1)
			th.LastFault++
			mm.Sem.ReleaseRead()
			cont()
			return
		}
		// First touch: allocate on the faulting core's node (a guest-frame
		// allocation, backed through the EPT, for guest address spaces).
		pfn, err := k.allocFrameFor(mm, k.Spec.NodeOf(c.ID))
		if err != nil {
			th.LastErr = err
			th.LastFault++
			mm.Sem.ReleaseRead()
			cont()
			return
		}
		if err := mm.PT.Map(vpn, pfn, vma.Writable); err != nil {
			// Mapping a page the re-check just said was absent failed: an
			// inconsistency between the page table and the VA space. Fail
			// the access structurally and return the unused frame.
			k.putFrame(mm, pfn)
			th.LastErr = c.internalErr("fault.map", err)
			th.LastFault++
			mm.Sem.ReleaseRead()
			cont()
			return
		}
		hpfn, extra, err := c.framePhys(mm, pfn)
		if err != nil {
			th.LastErr = err
			th.LastFault++
			mm.Sem.ReleaseRead()
			cont()
			return
		}
		hook := k.FillTLB(c, mm, vpn, hpfn, vma.Writable)
		k.Metrics.Inc("fault.demand", 1)
		hook += k.ReplUpdateRange(c, mm, vpn, 1)
		c.busy(k.Cost.MmapSetupPerPage+hook+extra, false, func() {
			mm.Sem.ReleaseRead()
			cont()
		})
	})
}
