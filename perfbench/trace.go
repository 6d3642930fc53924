package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"latr/internal/kernel"
	"latr/internal/numa"
	"latr/internal/pt"
	"latr/internal/sim"
)

// spanLimit bounds the spans kept for the dump; aggregates cover all.
const spanLimit = 50000

// span is one timed call into a layer, recorded from outside it.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index of the enclosing kept span, -1 if none
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// layerTime aggregates every span of one name.
type layerTime struct {
	Calls   int64 `json:"calls"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"` // duration minus the part child spans cover
}

type frame struct {
	name  string
	start time.Time
	child time.Duration
	kept  int
}

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	t0      time.Time
	stack   []frame
	spans   []span
	dropped int
	agg     map[string]*layerTime
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), agg: map[string]*layerTime{}}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	f := frame{name: name, kept: -1, start: time.Now()}
	if len(t.spans) < spanLimit {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].kept
		}
		f.kept = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Parent: parent, StartNS: f.start.Sub(t.t0).Nanoseconds()})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, f)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := time.Since(f.start)
	self := d - f.child
	if n > 0 {
		t.stack[n-1].child += d
	}
	a := t.agg[f.name]
	if a == nil {
		a = &layerTime{}
		t.agg[f.name] = a
	}
	a.Calls++
	a.TotalNS += d.Nanoseconds()
	a.SelfNS += self.Nanoseconds()
	if f.kept >= 0 {
		t.spans[f.kept].DurNS = d.Nanoseconds()
		t.spans[f.kept].SelfNS = self.Nanoseconds()
	}
}

func (t *tracer) layer(name string) layerTime {
	if a := t.agg[name]; a != nil {
		return *a
	}
	return layerTime{}
}

// writeSpans dumps the kept spans and the per-name aggregates as JSON.
func writeSpans(path string, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans   []span                `json:"spans"`
		Dropped int                   `json:"dropped"`
		Layers  map[string]*layerTime `json:"layers"`
	}{t.spans, t.dropped, t.agg})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedPolicy times the policy entry points the kernel calls per event.
// Names are "policy.<policy>.<call>".
type tracedPolicy struct {
	inner                        kernel.Policy
	tr                           *tracer
	munmap, tick, ctx, pageTouch string
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Munmap(c *kernel.Core, u kernel.Unmap, done func()) {
	p.tr.begin(p.munmap)
	p.inner.Munmap(c, u, done)
	p.tr.end()
}

func (p *tracedPolicy) SyncChange(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int, done func()) {
	p.inner.SyncChange(c, mm, start, pages, done)
}

func (p *tracedPolicy) NUMAUnmap(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int, done func()) {
	p.inner.NUMAUnmap(c, mm, start, pages, done)
}

func (p *tracedPolicy) OnTick(c *kernel.Core) sim.Time {
	p.tr.begin(p.tick)
	d := p.inner.OnTick(c)
	p.tr.end()
	return d
}

func (p *tracedPolicy) OnContextSwitch(c *kernel.Core) sim.Time {
	p.tr.begin(p.ctx)
	d := p.inner.OnContextSwitch(c)
	p.tr.end()
	return d
}

func (p *tracedPolicy) OnPageTouch(c *kernel.Core, mm *kernel.MM, vpn pt.VPN) sim.Time {
	p.tr.begin(p.pageTouch)
	d := p.inner.OnPageTouch(c, mm, vpn)
	p.tr.end()
	return d
}

func (p *tracedPolicy) OnMMExit(mm *kernel.MM) { p.inner.OnMMExit(mm) }

// The optional interfaces the kernel, numa and ptrepl layers type-assert
// on the installed policy. The decorator must expose exactly those the
// wrapped policy implements, so each has a forwarder that wrapPolicy
// embeds only when the inner policy has the method.
type (
	lazyReplicaSweeper interface{ LazyReplicaSweeps() bool }

	attachFwd struct{ a kernel.Attacher }
	hostFwd   struct{ h kernel.HostCoherent }
	gateFwd   struct{ g numa.MigrationGater }
	lazyFwd   struct{ l lazyReplicaSweeper }
)

func (f attachFwd) Attach(k *kernel.Kernel) { f.a.Attach(k) }
func (f hostFwd) HostMode() kernel.HostMode { return f.h.HostMode() }
func (f lazyFwd) LazyReplicaSweeps() bool   { return f.l.LazyReplicaSweeps() }
func (f gateFwd) GateMigration(mm *kernel.MM, vpn pt.VPN, cont func()) bool {
	return f.g.GateMigration(mm, vpn, cont)
}

// wrapPolicy returns inner behind the timing decorator. Only the
// combinations of optional interfaces the repository's policies have are
// spelled out: none (instant), Attacher (linux, abis, barrelfish),
// Attacher+HostCoherent (host-latr, hatric, mutants) and all four (latr,
// guest-latr). A policy with another combination panics here rather than
// be timed behind a decorator that hides or invents an interface.
func wrapPolicy(inner kernel.Policy, tr *tracer) kernel.Policy {
	name := "policy." + inner.Name() + "."
	p := &tracedPolicy{inner: inner, tr: tr,
		munmap: name + "munmap", tick: name + "tick", ctx: name + "ctxswitch", pageTouch: name + "page_touch"}
	a, isA := inner.(kernel.Attacher)
	h, isH := inner.(kernel.HostCoherent)
	g, isG := inner.(numa.MigrationGater)
	l, isL := inner.(lazyReplicaSweeper)
	switch [4]bool{isA, isH, isG, isL} {
	case [4]bool{false, false, false, false}:
		return p
	case [4]bool{true, false, false, false}:
		return struct {
			*tracedPolicy
			attachFwd
		}{p, attachFwd{a}}
	case [4]bool{true, true, false, false}:
		return struct {
			*tracedPolicy
			attachFwd
			hostFwd
		}{p, attachFwd{a}, hostFwd{h}}
	case [4]bool{true, true, true, true}:
		return struct {
			*tracedPolicy
			attachFwd
			hostFwd
			gateFwd
			lazyFwd
		}{p, attachFwd{a}, hostFwd{h}, gateFwd{g}, lazyFwd{l}}
	}
	panic(fmt.Sprintf("perfbench: policy %s has optional interfaces Attacher=%v HostCoherent=%v MigrationGater=%v LazyReplicaSweeps=%v; add the combination to wrapPolicy",
		inner.Name(), isA, isH, isG, isL))
}
