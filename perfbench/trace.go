package main

import (
	"time"

	"repro/internal/etob"
	"repro/internal/model"
	"repro/internal/retransmit"
	"repro/internal/smr"
)

// layer is one bucket of the traced run's self-time accounting.
type layer uint8

const (
	layerSim layer = iota // the kernel, and the benchmark's observer it calls
	layerRetransmit
	layerSMR // smr.Replica reconciling etob's output, Apply excluded
	layerApply
	layerEtobUpdate  // Recv(UpdateMsg): merge and extend
	layerEtobPromote // Recv(PromoteMsg)
	layerEtobTick    // the leader's promote broadcast
	layerEtobInput   // broadcastETOB
	layerEtobOther   // Init and any other trigger
	numLayers
)

// profiler charges wall time to the layer currently running. Every call
// into a layer, and every call out of it through its step context, moves
// the charge, so a layer's bucket is its self time and the buckets sum to
// the time between start and stop. It belongs to one kernel, whose steps
// never nest or run concurrently.
type profiler struct {
	epoch time.Time
	self  [numLayers]time.Duration
	cur   layer
	last  time.Duration
	stack []layer
	on    bool // between start and stop; steps run outside that window are not charged
}

func newProfiler() *profiler { return &profiler{epoch: time.Now(), stack: make([]layer, 0, 16)} }

func (p *profiler) start() {
	if p == nil {
		return
	}
	p.cur, p.on = layerSim, true
	p.last = time.Since(p.epoch)
}

func (p *profiler) stop() {
	if p == nil {
		return
	}
	p.self[p.cur] += time.Since(p.epoch) - p.last
	p.on = false
}

func (p *profiler) enter(l layer) {
	if !p.on {
		return
	}
	now := time.Since(p.epoch)
	p.self[p.cur] += now - p.last
	p.stack = append(p.stack, p.cur)
	p.cur, p.last = l, now
}

func (p *profiler) exit() {
	if !p.on {
		return
	}
	now := time.Since(p.epoch)
	p.self[p.cur] += now - p.last
	p.cur = p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	p.last = now
}

// shim sits between two layers of the replica stack and forwards every call
// unchanged, charging the time to the inner layer and the inner layer's
// calls back out (Send, Broadcast, Output) to the outer one.
type shim struct {
	inner model.Automaton
	prof  *profiler
	in    layer
	etob  bool // pick the inner layer by etob trigger instead of in
	ctx   shimCtx
}

func (s *shim) wrap(ctx model.Context) model.Context {
	s.ctx.Context = ctx
	return &s.ctx
}

func (s *shim) Init(ctx model.Context) {
	s.prof.enter(s.pick(layerEtobOther))
	s.inner.Init(s.wrap(ctx))
	s.prof.exit()
}

func (s *shim) Input(ctx model.Context, in any) {
	s.prof.enter(s.pick(layerEtobInput))
	s.inner.Input(s.wrap(ctx), in)
	s.prof.exit()
}

func (s *shim) Tick(ctx model.Context) {
	s.prof.enter(s.pick(layerEtobTick))
	s.inner.Tick(s.wrap(ctx))
	s.prof.exit()
}

func (s *shim) Recv(ctx model.Context, from model.ProcID, payload any) {
	l := layerEtobOther
	switch payload.(type) {
	case etob.UpdateMsg:
		l = layerEtobUpdate
	case etob.PromoteMsg:
		l = layerEtobPromote
	}
	s.prof.enter(s.pick(l))
	s.inner.Recv(s.wrap(ctx), from, payload)
	s.prof.exit()
}

func (s *shim) pick(etobLayer layer) layer {
	if s.etob {
		return etobLayer
	}
	return s.in
}

// shimCtx is the step context a shim hands its inner layer. Steps never
// nest within one process, so each shim reuses one.
type shimCtx struct {
	model.Context
	prof *profiler
	out  layer
}

func (c *shimCtx) Send(to model.ProcID, payload any) {
	c.prof.enter(c.out)
	c.Context.Send(to, payload)
	c.prof.exit()
}

func (c *shimCtx) Broadcast(payload any) {
	c.prof.enter(c.out)
	c.Context.Broadcast(payload)
	c.prof.exit()
}

func (c *shimCtx) Output(v any) {
	c.prof.enter(c.out)
	c.Context.Output(v)
	c.prof.exit()
}

func newShim(inner model.Automaton, prof *profiler, in, out layer, isEtob bool) *shim {
	return &shim{inner: inner, prof: prof, in: in, etob: isEtob, ctx: shimCtx{prof: prof, out: out}}
}

// timedKV charges StateMachine.Apply to layerApply.
type timedKV struct {
	inner smr.StateMachine
	prof  *profiler
}

func (m *timedKV) Apply(cmd string) string {
	m.prof.enter(layerApply)
	r := m.inner.Apply(cmd)
	m.prof.exit()
	return r
}

func (m *timedKV) Snapshot() string { return m.inner.Snapshot() }

// tracedStack builds the stack core.ReplicaStackWith(core.Eventual, ...)
// builds for the KV machine with retransmission on and batching off, with a
// shim at each layer boundary: kernel → retransmit → smr → etob, and around
// Apply.
func tracedStack(prof *profiler, rt retransmit.Options) model.AutomatonFactory {
	broadcast := func(p model.ProcID, n int) model.Automaton {
		return newShim(etob.New(p, n), prof, 0, layerSMR, true)
	}
	machine := func() smr.StateMachine { return &timedKV{inner: smr.NewKVStore(), prof: prof} }
	replica := smr.ReplicaFactory(broadcast, machine)
	wrapped := retransmit.Wrap(func(p model.ProcID, n int) model.Automaton {
		return newShim(replica(p, n), prof, layerSMR, layerRetransmit, false)
	}, rt)
	return func(p model.ProcID, n int) model.Automaton {
		return newShim(wrapped(p, n), prof, layerRetransmit, layerSim, false)
	}
}

func peel(a model.Automaton) model.Automaton {
	if s, ok := a.(*shim); ok {
		return s.inner
	}
	return a
}

// stackLayers returns the retransmission, replica and etob automata of one
// process's stack, shimmed or not.
func stackLayers(a model.Automaton) (*retransmit.Automaton, *smr.Replica, *etob.Automaton) {
	rt := peel(a).(*retransmit.Automaton)
	rep := peel(rt.Inner()).(*smr.Replica)
	return rt, rep, peel(rep.Inner()).(*etob.Automaton)
}
