package harness

import (
	"math"
	"strconv"

	"prioplus/internal/fault"
	"prioplus/internal/netsim"
	"prioplus/internal/obs"
	"prioplus/internal/sim"
	"prioplus/internal/transport"
)

// DefaultWatchdogInterval is the sampling interval Observe falls back to
// when a watchdog is installed without a time-series sampler.
const DefaultWatchdogInterval = 10 * sim.Microsecond

// Observe attaches an observability recorder to the network: the
// recorder's trace emitter (flight recorder and/or Trace, if any) is
// installed on every switch, fabric port, and host NIC, each registered in
// the recorder's device-name table (rec.Devs) under the id its trace events
// carry; latency histograms
// (rec.Hist) are installed on every stack; the time-series sampler
// (rec.Series) gets the standard source catalogue and the engine clock
// hook; the watchdog (rec.Watchdog) is checked at every sampling tick; and
// a flow-completion hook keeps the recorder's aggregate flow counters
// (net/flows_completed, net/retransmits, net/rtos, net/probes_sent,
// net/fct_sum_us) up to date as flows finish. Observe owns each stack's
// OnFlowDone hook. Call CollectMetrics after the run to fill in the
// switch/port counters; docs/OBSERVABILITY.md documents every metric and
// series name.
//
// Call Observe before traffic starts — or build the Net WithRecorder, which
// has New call it and Run call CollectMetrics. Disabled instruments cost
// nothing: with a nil tracer the per-packet hot path is untouched, nil
// histograms are one branch per sample, and without a series set the engine
// runs with no sampler hook.
func (n *Net) Observe(rec *obs.Recorder) {
	// Switches get the flow tracer chained in (drop/mark events of sampled
	// flows become journey spans); ports and NICs keep the plain emitter so
	// the per-packet enqueue/dequeue path never pays the extra hop.
	emit, swEmit := rec.Emitter(), rec.SwitchEmitter()
	if swEmit != nil {
		for _, sw := range n.Topo.Switches {
			dev := rec.Devs.ID(sw.Name)
			sw.SetTrace(swEmit, dev)
			if emit != nil {
				for _, p := range sw.Ports {
					p.SetTrace(emit, dev)
				}
			}
		}
	}
	if emit != nil {
		for _, h := range n.Topo.Hosts {
			h.NIC.SetTrace(emit, rec.Devs.ID(h.DeviceName()))
		}
	}
	if rec.FlowTrace != nil {
		for _, st := range n.Stacks {
			st.FlowTrace = rec.FlowTrace
		}
	}
	if rec.Hist != nil {
		for _, st := range n.Stacks {
			st.RTTHist = &rec.Hist.AckRTT
			st.DelayHist = &rec.Hist.FabricDelay
		}
	}
	flows := rec.Metrics.Counter("net/flows_completed")
	retx := rec.Metrics.Counter("net/retransmits")
	rtos := rec.Metrics.Counter("net/rtos")
	probes := rec.Metrics.Counter("net/probes_sent")
	fctSum := rec.Metrics.Counter("net/fct_sum_us")
	hist := rec.Hist
	ft := rec.FlowTrace
	for _, st := range n.Stacks {
		st.OnFlowDone = func(fs transport.FlowStats) {
			flows.Add(1)
			retx.Add(float64(fs.Retransmits))
			rtos.Add(float64(fs.RTOs))
			probes.Add(float64(fs.ProbesSent))
			fctSum.Add(fs.FCT.Micros())
			if hist != nil {
				hist.FCT.Observe(int64(fs.FCT / sim.Nanosecond))
			}
			if ft != nil {
				if fl := ft.Log(fs.ID); fl != nil {
					fl.Add(obs.Span{
						T: n.Eng.Now(), Kind: obs.SpanDone,
						A: float64(fs.Size), B: float64(fs.Retransmits),
					})
				}
			}
			if emit != nil {
				ev := emit.Next()
				*ev = obs.Event{
					T: n.Eng.Now(), Kind: obs.FlowDone,
					Flow: fs.ID, Bytes: uint32(min(fs.Size, math.MaxUint32)),
					Seq: int64(fs.FCT), QLen: uint32(fs.Retransmits),
				}
				emit.Emit(ev)
			}
		}
	}
	if n.Faults != nil && rec.Faults != nil {
		log := rec.Faults
		n.Faults.Notify = func(ev fault.Event) {
			log.Record(obs.FaultEvent{T: ev.T, Kind: ev.Kind, Dev: ev.Dev, Port: ev.Port})
		}
	}
	if rec.Cost != nil {
		n.Eng.SetCostSampler(rec.Cost.Stride(), rec.Cost.Observe)
	}
	if rec.Digest != nil {
		n.installDigest(rec.Digest)
	}
	n.installSampler(rec)
}

// installDigest hooks the per-event digest chain into the engine and every
// port (switch ports and host NICs), assigning each port a payload tag and
// recording the tag → device-name mapping for divergence reports. The
// digest is pure observation: it installs no sampler, no watchdog, and no
// trace hooks, so a digest-only recorder leaves simulation behavior — and
// therefore the chain itself — untouched.
func (n *Net) installDigest(d *sim.Digest) {
	n.Eng.SetDigest(d)
	if d.Names == nil {
		d.Names = make(map[uint64]string)
	}
	tag := uint64(1)
	for _, sw := range n.Topo.Switches {
		for _, p := range sw.Ports {
			p.SetDigest(d, tag)
			d.Names[tag] = sw.Name + ":" + itoa(p.Index)
			tag++
		}
	}
	for _, h := range n.Topo.Hosts {
		h.NIC.SetDigest(d, tag)
		d.Names[tag] = h.DeviceName()
		tag++
	}
}

// installSampler registers the standard time-series sources and hooks the
// sampler (and watchdog check, live-progress publisher, and runtime
// sampler) into the engine clock.
func (n *Net) installSampler(rec *obs.Recorder) {
	ss := rec.Series
	wd := rec.Watchdog
	live := rec.Live
	aud := rec.Audit
	if ss == nil && wd == nil && live == nil && aud == nil {
		return
	}
	if live != nil && wd != nil {
		live.WatchdogLimit.Store(wd.MaxInflightBytes)
	}
	var lastEvents uint64
	check := func() {
		if aud != nil {
			n.auditCheck(aud)
		}
		if wd != nil && wd.Check(n.Pool.LiveBytes(), int64(n.Eng.Pending())) && !wd.KeepRunning {
			n.Eng.Stop()
		}
		if live != nil {
			// Accumulate (rather than store) the event count so tasks
			// running several sequential engines keep one rising total.
			cur := n.Eng.Processed()
			live.Events.Add(cur - lastEvents)
			lastEvents = cur
			live.SimPS.Store(int64(n.Eng.Now()))
			live.InflightBytes.Store(n.Pool.LiveBytes())
			live.HeapEvents.Store(int64(n.Eng.Pending()))
		}
	}
	if ss == nil {
		// Watchdog and/or live progress without telemetry: a check-only
		// clock hook.
		n.Eng.SetSampler(DefaultWatchdogInterval, check)
		return
	}
	n.registerSources(ss)
	// Runtime series register after the simulated catalogue so the
	// deterministic columns keep their positions in the artifact.
	rt := rec.Runtime
	if rt != nil {
		rt.Register(ss, n.Eng)
	}
	ss.Start = n.Eng.Now()
	n.Eng.SetSampler(ss.Interval, func() {
		if rt != nil {
			rt.Tick(n.Eng)
		}
		ss.Sample()
		check()
	})
}

// auditCheck runs the conservation invariants once, on the sampler clock
// (so every check sits between events, where the books must balance):
//
//   - Pool accounting: every packet out of the pool is either sitting in a
//     port queue or in propagation on a wire — senders create and enqueue
//     within one event, receivers consume and recycle within one event, so
//     between events nothing is "held" anywhere else.
//   - Per-switch shared-buffer accounting (Switch.AuditBuffer): occupancy
//     totals equal the bytes actually queued.
//   - PFC pause symmetry (Switch.AuditPFC): with no pause/resume frames in
//     flight, both ends of every cable agree on pause state.
//
// The first violation trips the auditor (which stops the run unless
// KeepRunning) — a violation is a conservation bug in the simulator, not a
// property of the workload.
func (n *Net) auditCheck(aud *obs.Auditor) {
	aud.Checks++
	detail := ""
	queued := 0
	for _, sw := range n.Topo.Switches {
		for _, p := range sw.Ports {
			queued += p.QueuedPackets()
		}
	}
	for _, h := range n.Topo.Hosts {
		queued += h.NIC.QueuedPackets()
	}
	wire := n.Pool.InPropagation()
	if live, want := n.Pool.LivePackets(), int64(queued)+wire; live != want {
		detail = "pool: " + itoa64(live) + " live packets != " +
			itoa(queued) + " queued + " + itoa64(wire) + " in propagation"
	}
	if detail == "" {
		for _, sw := range n.Topo.Switches {
			if detail = sw.AuditBuffer(); detail != "" {
				break
			}
		}
	}
	if detail == "" && n.Pool.CtrlInFlight() == 0 {
		for _, sw := range n.Topo.Switches {
			if detail = sw.AuditPFC(); detail != "" {
				break
			}
		}
	}
	if aud.Violate(detail) && !aud.KeepRunning {
		n.Eng.Stop()
	}
}

// registerSources adds the standard source catalogue to a series set, in a
// fixed order so artifacts are deterministic: run-wide gauges, per-priority
// fabric occupancy, per-switch buffer occupancy, then per-port queue depth
// and pause state.
func (n *Net) registerSources(ss *obs.SeriesSet) {
	ss.Add("net/inflight_bytes", "bytes", func() float64 {
		return float64(n.Pool.LiveBytes())
	})
	ss.Add("net/inflight_packets", "packets", func() float64 {
		return float64(n.Pool.LivePackets())
	})
	ss.Add("net/event_heap", "events", func() float64 {
		return float64(n.Eng.Pending())
	})
	allPorts := n.allPorts()
	ss.Add("net/paused_queues", "queues", func() float64 {
		total := 0
		for _, p := range allPorts {
			total += p.PausedQueues()
		}
		return float64(total)
	})
	// Links currently down: each downed cable counts once (both of its port
	// ends report down, so halve the port count). Zero on a healthy fabric,
	// with or without an injector installed.
	ss.Add("net/links_down", "links", func() float64 {
		down := 0
		for _, p := range allPorts {
			if p.IsDown() {
				down++
			}
		}
		return float64(down) / 2
	})
	// Per-priority occupancy across the fabric (switch egress queues only:
	// host NICs are single-queue and would smear the per-priority signal).
	var fabric []*netsim.Port
	nprio := 0
	for _, sw := range n.Topo.Switches {
		for _, p := range sw.Ports {
			fabric = append(fabric, p)
			if nq := p.NumQueues(); nq > nprio {
				nprio = nq
			}
		}
	}
	for q := 0; q < nprio; q++ {
		q := q
		ss.Add("net/prio"+itoa(q)+"/queued_bytes", "bytes", func() float64 {
			total := 0
			for _, p := range fabric {
				if q < p.NumQueues() {
					total += p.QueueBytes(q)
				}
			}
			return float64(total)
		})
	}
	for _, sw := range n.Topo.Switches {
		sw := sw
		ss.Add("switch/"+sw.Name+"/buffer_bytes", "bytes", func() float64 {
			return float64(sw.BufferUsed())
		})
		ss.Add("switch/"+sw.Name+"/headroom_bytes", "bytes", func() float64 {
			return float64(sw.HeadroomUsed())
		})
	}
	for _, sw := range n.Topo.Switches {
		for _, p := range sw.Ports {
			addPortSources(ss, sw.Name, p)
		}
	}
	for _, h := range n.Topo.Hosts {
		addPortSources(ss, h.DeviceName(), h.NIC)
	}
}

func addPortSources(ss *obs.SeriesSet, dev string, p *netsim.Port) {
	prefix := "port/" + dev + ":" + itoa(p.Index) + "/"
	ss.Add(prefix+"queue_bytes", "bytes", func() float64 {
		return float64(p.TotalQueuedBytes())
	})
	ss.Add(prefix+"paused", "bool", func() float64 {
		if p.PausedQueues() > 0 {
			return 1
		}
		return 0
	})
}

// allPorts returns every port in the network: switch ports then host NICs.
func (n *Net) allPorts() []*netsim.Port {
	var out []*netsim.Port
	for _, sw := range n.Topo.Switches {
		out = append(out, sw.Ports...)
	}
	for _, h := range n.Topo.Hosts {
		out = append(out, h.NIC)
	}
	return out
}

// CollectMetrics walks the network and records every device counter and
// high-water mark into the recorder's registry, then tells the recorder's
// owner the run is complete (rec.OnCollected). Call it once, after the
// run; calling it again would double-count the counters. The metric
// namespace — net/ aggregates, switch/<name>/, port/<dev>:<idx>/, and
// host/<id>/ — is documented in docs/OBSERVABILITY.md.
func (n *Net) CollectMetrics(rec *obs.Recorder) {
	m := rec.Metrics
	// The flow aggregates exist even if Observe was never called (they
	// read zero then), so the documented metric set is always complete.
	m.Counter("net/flows_completed")
	m.Counter("net/retransmits")
	m.Counter("net/rtos")
	m.Counter("net/probes_sent")
	m.Counter("net/fct_sum_us")

	txPkts := m.Counter("net/tx_packets")
	txBytes := m.Counter("net/tx_bytes")
	rxPkts := m.Counter("net/rx_packets")
	drops := m.Counter("net/drops")
	dropBytes := m.Counter("net/drop_bytes")
	marks := m.Counter("net/ecn_marks")
	pauses := m.Counter("net/pfc_pauses")
	pauseUS := m.Counter("net/pfc_pause_us")
	bufHWM := m.Gauge("net/buffer_hwm_bytes")
	hdrHWM := m.Gauge("net/headroom_hwm_bytes")
	queueHWM := m.Gauge("net/queue_hwm_bytes")
	faultDrops := m.Counter("net/fault_drops")
	corruptDrops := m.Counter("net/corrupt_drops")
	noRoute := m.Counter("net/no_route_drops")

	collectPort := func(dev string, p *netsim.Port) {
		prefix := "port/" + dev + ":" + itoa(p.Index) + "/"
		m.Counter(prefix + "tx_packets").Add(float64(p.TxPackets))
		m.Counter(prefix + "tx_bytes").Add(float64(p.TxBytes))
		m.Counter(prefix + "paused_us").Add(p.PausedFor.Micros())
		m.Gauge(prefix + "queue_hwm_bytes").Observe(float64(p.QueueHWM))
		txPkts.Add(float64(p.TxPackets))
		txBytes.Add(float64(p.TxBytes))
		pauseUS.Add(p.PausedFor.Micros())
		queueHWM.Observe(float64(p.QueueHWM))
		// Per-port fault counters appear only when the port actually saw
		// fault drops, keeping the per-port namespace lean on a healthy
		// fabric. The net/ aggregates always exist (and read zero).
		faultDrops.Add(float64(p.FaultDrops))
		corruptDrops.Add(float64(p.CorruptDrops))
		if p.FaultDrops > 0 {
			m.Counter(prefix + "fault_drops").Add(float64(p.FaultDrops))
		}
		if p.CorruptDrops > 0 {
			m.Counter(prefix + "corrupt_drops").Add(float64(p.CorruptDrops))
		}
	}
	for _, sw := range n.Topo.Switches {
		prefix := "switch/" + sw.Name + "/"
		m.Counter(prefix + "rx_packets").Add(float64(sw.RxPackets))
		m.Counter(prefix + "drops").Add(float64(sw.Drops()))
		m.Counter(prefix + "drop_bytes").Add(float64(sw.DropBytes()))
		m.Counter(prefix + "ecn_marks").Add(float64(sw.ECNMarks))
		m.Counter(prefix + "pfc_pauses").Add(float64(sw.PausesSent()))
		m.Gauge(prefix + "buffer_hwm_bytes").Observe(float64(sw.BufferHWM()))
		m.Gauge(prefix + "headroom_hwm_bytes").Observe(float64(sw.HeadroomHWM()))
		noRoute.Add(float64(sw.NoRouteDrop))
		drops.Add(float64(sw.Drops()))
		dropBytes.Add(float64(sw.DropBytes()))
		marks.Add(float64(sw.ECNMarks))
		pauses.Add(float64(sw.PausesSent()))
		bufHWM.Observe(float64(sw.BufferHWM()))
		hdrHWM.Observe(float64(sw.HeadroomHWM()))
		for _, p := range sw.Ports {
			collectPort(sw.Name, p)
		}
	}
	for _, h := range n.Topo.Hosts {
		m.Counter("host/" + itoa(h.ID) + "/rx_packets").Add(float64(h.RxPackets))
		rxPkts.Add(float64(h.RxPackets))
		collectPort(h.DeviceName(), h.NIC)
	}
	if rec.Watchdog != nil {
		trips := m.Counter("net/watchdog_trips")
		if rec.Watchdog.Tripped() != "" {
			trips.Add(1)
		}
	}
	if rec.Audit != nil {
		m.Counter("net/audit_checks").Add(float64(rec.Audit.Checks))
		violations := m.Counter("net/audit_violations")
		if rec.Audit.Violation() != "" {
			violations.Add(1)
		}
	}
	if rec.Cost != nil {
		rec.Cost.Record(m)
	}
	if rec.OnCollected != nil {
		rec.OnCollected()
	}
}

func itoa(i int) string { return strconv.Itoa(i) }

func itoa64(i int64) string { return strconv.FormatInt(i, 10) }
