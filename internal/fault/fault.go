// Package fault implements deterministic, seed-driven fault injection for
// the simulator: scheduled link down/up (flaps), per-link random loss and
// corruption, and switch reboots, all executed on the engine clock.
//
// A Plan is an immutable schedule built once and installed per run.
// Determinism rules:
//
//   - Every fault action is an engine event at a fixed simulated time, so
//     the interleaving with traffic is reproduced exactly on replay.
//   - Loss and corruption draws come from per-link RNG streams derived
//     from Plan.Seed and the link's (device, port) identity — never from a
//     shared or global source — so the drop pattern of one link does not
//     depend on what other links carry.
//   - Install touches only the run's private topology and engine; nothing
//     is shared across runs, so batch runs are byte-identical whatever the
//     -parallel setting.
//
// A link event downs/ups both ends of the cable: queued packets drop back
// into the packet pool immediately (Port.SetDown), in-flight packets drop
// on arrival at the downed receiving port, and the routing tables are
// recomputed so surviving paths carry the traffic (ECMP re-hash handles
// the instants in between). See docs/ARCHITECTURE.md, "Fault layer".
package fault

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"prioplus/internal/netsim"
	"prioplus/internal/sim"
	"prioplus/internal/topo"
)

// LinkRef names one end of a cable. Dev is a device name as reported by
// Port.DeviceName — "p0e0", "core1", "host3". When Peer is non-empty the port
// is resolved as the first Dev port wired to that device (the natural way
// to name a fabric link); otherwise Port indexes Dev's port list directly.
type LinkRef struct {
	Dev  string
	Port int
	Peer string
}

// String renders the link as "device[port]" for artifacts and errors.
func (l LinkRef) String() string {
	if l.Peer != "" {
		return l.Dev + "->" + l.Peer
	}
	return fmt.Sprintf("%s:%d", l.Dev, l.Port)
}

// Link is shorthand for a LinkRef naming the cable between two devices.
func Link(dev, peer string) LinkRef { return LinkRef{Dev: dev, Peer: peer} }

type eventKind int

const (
	linkDown eventKind = iota
	linkUp
	rebootSwitch
)

type planEvent struct {
	at   sim.Time
	kind eventKind
	link LinkRef // Dev only, for rebootSwitch
}

type impairment struct {
	link    LinkRef
	loss    float64
	corrupt float64
}

// Plan is an immutable fault schedule. Build it once (the builders return
// the plan for chaining), then Install it on each run's topology; a Plan
// holds no per-run state and may be shared across the runs of a sweep.
type Plan struct {
	// Seed drives every random draw the plan's impairments make; per-link
	// streams are derived from it so a given (seed, link) always sees the
	// same drop pattern.
	Seed int64

	events      []planEvent
	impairments []impairment
}

// NewPlan returns an empty plan with the given seed.
func NewPlan(seed int64) *Plan { return &Plan{Seed: seed} }

// LinkDown schedules both ends of a cable to go down at the given time.
func (p *Plan) LinkDown(at sim.Time, l LinkRef) *Plan {
	p.events = append(p.events, planEvent{at: at, kind: linkDown, link: l})
	return p
}

// LinkUp schedules both ends of a cable to come back up.
func (p *Plan) LinkUp(at sim.Time, l LinkRef) *Plan {
	p.events = append(p.events, planEvent{at: at, kind: linkUp, link: l})
	return p
}

// Flap schedules a link to go down at `at` and come back after `dur`.
func (p *Plan) Flap(at, dur sim.Time, l LinkRef) *Plan {
	return p.LinkDown(at, l).LinkUp(at+dur, l)
}

// Reboot schedules an instantaneous restart of the named switch: all
// queues drained into the pool, all PFC state cleared.
func (p *Plan) Reboot(at sim.Time, dev string) *Plan {
	p.events = append(p.events, planEvent{at: at, kind: rebootSwitch, link: LinkRef{Dev: dev}})
	return p
}

// Impair sets random loss and corruption rates on both directions of a
// cable for the whole run. Each direction draws from its own RNG stream
// derived from the plan seed and the receiving port's identity.
func (p *Plan) Impair(l LinkRef, lossRate, corruptRate float64) *Plan {
	p.impairments = append(p.impairments, impairment{link: l, loss: lossRate, corrupt: corruptRate})
	return p
}

// Empty reports whether the plan contains no events and no impairments.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.events) == 0 && len(p.impairments) == 0)
}

// Event is the observable record of one executed fault action.
type Event struct {
	T    sim.Time
	Kind string // "link_down", "link_up", "reboot"
	Dev  string
	Port int // -1 for reboot
}

func (k eventKind) label() string {
	switch k {
	case linkDown:
		return "link_down"
	case linkUp:
		return "link_up"
	default:
		return "reboot"
	}
}

// Injector is one run's live fault state: it executes a plan's events on
// the run's engine and records what happened.
type Injector struct {
	topo *topo.Network

	// Notify, when non-nil, receives every executed fault event at the
	// moment it fires; harness.Net.Observe points it at the recorder's
	// fault log. The injector keeps its own Events list regardless.
	Notify func(Event)

	events    []Event
	downLinks int
}

// Install resolves the plan against a topology and schedules its events on
// the topology's engine. Call once per run, before traffic starts; link
// references that resolve to nothing panic immediately rather than firing
// into the void mid-run.
func (p *Plan) Install(t *topo.Network) *Injector {
	inj := &Injector{topo: t}
	// Any plan may partition a destination; packets already in flight
	// toward the partition must be dropped, not panic the run.
	for _, sw := range t.Switches {
		sw.AllowNoRoute = true
	}
	for _, im := range p.impairments {
		a := inj.resolve(im.link)
		for _, port := range []*netsim.Port{a, a.Peer} {
			f := port.Fault()
			f.LossRate = im.loss
			f.CorruptRate = im.corrupt
			f.Rng = rand.New(rand.NewSource(p.Seed ^ linkSeed(port.DeviceName(), port.Index)))
		}
	}
	for _, ev := range p.events {
		ev := ev
		switch ev.kind {
		case linkDown:
			port := inj.resolve(ev.link)
			t.Eng.At(ev.at, func() { inj.setLink(port, true) }).Tag(sim.EKFault)
		case linkUp:
			port := inj.resolve(ev.link)
			t.Eng.At(ev.at, func() { inj.setLink(port, false) }).Tag(sim.EKFault)
		case rebootSwitch:
			sw := inj.findSwitch(ev.link.Dev)
			t.Eng.At(ev.at, func() {
				sw.Reboot()
				inj.emit(rebootSwitch, ev.link.Dev, -1)
			}).Tag(sim.EKFault)
		}
	}
	return inj
}

// setLink flips both ends of a cable and reconverges routing.
func (inj *Injector) setLink(port *netsim.Port, down bool) {
	if port.IsDown() == down {
		return
	}
	port.SetDown(down)
	port.Peer.SetDown(down)
	if down {
		inj.downLinks++
	} else {
		inj.downLinks--
	}
	inj.topo.RecomputeRoutes()
	kind := linkUp
	if down {
		kind = linkDown
	}
	inj.emit(kind, port.DeviceName(), port.Index)
}

func (inj *Injector) emit(kind eventKind, dev string, portIdx int) {
	ev := Event{T: inj.topo.Eng.Now(), Kind: kind.label(), Dev: dev, Port: portIdx}
	inj.events = append(inj.events, ev)
	if inj.Notify != nil {
		inj.Notify(ev)
	}
}

// DownLinks returns how many links are currently down (a series source).
func (inj *Injector) DownLinks() int { return inj.downLinks }

// Events returns the fault actions executed so far, in firing order.
func (inj *Injector) Events() []Event { return inj.events }

// resolve maps a LinkRef to the named end's *netsim.Port.
func (inj *Injector) resolve(l LinkRef) *netsim.Port {
	ports := inj.devicePorts(l.Dev)
	if l.Peer != "" {
		for _, p := range ports {
			if p.Peer != nil && p.Peer.DeviceName() == l.Peer {
				return p
			}
		}
		panic(fmt.Sprintf("fault: no link %s", l))
	}
	if l.Port < 0 || l.Port >= len(ports) {
		panic(fmt.Sprintf("fault: %s has no port %d", l.Dev, l.Port))
	}
	return ports[l.Port]
}

func (inj *Injector) devicePorts(dev string) []*netsim.Port {
	for _, sw := range inj.topo.Switches {
		if sw.Name == dev {
			return sw.Ports
		}
	}
	for _, h := range inj.topo.Hosts {
		if h.DeviceName() == dev {
			return []*netsim.Port{h.NIC}
		}
	}
	panic(fmt.Sprintf("fault: unknown device %q", dev))
}

func (inj *Injector) findSwitch(dev string) *netsim.Switch {
	for _, sw := range inj.topo.Switches {
		if sw.Name == dev {
			return sw
		}
	}
	panic(fmt.Sprintf("fault: unknown switch %q", dev))
}

// linkSeed derives a stable per-port seed component from the port's
// identity, so per-link RNG streams are independent of installation order.
func linkSeed(dev string, port int) int64 {
	h := fnv.New64a()
	h.Write([]byte(dev))
	return int64(h.Sum64() ^ uint64(port)*0x9e3779b97f4a7c15)
}
