package netsim

import (
	"fmt"

	"prioplus/internal/sim"
)

// Host is an end host with a single NIC. Received packets are handed to
// the Sink (the transport layer); outgoing packets are enqueued on the NIC,
// which honors PFC pauses from the top-of-rack switch.
type Host struct {
	Eng  *sim.Engine
	ID   int
	NIC  *Port
	Sink func(pkt *Packet)

	RxPackets int64
}

// NewHost creates a host with the given NIC speed and cable propagation
// delay. nqueues is the number of NIC priority queues (match the fabric).
func NewHost(eng *sim.Engine, id int, rate Rate, prop sim.Time, nqueues int) *Host {
	h := &Host{Eng: eng, ID: id}
	h.NIC = newPort(eng, rate, prop, nqueues)
	h.NIC.Host = h
	// Timestamps are taken when the transport emits the packet, not at NIC
	// exit: a sender must feel its own NIC backlog, or a flow whose window
	// exceeds what its NIC can carry hides the excess from its own
	// congestion signal and can deadlock a takeover.
	return h
}

// DeviceName names the host in diagnostics and artifacts.
func (h *Host) DeviceName() string { return fmt.Sprintf("host%d", h.ID) }

// HandlePacket is called when a packet fully arrives on the NIC: it is
// handed to the Sink.
func (h *Host) HandlePacket(pkt *Packet, in *Port) {
	checkLive(pkt, "Host.HandlePacket")
	h.RxPackets++
	if pkt.Dst != h.ID {
		panic(fmt.Sprintf("netsim: host %d received packet for host %d", h.ID, pkt.Dst))
	}
	if h.Sink != nil {
		h.Sink(pkt)
	}
}

// Send enqueues a packet on the NIC. The caller owns the SentAt timestamp:
// senders stamp it, ACKs echo the original.
func (h *Host) Send(pkt *Packet) {
	h.NIC.Enqueue(TxItem{Pkt: pkt})
}

// LineRate returns the NIC speed.
func (h *Host) LineRate() Rate { return h.NIC.Rate }
