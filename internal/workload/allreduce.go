package workload

import "prioplus/internal/sim"

// Model describes one training job in the ML-cluster scenario (§6.2): a
// data-parallel model synchronizing gradients with a ring all-reduce each
// iteration, separated by a compute phase.
type Model struct {
	Name      string
	Hosts     []int    // workers, in ring order
	GradBytes int64    // gradient size per worker
	Compute   sim.Time // forward+backward time per iteration
}

// ResNet returns a ResNet-50-like job: ~100 MB of gradients and a
// relatively long compute phase, making it compute-bound.
func ResNet(name string, hosts []int) Model {
	return Model{Name: name, Hosts: hosts, GradBytes: 100 << 20, Compute: 30 * sim.Millisecond}
}

// VGG returns a VGG-16-like job: ~550 MB of gradients and a short compute
// phase, making it communication-bound.
func VGG(name string, hosts []int) Model {
	return Model{Name: name, Hosts: hosts, GradBytes: 550 << 20, Compute: 15 * sim.Millisecond}
}

// RingStep describes the flows of one all-reduce step: every worker sends
// one chunk to its ring successor simultaneously; the step completes when
// all its flows complete.
type RingStep struct {
	Flows []CoflowFlow
}

// RingAllReduce expands one all-reduce into its 2*(n-1) steps: n-1
// reduce-scatter steps plus n-1 all-gather steps, each moving
// GradBytes/n per worker to its successor.
func (m Model) RingAllReduce() []RingStep {
	n := len(m.Hosts)
	if n < 2 {
		return nil
	}
	chunk := m.GradBytes / int64(n)
	if chunk == 0 {
		chunk = 1
	}
	steps := make([]RingStep, 0, 2*(n-1))
	for s := 0; s < 2*(n-1); s++ {
		st := RingStep{}
		for i, src := range m.Hosts {
			dst := m.Hosts[(i+1)%n]
			st.Flows = append(st.Flows, CoflowFlow{Src: src, Dst: dst, Size: chunk})
		}
		steps = append(steps, st)
	}
	return steps
}
