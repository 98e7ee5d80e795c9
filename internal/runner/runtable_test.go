package runner

import (
	"sync"
	"testing"
)

func TestRunTableLifecycle(t *testing.T) {
	var g RunTable
	st := g.Add("fig11/seed=3", "fig11", 3)
	if got := st.Snapshot(); got.Status != "pending" || got.Name != "fig11/seed=3" {
		t.Fatalf("fresh snapshot = %+v", got)
	}

	st.Start()
	st.SetPhase("fig11")
	st.Live.Events.Add(1000)
	st.Live.SimPS.Store(2_000_000) // 2 µs
	snap := st.Snapshot()
	if snap.Status != "running" || snap.Phase != "fig11" {
		t.Errorf("running snapshot = %+v", snap)
	}
	if snap.Events != 1000 || snap.SimUS != 2 {
		t.Errorf("progress snapshot = %+v", snap)
	}
	if snap.EventsPerSec <= 0 {
		t.Errorf("EventsPerSec = %v, want > 0 for a started run", snap.EventsPerSec)
	}

	st.Finish("")
	if got := st.Snapshot().Status; got != "done" {
		t.Errorf("status after Finish = %q", got)
	}

	st2 := g.Add("fig11/seed=4", "fig11", 4)
	st2.Start()
	st2.Finish("boom")
	snap2 := st2.Snapshot()
	if snap2.Status != "failed" || snap2.Err != "boom" {
		t.Errorf("failed snapshot = %+v", snap2)
	}

	all := g.Snapshot()
	if len(all) != 2 || all[0].Index != 0 || all[1].Index != 1 {
		t.Errorf("run table snapshot = %+v", all)
	}
}

func TestRunTableWatchdogProximity(t *testing.T) {
	var g RunTable
	st := g.Add("x", "x", 1)
	st.Live.InflightBytes.Store(250)
	st.Live.WatchdogLimit.Store(1000)
	snap := st.Snapshot()
	if snap.WatchdogPct != 25 {
		t.Errorf("WatchdogPct = %v, want 25", snap.WatchdogPct)
	}
}

// TestRunTableConcurrent exercises the reader/writer split under the race
// detector: workers mutate their runs while a reader snapshots the batch.
func TestRunTableConcurrent(t *testing.T) {
	var g RunTable
	const n = 8
	states := make([]*RunEntry, n)
	for i := range states {
		states[i] = g.Add("run", "run", int64(i))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				g.Snapshot()
			}
		}
	}()
	for _, st := range states {
		wg.Add(1)
		go func(st *RunEntry) {
			defer wg.Done()
			st.Start()
			for i := 0; i < 1000; i++ {
				st.Live.Events.Add(1)
				st.Live.SimPS.Store(int64(i))
				st.SetPhase("tick")
			}
			st.Finish("")
		}(st)
	}
	for _, st := range states {
		_ = st // workers joined below
	}
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	// Let workers finish, then stop the reader.
	for _, st := range states {
		for st.status.Load() != StatusDone {
			g.Snapshot()
		}
	}
	close(stop)
	<-wgDone
}
