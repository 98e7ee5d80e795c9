//go:build layerbench

package main

import (
	"runtime"
	"time"

	"prioplus/internal/exp"
	"prioplus/internal/serve"
)

func init() { register("serve", 9, runServe) }

// await polls the scheduler until the job is finished.
func await(s *serve.Scheduler, id string) serve.JobSnapshot {
	for {
		snap, err := s.Job(id)
		if err != nil {
			panic(err)
		}
		if snap.Status == serve.JobDone {
			return snap
		}
		if snap.Status == serve.JobFailed || snap.Status == serve.JobCanceled {
			panic("job " + snap.Status + ": " + snap.Err)
		}
		runtime.Gosched() // a sleep would round the wait up to the timer granularity
	}
}

func runServe(r *report) {
	s := serve.New(serve.Config{Workers: 1})
	defer s.Close()
	spec := func(id string, perturb uint64) serve.JobSpec {
		return serve.JobSpec{Experiment: id, Params: exp.RunParams{Seed: 1, Perturb: perturb}}
	}
	submit := func(js serve.JobSpec) serve.JobSnapshot {
		snap, err := s.Submit(js)
		if err != nil {
			panic(err)
		}
		return snap
	}

	// Hit: an identical spec answered from the cache at Submit.
	await(s, submit(spec("fig2", 0)).ID)
	const hits = 20_000
	r.put("serve.submit_hit_us", timeOps(3, hits, func() {
		for i := 0; i < hits; i++ {
			if submit(spec("fig2", 0)).Cache != "hit" {
				panic("expected a cache hit")
			}
		}
	})/1e3, "us")

	// Miss overhead: fig2 computes in ~0.1 ms of table formatting and no
	// simulation, so submit -> done is the service's own cost plus that.
	const misses = 2_000
	next := uint64(1)
	r.put("serve.submit_miss_overhead_us", timeOps(3, misses, func() {
		for i := 0; i < misses; i++ {
			next++
			await(s, submit(spec("fig2", next)).ID)
		}
	})/1e3, "us")

	// Follower attach: a second identical spec submitted while the first
	// (a ~30 ms fig10b) is still computing joins it instead of queueing.
	const follows = 5
	var attach []float64
	for i := 0; i < follows; i++ {
		next++
		lead := submit(spec("fig10b", next))
		start := time.Now()
		f := submit(spec("fig10b", next))
		attach = append(attach, float64(time.Since(start).Nanoseconds())/1e3)
		if f.Cache != "hit" {
			panic("follower was not attached to the in-flight run")
		}
		await(s, lead.ID)
	}
	best := attach[0]
	for _, v := range attach {
		best = min(best, v)
	}
	r.put("serve.follow_attach_us", best, "us")
}
