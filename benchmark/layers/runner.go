//go:build layerbench

package main

import (
	"prioplus/internal/runner"
)

func init() { register("runner", 8, runRunner) }

func runRunner(r *report) {
	noop := runner.Task{Name: "noop", Run: func() (string, map[string]float64) { return "", nil }}

	// One no-op task through the bounded pool: TrySubmit until done fires.
	const n = 20_000
	pool := runner.NewPool(1, 1, 0)
	done := make(chan struct{}, 1)
	dispatch := func() {
		for i := 0; i < n; i++ {
			if !pool.TrySubmit(noop, func(runner.Result) { done <- struct{}{} }) {
				panic("pool refused a task with an empty queue")
			}
			<-done
		}
	}
	dispatch()
	r.put("runner.pool_dispatch_us", timeOps(3, n, dispatch)/1e3, "us")
	pool.Close()

	// 1000 no-ops through the batch entry point, serially as the CLI
	// workloads run it.
	tasks := make([]runner.Task, 1000)
	for i := range tasks {
		tasks[i] = noop
	}
	r.put("runner.run_overhead_us", timeOps(5, len(tasks), func() {
		runner.Run(tasks, runner.Options{Workers: 1})
	})/1e3, "us")
}
