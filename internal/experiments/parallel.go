package experiments

import (
	"fmt"
	"runtime"
	"sync"
)

// The parallel runners exploit the sweep grids' structure: every
// (benchmark, period) cell is one fully independent simulation stack —
// its own workload, executor, sampling monitor and detector pipeline,
// each seeded deterministically — so cells can run on as many cores as
// are available and still produce byte-identical results at any worker
// count (RunSweep and RunSpeedup are the one-worker case). Determinism
// comes from two properties:
//
//  1. no shared mutable state: each cell builds everything it touches
//     (the only cross-cell sharing is read-only package data and, where a
//     caller passes one, an immutable *isa.Program — see isa.NewProgram);
//  2. ordered collection: results land in a preallocated slice at the
//     cell's grid index, so the output order never depends on worker
//     scheduling.

// DefaultWorkers resolves a worker-count argument: values < 1 select
// runtime.NumCPU().
func DefaultWorkers(workers int) int {
	if workers < 1 {
		return runtime.NumCPU()
	}
	return workers
}

// runCells runs fn(0..n-1) on a pool of workers and returns the first
// error by cell index, the one a single worker, which runs the cells in
// order as a plain loop, would have stopped at. fn must write its result
// to its own index of a preallocated slice; runCells provides no result
// channel by design.
func runCells(workers, n int, fn func(i int) error) error {
	workers = DefaultWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil || i < firstIdx {
						firstErr, firstIdx = err, i
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return firstErr
}

// RunSweepParallel is RunSweep distributed over a worker pool: one
// worker-owned simulation per (benchmark, period) cell, results collected
// in grid order. workers < 1 selects runtime.NumCPU(); the result is
// identical regardless of worker count.
func RunSweepParallel(opts Options, names []string, workers int) (*SweepResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	type key struct {
		name   string
		period uint64
	}
	grid := make([]key, 0, len(names)*len(opts.Periods))
	for _, name := range names {
		for _, period := range opts.Periods {
			grid = append(grid, key{name, period})
		}
	}
	res := &SweepResult{Opts: opts, Cells: make([]SweepCell, len(grid))}
	err := runCells(workers, len(grid), func(i int) error {
		cell, err := runSweepCell(opts, grid[i].name, grid[i].period)
		if err != nil {
			return fmt.Errorf("sweep %s @ %d: %w", grid[i].name, grid[i].period, err)
		}
		res.Cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunSpeedupParallel is RunSpeedup distributed over a worker pool, with
// the same determinism guarantee as RunSweepParallel.
func RunSpeedupParallel(opts Options, names []string, workers int) (*SpeedupResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	type key struct {
		name   string
		period uint64
	}
	grid := make([]key, 0, len(names)*len(opts.RTOPeriods))
	for _, name := range names {
		for _, period := range opts.RTOPeriods {
			grid = append(grid, key{name, period})
		}
	}
	res := &SpeedupResult{Opts: opts, Cells: make([]SpeedupCell, len(grid))}
	err := runCells(workers, len(grid), func(i int) error {
		cell, err := runSpeedupCell(opts, grid[i].name, grid[i].period)
		if err != nil {
			return fmt.Errorf("speedup %s @ %d: %w", grid[i].name, grid[i].period, err)
		}
		res.Cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
