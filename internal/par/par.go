// Package par is a small shared-memory parallel runtime providing the
// constructs the paper's C++/OpenMP implementation relies on: static and
// dynamic parallel-for loops, contiguous block partitioning, and a
// dependency-aware task-graph executor with priority scheduling (the
// equivalent of OpenMP 4.0 "task depend" used by PB-SYM-PD-SCHED).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Threads normalizes a requested thread count: values < 1 become
// runtime.GOMAXPROCS(0).
func Threads(p int) int {
	if p < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// Blocks splits [0, n) into p contiguous blocks (the OpenMP "static"
// schedule) and runs body(lo, hi) for each block on its own goroutine.
// Blocks smaller than one element are skipped. Blocks returns when every
// block has completed.
func Blocks(p, n int, body func(worker, lo, hi int)) {
	p = Threads(p)
	if n <= 0 {
		return
	}
	if p > n {
		p = n
	}
	if p == 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		lo, hi := w*n/p, (w+1)*n/p
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// BlocksMin is Blocks with a minimum block size: the worker count is capped
// so every block spans at least min elements. It is the right choice for
// cheap streaming bodies (zeroing, summing) where spawning a goroutine per
// tiny block would cost more than the work itself.
func BlocksMin(p, n, min int, body func(worker, lo, hi int)) {
	p = Threads(p)
	if min > 0 && p > n/min {
		p = n / min
		if p < 1 {
			p = 1
		}
	}
	Blocks(p, n, body)
}

// Strips runs body(w, cuts[w], cuts[w+1]) for every strip w of the
// boundaries cuts (at least two), each on its own goroutine but the last,
// which runs on the calling goroutine, and returns when all are done: no
// worker outlives the call, and a one-strip call starts no goroutine.
func Strips(cuts []int, body func(w, lo, hi int)) {
	last := len(cuts) - 2
	var wg sync.WaitGroup
	wg.Add(last)
	for w := 0; w < last; w++ {
		go func(w int) {
			defer wg.Done()
			body(w, cuts[w], cuts[w+1])
		}(w)
	}
	body(last, cuts[last], cuts[last+1])
	wg.Wait()
}

// For runs body(i) for every i in [0, n) using a static block schedule over
// p workers.
func For(p, n int, body func(i int)) {
	Blocks(p, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForDynamic runs body(i) for every i in [0, n), handing out chunks of the
// given size from a shared counter (the OpenMP "dynamic" schedule). It is
// the right choice when iteration costs are irregular, e.g. subdomains with
// clustered points.
func ForDynamic(p, n, chunk int, body func(i int)) {
	ForDynamicW(p, n, chunk, func(_, i int) { body(i) })
}

// ForDynamicW is ForDynamic with the worker index passed to the body, so
// callers can keep per-worker scratch buffers without synchronization.
func ForDynamicW(p, n, chunk int, body func(worker, i int)) {
	p = Threads(p)
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	if p == 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					body(w, i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// ForDynamicOrdered is ForDynamic over an explicit index order: body is
// invoked with order[k] for every k, chunks handed out dynamically. It lets
// schedulers present a priority order (e.g. heaviest subdomain first) while
// keeping dynamic load balancing.
func ForDynamicOrdered(p int, order []int, chunk int, body func(i int)) {
	ForDynamic(p, len(order), chunk, func(k int) { body(order[k]) })
}

// ForDynamicOrderedW is ForDynamicOrdered with the worker index.
func ForDynamicOrderedW(p int, order []int, chunk int, body func(worker, i int)) {
	ForDynamicW(p, len(order), chunk, func(w, k int) { body(w, order[k]) })
}
