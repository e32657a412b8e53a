package par

import (
	"container/heap"
	"fmt"
	"sync"
)

// Graph is a dependency-aware task executor: the Go equivalent of OpenMP
// tasks with "depend" clauses. Tasks become ready when all their
// predecessors have finished; among ready tasks, workers pick the highest
// priority first (greedy list scheduling, so Graham's bound
// T_P <= (T_1 - T_inf)/P + T_inf applies).
type Graph struct {
	tasks []task
	built bool
}

type task struct {
	run      func(worker int)
	priority float64
	succs    []int
	npreds   int
}

// Add registers a task with the given priority (higher runs earlier among
// ready tasks) and returns its identifier. run receives the index w < p of
// the worker running the task, which runs one task at a time, so tasks can
// keep per-worker scratch without synchronization. A nil run is an empty
// join task: it only orders its successors after its predecessors.
func (g *Graph) Add(priority float64, run func(worker int)) int {
	if g.built {
		panic("par: Graph.Add after Run")
	}
	g.tasks = append(g.tasks, task{run: run, priority: priority})
	return len(g.tasks) - 1
}

// AddDep declares that task post must wait for task pre.
func (g *Graph) AddDep(pre, post int) {
	if g.built {
		panic("par: Graph.AddDep after Run")
	}
	if pre == post {
		panic(fmt.Sprintf("par: self-dependency on task %d", pre))
	}
	g.tasks[pre].succs = append(g.tasks[pre].succs, post)
	g.tasks[post].npreds++
}

// Run executes the whole graph on p workers and blocks until every task
// has finished. It panics if the dependency graph has a cycle (some task
// never becomes ready).
func (g *Graph) Run(p int) {
	g.built = true
	n := len(g.tasks)
	if n == 0 {
		return
	}
	p = min(Threads(p), n)

	st := &graphState{g: g, pending: n}
	st.cond = sync.NewCond(&st.mu)
	remaining := make([]int, n)
	for i := range g.tasks {
		remaining[i] = g.tasks[i].npreds
		if remaining[i] == 0 {
			heap.Push(&st.ready, readyTask{id: i, priority: g.tasks[i].priority})
		}
	}
	st.remaining = remaining

	if st.ready.Len() == 0 {
		panic("par: task graph has no source task (cycle)")
	}

	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st.worker(w)
		}(w)
	}
	wg.Wait()

	if st.pending != 0 {
		panic(fmt.Sprintf("par: %d tasks never became ready (dependency cycle)", st.pending))
	}
}

type graphState struct {
	g         *Graph
	mu        sync.Mutex
	cond      *sync.Cond
	ready     readyHeap
	remaining []int
	pending   int // tasks not yet finished
}

func (st *graphState) worker(w int) {
	for {
		st.mu.Lock()
		for st.ready.Len() == 0 && st.pending > 0 {
			st.cond.Wait()
		}
		if st.pending == 0 {
			st.mu.Unlock()
			st.cond.Broadcast()
			return
		}
		id := heap.Pop(&st.ready).(readyTask).id
		st.mu.Unlock()

		if run := st.g.tasks[id].run; run != nil {
			run(w)
		}

		st.mu.Lock()
		st.pending--
		woke := false
		for _, s := range st.g.tasks[id].succs {
			st.remaining[s]--
			if st.remaining[s] == 0 {
				heap.Push(&st.ready, readyTask{id: s, priority: st.g.tasks[s].priority})
				woke = true
			}
		}
		done := st.pending == 0
		st.mu.Unlock()
		if woke || done {
			st.cond.Broadcast()
		}
	}
}

type readyTask struct {
	id       int
	priority float64
}

// readyHeap is a max-heap on priority with deterministic id tie-breaking.
type readyHeap []readyTask

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].id < h[j].id
}
func (h readyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x interface{}) { *h = append(*h, x.(readyTask)) }
func (h *readyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
