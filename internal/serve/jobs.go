package serve

import (
	"context"
	"sync"
)

// Job states. A job is the asynchronous handle of one estimation request;
// its id is derived from the estimate key, so identical requests share one
// job (and therefore one estimation).
const (
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

// job tracks one asynchronous estimation.
type job struct {
	id     string
	key    estimateKey
	tenant string // accounting tenant of the request that launched it

	mu       sync.Mutex
	state    string
	err      string
	cacheHit bool    // resolved from cache without estimating
	seconds  float64 // estimation phase total (0 on cache hit)
	peak     float64
	peakVox  [3]int
	mass     float64
}

// maxJobs bounds the job table: finished jobs are evicted oldest-first
// past this size, so a client sweeping specs cannot grow the table without
// limit in a long-running daemon. Running jobs are never evicted.
const maxJobs = 1024

type jobTable struct {
	mu    sync.Mutex
	m     map[string]*job
	order []string // insertion order, for oldest-first eviction
}

func newJobTable() *jobTable {
	return &jobTable{m: map[string]*job{}}
}

// insert registers a job, evicting the oldest finished jobs once the
// table is full. Callers hold t.mu.
func (t *jobTable) insert(j *job) {
	if len(t.m) >= maxJobs {
		kept := make([]string, 0, len(t.order))
		seen := make(map[string]bool, len(t.order))
		for _, id := range t.order {
			old, ok := t.m[id]
			if !ok || seen[id] { // stale or duplicate entry from a relaunch
				continue
			}
			seen[id] = true
			old.mu.Lock()
			running := old.state == jobRunning
			old.mu.Unlock()
			if !running && len(t.m) >= maxJobs {
				delete(t.m, id)
				continue
			}
			kept = append(kept, id)
		}
		t.order = kept
	}
	t.m[j.id] = j
	t.order = append(t.order, j.id)
}

func (t *jobTable) get(id string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.m[id]
	return j, ok
}

// startJob returns the job for the key, creating (and launching) it when
// needed. A running job is always reused — that is the request-coalescing
// guarantee at the job layer. A finished job is reused only while its grid
// is still resident; once evicted, a new request relaunches the work.
// Fresh work is priced at the door first: a request whose predicted queue
// wait exceeds the SLO is shed here with a Retry-After instead of parking
// a doomed job in the table.
func (s *Server) startJob(k estimateKey, tenant string) (*job, error) {
	id := k.id()
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	if j, ok := s.jobs.m[id]; ok {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if state == jobRunning || (state == jobDone && s.cache.contains(k)) {
			return j, nil
		}
	}
	// The door check only applies to work that will actually estimate: a
	// resident grid completes synchronously without touching the pool.
	if !s.cache.contains(k) {
		if err := s.adm.doorCheck(tenant, s.predictCost(k)); err != nil {
			return nil, err
		}
	}
	if err := s.enter(); err != nil {
		return nil, err
	}
	j := &job{id: id, key: k, tenant: tenant, state: jobRunning}
	s.jobs.insert(j)
	go s.runJob(j)
	return j, nil
}

// runJob drives one estimation to completion and records its outcome. It
// runs detached from any request context: a poller that disconnects does
// not cancel the work, and Shutdown waits for it. The pool acquire is
// pre-admitted (door-checked by startJob), so it queues without being
// re-priced — only the queue-depth backstop can still refuse it.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	c, cached, err := s.ensureGrid(context.Background(), j.key, j.tenant, true)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.state = jobFailed
		j.err = err.Error()
		s.met.jobsFailed.Add(1)
		return
	}
	j.state = jobDone
	j.cacheHit = cached
	j.seconds = c.res.Phases.Total().Seconds()
	// The completion summary (peak voxel, total mass) is a region and a
	// hotspot read of the cube's view: from its analytics pyramid, built
	// with the cube (one parallel O(G) pass, no more than the two naive
	// scans it replaces) and left resident for the region/hotspot queries
	// that typically follow a job, else by the naive scans.
	v := cubeView{c}
	j.mass, _, _ = v.BoxMassCov(c.res.Grid.Spec.Bounds())
	if top, _, _ := v.TopKCov(1); len(top) == 1 {
		j.peak, j.peakVox = top[0].V, [3]int{top[0].X, top[0].Y, top[0].T}
	}
	if c.py != nil {
		s.met.sketchHits.Add(1)
	}
	s.met.jobsDone.Add(1)
}

// jobJSON is the wire shape of a job status.
type jobJSON struct {
	Job       string  `json:"job"`
	State     string  `json:"state"`
	Error     string  `json:"error,omitempty"`
	Dataset   string  `json:"dataset"`
	Algorithm string  `json:"algorithm"`
	Grid      [3]int  `json:"grid"`
	CacheHit  bool    `json:"cache_hit"`
	Seconds   float64 `json:"seconds"`
	Peak      float64 `json:"peak,omitempty"`
	PeakVoxel [3]int  `json:"peak_voxel,omitempty"`
	Mass      float64 `json:"mass,omitempty"`
}

func (j *job) snapshot() jobJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobJSON{
		Job:       j.id,
		State:     j.state,
		Error:     j.err,
		Dataset:   j.key.Dataset,
		Algorithm: j.key.Algorithm,
		Grid:      [3]int{j.key.Spec.Gx, j.key.Spec.Gy, j.key.Spec.Gt},
		CacheHit:  j.cacheHit,
		Seconds:   j.seconds,
		Peak:      j.peak,
		PeakVoxel: j.peakVox,
		Mass:      j.mass,
	}
}
