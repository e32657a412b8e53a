package serve

import (
	"context"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Shed reasons, used in error text, metrics, and the 429 body.
const (
	shedReasonRate  = "rate"  // tenant over a sliding-window rate limit
	shedReasonSLO   = "slo"   // predicted queue wait exceeds the latency SLO
	shedReasonQueue = "queue" // admission queue at its configured depth
)

// shedError is a load-shedding refusal: the request was not admitted and
// the client should retry after the given (positive) duration. Handlers
// map it to 429 Too Many Requests with a Retry-After header.
type shedError struct {
	reason string
	retry  time.Duration
	msg    string
}

func (e *shedError) Error() string { return e.msg }

// retrySeconds renders the Retry-After header value: whole seconds,
// rounded up, never less than 1.
func (e *shedError) retrySeconds() int {
	return max(1, int(math.Ceil(e.retry.Seconds())))
}

// defaultTenant accounts requests that carry no X-Tenant header.
const defaultTenant = "default"

// maxTenantName caps the accounting key length so a hostile header cannot
// bloat the per-tenant maps.
const maxTenantName = 64

// tenantOf extracts the accounting tenant of a request.
func tenantOf(r *http.Request) string {
	t := strings.TrimSpace(r.Header.Get("X-Tenant"))
	if t == "" {
		return defaultTenant
	}
	if len(t) > maxTenantName {
		t = t[:maxTenantName]
	}
	return t
}

// waiter is one queued admission request.
type waiter struct {
	cost      float64 // predicted seconds of the work it will run
	pred      float64 // predicted queue wait at enqueue, seconds
	enqueued  time.Time
	ready     chan struct{}
	granted   bool
	cancelled bool
	err       error // set (before ready closes) when evicted by a fuller queue
}

// tenantQueue is one tenant's FIFO of queued waiters.
type tenantQueue struct {
	ws   []*waiter
	live int // non-cancelled waiters in ws
}

// admission is the work-admitting front door of the estimation pool: a
// bounded, context-aware, per-tenant-fair queue over cfg.Workers slots,
// with model-priced SLO shedding and multi-interval rate limits. It
// replaces the bare semaphore the pool used to block on.
type admission struct {
	workers  int
	slo      time.Duration
	maxQueue int
	lim      *limiter
	met      *metrics

	lastShed atomic.Int64 // unix nanos of the most recent shed

	mu      sync.Mutex
	slots   int     // free pool slots (invariant: slots > 0 => queued == 0)
	pending float64 // predicted seconds of admitted + queued work
	qcost   float64 // predicted seconds of queued work only
	queued  int     // live queued waiters across tenants
	tenants map[string]*tenantQueue
	order   []string // tenants with waiters, round-robin order
	rr      int      // next order index to serve

	waitMu    sync.Mutex
	waitErrNS int64 // sum of |predicted - actual| wait, nanos
	waitObs   int64
}

func newAdmission(cfg AdmissionConfig, workers int, met *metrics) *admission {
	return &admission{
		workers:  workers,
		slo:      cfg.SLO,
		maxQueue: cfg.QueueDepth,
		lim:      newLimiter(cfg.TenantRates),
		met:      met,
		slots:    workers,
		tenants:  map[string]*tenantQueue{},
	}
}

// allowRate applies the tenant's sliding-window rate limits to one work
// request, returning a shedError when a window is full.
func (a *admission) allowRate(tenant string) error {
	if retry, ok := a.lim.allow(tenant, time.Now()); !ok {
		return a.shed(tenant, shedReasonRate, retry, "serve: tenant "+tenant+" over its rate limit")
	}
	return nil
}

// predictedWaitLocked estimates how long a new request from the tenant
// would queue before starting. Fair dequeue means a tenant waits on its
// own backlog plus one interleaved request per other active tenant per
// cycle — not on the global queue — so a polite tenant's predicted wait
// stays low while a flooding tenant's grows with its own queue. The
// global backlog (pending work over all slots) is the upper bound.
func (a *admission) predictedWaitLocked(tenant string, cost float64) float64 {
	running := a.pending - a.qcost
	active := len(a.order)
	own := 0
	if tq := a.tenants[tenant]; tq != nil && tq.live > 0 {
		own = tq.live
	} else {
		active++ // this request would activate the tenant
	}
	fair := running + float64(own+1)*float64(active)*cost
	if fair > a.pending+cost {
		fair = a.pending + cost
	}
	return fair / float64(a.workers)
}

// doorCheck prices a request at the door without admitting it: the
// SLO and queue-depth refusals a caller wants before committing async
// work (handleEstimate, before creating a job). Synchronous callers get
// the same checks inside acquire.
func (a *admission) doorCheck(tenant string, cost float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.slots > 0 {
		return nil
	}
	return a.shedLocked(tenant, cost)
}

// shedLocked applies the SLO and queue-depth refusals. Callers hold a.mu
// with no free slot. The queue-depth refusal is eviction-aware: a full
// queue refuses the arrival only when the arrival's own tenant holds the
// longest backlog — otherwise longest-queue-drop would make room for it.
func (a *admission) shedLocked(tenant string, cost float64) error {
	if err := a.sloShedLocked(tenant, cost); err != nil {
		return err
	}
	if a.maxQueue > 0 && a.queued >= a.maxQueue {
		if _, vtq := a.victimLocked(tenant); vtq == nil {
			return a.queueShedLocked(tenant)
		}
	}
	return nil
}

// sloShedLocked refuses the request when its predicted queue wait
// exceeds the configured latency SLO. Callers hold a.mu.
func (a *admission) sloShedLocked(tenant string, cost float64) error {
	wait := a.predictedWaitLocked(tenant, cost)
	if a.slo <= 0 || wait <= a.slo.Seconds() {
		return nil
	}
	retry := min(time.Duration((wait-a.slo.Seconds())*float64(time.Second)), time.Hour)
	return a.shed(tenant, shedReasonSLO, retry, "serve: predicted wait exceeds the latency SLO")
}

// queueShedLocked builds the queue-full refusal. The queue drains one
// slot's worth of work at a time, so a full queue clears in about its
// predicted backlog. Callers hold a.mu.
func (a *admission) queueShedLocked(tenant string) error {
	retry := time.Duration(a.qcost / float64(a.workers) * float64(time.Second))
	return a.shed(tenant, shedReasonQueue, retry, "serve: admission queue full")
}

// victimLocked picks the longest-queue-drop victim for a full queue
// given an arrival from the named tenant: the tenant with the largest
// live backlog, provided that backlog is strictly longer than the
// arrival's own queue would be (its current backlog plus the arrival
// itself). Returns nil when the arrival's tenant is itself the longest
// (or tied) — then the arrival is the right thing to shed. Callers hold
// a.mu.
func (a *admission) victimLocked(arriving string) (string, *tenantQueue) {
	own := 0
	if tq := a.tenants[arriving]; tq != nil {
		own = tq.live
	}
	longest := own + 1
	var name string
	var victim *tenantQueue
	for _, t := range a.order {
		if tq := a.tenants[t]; tq.live > longest {
			name, victim, longest = t, tq, tq.live
		}
	}
	return name, victim
}

// evictNewestLocked sheds the newest live waiter of the given tenant to
// make room in a full queue (longest-queue-drop): the waiter gets a
// queue-full shedError through its ready channel and leaves all
// accounting. Callers hold a.mu.
func (a *admission) evictNewestLocked(name string, tq *tenantQueue) {
	for i := len(tq.ws) - 1; i >= 0; i-- {
		w := tq.ws[i]
		if w.cancelled {
			continue
		}
		w.err = a.queueShedLocked(name)
		tq.ws = append(tq.ws[:i], tq.ws[i+1:]...)
		tq.live--
		a.queued--
		a.pending -= w.cost
		a.qcost -= w.cost
		close(w.ready)
		return
	}
}

// acquire admits one unit of work costing cost predicted seconds,
// blocking in the fair queue until a pool slot frees, the context is
// cancelled, or (when door is true) the request is shed. Jobs that
// already passed doorCheck pass door=false: they still respect the queue
// bound but are not re-priced. The returned release must be called once
// the work finishes; it is idempotent.
func (a *admission) acquire(ctx context.Context, tenant string, cost float64, door bool) (release func(), err error) {
	a.mu.Lock()
	if a.slots > 0 {
		a.slots--
		a.pending += cost
		a.mu.Unlock()
		a.met.admAdmitted.Add(1)
		a.observeWait(0, 0)
		return a.releaseFunc(cost), nil
	}
	if door {
		if err := a.sloShedLocked(tenant, cost); err != nil {
			a.mu.Unlock()
			return nil, err
		}
	}
	if a.maxQueue > 0 && a.queued >= a.maxQueue {
		// Longest-queue-drop: make room by shedding the newest waiter of
		// the most-backlogged tenant, unless that is the arrival itself.
		if name, vtq := a.victimLocked(tenant); vtq != nil {
			a.evictNewestLocked(name, vtq)
		} else {
			err := a.queueShedLocked(tenant)
			a.mu.Unlock()
			return nil, err
		}
	}
	w := &waiter{
		cost:     cost,
		pred:     a.predictedWaitLocked(tenant, cost),
		enqueued: time.Now(),
		ready:    make(chan struct{}),
	}
	tq := a.tenants[tenant]
	if tq == nil {
		tq = &tenantQueue{}
		a.tenants[tenant] = tq
		a.order = append(a.order, tenant)
	}
	tq.ws = append(tq.ws, w)
	tq.live++
	a.queued++
	a.pending += cost
	a.qcost += cost
	a.mu.Unlock()

	select {
	case <-w.ready:
		if w.err != nil {
			// Evicted by longest-queue-drop; accounting already left.
			return nil, w.err
		}
		a.met.admAdmitted.Add(1)
		a.observeWait(w.pred, time.Since(w.enqueued).Seconds())
		return a.releaseFunc(cost), nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: the slot is ours, so pass
			// it straight on instead of burning it on a dead client.
			a.mu.Unlock()
			a.releaseFunc(cost)()
			return nil, ctx.Err()
		}
		if w.err != nil {
			// The eviction raced the cancellation: accounting already left
			// with the eviction, so just report the shed.
			a.mu.Unlock()
			return nil, w.err
		}
		w.cancelled = true
		tq.live--
		a.queued--
		a.pending -= cost
		a.qcost -= cost
		a.mu.Unlock()
		a.met.admCanceled.Add(1)
		return nil, ctx.Err()
	}
}

// releaseFunc returns the idempotent slot release for one admitted unit
// of work.
func (a *admission) releaseFunc(cost float64) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.pending -= cost
			a.grantLocked()
			a.mu.Unlock()
		})
	}
}

// grantLocked hands the freed slot to the next waiter, round-robin across
// tenants with one grant per tenant per turn, or banks it when the queue
// is empty. Callers hold a.mu.
func (a *admission) grantLocked() {
	for len(a.order) > 0 {
		if a.rr >= len(a.order) {
			a.rr = 0
		}
		name := a.order[a.rr]
		tq := a.tenants[name]
		var w *waiter
		for len(tq.ws) > 0 {
			cand := tq.ws[0]
			tq.ws[0] = nil
			tq.ws = tq.ws[1:]
			if !cand.cancelled {
				w = cand
				break
			}
		}
		if len(tq.ws) == 0 {
			// Tenant drained: drop it from the rotation. The next tenant
			// shifts into a.rr, so the index is not advanced.
			a.order = append(a.order[:a.rr], a.order[a.rr+1:]...)
			delete(a.tenants, name)
		} else if w != nil {
			a.rr++
		}
		if w == nil {
			continue
		}
		w.granted = true
		tq.live--
		a.queued--
		// The slot transfers to the waiter; pending keeps carrying its
		// cost until the waiter's own release.
		a.qcost -= w.cost
		close(w.ready)
		return
	}
	a.slots++
}

// queueDepth reports the live queued waiters (for /healthz and expvars).
func (a *admission) queueDepth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued
}

// degradedWindow is how long after a shed /healthz keeps reporting
// degraded, so orchestrators polling coarser than the shed bursts still
// see them.
const degradedWindow = 10 * time.Second

// degraded reports whether the server is actively shedding load.
func (a *admission) degraded() bool {
	last := a.lastShed.Load()
	return last != 0 && time.Since(time.Unix(0, last)) <= degradedWindow
}

// shed records one refusal in the shed metrics and returns it.
func (a *admission) shed(tenant, reason string, retry time.Duration, msg string) error {
	a.lastShed.Store(time.Now().UnixNano())
	a.met.admShed.Add(1)
	switch reason {
	case shedReasonRate:
		a.met.admShedRate.Add(1)
	case shedReasonSLO:
		a.met.admShedSLO.Add(1)
	case shedReasonQueue:
		a.met.admShedQueue.Add(1)
	}
	a.met.admTenantShed.Add(tenant, 1)
	return &shedError{reason: reason, retry: retry, msg: msg}
}

// observeWait folds one admission wait into the predicted-vs-actual
// error metric (seconds in, reported as a mean in milliseconds).
func (a *admission) observeWait(pred, actual float64) {
	a.waitMu.Lock()
	a.waitErrNS += int64(math.Abs(pred-actual) * 1e9)
	a.waitObs++
	a.waitMu.Unlock()
}

// waitErrorMS reports the mean |predicted - actual| admission wait in
// milliseconds.
func (a *admission) waitErrorMS() float64 {
	a.waitMu.Lock()
	defer a.waitMu.Unlock()
	if a.waitObs == 0 {
		return 0
	}
	return float64(a.waitErrNS) / float64(a.waitObs) / 1e6
}
