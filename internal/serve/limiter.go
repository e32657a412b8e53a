package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// RateWindow is one sliding-window rate limit: at most Limit admitted
// requests per Per. A limiter evaluates several windows together (e.g.
// 50/s + 600/min + 10000/hour), so short bursts and sustained abuse are
// bounded independently.
type RateWindow struct {
	Limit int
	Per   time.Duration
}

// ParseRateWindows parses the -tenant-rate flag syntax: comma-separated
// "limit/interval" terms where interval is s, m, h, or any Go duration
// ("50/s,600/m,10000/h", "20/30s").
func ParseRateWindows(s string) ([]RateWindow, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []RateWindow
	for _, term := range strings.Split(s, ",") {
		limit, per, ok := strings.Cut(strings.TrimSpace(term), "/")
		if !ok {
			return nil, fmt.Errorf("bad rate %q: want limit/interval, e.g. 50/s", term)
		}
		n, err := strconv.Atoi(limit)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad rate %q: limit must be a positive integer", term)
		}
		var d time.Duration
		switch per {
		case "s", "sec", "second":
			d = time.Second
		case "m", "min", "minute":
			d = time.Minute
		case "h", "hour":
			d = time.Hour
		default:
			if d, err = time.ParseDuration(per); err != nil || d <= 0 {
				return nil, fmt.Errorf("bad rate %q: interval must be s, m, h, or a positive duration", term)
			}
		}
		out = append(out, RateWindow{Limit: n, Per: d})
	}
	return out, nil
}

// rateBuckets is the ring size of one window's counters. The sliding
// window is approximated at bucket granularity (Per/rateBuckets): an
// event recorded in bucket bt still counts at bucket bn iff
// bn-bt < rateBuckets. That crisp contract is what the property test
// checks against a naive timestamp-list reference.
const rateBuckets = 8

// ringWindow tracks one tenant's admitted requests against one RateWindow
// with a fixed ring of bucket counters — constant memory per (tenant,
// window) no matter the request rate.
type ringWindow struct {
	limit  int
	bucket int64 // bucket width in nanoseconds
	head   int64 // newest bucket index accounted for
	counts [rateBuckets]int
	total  int // sum of counts (live events in the window)
}

func newRingWindow(rw RateWindow) ringWindow {
	return ringWindow{limit: rw.Limit, bucket: max(1, rw.Per.Nanoseconds()/rateBuckets)}
}

// sync rolls the ring forward to the bucket containing now, expiring
// buckets that left the window.
func (w *ringWindow) sync(now int64) {
	cur := now / w.bucket
	if cur <= w.head {
		return
	}
	if cur-w.head >= rateBuckets {
		w.counts = [rateBuckets]int{}
		w.total = 0
	} else {
		for b := w.head + 1; b <= cur; b++ {
			i := int(b % rateBuckets)
			w.total -= w.counts[i]
			w.counts[i] = 0
		}
	}
	w.head = cur
}

func (w *ringWindow) over(now int64) bool {
	w.sync(now)
	return w.total >= w.limit
}

func (w *ringWindow) record(now int64) {
	w.sync(now)
	w.counts[int(w.head%rateBuckets)]++
	w.total++
}

// retryAfter reports how long until enough of the counted window expires
// that one more request could be admitted (assuming no further arrivals).
func (w *ringWindow) retryAfter(now int64) time.Duration {
	w.sync(now)
	need := w.total - w.limit + 1
	freed := 0
	for off := rateBuckets - 1; off >= 0; off-- {
		b := w.head - int64(off)
		if b < 0 {
			continue
		}
		freed += w.counts[int(b%rateBuckets)]
		if freed >= need {
			// Bucket b leaves the window when the head reaches
			// b+rateBuckets, i.e. at time (b+rateBuckets)*bucket.
			if d := time.Duration((b+rateBuckets)*w.bucket - now); d > 0 {
				return d
			}
			return time.Duration(w.bucket)
		}
	}
	return time.Duration(w.bucket) * rateBuckets
}

// maxTrackedTenants bounds the limiter's tenant map; past it, tenants
// idle longer than every window are swept so a client cycling tenant
// names cannot grow server memory without limit.
const maxTrackedTenants = 4096

// limiter applies a shared set of RateWindows independently per tenant.
// Rejected requests are not recorded — a tenant hammering a full window
// does not push its own recovery time further out.
type limiter struct {
	windows []RateWindow

	mu      sync.Mutex
	tenants map[string]*tenantWindows
	longest time.Duration // widest window, for idle GC
}

type tenantWindows struct {
	ws       []ringWindow
	lastSeen int64
}

func newLimiter(windows []RateWindow) *limiter {
	l := &limiter{windows: windows, tenants: map[string]*tenantWindows{}}
	for _, w := range windows {
		if w.Per > l.longest {
			l.longest = w.Per
		}
	}
	return l
}

// allow decides one request for the tenant at time now. It returns
// ok=true (recording the request in every window) or ok=false with the
// time after which a retry could succeed.
func (l *limiter) allow(tenant string, now time.Time) (time.Duration, bool) {
	if l == nil || len(l.windows) == 0 {
		return 0, true
	}
	ns := now.UnixNano()
	l.mu.Lock()
	defer l.mu.Unlock()
	tw, ok := l.tenants[tenant]
	if !ok {
		if len(l.tenants) >= maxTrackedTenants {
			l.gcLocked(ns)
		}
		tw = &tenantWindows{ws: make([]ringWindow, len(l.windows))}
		for i, w := range l.windows {
			tw.ws[i] = newRingWindow(w)
		}
		l.tenants[tenant] = tw
	}
	tw.lastSeen = ns
	var retry time.Duration
	for i := range tw.ws {
		if tw.ws[i].over(ns) {
			if d := tw.ws[i].retryAfter(ns); d > retry {
				retry = d
			}
		}
	}
	if retry > 0 {
		return retry, false
	}
	for i := range tw.ws {
		tw.ws[i].record(ns)
	}
	return 0, true
}

// gcLocked sweeps tenants whose last request is older than the widest
// window (their rings are empty by construction).
func (l *limiter) gcLocked(now int64) {
	cutoff := now - l.longest.Nanoseconds()
	for name, tw := range l.tenants {
		if tw.lastSeen < cutoff {
			delete(l.tenants, name)
		}
	}
}
