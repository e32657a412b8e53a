package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gio"
	"repro/internal/grid"
)

// routes builds the endpoint table. Method dispatch is explicit (not mux
// method patterns) so the package works under the module's go directive.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/datasets", s.handleDatasets)
	mux.HandleFunc("/v1/datasets/", s.handleDatasetSub) // {id}/events, {id}/advance
	mux.HandleFunc("/v1/streams", s.handleStreams)
	mux.HandleFunc("/v1/estimate", s.handleEstimate)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/region", s.handleRegion)
	mux.HandleFunc("/v1/hotspots", s.handleHotspots)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/debug/vars", s.handleVars)
	return mux
}

// writeJSON answers v as compact JSON, one line: no indentation pass over
// every answer (clients that want it pretty pipe it through jq).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// errorJSON is the wire shape of every error answer. A 503 rank refusal
// adds the rank and protocol phase, a 429 shed its reason, and both the
// seconds of their Retry-After header.
type errorJSON struct {
	Error      string `json:"error"`
	Phase      string `json:"phase,omitempty"`
	Rank       *int   `json:"rank,omitempty"`
	Reason     string `json:"reason,omitempty"`
	RetryAfter int    `json:"retry_after_s,omitempty"`
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// writeBodyErr writes a request-body failure: 413 Request Entity Too Large
// when the body ran past Config.MaxBodyBytes, 400 Bad Request otherwise.
func writeBodyErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeErr(w, code, "%v", err)
}

// writeWorkErr writes a work-admission or estimation failure: shed
// refusals become 429 Too Many Requests with a Retry-After header derived
// from the prediction, everything else falls through to ensureStatus.
func writeWorkErr(w http.ResponseWriter, err error) {
	var shed *shedError
	if errors.As(err, &shed) {
		w.Header().Set("Retry-After", strconv.Itoa(shed.retrySeconds()))
		writeJSON(w, http.StatusTooManyRequests, errorJSON{
			Error: shed.Error(), Reason: shed.reason, RetryAfter: shed.retrySeconds(),
		})
		return
	}
	writeErr(w, ensureStatus(err), "%v", err)
}

// writeStreamErr writes a stream-operation failure. A refusal attributed
// to a rank is 503 Service Unavailable with a short Retry-After, because
// the cluster's health monitor heals failed ranks on its own — the client
// should retry the same request, not route around it. The rank and
// protocol phase are surfaced so a multi-rank incident is diagnosable from
// the response alone. Anything else gets the given fallback status.
func writeStreamErr(w http.ResponseWriter, fallback int, err error) {
	var re *dist.RankError
	if !errors.As(err, &re) {
		writeErr(w, fallback, "%v", err)
		return
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: err.Error(), Phase: re.Phase, Rank: &re.Rank, RetryAfter: 1})
}

// admitTenant applies the per-tenant sliding-window rate limits to one
// work-admitting request, writing the 429 itself on refusal. The tenant
// (X-Tenant header, "default" otherwise) is returned for the deeper
// admission layers.
func (s *Server) admitTenant(w http.ResponseWriter, r *http.Request) (string, bool) {
	tenant := tenantOf(r)
	if err := s.adm.allowRate(tenant); err != nil {
		writeWorkErr(w, err)
		return tenant, false
	}
	return tenant, true
}

// domainJSON is the wire shape of a grid.Domain.
type domainJSON struct {
	X0 float64 `json:"x0"`
	Y0 float64 `json:"y0"`
	T0 float64 `json:"t0"`
	GX float64 `json:"gx"`
	GY float64 `json:"gy"`
	GT float64 `json:"gt"`
}

func (d domainJSON) domain() grid.Domain {
	return grid.Domain{X0: d.X0, Y0: d.Y0, T0: d.T0, GX: d.GX, GY: d.GY, GT: d.GT}
}

// datasetJSON is the wire shape of a registered dataset.
type datasetJSON struct {
	Dataset string     `json:"dataset"`
	Stream  bool       `json:"stream,omitempty"`
	Points  int        `json:"points"`
	Bounds  domainJSON `json:"bounds"`
	Added   time.Time  `json:"added"`
}

func toDatasetJSON(ds *dataset) datasetJSON {
	lo, hi, n := ds.boundsBox()
	out := datasetJSON{
		Dataset: ds.id,
		Stream:  ds.st != nil,
		Points:  n,
		Added:   ds.added,
	}
	if out.Points > 0 {
		out.Bounds = domainJSON{X0: lo.X, Y0: lo.Y, T0: lo.T,
			GX: hi.X - lo.X, GY: hi.Y - lo.Y, GT: hi.T - lo.T}
	}
	return out
}

// readEvents reads the CSV event body of POST /v1/datasets and of a
// stream's /events, refusing an empty one and non-finite coordinates:
// strconv.ParseFloat accepts "NaN"/"Inf", and one NaN event would poison
// every density derived from the dataset (and, for a stream, the
// long-lived window ring itself — compaction re-applies it, so drift
// control could never heal it). what names the body in the empty error.
func readEvents(r *http.Request, what string) ([]grid.Point, error) {
	pts, err := gio.ReadPoints(r.Body)
	if err != nil {
		return nil, fmt.Errorf("parse CSV body: %w", err)
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("%s has no events", what)
	}
	for i, p := range pts {
		for _, v := range [3]float64{p.X, p.Y, p.T} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("event %d has a non-finite coordinate (%g, %g, %g)", i, p.X, p.Y, p.T)
			}
		}
	}
	return pts, nil
}

// handleDatasets ingests a CSV event set (POST) or lists the registry
// (GET). Ingestion is idempotent: re-uploading the same content returns
// the same content-addressed id with 200 instead of 201.
func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		if _, ok := s.admitTenant(w, r); !ok {
			return
		}
		pts, err := readEvents(r, "dataset")
		if err != nil {
			writeBodyErr(w, err)
			return
		}
		ds, created := s.addDataset(pts)
		code := http.StatusOK
		if created {
			code = http.StatusCreated
		}
		writeJSON(w, code, toDatasetJSON(ds))
	case http.MethodGet:
		sets := s.reg.list()
		out := make([]datasetJSON, 0, len(sets))
		for _, ds := range sets {
			out = append(out, toDatasetJSON(ds))
		}
		writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
	default:
		writeErr(w, http.StatusMethodNotAllowed, "use POST (ingest CSV) or GET (list)")
	}
}

// estimateRequest is the JSON body of POST /v1/estimate.
type estimateRequest struct {
	Dataset   string      `json:"dataset"`
	Algorithm string      `json:"algorithm,omitempty"`
	SRes      float64     `json:"sres"`
	TRes      float64     `json:"tres"`
	HS        float64     `json:"hs"`
	HT        float64     `json:"ht"`
	Domain    *domainJSON `json:"domain,omitempty"`
}

// resolveKey turns request parameters into the canonical cache key. When
// the domain is omitted it defaults to the dataset's bounding box padded
// by one bandwidth (deterministically, so omitting it on every request
// still hits the same cached grid).
func (s *Server) resolveKey(datasetID, algorithm string, sres, tres, hs, ht float64, dom *grid.Domain) (estimateKey, *dataset, error) {
	ds, ok := s.reg.get(datasetID)
	if !ok {
		return estimateKey{}, nil, fmt.Errorf("unknown dataset %q", datasetID)
	}
	if algorithm == "" {
		algorithm = s.cfg.DefaultAlgorithm
	}
	if !core.ValidAlgorithm(algorithm) {
		return estimateKey{}, nil, fmt.Errorf("unknown algorithm %q (known: %s)",
			algorithm, strings.Join(core.Algorithms(), ", "))
	}
	st := ds.st
	d := grid.Domain{}
	if dom != nil {
		d = *dom
	} else if st != nil {
		// A stream's natural domain is its creation window, not the
		// (possibly empty, always shifting) event bounding box.
		d = st.base.Domain
	} else {
		if hs <= 0 || ht <= 0 {
			return estimateKey{}, nil, fmt.Errorf("hs and ht must be positive, got hs=%g ht=%g", hs, ht)
		}
		d = ds.defaultDomain(hs, ht)
	}
	spec, err := grid.NewSpec(d, sres, tres, hs, ht)
	if err == nil {
		err = s.checkGridBytes(spec)
	}
	if err != nil {
		return estimateKey{}, nil, err
	}
	// A request matching a stream's creation spec resolves to the live
	// window sub-spec (OT follows every advance), so clients keep naming
	// the stream by its creation parameters while the window slides — and
	// the cache key distinguishes window positions for free. A stream key
	// also carries the dataset version: see estimateKey.
	var ver int64
	if st != nil {
		spec, ver = st.resolve(spec)
	}
	return estimateKey{Dataset: ds.id, Version: ver, Spec: spec, Algorithm: algorithm}, ds, nil
}

// checkGridBytes rejects specs whose grid exceeds the per-request limit.
// The size is computed in float arithmetic: Spec.Bytes() is int64 and a
// hostile request can overflow it past the guard (2^61 voxels wraps to 0
// bytes), panicking the allocation instead of failing here.
func (s *Server) checkGridBytes(spec grid.Spec) error {
	if bytes := float64(spec.Gx) * float64(spec.Gy) * float64(spec.Gt) * 8; bytes > float64(s.cfg.MaxGridBytes) {
		return fmt.Errorf("derived grid %dx%dx%d needs %.0f bytes, over the %d-byte per-request limit; coarsen sres/tres or shrink the domain",
			spec.Gx, spec.Gy, spec.Gt, bytes, s.cfg.MaxGridBytes)
	}
	return nil
}

// handleEstimate launches (or joins) an asynchronous estimation job and
// returns its handle; poll GET /v1/jobs/{id} until state is "done". A
// request whose grid is already resident completes synchronously.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "use POST with a JSON body")
		return
	}
	tenant, ok := s.admitTenant(w, r)
	if !ok {
		return
	}
	var req estimateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeBodyErr(w, fmt.Errorf("parse JSON body: %w", err))
		return
	}
	var dom *grid.Domain
	if req.Domain != nil {
		d := req.Domain.domain()
		dom = &d
	}
	k, _, err := s.resolveKey(req.Dataset, req.Algorithm, req.SRes, req.TRes, req.HS, req.HT, dom)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.startJob(k, tenant)
	if err != nil {
		writeWorkErr(w, err)
		return
	}
	snap := j.snapshot()
	code := http.StatusAccepted
	if snap.State != jobRunning {
		code = http.StatusOK
	}
	writeJSON(w, code, snap)
}

// handleJob reports the status of one estimation job.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	j, ok := s.jobs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// floatParam parses one required float query parameter.
func floatParam(q url.Values, name string) (float64, error) {
	v := q.Get(name)
	if v == "" {
		return 0, fmt.Errorf("missing required parameter %q", name)
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: %v", name, v, err)
	}
	return f, nil
}

// queryParams parses the spec-defining parameters shared by the GET
// endpoints and resolves them to a cache key. The domain is explicit when
// x0 or gx is given, and then needs all six of its parameters.
func (s *Server) queryParams(q url.Values) (estimateKey, *dataset, error) {
	var sres, tres, hs, ht float64
	var d grid.Domain
	params := [...]struct {
		name string
		dst  *float64
	}{{"sres", &sres}, {"tres", &tres}, {"hs", &hs}, {"ht", &ht},
		{"x0", &d.X0}, {"y0", &d.Y0}, {"t0", &d.T0}, {"gx", &d.GX}, {"gy", &d.GY}, {"gt", &d.GT}}
	n, dom := 4, (*grid.Domain)(nil)
	if q.Get("x0") != "" || q.Get("gx") != "" {
		n, dom = len(params), &d
	}
	for _, f := range params[:n] {
		var err error
		if *f.dst, err = floatParam(q, f.name); err != nil {
			return estimateKey{}, nil, err
		}
	}
	return s.resolveKey(q.Get("dataset"), q.Get("algorithm"), sres, tres, hs, ht, dom)
}

// coverageJSON is the coverage of a window answer's read; cube answers
// carry none.
type coverageJSON struct {
	Coverage float64 `json:"coverage"`
	Degraded bool    `json:"degraded"`
}

// readFrom tags an answer with the view serveRead found for it: source
// names the view ("stream", "sketch" or "grid"), cached reports a cube
// already resident, and live a stream's window, whose answers carry the
// coverage of their read.
type readFrom struct {
	source       string
	cached, live bool
}

// coverage returns an answer's coverage fields for a read at cov: nil,
// and so absent from the wire, unless the view is a live window.
func (f readFrom) coverage(cov dist.Coverage) *coverageJSON {
	if !f.live {
		return nil
	}
	return &coverageJSON{Coverage: cov.Fraction(), Degraded: cov.Degraded()}
}

// readFunc is one endpoint's read: its typed answer from a view, tagged
// by from. The answer is void when the error is not nil; a nil answer with
// a nil error declines (see readWindow).
type readFunc func(v readView, from readFrom) (any, error)

// readPlan is one GET analytics read as its endpoint parsed it from its
// own parameters; serveRead runs the rest.
type readPlan struct {
	read readFunc
	// window reports whether a stream's live window may answer: always
	// for a sketch read, for a point query only inside the window.
	window bool
	// static answers a point query no window answered (from a resident
	// cube through read, else exactly); nil for a sketch read (region,
	// hotspots), which reads the dataset's cube, computing it if absent.
	static func(ctx context.Context, w http.ResponseWriter)
}

// serveRead is the one pipeline of the GET analytics endpoints /v1/query,
// /v1/region and /v1/hotspots: method check, tenant rate limit, spec
// resolution, the endpoint's own parameters (plan), then the endpoint's
// read of the live window (readWindow, which refuses a sharded window's
// failure with the attributed rank) when the dataset is a stream whose
// current window the spec names, else of the dataset's cube. A sketch read
// computes the cube (through the coalescing and pool layers) when it is not
// resident, and answers from its summed-volume pyramid (source "sketch")
// unless the pyramid did not fit the budget, when the grid scan answers
// (source "grid").
func (s *Server) serveRead(w http.ResponseWriter, r *http.Request, plan func(k estimateKey, q url.Values) (readPlan, error)) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	tenant, ok := s.admitTenant(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	k, ds, err := s.queryParams(q)
	var p readPlan
	if err == nil {
		p, err = plan(k, q)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	sketch := p.static == nil
	if st := ds.st; st != nil && p.window {
		answer, err := s.readWindow(st, k.Spec, sketch, p.read)
		if err != nil {
			writeStreamErr(w, http.StatusServiceUnavailable, err)
			return
		}
		if answer != nil {
			writeJSON(w, http.StatusOK, answer)
			return
		}
	}
	if !sketch {
		p.static(r.Context(), w)
		return
	}
	c, cached, err := s.ensureGrid(r.Context(), k, tenant, false)
	if err != nil {
		writeWorkErr(w, err)
		return
	}
	from := readFrom{source: "grid", cached: cached}
	if c.py != nil {
		from.source = "sketch"
		s.met.sketchHits.Add(1)
	}
	answer, _ := p.read(cubeView{c}, from) // a cube read cannot fail
	writeJSON(w, http.StatusOK, answer)
}

// queryJSON is the wire shape of a point query answered from a view; a
// window answer adds its coverage and the window's time range [t0, t1).
type queryJSON struct {
	Center [3]float64 `json:"center"`
	*coverageJSON
	Density float64     `json:"density"`
	Source  string      `json:"source"`
	Voxel   [3]int      `json:"voxel"`
	Window  *[2]float64 `json:"window,omitempty"`
}

// exactJSON is the wire shape of a point query answered by the exact
// evaluator.
type exactJSON struct {
	Density float64 `json:"density"`
	Source  string  `json:"source"`
}

// handleQuery answers a density query at a continuous (x, y, t) location:
// from a live window's ring when the location falls inside the stream's
// current window (source "stream"; always fresh, no cache, no estimation),
// by an O(1) voxel lookup when the grid for (dataset, spec, algorithm) is
// resident (source "grid"), and otherwise — or with exact=1 — by the exact
// core.Query evaluation (source "exact"), never triggering an estimation.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.serveRead(w, r, func(k estimateKey, q url.Values) (p readPlan, err error) {
		var at grid.Point
		for _, f := range [...]struct {
			name string
			dst  *float64
		}{{"x", &at.X}, {"y", &at.Y}, {"t", &at.T}} {
			if *f.dst, err = floatParam(q, f.name); err != nil {
				return p, err
			}
		}
		d := k.Spec.Domain
		exact := q.Get("exact") == "1" || q.Get("exact") == "true"
		// The window's own coverage check: its time range has outrun the
		// creation domain after advances. Inclusion form, so a NaN
		// coordinate fails the guard instead of slipping past two exclusion
		// comparisons (CoversT likewise rejects NaN t).
		p.window = !exact && at.X >= d.X0 && at.X < d.X0+d.GX && at.Y >= d.Y0 && at.Y < d.Y0+d.GY && k.Spec.CoversT(at.T)
		p.read = func(v readView, from readFrom) (any, error) {
			sp := v.Spec()
			// CoversT holds, so VoxelOf's clamped layer is the true layer.
			X, Y, T := sp.VoxelOf(at)
			density, cov, err := v.AtCov(X, Y, T)
			if err != nil {
				// A rank refusal (fail-fast policy) is surfaced: the exact
				// evaluator would serve a full-coverage answer from the
				// coordinator's log. Anything else leaves the answer to it.
				var re *dist.RankError
				if !errors.As(err, &re) {
					err = nil
				}
				return nil, err
			}
			a := queryJSON{Center: [3]float64{sp.CenterX(X), sp.CenterY(Y), sp.CenterT(T)},
				coverageJSON: from.coverage(cov), Density: density, Source: from.source, Voxel: [3]int{X, Y, T}}
			if from.live {
				t0 := sp.Domain.T0 + float64(sp.OT)*sp.TRes
				a.Window = &[2]float64{t0, t0 + float64(sp.Gt)*sp.TRes}
			}
			return a, nil
		}
		p.static = func(ctx context.Context, w http.ResponseWriter) {
			// Out-of-domain locations bypass the grid: VoxelOf would clamp
			// them to an edge voxel and report its (wrong, possibly large)
			// density, while the exact evaluator correctly decays to zero.
			// The window guard's CoversT still applies: an advanced stream
			// window's cached snapshot no longer covers creation-domain
			// times the window left behind (Domain.Contains cannot see the
			// OT frame offset). Contains adds the domain's own time range,
			// which a last layer past a ragged GT overruns.
			if p.window && d.Contains(at) {
				if c, ok := s.cache.get(k); ok {
					s.met.cacheHits.Add(1)
					answer, _ := p.read(cubeView{c}, readFrom{source: "grid"})
					writeJSON(w, http.StatusOK, answer)
					return
				}
				s.met.cacheMisses.Add(1)
			}
			idx, err := s.queryIndex(ctx, k)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "%v", err)
				return
			}
			writeJSON(w, http.StatusOK, exactJSON{Density: idx.At(at.X, at.Y, at.T), Source: "exact"})
		}
		return p, nil
	})
}

// regionJSON is the wire shape of a region answer; a window answer adds
// its coverage.
type regionJSON struct {
	Box    [6]int `json:"box"`
	Cached bool   `json:"cached"`
	*coverageJSON
	Mass   float64 `json:"mass"`
	Source string  `json:"source"`
	Voxels int     `json:"voxels"`
}

// handleRegion integrates the density over a voxel box (bx0..bt1, the
// whole grid by default): the estimated probability mass of a space-time
// region, from a live window's incremental sketch or the dataset's cube
// (see serveRead).
func (s *Server) handleRegion(w http.ResponseWriter, r *http.Request) {
	s.serveRead(w, r, func(k estimateKey, q url.Values) (readPlan, error) {
		box := k.Spec.Bounds()
		for _, f := range [...]struct {
			name string
			dst  *int
		}{{"bx0", &box.X0}, {"bx1", &box.X1}, {"by0", &box.Y0}, {"by1", &box.Y1}, {"bt0", &box.T0}, {"bt1", &box.T1}} {
			if v := q.Get(f.name); v != "" {
				var err error
				if *f.dst, err = strconv.Atoi(v); err != nil {
					return readPlan{}, fmt.Errorf("bad %s=%q: %v", f.name, v, err)
				}
			}
		}
		c := box.Clip(k.Spec.Bounds())
		return readPlan{window: true, read: func(v readView, from readFrom) (any, error) {
			mass, cov, err := v.BoxMassCov(box)
			return regionJSON{Box: [6]int{c.X0, c.X1, c.Y0, c.Y1, c.T0, c.T1}, Cached: from.cached,
				coverageJSON: from.coverage(cov), Mass: mass, Source: from.source, Voxels: c.Count()}, err
		}}, nil
	})
}

// hotspotJSON is the wire shape of one hotspot voxel.
type hotspotJSON struct {
	Voxel   [3]int     `json:"voxel"`
	Center  [3]float64 `json:"center"`
	Density float64    `json:"density"`
}

// hotspotsJSON is the wire shape of a hotspot answer; a window answer adds
// its coverage.
type hotspotsJSON struct {
	Cached bool `json:"cached"`
	*coverageJSON
	Hotspots []hotspotJSON `json:"hotspots"`
	Source   string        `json:"source"`
}

// maxHotspots bounds a hotspot read's k. The selector and the answer grow
// with k, so an unbounded k lets one GET select, encode and send every
// voxel of the grid.
const maxHotspots = 10000

// handleHotspots reports the k highest-density voxels (k=10 by default,
// at most maxHotspots), from a live window's incremental sketch
// (best-first block scan) or the dataset's cube (see serveRead).
func (s *Server) handleHotspots(w http.ResponseWriter, r *http.Request) {
	s.serveRead(w, r, func(_ estimateKey, q url.Values) (readPlan, error) {
		topK := 10
		if v := q.Get("k"); v != "" {
			var err error
			if topK, err = strconv.Atoi(v); err != nil || topK < 1 || topK > maxHotspots {
				return readPlan{}, fmt.Errorf("bad k=%q: want an integer from 1 to %d", v, maxHotspots)
			}
		}
		return readPlan{window: true, read: func(v readView, from readFrom) (any, error) {
			top, cov, err := v.TopKCov(topK)
			sp := v.Spec()
			out := make([]hotspotJSON, 0, len(top))
			for _, h := range top {
				out = append(out, hotspotJSON{
					Voxel:   [3]int{h.X, h.Y, h.T},
					Center:  [3]float64{sp.CenterX(h.X), sp.CenterY(h.Y), sp.CenterT(h.T)},
					Density: h.V,
				})
			}
			return hotspotsJSON{Cached: from.cached, coverageJSON: from.coverage(cov), Hotspots: out, Source: from.source}, err
		}}, nil
	})
}

// streamJSON is the wire shape of a live stream dataset.
type streamJSON struct {
	Dataset string `json:"dataset"`
	Stream  bool   `json:"stream"`
	Points  int    `json:"points"`
	Added   int    `json:"added,omitempty"`
	// Advanced and Expired are always present (no omitempty): a client
	// counting dropped events must see an explicit 0 on a no-op advance.
	Advanced int        `json:"advanced_layers"`
	Expired  int        `json:"expired"`
	Window   [2]float64 `json:"window"` // continuous time range [t0, t1)
	Grid     [3]int     `json:"grid"`
	Version  int64      `json:"version"`
	// Degraded and Coverage appear exactly when a sharded mutation
	// committed with a rank down: the mutation is durable on the
	// coordinator and reached Coverage (< 1) of the ranks; the rest catch
	// up by replay when they heal.
	Degraded bool    `json:"degraded,omitempty"`
	Coverage float64 `json:"coverage,omitempty"`
}

func (s *Server) toStreamJSON(st *stream) streamJSON {
	t0, t1 := st.window()
	sp := st.base
	return streamJSON{
		Dataset: st.id,
		Stream:  true,
		Points:  st.ds.size(),
		Window:  [2]float64{t0, t1},
		Grid:    [3]int{sp.Gx, sp.Gy, sp.Gt},
		Version: st.ds.ver(),
	}
}

// streamRequest is the JSON body of POST /v1/streams: the window spec the
// live grid is maintained on. The domain's temporal extent is the window
// length; the window slides forward from there with /advance.
type streamRequest struct {
	SRes   float64     `json:"sres"`
	TRes   float64     `json:"tres"`
	HS     float64     `json:"hs"`
	HT     float64     `json:"ht"`
	Domain *domainJSON `json:"domain"`
}

// handleStreams creates a live stream dataset (POST) or lists the live
// streams (GET).
func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		if _, ok := s.admitTenant(w, r); !ok {
			return
		}
		var req streamRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeBodyErr(w, fmt.Errorf("parse JSON body: %w", err))
			return
		}
		if req.Domain == nil {
			writeErr(w, http.StatusBadRequest, "a stream needs an explicit domain (its temporal extent is the window length)")
			return
		}
		spec, err := grid.NewSpec(req.Domain.domain(), req.SRes, req.TRes, req.HS, req.HT)
		if err == nil {
			err = s.checkGridBytes(spec)
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		st, err := s.createStream(spec)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, grid.ErrMemoryBudget) {
				code = http.StatusInsufficientStorage
			}
			writeErr(w, code, "%v", err)
			return
		}
		writeJSON(w, http.StatusCreated, s.toStreamJSON(st))
	case http.MethodGet:
		streams := s.streams.list()
		out := make([]streamJSON, 0, len(streams))
		for _, st := range streams {
			out = append(out, s.toStreamJSON(st))
		}
		writeJSON(w, http.StatusOK, map[string]any{"streams": out})
	default:
		writeErr(w, http.StatusMethodNotAllowed, "use POST (create) or GET (list)")
	}
}

// handleDatasetSub dispatches the per-dataset mutation endpoints:
// POST /v1/datasets/{id}/events, POST /v1/datasets/{id}/advance, and
// DELETE /v1/datasets/{id} (streams only).
func (s *Server) handleDatasetSub(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/datasets/")
	id, action, hasAction := strings.Cut(rest, "/")
	wantMethod := http.MethodPost
	if !hasAction {
		if r.Method != http.MethodDelete {
			writeErr(w, http.StatusNotFound, "unknown path %q: use /v1/datasets/{id}/events, /v1/datasets/{id}/advance, or DELETE /v1/datasets/{id}", r.URL.Path)
			return
		}
		wantMethod = http.MethodDelete
	}
	if r.Method != wantMethod {
		writeErr(w, http.StatusMethodNotAllowed, "use %s", wantMethod)
		return
	}
	ds, ok := s.reg.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown stream %q", id)
		return
	}
	st := ds.st
	if st == nil {
		writeErr(w, http.StatusConflict, "dataset %q is immutable (content-addressed); create a mutable dataset with POST /v1/streams", id)
		return
	}
	if !hasAction { // DELETE /v1/datasets/{id}
		s.deleteStream(st)
		w.WriteHeader(http.StatusNoContent)
		return
	}
	// Stream mutations are work-admitting (they hold the window lock and
	// apply kernel cylinders — on a sharded stream, the coordinator's
	// carve-and-fan runs here too), so they pass through the same tenant
	// rate limits and priced pool admission as estimations.
	tenant, ok := s.admitTenant(w, r)
	if !ok {
		return
	}
	switch action {
	case "events":
		pts, err := readEvents(r, "ingest")
		if err != nil {
			writeBodyErr(w, err)
			return
		}
		release, err := s.adm.acquire(r.Context(), tenant, s.mach.IngestSeconds(st.base, len(pts)), true)
		if err != nil {
			writeWorkErr(w, err)
			return
		}
		total, cov, err := s.streamIngest(st, pts)
		release()
		if err != nil {
			writeStreamErr(w, http.StatusNotFound, err)
			return
		}
		out := s.toStreamJSON(st)
		out.Added = len(pts)
		out.Points = total
		if cov.Degraded() {
			out.Degraded = true
			out.Coverage = cov.Fraction()
		}
		writeJSON(w, http.StatusOK, out)
	case "advance":
		var req struct {
			T *float64 `json:"t"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeBodyErr(w, fmt.Errorf("parse JSON body: %w", err))
			return
		}
		if req.T == nil {
			writeErr(w, http.StatusBadRequest, `body must carry the target time, e.g. {"t": 120.5}`)
			return
		}
		if math.IsNaN(*req.T) || math.IsInf(*req.T, 0) {
			writeErr(w, http.StatusBadRequest, "t must be a finite time, got %g", *req.T)
			return
		}
		release, err := s.adm.acquire(r.Context(), tenant, s.mach.AdvanceSeconds(st.base), true)
		if err != nil {
			writeWorkErr(w, err)
			return
		}
		advanced, expired, cov, err := s.streamAdvance(st, *req.T)
		release()
		if err != nil {
			writeStreamErr(w, http.StatusNotFound, err)
			return
		}
		out := s.toStreamJSON(st)
		out.Advanced = advanced
		out.Expired = expired
		if cov.Degraded() {
			out.Degraded = true
			out.Coverage = cov.Fraction()
		}
		writeJSON(w, http.StatusOK, out)
	default:
		writeErr(w, http.StatusNotFound, "unknown action %q: use events or advance", action)
	}
}

// ensureStatus maps an ensureGrid failure to its HTTP status. A context
// cancellation means the client already left (it abandoned the admission
// queue with its slot unclaimed), so the status is a formality.
func ensureStatus(err error) int {
	if errors.Is(err, errShuttingDown) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// handleHealth is the liveness endpoint. Beyond liveness it reports the
// admission state — queue depth, shed counts, and a degraded flag while
// the server is actively shedding — so an orchestrator can route traffic
// around hot replicas before they start refusing it. On a sharded server
// the response carries a "shard" section with the per-rank health
// machine states and heal count; a down rank marks the whole replica
// degraded, since every sharded answer it gives is partial.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	entries, bytes, limit := s.cache.stats()
	degraded := s.adm.degraded()
	resp := map[string]any{
		"uptime_s":          time.Since(s.start).Seconds(),
		"datasets":          s.reg.count(),
		"streams":           s.streams.count(),
		"cache_entries":     entries,
		"cache_bytes":       bytes,
		"cache_limit_bytes": limit,
		"queue_depth":       s.adm.queueDepth(),
		"admitted":          s.met.admAdmitted.Value(),
		"shed":              s.met.admShed.Value(),
	}
	// Read the already-connected cluster without triggering a lazy dial:
	// liveness must not block on peers.
	s.shardMu.Lock()
	cl := s.shardCl
	s.shardMu.Unlock()
	if cl != nil {
		health := cl.Health()
		down := 0
		for _, h := range health {
			if h.State != dist.RankUp.String() {
				down++
			}
		}
		if down > 0 {
			degraded = true
		}
		resp["shard"] = map[string]any{
			"ranks":        len(health),
			"down":         down,
			"heals":        cl.Heals(),
			"ranks_health": health,
		}
	}
	status := "ok"
	if degraded {
		status = "degraded"
	}
	resp["status"] = status
	resp["degraded"] = degraded
	writeJSON(w, http.StatusOK, resp)
}

// handleVars renders the server's private expvar map in the standard
// /debug/vars JSON shape.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, s.met.m.String())
}
