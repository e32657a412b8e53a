package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeWorkErr writes a work-admission or estimation failure: shed
// refusals become 429 Too Many Requests with a Retry-After header derived
// from the prediction, everything else falls through to ensureStatus.
func writeWorkErr(w http.ResponseWriter, err error) {
	var shed *shedError
	if errors.As(err, &shed) {
		w.Header().Set("Retry-After", strconv.Itoa(shed.retrySeconds()))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":         shed.Error(),
			"reason":        shed.reason,
			"retry_after_s": shed.retrySeconds(),
		})
		return
	}
	writeErr(w, ensureStatus(err), "%v", err)
}

// writeRankErr writes a sharded-stream refusal attributed to a rank: 503
// Service Unavailable with a short Retry-After, because the cluster's
// health monitor heals failed ranks on its own — the client should retry
// the same request, not route around it. The rank and protocol phase are
// surfaced so a multi-rank incident is diagnosable from the response
// alone. Returns false (writing nothing) when err carries no RankError.
func writeRankErr(w http.ResponseWriter, err error) bool {
	var re *dist.RankError
	if !errors.As(err, &re) {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":         err.Error(),
		"rank":          re.Rank,
		"phase":         re.Phase,
		"retry_after_s": 1,
	})
	return true
}

// writeStreamErr routes a stream-operation failure: rank-attributed
// refusals get the retryable 503 shape, anything else the given fallback
// status.
func writeStreamErr(w http.ResponseWriter, fallback int, err error) {
	if !writeRankErr(w, err) {
		writeErr(w, fallback, "%v", err)
	}
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

func toDomainJSON(d grid.Domain) domainJSON {
	return domainJSON{X0: d.X0, Y0: d.Y0, T0: d.T0, GX: d.GX, GY: d.GY, GT: d.GT}
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
		Stream:  ds.live != nil,
		Points:  n,
		Added:   ds.added,
	}
	if out.Points > 0 {
		out.Bounds = domainJSON{X0: lo.X, Y0: lo.Y, T0: lo.T,
			GX: hi.X - lo.X, GY: hi.Y - lo.Y, GT: hi.T - lo.T}
	}
	return out
}

// validatePoints rejects non-finite event coordinates at the ingestion
// boundary: strconv.ParseFloat accepts "NaN"/"Inf", and one NaN event
// would poison every density derived from the dataset (and, for a stream,
// the long-lived window ring itself — compaction re-applies it, so drift
// control could never heal it).
func validatePoints(pts []grid.Point) error {
	for i, p := range pts {
		for _, v := range [3]float64{p.X, p.Y, p.T} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("event %d has a non-finite coordinate (%g, %g, %g)", i, p.X, p.Y, p.T)
			}
		}
	}
	return nil
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
		pts, err := gio.ReadPoints(r.Body)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "parse CSV body: %v", err)
			return
		}
		if len(pts) == 0 {
			writeErr(w, http.StatusBadRequest, "dataset has no events")
			return
		}
		if err := validatePoints(pts); err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
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
	st, isStream := s.streams.get(ds.id)
	d := grid.Domain{}
	if dom != nil {
		d = *dom
	} else if isStream {
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
	if err != nil {
		return estimateKey{}, nil, err
	}
	if err := s.checkGridBytes(spec); err != nil {
		return estimateKey{}, nil, err
	}
	// A request matching a stream's creation spec resolves to the live
	// window sub-spec (OT follows every advance), so clients keep naming
	// the stream by its creation parameters while the window slides — and
	// the cache key distinguishes window positions for free.
	if isStream {
		if w, ok := st.windowSpec(spec); ok {
			spec = w
		}
	}
	return estimateKey{Dataset: ds.id, Spec: spec, Algorithm: algorithm}, ds, nil
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
		writeErr(w, http.StatusBadRequest, "parse JSON body: %v", err)
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

// queryParams parses the spec-defining parameters shared by the GET
// endpoints and resolves them to a cache key.
func (s *Server) queryParams(r *http.Request) (estimateKey, *dataset, error) {
	q := r.URL.Query()
	get := func(name string) (float64, error) {
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
	var sres, tres, hs, ht float64
	var err error
	if sres, err = get("sres"); err != nil {
		return estimateKey{}, nil, err
	}
	if tres, err = get("tres"); err != nil {
		return estimateKey{}, nil, err
	}
	if hs, err = get("hs"); err != nil {
		return estimateKey{}, nil, err
	}
	if ht, err = get("ht"); err != nil {
		return estimateKey{}, nil, err
	}
	var dom *grid.Domain
	if q.Get("x0") != "" || q.Get("gx") != "" {
		var d grid.Domain
		for _, f := range []struct {
			name string
			dst  *float64
		}{{"x0", &d.X0}, {"y0", &d.Y0}, {"t0", &d.T0}, {"gx", &d.GX}, {"gy", &d.GY}, {"gt", &d.GT}} {
			if *f.dst, err = get(f.name); err != nil {
				return estimateKey{}, nil, err
			}
		}
		dom = &d
	}
	return s.resolveKey(q.Get("dataset"), q.Get("algorithm"), sres, tres, hs, ht, dom)
}

// handleQuery answers a density query at a continuous (x, y, t) location.
// When the grid for (dataset, spec, algorithm) is resident it is a pure
// O(1) voxel lookup; otherwise (or with exact=1) it falls back to the
// exact core.Query evaluation — never triggering an estimation.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if _, ok := s.admitTenant(w, r); !ok {
		return
	}
	k, ds, err := s.queryParams(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	q := r.URL.Query()
	var x, y, t float64
	for _, f := range []struct {
		name string
		dst  *float64
	}{{"x", &x}, {"y", &y}, {"t", &t}} {
		v := q.Get(f.name)
		if v == "" {
			writeErr(w, http.StatusBadRequest, "missing required parameter %q", f.name)
			return
		}
		if *f.dst, err = strconv.ParseFloat(v, 64); err != nil {
			writeErr(w, http.StatusBadRequest, "bad %s=%q: %v", f.name, v, err)
			return
		}
	}
	exactReq := q.Get("exact") == "1" || q.Get("exact") == "true"
	// Stream fast path: a query matching the live window spec reads the
	// in-place ring directly — always fresh, no cache, no estimation. The
	// window does its own coverage check (its time range has outrun the
	// creation domain after advances), and anything it cannot answer falls
	// through to the exact evaluator over the live events.
	if !exactReq {
		if st, ok := s.streams.get(k.Dataset); ok {
			rd, ok, verr := st.voxelDensity(k.Spec, x, y, t)
			if verr != nil {
				// Fail-fast policy with a rank down: the exact fallback
				// would silently serve a full-coverage estimate from the
				// coordinator's log. Refuse with the attributed rank so the
				// client retries after the heal.
				writeStreamErr(w, http.StatusServiceUnavailable, verr)
				return
			}
			if ok {
				s.met.streamReads.Add(1)
				writeJSON(w, http.StatusOK, map[string]any{
					"density": rd.density,
					"source":  "stream",
					"voxel":   rd.vox,
					"center": [3]float64{k.Spec.CenterX(rd.vox[0]),
						k.Spec.CenterY(rd.vox[1]), k.Spec.CenterT(rd.vox[2])},
					"window":   rd.window,
					"coverage": rd.cov.Fraction(),
					"degraded": rd.cov.Degraded(),
				})
				return
			}
		}
	}
	// Out-of-domain locations bypass the grid: VoxelOf would clamp them
	// to an edge voxel and report its (wrong, possibly large) density,
	// while the exact evaluator correctly decays to zero. CoversT guards
	// the temporal window separately: an advanced stream window's cached
	// snapshot no longer covers creation-domain times the window left
	// behind (Domain.Contains cannot see the OT frame offset).
	exact := exactReq ||
		!k.Spec.Domain.Contains(grid.Point{X: x, Y: y, T: t}) ||
		!k.Spec.CoversT(t)
	if !exact {
		if g, ok := s.cache.get(k); ok {
			s.met.cacheHits.Add(1)
			X, Y, T := k.Spec.VoxelOf(grid.Point{X: x, Y: y, T: t})
			writeJSON(w, http.StatusOK, map[string]any{
				"density": g.At(X, Y, T),
				"source":  "grid",
				"voxel":   [3]int{X, Y, T},
				"center":  [3]float64{k.Spec.CenterX(X), k.Spec.CenterY(Y), k.Spec.CenterT(T)},
			})
			return
		}
		s.met.cacheMisses.Add(1)
	}
	idx, err := s.reg.queryIndex(ds, k.Spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"density": idx.At(x, y, t),
		"source":  "exact",
	})
}

// handleRegion integrates the density over a voxel box: the estimated
// probability mass of a space-time region. Live streams answer from the
// window's incremental sketch (no O(G) snapshot); static grids answer from
// the summed-volume pyramid in O(1), computing the grid (through the
// coalescing and pool layers) when not yet resident. Either sketch answer
// is reported with source "sketch"; the naive O(box) scan remains as the
// exact fallback (source "grid") when a sketch cannot fit the budget.
func (s *Server) handleRegion(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	tenant, ok := s.admitTenant(w, r)
	if !ok {
		return
	}
	k, _, err := s.queryParams(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	q := r.URL.Query()
	box := k.Spec.Bounds()
	for _, f := range []struct {
		name string
		dst  *int
	}{{"bx0", &box.X0}, {"bx1", &box.X1}, {"by0", &box.Y0}, {"by1", &box.Y1}, {"bt0", &box.T0}, {"bt1", &box.T1}} {
		if v := q.Get(f.name); v != "" {
			if *f.dst, err = strconv.Atoi(v); err != nil {
				writeErr(w, http.StatusBadRequest, "bad %s=%q: %v", f.name, v, err)
				return
			}
		}
	}
	clipped := box.Clip(k.Spec.Bounds())
	boxJSON := [6]int{clipped.X0, clipped.X1, clipped.Y0, clipped.Y1, clipped.T0, clipped.T1}
	if st, isStream := s.streams.get(k.Dataset); isStream {
		mass, cov, rebuilt, ok, serr := s.sketchBoxMass(st, k.Spec, box)
		if serr != nil {
			// Fail-fast policy, or every rank down: refuse rather than fall
			// back to the batch path, which would answer from the
			// coordinator's live list as if coverage were full.
			writeStreamErr(w, http.StatusServiceUnavailable, serr)
			return
		}
		if ok {
			s.met.sketchHits.Add(1)
			s.met.sketchRebuilds.Add(rebuilt)
			writeJSON(w, http.StatusOK, map[string]any{
				"mass":     mass,
				"box":      boxJSON,
				"voxels":   clipped.Count(),
				"cached":   false,
				"source":   "sketch",
				"coverage": cov.Fraction(),
				"degraded": cov.Degraded(),
			})
			return
		}
	}
	res, cached, err := s.ensureGrid(r.Context(), k, tenant, false)
	if err != nil {
		writeWorkErr(w, err)
		return
	}
	var mass float64
	source := "grid"
	if py, done, perr := s.ensurePyramid(k, res.Grid); perr == nil {
		mass = py.BoxMass(box)
		done()
		source = "sketch"
		s.met.sketchHits.Add(1)
	} else {
		mass = res.Grid.BoxMass(box)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"mass":   mass,
		"box":    boxJSON,
		"voxels": clipped.Count(),
		"cached": cached,
		"source": source,
	})
}

// hotspotJSON is the wire shape of one hotspot voxel.
type hotspotJSON struct {
	Voxel   [3]int     `json:"voxel"`
	Center  [3]float64 `json:"center"`
	Density float64    `json:"density"`
}

func toHotspotsJSON(spec grid.Spec, top []grid.VoxelDensity) []hotspotJSON {
	out := make([]hotspotJSON, 0, len(top))
	for _, h := range top {
		out = append(out, hotspotJSON{
			Voxel:   [3]int{h.X, h.Y, h.T},
			Center:  [3]float64{spec.CenterX(h.X), spec.CenterY(h.Y), spec.CenterT(h.T)},
			Density: h.V,
		})
	}
	return out
}

// handleHotspots reports the k highest-density voxels. Live streams answer
// from the window's incremental sketch (best-first block scan, no O(G)
// snapshot); static grids answer from the block pyramid, computing the
// grid (coalesced, pooled) when not yet resident. Sketch answers carry
// source "sketch"; the naive O(G·log k) scan remains as the exact fallback
// (source "grid").
func (s *Server) handleHotspots(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	tenant, ok := s.admitTenant(w, r)
	if !ok {
		return
	}
	k, _, err := s.queryParams(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	topK := 10
	if v := r.URL.Query().Get("k"); v != "" {
		if topK, err = strconv.Atoi(v); err != nil || topK < 1 {
			writeErr(w, http.StatusBadRequest, "bad k=%q: want a positive integer", v)
			return
		}
	}
	if st, isStream := s.streams.get(k.Dataset); isStream {
		top, cov, rebuilt, ok, serr := s.sketchTopK(st, k.Spec, topK)
		if serr != nil {
			writeStreamErr(w, http.StatusServiceUnavailable, serr)
			return
		}
		if ok {
			s.met.sketchHits.Add(1)
			s.met.sketchRebuilds.Add(rebuilt)
			writeJSON(w, http.StatusOK, map[string]any{
				"hotspots": toHotspotsJSON(k.Spec, top),
				"cached":   false,
				"source":   "sketch",
				"coverage": cov.Fraction(),
				"degraded": cov.Degraded(),
			})
			return
		}
	}
	res, cached, err := s.ensureGrid(r.Context(), k, tenant, false)
	if err != nil {
		writeWorkErr(w, err)
		return
	}
	var top []grid.VoxelDensity
	source := "grid"
	if py, done, perr := s.ensurePyramid(k, res.Grid); perr == nil {
		top = py.TopK(topK)
		done()
		source = "sketch"
		s.met.sketchHits.Add(1)
	} else {
		top = res.Grid.TopK(topK)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"hotspots": toHotspotsJSON(k.Spec, top),
		"cached":   cached,
		"source":   source,
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
			writeErr(w, http.StatusBadRequest, "parse JSON body: %v", err)
			return
		}
		if req.Domain == nil {
			writeErr(w, http.StatusBadRequest, "a stream needs an explicit domain (its temporal extent is the window length)")
			return
		}
		spec, err := grid.NewSpec(req.Domain.domain(), req.SRes, req.TRes, req.HS, req.HT)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := s.checkGridBytes(spec); err != nil {
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
	st, ok := s.streams.get(id)
	if !ok {
		if _, isDataset := s.reg.get(id); isDataset {
			writeErr(w, http.StatusConflict, "dataset %q is immutable (content-addressed); create a mutable dataset with POST /v1/streams", id)
			return
		}
		writeErr(w, http.StatusNotFound, "unknown stream %q", id)
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
		pts, err := gio.ReadPoints(r.Body)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "parse CSV body: %v", err)
			return
		}
		if len(pts) == 0 {
			writeErr(w, http.StatusBadRequest, "ingest has no events")
			return
		}
		if err := validatePoints(pts); err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
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
			writeErr(w, http.StatusBadRequest, "parse JSON body: %v", err)
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
		"datasets":          len(s.reg.list()),
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
