package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/data"
	"repro/internal/gio"
	"repro/internal/grid"
)

// Every input below is a pure function of the plan and the seed: the
// system under test sees only the generated events and requests, and the
// same seed reproduces the same bytes (opHash proves it).

// instance is one event set on one discretization.
type instance struct {
	name string
	spec grid.Spec
	pts  []grid.Point
}

// spec returns the discretization of a catalog shape at its scale.
func (s shape) spec() (grid.Spec, error) {
	cat, ok := data.InstanceByName(s.catalog)
	if !ok {
		return grid.Spec{}, fmt.Errorf("unknown catalog instance %q", s.catalog)
	}
	sc, err := cat.Scaled(s.scale)
	return sc.Spec, err
}

// instance generates n events (0: the catalog's count at this scale) on
// the shape with the catalog's generator for it and the benchmark's own
// seed, not the catalog's fixed Instance.Seed.
func (s shape) instance(n int, seed uint64) (instance, error) {
	cat, ok := data.InstanceByName(s.catalog)
	if !ok {
		return instance{}, fmt.Errorf("unknown catalog instance %q", s.catalog)
	}
	sc, err := cat.Scaled(s.scale)
	if err != nil {
		return instance{}, err
	}
	if n <= 0 {
		n = sc.NPoints
	}
	pts := cat.Gen.Generate(n, sc.Spec.Domain, seed)
	inset(pts, sc.Spec, true)
	return instance{name: fmt.Sprintf("%s@%g", s.catalog, s.scale), spec: sc.Spec, pts: pts}, nil
}

// inset shrinks events affinely into the part of the domain that lies one
// bandwidth away from every face (in time too when withT is set). The
// generators put their clusters wherever the seed says, and a cluster near
// a face has its cylinders clipped: the work per event would swing by
// several percent from seed to seed. Inset events all have whole cylinders,
// so two seeds give two different event sets with the same amount of work.
func inset(pts []grid.Point, s grid.Spec, withT bool) {
	d := s.Domain
	axis := func(v, lo, extent, margin float64) float64 {
		if extent <= 2*margin {
			return v
		}
		return lo + margin + (v-lo)*(extent-2*margin)/extent
	}
	ms, mt := float64(s.Hs)*s.SRes, float64(s.Ht)*s.TRes
	for i, p := range pts {
		p.X, p.Y = axis(p.X, d.X0, d.GX, ms), axis(p.Y, d.Y0, d.GY, ms)
		if withT {
			p.T = axis(p.T, d.T0, d.GT, mt)
		}
		pts[i] = p
	}
}

// Kinds of client operation. The letters appear in span names and hashes.
const (
	opQuery   = 'q' // GET /v1/query
	opRegion  = 'r' // GET /v1/region
	opHotspot = 'h' // GET /v1/hotspots
	opIngest  = 'i' // POST /v1/datasets/{id}/events
	opAdvance = 'a' // POST /v1/datasets/{id}/advance
)

// readReq is one read request. Voxel coordinates are in the frame of the
// spec the request names; for a stream that is the live window, so T is a
// layer offset from the window start at send time.
type readReq struct {
	kind    byte
	X, Y, T int      // opQuery: the voxel whose centre is asked for
	box     grid.Box // opRegion
	k       int      // opHotspot
}

// Region boxes are 80×80×25 voxels, clipped to small grids.
const (
	regionXY = 80
	regionT  = 25
	hotspotK = 10
)

// readMix generates n reads on spec: share[0] queries, share[1] regions,
// the rest hotspots. Queries and regions walk the grid on fixed co-prime
// strides from a seeded origin, so they cover the volume evenly without
// repeating soon; tLo keeps query layers away from the trailing edge of a
// sliding window (see streamStage.readURL).
func readMix(spec grid.Spec, n int, share [2]float64, tLo int, seed uint64) []readReq {
	r := data.NewRNG(seed ^ 0x5EAD)
	ox, oy, ot := r.IntN(spec.Gx), r.IntN(spec.Gy), r.IntN(spec.Gt)
	bx, by, bt := min(regionXY, spec.Gx), min(regionXY, spec.Gy), min(regionT, spec.Gt)
	span := func(g, b int) int { return g - b + 1 }
	out := make([]readReq, n)
	for i := range out {
		u := r.Float64()
		switch {
		case u < share[0]:
			out[i] = readReq{kind: opQuery,
				X: (ox + i*13) % spec.Gx, Y: (oy + i*7) % spec.Gy,
				T: tLo + (ot+i*3)%(spec.Gt-tLo)}
		case u < share[0]+share[1]:
			x0 := (ox + i*17) % span(spec.Gx, bx)
			y0 := (oy + i*11) % span(spec.Gy, by)
			t0 := (ot + i*5) % span(spec.Gt, bt)
			out[i] = readReq{kind: opRegion,
				box: grid.Box{X0: x0, X1: x0 + bx - 1, Y0: y0, Y1: y0 + by - 1, T0: t0, T1: t0 + bt - 1}}
		default:
			out[i] = readReq{kind: opHotspot, k: hotspotK}
		}
	}
	return out
}

// specParams is the query-string prefix naming a dataset and the spec its
// cube lives on, with an explicit domain so the server derives exactly the
// spec the benchmark checks against.
func specParams(dataset string, s grid.Spec) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return "dataset=" + dataset +
		"&sres=" + g(s.SRes) + "&tres=" + g(s.TRes) + "&hs=" + g(s.HS) + "&ht=" + g(s.HT) +
		"&x0=" + g(s.Domain.X0) + "&y0=" + g(s.Domain.Y0) + "&t0=" + g(s.Domain.T0) +
		"&gx=" + g(s.Domain.GX) + "&gy=" + g(s.Domain.GY) + "&gt=" + g(s.Domain.GT)
}

// path renders the request (params from specParams). winT0 is the time at
// which layer 0 of the request's frame starts: the domain's T0, plus the
// slide so far for a stream window.
func (q readReq) path(params string, s grid.Spec, winT0 float64) string {
	switch q.kind {
	case opQuery:
		b := make([]byte, 0, len(params)+96)
		b = append(b, "/v1/query?"...)
		b = append(b, params...)
		b = append(b, "&x="...)
		b = strconv.AppendFloat(b, s.CenterX(q.X), 'g', -1, 64)
		b = append(b, "&y="...)
		b = strconv.AppendFloat(b, s.CenterY(q.Y), 'g', -1, 64)
		b = append(b, "&t="...)
		b = strconv.AppendFloat(b, winT0+(float64(q.T)+0.5)*s.TRes, 'g', -1, 64)
		return string(b)
	case opRegion:
		return fmt.Sprintf("/v1/region?%s&bx0=%d&bx1=%d&by0=%d&by1=%d&bt0=%d&bt1=%d",
			params, q.box.X0, q.box.X1, q.box.Y0, q.box.Y1, q.box.T0, q.box.T1)
	default:
		return fmt.Sprintf("/v1/hotspots?%s&k=%d", params, q.k)
	}
}

// writeOp is one step of the stream writer's script.
type writeOp struct {
	kind   byte
	body   []byte       // opIngest: the CSV body; opAdvance: the JSON body
	events []grid.Point // opIngest: the same events, for the oracle and direct replay
	t      float64      // opAdvance: the target time
}

// streamScript turns n events spread over `windows` window lengths into the
// writer's script: time-ordered batches of batchSize events as CSV bodies,
// with an advance by one layer ahead of any batch that reaches past the
// window's end. The first window length needs no advance, so the script
// starts with pure ingest and then slides (windows-1)·Gt layers.
func streamScript(win grid.Spec, windows, n, batchSize int, seed uint64) ([]writeOp, error) {
	dom := win.Domain
	dom.GT *= float64(windows)
	pts := data.SocialMedia{}.Generate(n, dom, seed)
	inset(pts, win, false)
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].T < pts[j].T })

	var ops []writeOp
	end := win.Domain.T0 + float64(win.Gt)*win.TRes // first time not covered
	for lo := 0; lo < len(pts); lo += batchSize {
		batch := pts[lo:min(lo+batchSize, len(pts))]
		for last := batch[len(batch)-1].T; last >= end; end += win.TRes {
			// Aim at the middle of the first uncovered layer: the window
			// advances by exactly one.
			t := end + win.TRes/2
			ops = append(ops, writeOp{kind: opAdvance, t: t,
				body: []byte(`{"t": ` + strconv.FormatFloat(t, 'g', -1, 64) + `}`)})
		}
		var buf bytes.Buffer
		if err := gio.WritePoints(&buf, batch); err != nil {
			return nil, err
		}
		ops = append(ops, writeOp{kind: opIngest, body: buf.Bytes(), events: batch})
	}
	return ops, nil
}

// liveAfter returns the events a window that has executed the whole script
// still holds, and the window's final spec — computed from the script
// alone, independently of the engine: an event expires once its temporal
// support ends before the centre of the window's first layer.
func liveAfter(win grid.Spec, ops []writeOp) (grid.Spec, []grid.Point) {
	final := win
	for _, op := range ops {
		if op.kind == opAdvance {
			rel := int(math.Floor((op.t - win.Domain.T0) / win.TRes))
			if k := rel - (final.OT + final.Gt - 1); k > 0 {
				final.OT += k
			}
		}
	}
	first := final.CenterT(0)
	var live []grid.Point
	for _, op := range ops {
		for _, p := range op.events {
			if p.T+final.HT >= first {
				live = append(live, p)
			}
		}
	}
	return final, live
}

// opHash fingerprints a generated operation stream.
type opHash struct{ h [32]byte }

func (o opHash) String() string { return hex.EncodeToString(o.h[:8]) }

func hashOps(writes []writeOp, reads []readReq, pts []grid.Point) opHash {
	h := sha256.New()
	var b [8]byte
	u := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	for _, w := range writes {
		h.Write([]byte{w.kind})
		h.Write(w.body)
	}
	for _, r := range reads {
		h.Write([]byte{r.kind})
		for _, v := range []int{r.X, r.Y, r.T, r.box.X0, r.box.X1, r.box.Y0, r.box.Y1, r.box.T0, r.box.T1, r.k} {
			u(uint64(v))
		}
	}
	for _, p := range pts {
		u(math.Float64bits(p.X))
		u(math.Float64bits(p.Y))
		u(math.Float64bits(p.T))
	}
	var out opHash
	copy(out.h[:], h.Sum(nil))
	return out
}
