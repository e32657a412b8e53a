package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gio"
	"repro/internal/grid"
	"repro/internal/wal"
)

// Pass B of the traced run: the operations pass A sent over HTTP are
// replayed directly, each as a root span whose children wrap the exported
// calls the handler would make, in the handler's order. The daemon is not
// involved, so pass A minus pass B is what the serve layer adds: the HTTP
// stack, admission, lock wait and routing.

// window is the part of a live window the replay drives — core.Updater
// for a local stream, dist.StreamGroup for a sharded one.
type window interface {
	Add(pts ...grid.Point) error
	AdvanceTo(t float64) (advanced, expired int, err error)
	At(X, Y, T int) (float64, error)
	BoxMass(b grid.Box) (float64, error)
	TopK(k int) ([]grid.VoxelDensity, error)
}

// localWin adapts core.Updater, whose mutators cannot fail.
type localWin struct{ *core.Updater }

func (w localWin) Add(pts ...grid.Point) error { w.Updater.Add(pts...); return nil }
func (w localWin) AdvanceTo(t float64) (int, int, error) {
	a, e := w.Updater.AdvanceTo(t)
	return a, e, nil
}
func (w localWin) At(X, Y, T int) (float64, error) { return w.Updater.At(X, Y, T), nil }

// encodeJSON is the handlers' writeJSON without the socket.
func encodeJSON(v any) {
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// directRead answers one read from a live window (win) or a static cube
// (g with its pyramid py), as children of a root span. layer names the
// layer the answer comes from in span names ("core.updater", "dist.gather",
// "grid.pyramid").
func directRead(tr *tracer, q readReq, layer string, win window, g *grid.Grid, py *grid.Pyramid) error {
	op := tr.newOp()
	t0 := time.Now()
	root := tr.open()
	var err error
	var out any
	switch q.kind {
	case opQuery:
		var v float64
		tr.child(root, op, layer+".at", 0, func() {
			if win != nil {
				v, err = win.At(q.X, q.Y, q.T)
			} else {
				v = g.At(q.X, q.Y, q.T)
			}
		})
		out = map[string]any{"density": v, "source": "grid", "voxel": [3]int{q.X, q.Y, q.T}, "center": [3]float64{}}
	case opRegion:
		var v float64
		tr.child(root, op, layer+".boxmass", 0, func() {
			if win != nil {
				v, err = win.BoxMass(q.box)
			} else {
				v = py.BoxMass(q.box)
			}
		})
		out = map[string]any{"mass": v, "box": [6]int{}, "voxels": q.box.Count(), "cached": true, "source": "sketch"}
	default:
		var top []grid.VoxelDensity
		tr.child(root, op, layer+".topk", 0, func() {
			if win != nil {
				top, err = win.TopK(q.k)
			} else {
				top = py.TopK(q.k)
			}
		})
		type hot struct {
			Voxel   [3]int     `json:"voxel"`
			Center  [3]float64 `json:"center"`
			Density float64    `json:"density"`
		}
		hs := make([]hot, len(top))
		for i, h := range top {
			hs[i] = hot{Voxel: [3]int{h.X, h.Y, h.T}, Density: h.V}
		}
		out = map[string]any{"hotspots": hs, "cached": true, "source": "sketch"}
	}
	tr.child(root, op, "json.encode", 0, func() { encodeJSON(out) })
	tr.finish(root, 0, op, "direct:"+string(q.kind), t0, time.Now(), 0)
	return err
}

// directStream replays a stream script against win, journaling through
// log exactly where the handler would, with nReads of reads spread evenly
// between the writer's operations. layer is "core.updater" or "dist".
func directStream(tr *tracer, script []writeOp, reads []readReq, nReads int, layer string, win window, log *wal.Log) error {
	done := 0
	for i, w := range script {
		op := tr.newOp()
		t0 := time.Now()
		root := tr.open()
		var err error
		var rec wal.Record
		if w.kind == opIngest {
			var pts []grid.Point
			tr.child(root, op, "gio.read_points", int64(len(w.body)), func() {
				pts, err = gio.ReadPoints(bytes.NewReader(w.body))
			})
			rec = wal.Record{Kind: wal.KindIngest, Points: pts}
		} else {
			var req struct {
				T *float64 `json:"t"`
			}
			tr.child(root, op, "json.decode", 0, func() { err = json.Unmarshal(w.body, &req) })
			if err == nil && req.T == nil {
				err = fmt.Errorf("advance body without t")
			}
			if err == nil {
				rec = wal.Record{Kind: wal.KindAdvance, T: *req.T}
			}
		}
		if err != nil {
			return err
		}
		tr.child(root, op, "wal.append", 0, func() { _, err = log.Append(rec) })
		if err != nil {
			return err
		}
		if w.kind == opIngest {
			tr.child(root, op, layer+".add", int64(len(rec.Points)), func() { err = win.Add(rec.Points...) })
		} else {
			tr.child(root, op, layer+".advance", 0, func() { _, _, err = win.AdvanceTo(rec.T) })
		}
		if err != nil {
			return err
		}
		tr.child(root, op, "wal.commit", 0, func() { err = log.Commit() })
		if err != nil {
			return err
		}
		tr.child(root, op, "json.encode", 0, func() {
			encodeJSON(map[string]any{"dataset": "s", "stream": true, "points": 0, "added": len(rec.Points),
				"advanced_layers": 0, "expired": 0, "window": [2]float64{}, "grid": [3]int{}, "version": 0})
		})
		tr.finish(root, 0, op, "direct:"+string(w.kind), t0, time.Now(), int64(len(rec.Points)))

		for upto := (i + 1) * nReads / len(script); done < upto; done++ {
			if err := directRead(tr, reads[done%len(reads)], layer, win, nil, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// shardCluster starts n TCP rank servers on loopback and connects a
// coordinator to them — the pieces ServeConfig.Shard assembles, without
// the daemon.
func shardCluster(n int) (*dist.Cluster, func(), error) {
	net := dist.NewNetwork()
	var ranks []*dist.RankServer
	closeAll := func() {
		for _, rk := range ranks {
			rk.Close()
		}
	}
	var peers []string
	for i := 0; i < n; i++ {
		rk, err := dist.ListenRank(net, "127.0.0.1:0", dist.ServerOptions{})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		ranks = append(ranks, rk)
		peers = append(peers, rk.Addr())
	}
	cl, err := dist.Connect(net, peers)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	return cl, func() { cl.Close(); closeAll() }, nil
}

// commBytes sums a cluster's bytes moved in both directions.
func commBytes(cl *dist.Cluster) (sent, recv int64) {
	for _, rc := range cl.CommStats() {
		sent += rc.Sent
		recv += rc.Recv
	}
	return sent, recv
}
