package serve

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/wal"
)

// wal.go threads the durability subsystem (internal/wal) through the
// stream lifecycle: every stream mutation — create, ingest chunk, advance
// — is journaled before it is applied and committed before the client is
// acked, periodic checkpoints bound the replay a restart must do, and
// Recover rebuilds every journaled stream before the daemon starts
// serving. Sharded streams journal exactly like local ones (the
// coordinator's mutation record is the source of truth that re-seeds a
// reconnecting rank and survives a coordinator restart) but never
// checkpoint: their window rings live in the rank processes, so there is
// no local state to snapshot — recovery replays the full journal through
// the cluster instead.

// WALConfig enables durable streams: every stream, local or sharded,
// journals its mutations under Dir and survives a crash via
// Server.Recover (only local streams checkpoint).
type WALConfig struct {
	// Dir is the journal root; each stream owns the subdirectory named by
	// its id. It is created if absent.
	Dir string

	// Sync is the fsync policy for acknowledged mutations (default
	// wal.SyncAlways: no acked mutation is ever lost).
	Sync wal.SyncPolicy

	// SegmentBytes is the journal segment roll-over size (default 16 MiB).
	SegmentBytes int64

	// SnapshotEvery checkpoints a stream after this many journal records
	// (default 4096; negative disables automatic checkpoints). A
	// checkpoint serializes the window and retires the segments it covers,
	// so recovery replays at most this many records per stream.
	SnapshotEvery int
}

// defaultSnapshotEvery bounds replay to a few seconds of ingest work per
// stream without checkpointing so often that the O(G) snapshot write
// dominates steady-state ingest.
const defaultSnapshotEvery = 4096

func (c *WALConfig) every() int {
	switch {
	case c.SnapshotEvery == 0:
		return defaultSnapshotEvery
	case c.SnapshotEvery < 0:
		return 0
	}
	return c.SnapshotEvery
}

// streamJournal pairs a live stream with its on-disk journal. The append
// path runs under st.mu (ordering journal records exactly like the
// mutations they describe); since counts records toward the next
// automatic checkpoint under the same lock. snapMu serializes whole
// checkpoints — and delete waits on it, so teardown never races a
// snapshot write. Lock order: snapMu, then st.mu.
type streamJournal struct {
	log    *wal.Log
	every  int // records between automatic checkpoints (0: disabled)
	since  int // records since the last checkpoint, under st.mu
	snapMu sync.Mutex
}

// openJournal opens (or creates) the journal directory for stream id.
func (s *Server) openJournal(id string) (*streamJournal, wal.Recovered, error) {
	c := s.cfg.WAL
	l, rec, err := wal.Open(filepath.Join(c.Dir, id), wal.Options{SegmentBytes: c.SegmentBytes, Sync: c.Sync})
	if err != nil {
		return nil, wal.Recovered{}, err
	}
	return &streamJournal{log: l, every: c.every()}, rec, nil
}

// journalAppend journals one mutation record. Callers hold st.mu, so
// records land in the journal in exactly the order the mutations are
// applied to the window.
func (s *Server) journalAppend(st *stream, rec wal.Record) error {
	if st.jr == nil {
		return nil
	}
	if _, err := st.jr.log.Append(rec); err != nil {
		return fmt.Errorf("serve: stream %s journal: %w", st.id, err)
	}
	st.jr.since++
	s.met.walAppends.Add(1)
	return nil
}

// journalCommit makes every journaled mutation durable per the sync
// policy — the ack barrier: handlers call it after releasing st.mu and
// before responding. It also triggers the automatic checkpoint when one
// is due; a checkpoint failure does not fail the request (the mutation
// itself is durable in the journal), it is only counted.
func (s *Server) journalCommit(st *stream) error {
	jr := st.jr
	if jr == nil {
		return nil
	}
	if err := jr.log.Commit(); err != nil {
		return fmt.Errorf("serve: stream %s journal: %w", st.id, err)
	}
	st.mu.Lock()
	due := !st.sharded && jr.every > 0 && jr.since >= jr.every
	st.mu.Unlock()
	if due {
		if err := s.checkpointStream(st); err != nil {
			s.met.walCheckpointFails.Add(1)
		}
	}
	return nil
}

// checkpointStream writes a snapshot covering every mutation applied so
// far: the window state is captured under st.mu at the journal's current
// LSN (appends happen under the same lock, so the LSN and the state
// agree exactly), then serialized and published outside the lock, and
// the segments the snapshot covers are retired.
func (s *Server) checkpointStream(st *stream) error {
	jr := st.jr
	if jr == nil || st.sharded {
		return nil
	}
	jr.snapMu.Lock()
	defer jr.snapMu.Unlock()
	st.mu.Lock()
	lw, ok := st.up.(localWindow)
	if st.deleted || !ok {
		st.mu.Unlock()
		return nil
	}
	lsn := jr.log.LSN()
	ust, err := lw.Updater.State(nil)
	jr.since = 0
	st.mu.Unlock()
	if err != nil {
		return err
	}
	snap := &wal.Snapshot{
		LSN:      lsn,
		Grid:     ust.Grid,
		Live:     ust.Live,
		Residual: ust.Residual,
		Ops:      ust.Ops,
	}
	if err := jr.log.WriteSnapshot(snap); err != nil {
		return err
	}
	s.met.walCheckpoints.Add(1)
	return nil
}

// closeJournals checkpoints and closes every stream journal (the
// graceful-shutdown path; a crash skips this and recovery replays).
func (s *Server) closeJournals() {
	for _, st := range s.streams.list() {
		if st.jr == nil {
			continue
		}
		s.checkpointStream(st) // best-effort: a failure just means more replay
		st.jr.log.Close()
	}
}

// RecoverStats reports what Recover rebuilt from the journal root.
type RecoverStats struct {
	Streams        int               // streams rebuilt
	Snapshots      int               // of those, warm-started from a snapshot
	Events         int               // live events restored across all windows
	Replayed       int               // journal records replayed past snapshots
	TruncatedBytes int64             // torn-tail bytes dropped across streams
	Tombstones     int               // interrupted deletes finished
	LastLSN        map[string]uint64 // per-stream recovery position
}

// Recover rebuilds every journaled stream from the WAL directory:
// interrupted deletes are finished, each stream directory is opened (torn
// tails truncated), the newest readable snapshot warm-starts the window,
// and the journal tail past it is replayed through the same Add/AdvanceTo
// paths an uninterrupted run used — so the recovered window is bitwise
// the state the acknowledged mutations produced. Call it once, after New
// and before serving requests; it is not safe to run concurrently with
// traffic. Corruption anywhere but the journal tail is a loud error: the
// daemon must not start with silently shorter history.
func (s *Server) Recover() (RecoverStats, error) {
	stats := RecoverStats{LastLSN: map[string]uint64{}}
	if s.cfg.WAL == nil {
		return stats, nil
	}
	root := s.cfg.WAL.Dir
	stats.Tombstones = wal.CleanupDeleted(root)
	ids, err := wal.ListStreams(root)
	if err != nil {
		return stats, fmt.Errorf("serve: recover: %w", err)
	}
	var maxSeq int64
	for _, id := range ids {
		seq, ok := parseStreamID(id)
		if !ok {
			continue // not a stream journal; leave foreign directories alone
		}
		jr, rec, err := s.openJournal(id)
		if err != nil {
			return stats, fmt.Errorf("serve: recover stream %s: %w", id, err)
		}
		if rec.LastLSN() == 0 {
			// Nothing durable ever landed: the crash beat the create
			// record to disk, so the stream never existed. Clear the husk.
			jr.log.Close()
			wal.Remove(jr.log.Dir())
			continue
		}
		st, replayed, err := s.recoverStream(id, jr, rec)
		if err != nil {
			jr.log.Close()
			return stats, fmt.Errorf("serve: recover stream %s: %w", id, err)
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		stats.Streams++
		if rec.Snapshot != nil {
			stats.Snapshots++
		}
		stats.Events += st.ds.size()
		stats.Replayed += replayed
		stats.TruncatedBytes += rec.TruncatedBytes
		stats.LastLSN[id] = rec.LastLSN()
	}
	// Future ids must not collide with recovered ones (Recover runs before
	// any traffic, so a plain store is race-free).
	if maxSeq > s.reg.seq.Load() {
		s.reg.seq.Store(maxSeq)
	}
	s.met.walRecovered.Add(int64(stats.Streams))
	s.met.walReplayed.Add(int64(stats.Replayed))
	return stats, nil
}

// recoverStream rebuilds one stream: its window comes from newWindow, the
// constructor createStream uses, and the journal tail replays through the
// same Add/AdvanceTo paths live traffic used. A journal with a snapshot
// warm-starts a local window (RestoreUpdater adopts the snapshot's ring
// and drift state, so later compactions align with the uninterrupted run)
// and never dials the shard peers. A journal without one cold-starts from
// its create record — across the rank cluster when shard peers are
// configured, since sharded journals never checkpoint. The window ring is
// charged to the cache budget, but not capped at the half-budget pinned
// share: these streams were already admitted before the crash.
//
// A rank that is down during a sharded replay degrades the mutation but
// does not fail recovery: the coordinator's record stays authoritative and
// the rank re-seeds from it when it heals.
func (s *Server) recoverStream(id string, jr *streamJournal, rec wal.Recovered) (*stream, int, error) {
	tail := rec.Tail
	var cl *dist.Cluster
	var spec grid.Spec
	if rec.Snapshot == nil {
		if len(tail) == 0 || tail[0].Kind != wal.KindCreate || tail[0].LSN != 1 {
			return nil, 0, fmt.Errorf("journal has no snapshot and no create record")
		}
		spec = tail[0].Spec
		var err error
		if cl, err = s.shardCluster(); err != nil {
			return nil, 0, err
		}
	}
	up, err := s.newWindow(cl, spec, rec.Snapshot)
	if err != nil {
		return nil, 0, err
	}
	replayed := 0
	for _, r := range tail {
		var err error
		switch r.Kind {
		case wal.KindCreate:
			if r.LSN != 1 {
				err = fmt.Errorf("create record at LSN %d (journal corrupt)", r.LSN)
			}
		case wal.KindIngest:
			err = up.Add(r.Points...)
			replayed++
		case wal.KindAdvance:
			_, _, err = up.AdvanceTo(r.T)
			replayed++
		}
		var de *dist.DegradedError
		if errors.As(err, &de) {
			s.met.shardDegraded.Add(1)
		} else if err != nil {
			up.Release()
			return nil, 0, err
		}
	}
	// Requests resolve against the creation spec (OT == 0); the window's
	// own spec has followed every replayed advance.
	base := up.Spec()
	base.OT = 0
	return s.registerStream(id, up, base, jr), replayed, nil
}

// parseStreamID parses the "s%016x" stream-id shape, reporting whether
// the name is one.
func parseStreamID(id string) (int64, bool) {
	v, err := strconv.ParseUint(strings.TrimPrefix(id, "s"), 16, 64)
	return int64(v), err == nil && id == fmt.Sprintf("s%016x", v)
}
