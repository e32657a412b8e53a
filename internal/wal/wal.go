// Package wal is the durability subsystem behind live streams: a segmented
// append-only journal of stream mutations (create/ingest/advance) plus
// periodic window snapshots, so a crashed daemon restarts warm with bounded
// recovery work instead of losing every stream.
//
// Layout: each stream owns one directory of segment files named by the LSN
// of their first record (%016x.log) and snapshot files named by the last
// LSN they cover (snap-%016x.snap). Records are CRC32-C framed and strictly
// decoded (record.go); a torn tail — the partial write a crash leaves — is
// truncated back to the last intact record on open. Snapshots serialize the
// raw (unnormalized) window ring through the gio grid codec together with
// the live event set and the updater's drift state, so recovery is
// snapshot-load + tail replay, and every segment a snapshot covers is
// retired (deleted) once the snapshot is durable.
//
// Durability is group-committed: Append assigns an LSN and writes without
// syncing; Commit makes everything appended so far durable per the
// configured policy, and concurrent committers share one fsync (a leader
// syncs while followers wait on the synced-LSN watermark). The fsync runs
// outside the log's mutex, so appends never wait for the disk.
//
// Only the standard library is used.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	segMagic       = "STKDEWL1" // segment header: magic + u64 first LSN
	segHeaderBytes = 16
	segSuffix      = ".log"
	snapPrefix     = "snap-"
	snapSuffix     = ".snap"
	tmpSuffix      = ".tmp"

	// DeletedSuffix marks a stream directory whose DELETE was interrupted:
	// Remove renames the directory before deleting it, so recovery can
	// finish the teardown instead of resurrecting the stream.
	DeletedSuffix = ".deleted"

	// DefaultSegmentBytes is the roll-over size of one segment file.
	DefaultSegmentBytes = 16 << 20

	// DefaultSyncInterval is the SyncInterval flush cadence.
	DefaultSyncInterval = 100 * time.Millisecond
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs on every Commit before it returns (group-committed
	// across concurrent callers). No acknowledged mutation is ever lost.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background cadence (Options.SyncEvery); a
	// crash can lose at most the last interval of acknowledged mutations.
	SyncInterval
	// SyncNone never fsyncs outside snapshots and segment roll-overs; the
	// OS decides when bytes reach disk. For tests and bulk loads.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("syncpolicy(%d)", int(p))
}

// ParseSyncPolicy maps the flag spelling to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (valid: always, interval, none)", s)
}

// Options configures one stream journal. The zero value is valid: 16 MiB
// segments, fsync on every commit.
type Options struct {
	SegmentBytes int64         // roll segments at this size (default 16 MiB)
	Sync         SyncPolicy    // when to fsync (default SyncAlways)
	SyncEvery    time.Duration // SyncInterval cadence (default 100ms)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= segHeaderBytes {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncInterval
	}
	return o
}

// Recovered is what Open found on disk: the newest readable snapshot (nil
// when none) and the intact records past it, in LSN order. TruncatedBytes
// counts the torn-tail bytes dropped to land on the last intact record.
type Recovered struct {
	Snapshot       *Snapshot
	Tail           []Record
	TruncatedBytes int64
}

// LastLSN is the LSN recovery reaches after replaying the tail over the
// snapshot — the effective durable position of the stream.
func (r Recovered) LastLSN() uint64 {
	if n := len(r.Tail); n > 0 {
		return r.Tail[n-1].LSN
	}
	if r.Snapshot != nil {
		return r.Snapshot.LSN
	}
	return 0
}

// segmentMeta describes one completed (no longer appended-to) segment.
type segmentMeta struct {
	path  string
	first uint64
	last  uint64
	bytes int64
}

// Log is one stream's journal, safe for concurrent use.
type Log struct {
	dir string
	opt Options

	mu       sync.Mutex
	f        *os.File // current segment, opened for append
	size     int64    // bytes written to the current segment
	segFirst uint64   // first LSN of the current segment
	lsn      uint64   // last assigned LSN
	segs     []segmentMeta
	snapLSN  uint64
	closed   bool
	failed   error // sticky write/fsync failure: the journal is poisoned

	syncMu   sync.Mutex
	syncCond *sync.Cond
	synced   uint64 // highest LSN known durable
	syncing  bool   // a leader's fsync is in flight
	syncs    int64  // fsyncs performed (group-commit effectiveness meter)

	stop chan struct{} // SyncInterval flusher
	done chan struct{}
}

// Open opens (creating if absent) the journal directory for one stream,
// recovers its contents, and returns the log positioned for appending.
// Recovery reads the newest readable snapshot, CRC-verifies every retained
// segment, truncates a torn tail in the final segment back to the last
// intact record, and rejects corruption anywhere else — damage in the
// middle of the log means acknowledged history is gone, which must be a
// loud error, not a silent shorter replay.
func Open(dir string, opt Options) (*Log, Recovered, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovered{}, fmt.Errorf("wal: open journal: %w", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, Recovered{}, fmt.Errorf("wal: open journal: %w", err)
	}
	var segPaths []string
	var snapLSNs []uint64
	for _, e := range names {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			// An interrupted snapshot write; the rename never happened.
			os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, segSuffix):
			if _, err := parseSegName(name); err != nil {
				return nil, Recovered{}, err
			}
			segPaths = append(segPaths, filepath.Join(dir, name))
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			lsn, err := parseHexLSN(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix))
			if err != nil {
				return nil, Recovered{}, fmt.Errorf("wal: snapshot %s: %w", name, err)
			}
			snapLSNs = append(snapLSNs, lsn)
		}
	}
	sort.Strings(segPaths) // fixed-width hex names sort in LSN order

	// Newest readable snapshot wins; an unreadable one (corruption) falls
	// back to the previous, which segment retirement has kept alive until
	// its successor became durable.
	var snap *Snapshot
	sort.Slice(snapLSNs, func(i, j int) bool { return snapLSNs[i] > snapLSNs[j] })
	for _, lsn := range snapLSNs {
		s, err := ReadSnapshot(filepath.Join(dir, snapPrefix+fmt.Sprintf("%016x", lsn)+snapSuffix))
		if err == nil {
			snap = s
			break
		}
	}
	var snapLSN uint64
	if snap != nil {
		snapLSN = snap.LSN
	}

	rec := Recovered{Snapshot: snap}
	l := &Log{dir: dir, opt: opt, snapLSN: snapLSN}
	l.syncCond = sync.NewCond(&l.syncMu)

	expect := uint64(0) // next LSN required, 0 until the first record
	for i, path := range segPaths {
		last := i == len(segPaths)-1
		sc, err := scanSegment(path, snapLSN, func(r Record) error {
			if expect == 0 && r.LSN > snapLSN+1 {
				return fmt.Errorf("journal begins at LSN %d but the snapshot covers only LSN %d", r.LSN, snapLSN)
			}
			if expect != 0 && r.LSN != expect {
				return fmt.Errorf("LSN %d follows %d", r.LSN, expect-1)
			}
			expect = r.LSN + 1
			if r.LSN > snapLSN {
				rec.Tail = append(rec.Tail, r)
			}
			return nil
		})
		if err != nil {
			return nil, Recovered{}, fmt.Errorf("wal: segment %s: %w", filepath.Base(path), err)
		}
		if sc.damage != nil && !last {
			return nil, Recovered{}, fmt.Errorf("wal: segment %s: %v (corruption before the journal tail; refusing to replay a hole)", filepath.Base(path), sc.damage)
		}
		if sc.damage != nil {
			// The torn tail a crash leaves: drop the bytes past the last
			// intact record (or the whole file when even the header is torn).
			rec.TruncatedBytes += sc.size - sc.valid
			if sc.valid < segHeaderBytes {
				if err := os.Remove(path); err != nil {
					return nil, Recovered{}, fmt.Errorf("wal: drop torn segment: %w", err)
				}
				continue
			}
			if err := os.Truncate(path, sc.valid); err != nil {
				return nil, Recovered{}, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			sc.size = sc.valid
		}
		l.segs = append(l.segs, segmentMeta{path: path, first: sc.first, last: sc.last, bytes: sc.size})
	}

	l.lsn = snapLSN
	if expect > 0 && expect-1 > l.lsn {
		l.lsn = expect - 1
	}
	l.synced = l.lsn // everything recovered is on disk by definition

	// Append to the final surviving segment; start a fresh one when the
	// directory is empty or the crash tore the last segment's header off.
	if n := len(l.segs); n > 0 && l.segs[n-1].last == l.lsn {
		seg := l.segs[n-1]
		f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, Recovered{}, fmt.Errorf("wal: reopen segment: %w", err)
		}
		l.f, l.size, l.segFirst = f, seg.bytes, seg.first
		l.segs = l.segs[:n-1]
	} else if err := l.newSegmentLocked(l.lsn + 1); err != nil {
		return nil, Recovered{}, err
	}

	if opt.Sync == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.flushLoop()
	}
	return l, rec, nil
}

// newSegmentLocked creates the segment file whose first record will be
// first, writes its header, and makes the file name durable.
func (l *Log) newSegmentLocked(first uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("%016x%s", first, segSuffix))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	hdr := make([]byte, 0, segHeaderBytes)
	hdr = append(hdr, segMagic...)
	hdr = le.AppendUint64(hdr, first)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.size, l.segFirst = f, segHeaderBytes, first
	return nil
}

// Append assigns the next LSN to rec, encodes it, and writes it to the
// current segment, rolling to a new segment at the size bound. The record
// is not durable until Commit (or the sync policy) says so. Any write
// failure poisons the log: the on-disk tail is no longer trustworthy, so
// every later Append and Commit fails too.
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errClosed
	}
	if l.failed != nil {
		return 0, l.failed
	}
	rec.LSN = l.lsn + 1
	frame, err := appendFrame(nil, rec)
	if err != nil {
		return 0, err
	}
	if l.size+int64(len(frame)) > l.opt.SegmentBytes && l.size > segHeaderBytes {
		if err := l.rotateLocked(rec.LSN); err != nil {
			l.failed = err
			return 0, err
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		l.failed = fmt.Errorf("wal: append: %w", err)
		return 0, l.failed
	}
	l.size += int64(len(frame))
	l.lsn = rec.LSN
	return rec.LSN, nil
}

// rotateLocked closes the current segment (fsynced, so a completed segment
// is always fully durable) and opens the next one, whose first record will
// be next.
func (l *Log) rotateLocked(next uint64) error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync segment: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	l.segs = append(l.segs, segmentMeta{
		path:  filepath.Join(l.dir, fmt.Sprintf("%016x%s", l.segFirst, segSuffix)),
		first: l.segFirst,
		last:  next - 1,
		bytes: l.size,
	})
	l.syncMu.Lock()
	if next-1 > l.synced {
		l.synced = next - 1
	}
	l.syncs++
	l.syncMu.Unlock()
	return l.newSegmentLocked(next)
}

// Commit makes every record appended so far durable per the sync policy:
// SyncAlways fsyncs (shared with concurrent committers), the deferred
// policies return immediately. Callers ack their client after Commit.
func (l *Log) Commit() error {
	if l.opt.Sync != SyncAlways {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.failed
	}
	return l.Sync()
}

// Sync fsyncs every appended record regardless of policy. Concurrent
// callers group-commit: one leader syncs the shared file while the rest
// wait on the watermark, so a burst of commits costs one fsync.
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.lsn
	l.mu.Unlock()
	return l.syncTo(target)
}

func (l *Log) syncTo(target uint64) error {
	for {
		l.syncMu.Lock()
		for l.synced < target && l.syncing {
			l.syncCond.Wait()
		}
		if l.synced >= target {
			l.syncMu.Unlock()
			return nil
		}
		l.syncing = true
		l.syncMu.Unlock()

		l.mu.Lock()
		f, high, err := l.f, l.lsn, l.failed
		if err == nil && l.closed {
			err = errClosed
		}
		l.mu.Unlock()
		if err == nil {
			err = l.fsync(f)
		}

		l.syncMu.Lock()
		l.syncs++
		if err == nil && high > l.synced {
			l.synced = high
		}
		l.syncing = false
		l.syncCond.Broadcast()
		l.syncMu.Unlock()
		if err != nil {
			return err
		}
		// Loop: a follower whose record landed after the leader read the
		// watermark retries and becomes the next leader.
	}
}

// fsync syncs f — the segment that was current when the caller read the
// LSN it wants durable — without holding l.mu, so Append keeps writing
// (into f or, after a roll-over, the next segment) while the disk works:
// an fsync takes a millisecond on an idle disk and tens on a busy one, and
// every stream mutation appends under its stream's lock. A roll-over or a
// Close that wins the race closes f only after syncing it itself, so
// "already closed" means the records are durable.
func (l *Log) fsync(f *os.File) error {
	err := f.Sync()
	if err == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if errors.Is(err, os.ErrClosed) {
		if l.closed {
			return errClosed
		}
		return l.failed // nil after a clean roll-over
	}
	l.failed = fmt.Errorf("wal: fsync: %w", err)
	return l.failed
}

// flushLoop is the SyncInterval background committer.
func (l *Log) flushLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opt.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.Sync() // sticky failure surfaces on the next Append
		case <-l.stop:
			return
		}
	}
}

// LSN returns the last assigned LSN.
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// WriteSnapshot makes snap the journal's recovery point: the log is synced
// through snap.LSN, the snapshot is written tmp-then-rename (so a crash
// mid-write leaves the previous snapshot in force), every wholly-covered
// completed segment is retired, and older snapshot files are pruned.
func (l *Log) WriteSnapshot(snap *Snapshot) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	if snap.LSN > l.lsn {
		lsn := l.lsn
		l.mu.Unlock()
		return fmt.Errorf("wal: snapshot claims LSN %d beyond the journal's %d", snap.LSN, lsn)
	}
	l.mu.Unlock()
	if err := l.syncTo(snap.LSN); err != nil {
		return err
	}

	final := filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", snapPrefix, snap.LSN, snapSuffix))
	tmp := final + tmpSuffix
	if err := writeSnapshotFile(tmp, snap); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: publish snapshot: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}

	// The snapshot is durable: retire covered segments and older snapshots.
	l.mu.Lock()
	if snap.LSN > l.snapLSN {
		l.snapLSN = snap.LSN
	}
	kept := l.segs[:0]
	var retired []string
	for _, seg := range l.segs {
		if seg.last <= l.snapLSN {
			retired = append(retired, seg.path)
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	l.mu.Unlock()
	for _, path := range retired {
		os.Remove(path)
	}
	names, err := os.ReadDir(l.dir)
	if err != nil {
		return nil // the snapshot itself landed; pruning is best-effort
	}
	for _, e := range names {
		name := e.Name()
		if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		if lsn, err := parseHexLSN(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)); err == nil && lsn < snap.LSN {
			os.Remove(filepath.Join(l.dir, name))
		}
	}
	return nil
}

// Close stops the background flusher, syncs the current segment, and
// closes it. The log must not be used afterwards.
func (l *Log) Close() error {
	if l.stop != nil {
		close(l.stop)
		<-l.done
		l.stop = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.failed == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Dir returns the journal directory.
func (l *Log) Dir() string { return l.dir }

var errClosed = fmt.Errorf("wal: journal is closed")

// Remove tears a stream's journal down crash-safely: the directory is
// renamed to a *.deleted tombstone first (atomic, so a crash mid-removal
// cannot resurrect half a journal) and then deleted. Callers close the
// log first.
func Remove(dir string) error {
	tomb := strings.TrimSuffix(dir, "/") + DeletedSuffix
	if err := os.Rename(dir, tomb); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("wal: remove journal: %w", err)
	}
	if parent := filepath.Dir(dir); parent != "" {
		syncDir(parent)
	}
	return os.RemoveAll(tomb)
}

// CleanupDeleted finishes interrupted Removes under root, returning the
// number of tombstones cleared.
func CleanupDeleted(root string) int {
	names, err := os.ReadDir(root)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range names {
		if strings.HasSuffix(e.Name(), DeletedSuffix) {
			if os.RemoveAll(filepath.Join(root, e.Name())) == nil {
				n++
			}
		}
	}
	return n
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

func parseSegName(name string) (uint64, error) {
	lsn, err := parseHexLSN(strings.TrimSuffix(name, segSuffix))
	if err != nil {
		return 0, fmt.Errorf("wal: segment %s: %w", name, err)
	}
	return lsn, nil
}

func parseHexLSN(s string) (uint64, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("bad LSN name %q", s)
	}
	var v uint64
	for i := 0; i < 16; i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, fmt.Errorf("bad LSN name %q", s)
		}
		v = v<<4 | d
	}
	return v, nil
}
