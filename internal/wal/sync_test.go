package wal

import (
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// Stats reports the journal's durability counters: last assigned LSN,
// highest durable LSN, and fsyncs performed.
func (l *Log) Stats() (lsn, synced uint64, syncs int64) {
	l.mu.Lock()
	lsn = l.lsn
	l.mu.Unlock()
	l.syncMu.Lock()
	synced, syncs = l.synced, l.syncs
	l.syncMu.Unlock()
	return lsn, synced, syncs
}

// TestSyncRacesRollOver: fsync runs outside the log mutex, so a segment
// roll-over (which syncs and closes the file a concurrent Sync may be
// holding) must never surface as an error, never poison the journal, and
// never leave the durable watermark short of what Sync promised.
func TestSyncRacesRollOver(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s1")
	// Small segments: a roll-over every few records; a busy flusher on top
	// of the explicit Sync callers.
	l, _, err := Open(dir, Options{SegmentBytes: 200, Sync: SyncInterval, SyncEvery: 100 * time.Microsecond})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 2000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	syncErr := make([]error, 3)
	for i := range syncErr {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lsn, _, _ := l.Stats()
				if err := l.Sync(); err != nil {
					syncErr[i] = err
					return
				}
				if _, synced, _ := l.Stats(); synced < lsn {
					t.Errorf("Sync returned with watermark %d below LSN %d appended before it", synced, lsn)
					return
				}
			}
		}(i)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(Record{Kind: KindAdvance, T: float64(i)}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	for i, err := range syncErr {
		if err != nil {
			t.Fatalf("syncer %d: %v", i, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("final Sync: %v", err)
	}
	if lsn, synced, _ := l.Stats(); lsn != n || synced != n {
		t.Fatalf("lsn %d synced %d, want %d durable", lsn, synced, n)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(rec.Tail) != n {
		t.Fatalf("recovered %d records, want %d", len(rec.Tail), n)
	}
}

// TestFsyncOfRolledSegment pins the two meanings of "file already closed"
// a Sync that lost the race can see: after a roll-over the records are
// durable (the roll-over synced them), after Close the journal is closed.
func TestFsyncOfRolledSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s1")
	l, _, err := Open(dir, Options{SegmentBytes: 200, Sync: SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	old := l.f
	for i := 0; l.f == old; i++ { // append until the segment rolls over
		if _, err := l.Append(Record{Kind: KindAdvance, T: float64(i)}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := l.fsync(old); err != nil {
		t.Fatalf("fsync of a rolled-over segment: %v", err)
	}
	if _, err := l.Append(Record{Kind: KindAdvance, T: -1}); err != nil {
		t.Fatalf("Append after it: %v (the journal must not be poisoned)", err)
	}
	last := l.f
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.fsync(last); err != errClosed {
		t.Fatalf("fsync after Close: %v, want %v", err, errClosed)
	}
}
