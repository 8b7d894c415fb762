// Package wal is the durability layer under the promise engine: an
// append-only, CRC-framed, segmented log plus an atomically written
// checkpoint store (checkpoint.go). A durable promise manager appends every
// record — each shard's commits, event batches, directory changes — to one
// Log per data directory; on restart it loads the latest checkpoint and
// replays the log behind it through its normal commit path, so a recovered
// engine is equivalent to one that never died (see internal/core's
// OpenDurable).
//
// Framing. Every record is length-prefixed and guarded by a CRC-32C of its
// payload, so a torn write at the tail of the last segment — the signature
// of a crash mid-append — is detected and discarded rather than replayed as
// garbage. Corruption anywhere before the final record of the final segment
// is reported as an error instead: silently dropping an interior record
// would replay a history with a hole in it.
//
// Sync policies. Appends always reach the kernel before Append returns (one
// write syscall per record, no user-space buffering); the policy decides
// when they reach the disk. SyncAlways fsyncs on every commit point with
// group commit — concurrent committers share one fsync. SyncInterval fsyncs
// on a background cadence; SyncNone leaves flushing to the OS entirely.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
)

// SyncPolicy selects when appended records are forced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs at every commit point before the caller proceeds:
	// a response implies the commit is on disk. Group commit batches
	// concurrent committers into one fsync.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background cadence (Options.SyncEvery). A
	// crash can lose up to one interval of acknowledged work.
	SyncInterval
	// SyncNone never fsyncs; the OS flushes when it pleases. A crash can
	// lose everything since the last OS writeback.
	SyncNone
)

// String names the policy (and is the -sync flag vocabulary).
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses the String form back into a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or none)", s)
}

// DefaultSyncEvery is the background fsync cadence under SyncInterval when
// Options.SyncEvery is zero.
const DefaultSyncEvery = 50 * time.Millisecond

// frame layout: 4-byte little-endian payload length, 4-byte CRC-32C
// (Castagnoli) of the payload, then the payload.
const frameHeader = 8

// maxRecord bounds one record, so a corrupt length prefix cannot drive a
// giant allocation during replay.
const maxRecord = 1 << 28

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: log closed")

// segPrefix and segSuffix name segment files: "wal-<n>.log", zero-padded so
// lexical order equals numeric order.
const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

func segName(n uint64) string { return fmt.Sprintf("%s%012d%s", segPrefix, n, segSuffix) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	var n uint64
	_, err := fmt.Sscanf(name[len(segPrefix):len(name)-len(segSuffix)], "%d", &n)
	return n, err == nil
}

// Options configures a Log.
type Options struct {
	// Policy is the sync policy; the zero value is SyncAlways.
	Policy SyncPolicy
	// SyncEvery is the background fsync cadence under SyncInterval; zero
	// means DefaultSyncEvery. Ignored by the other policies.
	SyncEvery time.Duration
}

// Log is an append-only segmented record log. It is safe for concurrent
// use. Opening a Log always starts a fresh segment (numbered after every
// existing one), so recovery replays and prior torn tails are never
// appended into.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex // guards f, seg, appended, closed
	f        *os.File
	seg      uint64
	appended uint64 // monotone count of appended frames, the group-commit token
	closed   bool

	syncMu sync.Mutex    // serializes fsyncs; guards writes to synced
	synced atomic.Uint64 // appended-token already on disk

	stop chan struct{} // closes the interval syncer
	wg   sync.WaitGroup
}

// OpenLog opens (creating if needed) the log directory and starts a fresh
// segment after the highest existing one. Existing segments are left
// untouched for Replay until RemoveSegmentsBefore prunes them.
func OpenLog(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	if opts.Policy == SyncInterval && opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	l := &Log{dir: dir, opts: opts}
	if err := l.openSegmentLocked(next); err != nil {
		return nil, err
	}
	if opts.Policy == SyncInterval {
		l.stop = make(chan struct{})
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// listSegments returns the segment numbers present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []uint64
	for _, e := range entries {
		if n, ok := parseSegName(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

func (l *Log) openSegmentLocked(n uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(n)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f, l.seg = f, n
	return nil
}

// Segment returns the current segment number.
func (l *Log) Segment() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seg
}

// Append writes one framed record. The record reaches the kernel before
// Append returns; Sync (or the policy's background cadence) moves it to
// stable storage.
func (l *Log) Append(payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecord)
	}
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeader:], payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := failpoint.Eval("wal/append"); err != nil {
		return err
	}
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	l.appended++
	return nil
}

// Sync forces every record appended so far to stable storage, honouring the
// policy: SyncAlways fsyncs (group commit — a caller whose records another
// caller's fsync already covered returns without a syscall); SyncInterval
// and SyncNone return immediately, leaving flushing to the cadence or the
// OS.
func (l *Log) Sync() error {
	if l.opts.Policy != SyncAlways {
		return nil
	}
	return l.fsync()
}

// fsync is the policy-independent flush used by Sync, the interval loop,
// rotation and Close.
func (l *Log) fsync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	target := l.appended
	f := l.f
	l.mu.Unlock()

	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced.Load() >= target {
		return nil // a concurrent committer's fsync already covered us
	}
	if err := failpoint.Eval("wal/sync"); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if target > l.synced.Load() {
		l.synced.Store(target)
	}
	return nil
}

// Progress reports how many records have been appended since the log was
// opened and how many of them a completed fsync covers. It never waits for
// a sync in flight.
func (l *Log) Progress() (appended, synced uint64) {
	l.mu.Lock()
	appended = l.appended
	l.mu.Unlock()
	return appended, l.synced.Load()
}

func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			_ = l.fsync()
		}
	}
}

// Rotate flushes and closes the current segment and starts the next one,
// returning the new segment's number. Records appended concurrently land in
// one segment or the other, never torn across both. The checkpointer calls
// Rotate before capturing state, so every record in segments before the
// returned number is covered by the checkpoint it then writes.
func (l *Log) Rotate() (uint64, error) {
	// Take syncMu across the swap so a concurrent fsync cannot target the
	// closed file descriptor.
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.f.Sync(); err != nil {
		return 0, err
	}
	l.synced.Store(l.appended)
	if err := l.f.Close(); err != nil {
		return 0, err
	}
	if err := l.openSegmentLocked(l.seg + 1); err != nil {
		return 0, err
	}
	return l.seg, nil
}

// RemoveSegmentsBefore deletes every segment numbered below keep — called
// after a checkpoint covering them is durably written.
func (l *Log) RemoveSegmentsBefore(keep uint64) error {
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, n := range segs {
		if n >= keep {
			break
		}
		if err := os.Remove(filepath.Join(l.dir, segName(n))); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes the log. Appends after Close return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		l.wg.Wait()
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	if err := l.f.Sync(); err != nil {
		_ = l.f.Close()
		return err
	}
	return l.f.Close()
}

// ReplayStats reports what a Replay pass found.
type ReplayStats struct {
	// Records is the number of intact records delivered.
	Records int
	// Segments is the number of segment files visited.
	Segments int
	// Truncated reports that the final segment ended in a torn or corrupt
	// record, which was discarded (the expected signature of a crash
	// mid-append).
	Truncated bool
	// DiscardedBytes is the size of the discarded tail, when Truncated.
	DiscardedBytes int64
}

// ErrCorrupt reports corruption before the final record of the final
// segment — unlike a torn tail, an interior hole cannot be skipped safely.
var ErrCorrupt = errors.New("wal: corrupt record before log tail")

// Replay reads every intact record in dir's segments numbered from and
// above, in order, calling fn with each payload. Passing the segment a
// checkpoint covers up to replays exactly the tail it leaves: older
// segments a crash kept from being pruned are never read, and a missing
// segment from (pruned behind a newer checkpoint) is ErrCorrupt, since the
// records in it are lost. A torn or CRC-corrupt record at the very tail of
// the last segment is discarded and reported in the stats, not as an
// error; the same damage anywhere earlier returns ErrCorrupt. fn returning
// an error stops the replay.
func Replay(dir string, from uint64, fn func(payload []byte) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := listSegments(dir)
	if err != nil {
		return stats, err
	}
	for len(segs) > 0 && segs[0] < from {
		segs = segs[1:]
	}
	if from > 0 && (len(segs) == 0 || segs[0] != from) {
		return stats, fmt.Errorf("%w: segment %s is missing", ErrCorrupt, segName(from))
	}
	for i, n := range segs {
		stats.Segments++
		last := i == len(segs)-1
		if err := replaySegment(filepath.Join(dir, segName(n)), last, &stats, fn); err != nil {
			return stats, err
		}
		if stats.Truncated {
			break
		}
	}
	return stats, nil
}

func replaySegment(path string, last bool, stats *ReplayStats, fn func([]byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	var off int64
	hdr := make([]byte, frameHeader)
	for off < size {
		bad := func() error {
			if last {
				stats.Truncated = true
				stats.DiscardedBytes = size - off
				return nil
			}
			return fmt.Errorf("%w: %s at offset %d", ErrCorrupt, filepath.Base(path), off)
		}
		if _, err := io.ReadFull(f, hdr); err != nil {
			return bad()
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxRecord || off+frameHeader+int64(n) > size {
			return bad()
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return bad()
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return bad()
		}
		if stats.Truncated {
			return nil
		}
		if err := fn(payload); err != nil {
			return err
		}
		stats.Records++
		off += frameHeader + int64(n)
	}
	return nil
}
