package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func appendAll(t *testing.T, l *Log, payloads ...[]byte) {
	t.Helper()
	for _, p := range payloads {
		if err := l.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func collect(t *testing.T, dir string) ([][]byte, ReplayStats) {
	t.Helper()
	var got [][]byte
	stats, err := Replay(dir, 0, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got, stats
}

func TestLogRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	want := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four-longer-payload")}
	appendAll(t, l, want...)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, stats := collect(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if stats.Truncated {
		t.Fatalf("unexpected truncation: %+v", stats)
	}
}

func TestLogReopenStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l1, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	appendAll(t, l1, []byte("a"))
	seg1 := l1.Segment()
	if err := l1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.Segment() <= seg1 {
		t.Fatalf("reopen segment %d, want > %d", l2.Segment(), seg1)
	}
	appendAll(t, l2, []byte("b"))
	got, _ := collect(t, dir)
	if len(got) != 2 || string(got[0]) != "a" || string(got[1]) != "b" {
		t.Fatalf("replay across segments = %q", got)
	}
}

func TestLogRotateAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	defer l.Close()
	appendAll(t, l, []byte("old-1"), []byte("old-2"))
	newSeg, err := l.Rotate()
	if err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	appendAll(t, l, []byte("new-1"))
	if err := l.RemoveSegmentsBefore(newSeg); err != nil {
		t.Fatalf("RemoveSegmentsBefore: %v", err)
	}
	got, _ := collect(t, dir)
	if len(got) != 1 || string(got[0]) != "new-1" {
		t.Fatalf("after prune replay = %q, want [new-1]", got)
	}
}

// TestReplayFromSegment pins Replay's from argument: segments below it are
// never read, even when damaged, and a missing segment from is a hole in
// the history, reported as ErrCorrupt.
func TestReplayFromSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	defer l.Close()
	appendAll(t, l, []byte("old"))
	old := l.Segment()
	from, err := l.Rotate()
	if err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	appendAll(t, l, []byte("new"))
	if err := os.WriteFile(filepath.Join(dir, segName(old)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, err := Replay(dir, from, func(p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil || len(got) != 1 || got[0] != "new" {
		t.Fatalf("Replay from %d = %q, %v; want [new]", from, got, err)
	}
	if _, err := Replay(dir, from+1, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay from a missing segment = %v, want ErrCorrupt", err)
	}
}

func TestReplayTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	appendAll(t, l, []byte("keep-1"), []byte("keep-2"))
	seg := l.Segment()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-append: a torn frame at the tail (header says 100
	// bytes, only 3 present).
	path := filepath.Join(dir, segName(seg))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 100)
	if _, err := f.Write(append(hdr[:], 'x', 'y', 'z')); err != nil {
		t.Fatalf("write torn tail: %v", err)
	}
	f.Close()

	got, stats := collect(t, dir)
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want 2", len(got))
	}
	if !stats.Truncated || stats.DiscardedBytes == 0 {
		t.Fatalf("stats = %+v, want Truncated with discarded bytes", stats)
	}
}

func TestReplayCorruptCRCTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	appendAll(t, l, []byte("keep"), []byte("flipme"))
	seg := l.Segment()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Flip one payload byte of the final record: CRC now mismatches.
	path := filepath.Join(dir, segName(seg))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatalf("rewrite segment: %v", err)
	}
	got, stats := collect(t, dir)
	if len(got) != 1 || string(got[0]) != "keep" {
		t.Fatalf("replay = %q, want [keep]", got)
	}
	if !stats.Truncated {
		t.Fatalf("stats = %+v, want Truncated", stats)
	}
}

func TestReplayInteriorCorruptionFatal(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	appendAll(t, l, []byte("first-segment"))
	seg := l.Segment()
	if _, err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	appendAll(t, l, []byte("second-segment"))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Corrupt the non-final segment: that is an interior hole, not a torn
	// tail, and must be fatal.
	path := filepath.Join(dir, segName(seg))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatalf("rewrite segment: %v", err)
	}
	if _, err := Replay(dir, 0, func([]byte) error { return nil }); err == nil {
		t.Fatalf("Replay of interior corruption succeeded, want error")
	}
}

func TestSyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Policy: SyncInterval, SyncEvery: time.Millisecond})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	if err := l.Append([]byte("interval")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); err != nil { // no-op under SyncInterval
		t.Fatalf("Sync: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, _ := collect(t, dir)
	if len(got) != 1 || string(got[0]) != "interval" {
		t.Fatalf("replay = %q", got)
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

func TestCheckpointLatestAndPrune(t *testing.T) {
	dir := t.TempDir()
	if e, v, p, err := LatestCheckpoint(dir); err != nil || p != nil || e != 0 || v != 0 {
		t.Fatalf("empty dir LatestCheckpoint = (%d, %d, %q, %v)", e, v, p, err)
	}
	for i := uint64(1); i <= 4; i++ {
		if err := WriteCheckpoint(dir, i*10, i, []byte(fmt.Sprintf("state-%d", i))); err != nil {
			t.Fatalf("WriteCheckpoint %d: %v", i, err)
		}
	}
	epoch, ver, payload, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatalf("LatestCheckpoint: %v", err)
	}
	if epoch != 40 || ver != 4 || string(payload) != "state-4" {
		t.Fatalf("latest = (%d, %d, %q)", epoch, ver, payload)
	}
	cks, err := listCheckpoints(dir)
	if err != nil {
		t.Fatalf("listCheckpoints: %v", err)
	}
	if len(cks) != ckptKeep {
		t.Fatalf("%d checkpoints retained, want %d", len(cks), ckptKeep)
	}
}

func TestCheckpointCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, 10, 1, []byte("good")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if err := WriteCheckpoint(dir, 20, 2, []byte("newer")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	// Corrupt the newest file's payload byte.
	path := filepath.Join(dir, ckptName(20, 2))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatalf("rewrite checkpoint: %v", err)
	}
	epoch, ver, payload, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatalf("LatestCheckpoint: %v", err)
	}
	if epoch != 10 || ver != 1 || string(payload) != "good" {
		t.Fatalf("fallback = (%d, %d, %q), want (10, 1, good)", epoch, ver, payload)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "none": SyncNone, "": SyncAlways}
	for in, want := range cases {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatalf("ParseSyncPolicy(bogus) succeeded")
	}
}
