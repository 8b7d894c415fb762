package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/wal"
)

// assertSingleLog fails unless dir holds exactly the single-log layout: the
// manifest at version 2, one or more log segments and one or more
// checkpoints, side by side, and nothing else — no per-shard or bus
// subdirectory.
func assertSingleLog(t *testing.T, dir string, shards int) {
	t.Helper()
	mf, err := ReadManifest(dir)
	if err != nil || mf == nil {
		t.Fatalf("ReadManifest: %v %v", mf, err)
	}
	if mf.Version != layoutSingleLog || mf.Shards != shards {
		t.Fatalf("manifest = %+v, want version %d, %d shard(s)", mf, layoutSingleLog, shards)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logs, ckpts int
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
			t.Fatalf("data directory holds a subdirectory %q", name)
		case name == manifestName:
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			logs++
		case strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".ckpt"):
			ckpts++
		default:
			t.Fatalf("data directory holds an unexpected file %q", name)
		}
	}
	if logs == 0 || ckpts == 0 {
		t.Fatalf("data directory holds %d log segment(s) and %d checkpoint(s), want at least one of each", logs, ckpts)
	}
}

// TestDataDirectoryHoldsOneLog pins the layout at 1 and 8 shards: one log
// and one checkpoint series per data directory, whatever the shard count,
// while serving, after a checkpoint, after Close and after a reopen.
func TestDataDirectoryHoldsOneLog(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			clk := clock.NewFake(durBase)
			e := openDur(t, dir, shards, clk, DurabilityOptions{CheckpointEvery: -1})
			seedDur(t, e)
			grantQty(t, e, "alice", Quantity("widgets", 2), Quantity("sprockets", 1))
			grantQty(t, e, "bob", MustProperty("floor >= 2"))
			assertSingleLog(t, dir, shards)
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			grantQty(t, e, "carol", Named("room3"))
			assertSingleLog(t, dir, shards)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			assertSingleLog(t, dir, shards)
			e = openDur(t, dir, shards, clk, DurabilityOptions{CheckpointEvery: -1})
			defer e.Close()
			assertSingleLog(t, dir, shards)
			mustHealthy(t, e)
		})
	}
}

// v1Base is the fake-clock instant the per-shard-layout test directories
// were written at.
var v1Base = time.Date(2007, 1, 7, 0, 0, 0, 0, time.UTC)

// copyTestdata copies testdata/<name> into a fresh temporary directory.
func copyTestdata(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", name))); err != nil {
		t.Fatal(err)
	}
	return dir
}

// openFourShardV1 opens a copy of testdata/four-shard-v1 (or a directory
// derived from one) with the engine shape that wrote it.
func openFourShardV1(t *testing.T, dir string) *Manager {
	t.Helper()
	m, err := OpenDurable(Config{Shards: 4, Clock: clock.NewFake(v1Base), DefaultDuration: time.Hour, MaxDuration: time.Hour},
		DurabilityOptions{Dir: dir, CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return m
}

// assertFourShardV1 checks the state testdata/four-shard-v1 holds: the
// composite shp-1 over widgets (shard 2) and sprockets (shard 3), the
// property promise prm1-1 migrated from room-b on shard 1 to room-a on
// shard 0, d's named hold on room-b, and the released prm2-2.
// wantReleased names further ids expected released.
func assertFourShardV1(t *testing.T, m *Manager, wantReleased ...string) {
	t.Helper()
	want := map[string]State{"shp-1": Active, "prm1-1": Active, "prm1-2": Active, "prm2-2": Released}
	for _, id := range wantReleased {
		want[id] = Released
	}
	for id, st := range want {
		p, err := m.PromiseInfo(id)
		if err != nil {
			t.Fatalf("PromiseInfo(%s): %v", id, err)
		}
		if p.State != st {
			t.Fatalf("PromiseInfo(%s) state = %v, want %v", id, p.State, st)
		}
	}
	if p, _ := m.PromiseInfo("prm1-1"); p.Client != "c" || len(p.Assigned) != 1 || p.Assigned[0] != "room-a" {
		t.Fatalf("migrated prm1-1 = client %q assigned %v, want c [room-a]", p.Client, p.Assigned)
	}
	if sh, ok := m.ownerShard("prm1-1"); !ok || sh != 0 {
		t.Fatalf("prm1-1 routes to shard %d (%v), want the migration's shard 0", sh, ok)
	}
	if p, _ := m.PromiseInfo("shp-1"); p.Client != "c" || len(p.Predicates) != 2 {
		t.Fatalf("composite shp-1 = client %q, %d predicates, want c and 2", p.Client, len(p.Predicates))
	}
	mustHealthy(t, m)
}

// TestReopenFourShardV1Directory reopens testdata/four-shard-v1, a data
// directory in the per-shard layout (MANIFEST version 1: a "bus" log and
// one "shard-<i>" log per shard). The engine reads it the old way, takes
// its first single-log checkpoint and retires the old directories; the
// state survives that conversion and a further restart. The directory was
// produced by this program against the engine that wrote the per-shard
// layout, on a fake clock at 2007-01-07T00:00Z and without Close (so
// recovery replays every log past its checkpoint):
//
//	sea := map[string]predicate.Value{"sea": predicate.Bool(true)}
//	m, _ := core.OpenDurable(core.Config{Shards: 4, Clock: clk, DefaultDuration: time.Hour,
//		MaxDuration: time.Hour}, core.DurabilityOptions{Dir: dir})
//	_ = m.CreatePool("widgets", 10, nil)   // shard 2
//	_ = m.CreatePool("sprockets", 10, nil) // shard 3
//	_ = m.CreateInstance("room-a", sea)    // shard 0
//	_ = m.CreateInstance("room-b", sea)    // shard 1
//	_ = m.Checkpoint()
//	grant := func(client string, preds ...core.Predicate) core.PromiseResponse {
//		resp, _ := m.Execute(ctx, core.Request{Client: client,
//			PromiseRequests: []core.PromiseRequest{{Predicates: preds}}})
//		return resp.Promises[0]
//	}
//	grant("c", core.Quantity("widgets", 3), core.Quantity("sprockets", 2)) // shp-1
//	grant("c", core.MustProperty("sea"))                                   // prm1-1 on room-b
//	grant("d", core.Named("room-b"))      // prm1-2; prm1-1 migrates to room-a
//	rel := grant("c", core.Quantity("widgets", 1))                         // prm2-2
//	_ = m.Release(ctx, "c", rel.PromiseID)
func TestReopenFourShardV1Directory(t *testing.T) {
	dir := copyTestdata(t, "four-shard-v1")
	m := openFourShardV1(t, dir)
	assertSingleLog(t, dir, 4)
	assertFourShardV1(t, m)
	errs := checkB(t, m, "c", []string{"shp-1", "prm1-1", "prm2-2", "prm2-3"})
	if errs[0] != nil || errs[1] != nil || !errors.Is(errs[2], ErrPromiseReleased) || !errors.Is(errs[3], ErrPromiseNotFound) {
		t.Fatalf("CheckBatch = %v, want [nil nil released not-found]", errs)
	}

	// The escrow came back: 3 of widgets' 10 are held by shp-1.
	if pr := grantQty(t, m, "e", Quantity("widgets", 8)); pr.Accepted {
		t.Fatal("granted 8 widgets with 3 of 10 held")
	}
	// Fresh ids continue past the recovered ones (the composite's widgets
	// part is prm2-3).
	if pr := grantQty(t, m, "e", Quantity("widgets", 1), Quantity("sprockets", 8)); !pr.Accepted || pr.PromiseID != "shp-2" {
		t.Fatalf("composite grant = %+v, want accepted shp-2", pr)
	}
	if pr := grantQty(t, m, "e", Quantity("widgets", 6)); !pr.Accepted || pr.PromiseID != "prm2-4" {
		t.Fatalf("widgets grant = %+v, want accepted prm2-4", pr)
	}
	// The migrated promise holds room-a on its new shard: releasing it
	// frees room-a for a named claim.
	if pr := grantQty(t, m, "e", Named("room-a")); pr.Accepted {
		t.Fatal("room-a granted while the migrated prm1-1 holds it")
	}
	if err := m.Release(bg, "c", "prm1-1"); err != nil {
		t.Fatalf("Release(prm1-1): %v", err)
	}
	if pr := grantQty(t, m, "e", Named("room-a")); !pr.Accepted {
		t.Fatalf("room-a after releasing prm1-1: %s", pr.Reason)
	}
	mustHealthy(t, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m = openFourShardV1(t, dir)
	defer m.Close()
	if p, err := m.PromiseInfo("prm1-1"); err != nil || p.State != Released {
		t.Fatalf("prm1-1 after restart = %v %v, want released", p.State, err)
	}
	if p, err := m.PromiseInfo("shp-2"); err != nil || p.State != Active {
		t.Fatalf("shp-2 after restart = %v %v, want active", p.State, err)
	}
	assertSingleLog(t, dir, 4)
	mustHealthy(t, m)
}

// TestConversionCrashBeforeCheckpoint is the first crash window of the
// per-shard-layout conversion: the converting engine opened the single log
// and appended to it, but its first checkpoint never became durable. With
// no single-log checkpoint the old layout is still authoritative, so the
// reopen reads it again and ignores the orphaned log — here a commit record
// that would delete prm1-1 if it were replayed.
func TestConversionCrashBeforeCheckpoint(t *testing.T) {
	dir := copyTestdata(t, "four-shard-v1")
	lg, err := wal.OpenLog(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []walRecord{
		{T: recGen},
		{T: recCommit, Ver: 1, Changes: []walChange{{Table: TablePromises, Key: "prm1-1"}}},
	} {
		data, err := json.Marshal(&rec)
		if err == nil {
			err = lg.Append(data)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	m := openFourShardV1(t, dir)
	defer m.Close()
	assertSingleLog(t, dir, 4)
	assertFourShardV1(t, m)
}

// TestConversionCrashBeforeRetire is the second crash window: the first
// single-log checkpoint is durable, but the old directories (and the
// version-1 manifest) are still there. The single-log checkpoint and the
// log behind it are authoritative — a release committed after the
// conversion stands although the old logs say otherwise — and the reopen
// finishes retiring the old layout.
func TestConversionCrashBeforeRetire(t *testing.T) {
	dir := copyTestdata(t, "four-shard-v1")
	m := openFourShardV1(t, dir)
	if err := m.Release(bg, "d", "prm1-2"); err != nil {
		t.Fatal(err)
	}
	// Abandon m without Close, then put the old layout back beside the
	// converted one.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "four-shard-v1"))); err != nil {
		t.Fatal(err)
	}
	if mf, err := ReadManifest(dir); err != nil || mf.Version != layoutPerShard {
		t.Fatalf("manifest = %+v %v, want the version-1 one back", mf, err)
	}

	m = openFourShardV1(t, dir)
	defer m.Close()
	assertSingleLog(t, dir, 4)
	assertFourShardV1(t, m, "prm1-2")
}
