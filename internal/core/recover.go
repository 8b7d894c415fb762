package core

// This file is the startup half of the durability layer (durable.go holds
// the record vocabulary and commit-path hooks): OpenDurable builds an
// engine whose state is the latest checkpoint plus a replay of the log
// tail, then keeps it durable from that point on. A data directory holds
// MANIFEST.json, one log and one checkpoint series. Recovery order:
//
//  1. Load the newest checkpoint: the bus (cursor, replay ring, composite
//     directory), then each shard's tables in one transaction.
//  2. Replay the log from the segment that checkpoint covers up to, in log
//     order, through the normal commit path; then raise the bus sequence
//     to the highest epoch any commit carried, so a commit whose events
//     record was lost never sees its Seqs reissued.
//  3. Open a fresh segment, write a generation marker, attach the hooks.
//  4. Re-arm expiry and advance the id generators past recovered ids.
//  5. Take an initial checkpoint, which prunes the previous generation's
//     segments, and arm the checkpoint cadence.
//
// A directory in the per-shard layout of MANIFEST version 1 is read by
// recoverLegacy in place of steps 1–2; its old directories are removed
// only once step 5's checkpoint is durable. Whenever a single-log
// checkpoint exists the newest one is authoritative, so a crash anywhere
// in the conversion reopens either the old layout or the converted one.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/txn"
	"repro/internal/wal"
)

// manifestName is the data-directory manifest file.
const manifestName = "MANIFEST.json"

// Data-directory layout versions, as recorded in the manifest.
const (
	// layoutPerShard is the layout before the single log: a "bus" log and
	// one "shard-<i>" log per shard. Still read, never written.
	layoutPerShard = 1
	// layoutSingleLog is one log and one checkpoint series per directory.
	layoutSingleLog = 2
)

// Manifest pins a data directory's shape so an engine cannot reopen it with
// an incompatible shard count.
type Manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// ReadManifest reads dir's manifest; (nil, nil) when the directory has
// none (fresh or absent directory). The daemon uses it to adopt an
// existing directory's shard count and to skip re-seeding.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("core: bad manifest in %s: %w", dir, err)
	}
	return m, nil
}

func writeManifest(dir string, shards int) error {
	data, err := json.Marshal(Manifest{Version: layoutSingleLog, Shards: shards})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(name)
		return err
	}
	return os.Rename(name, filepath.Join(dir, manifestName))
}

// durableEngine is the checkpoint/recovery runtime owned by a durable
// Manager.
type durableEngine struct {
	dir  string
	opts DurabilityOptions
	clk  clock.Clock

	log    *wal.Log
	s      *Manager
	health *engineHealth
	// active gates appends: off during recovery and after Close's final
	// capture. err latches the first append failure until a re-probe.
	active atomic.Bool
	errMu  sync.Mutex
	err    error

	// mu serializes checkpoints against each other and against Close.
	mu        sync.Mutex
	alarmStop func()
	closed    bool

	// probeMu guards the degraded-mode re-probe alarm — deliberately not
	// mu: trips arrive from commit hooks holding the bus or publication
	// mutexes, which a concurrent checkpointer (holding mu) may be
	// waiting on.
	probeMu     sync.Mutex
	probeStop   func()
	probeClosed bool

	// checkpoints counts completed checkpoints (cadence tests read it).
	checkpoints atomic.Uint64
}

// OpenDurable opens (or creates) a durable Manager over opts.Dir: state is
// recovered from the directory, then every commit is logged to it. The
// directory's manifest must agree with the configured shard count (use
// ReadManifest to adopt an existing directory's count).
func OpenDurable(cfg Config, opts DurabilityOptions) (*Manager, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("core: DurabilityOptions.Dir is required")
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := openDurable(opts, s); err != nil {
		return nil, err
	}
	return s, nil
}

// openDurable runs the recovery sequence described at the top of the file
// and attaches the armed runtime to s.
func openDurable(opts DurabilityOptions, s *Manager) error {
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	if opts.ReprobeEvery == 0 {
		opts.ReprobeEvery = DefaultReprobeEvery
	}
	dir := opts.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mf, err := ReadManifest(dir)
	if err != nil {
		return err
	}
	if mf != nil && mf.Shards != len(s.shards) {
		return fmt.Errorf("core: data directory %s holds %d shard(s), engine configured with %d", dir, mf.Shards, len(s.shards))
	}
	if mf != nil && mf.Version != layoutPerShard && mf.Version != layoutSingleLog {
		return fmt.Errorf("core: data directory %s has unknown layout version %d", dir, mf.Version)
	}
	if mf == nil {
		if err := writeManifest(dir, len(s.shards)); err != nil {
			return err
		}
	}

	d := &durableEngine{dir: dir, opts: opts, clk: s.clk, s: s, health: &engineHealth{}}
	d.health.onTrip = d.armReprobe
	for _, sh := range s.shards {
		sh.health = d.health
	}
	s.health = d.health

	// 1–2. The newest checkpoint and the log behind it — or, for a
	// directory still in the per-shard layout, its own logs.
	var ck checkpoint
	seg, found, err := readCheckpoint(dir, &ck)
	var maxEpoch uint64
	switch {
	case err != nil:
	case found:
		maxEpoch, err = s.recover(dir, seg, &ck)
	case mf != nil && mf.Version == layoutPerShard:
		maxEpoch, err = s.recoverLegacy(dir)
	default:
		maxEpoch, err = s.recover(dir, 0, nil)
	}
	if err != nil {
		return fmt.Errorf("core: recovering %s: %w", dir, err)
	}
	// A commit whose events record was lost in the crash must still never
	// see its epoch's sequence numbers reissued.
	s.bus.ensureSeqAtLeast(maxEpoch)

	// 3. Fresh segment, generation marker, commit-path hooks.
	genRec, err := json.Marshal(&walRecord{T: recGen})
	if err != nil {
		return err
	}
	if d.log, err = wal.OpenLog(dir, wal.Options{Policy: opts.Sync, SyncEvery: opts.SyncEvery}); err != nil {
		return err
	}
	if err := d.log.Append(genRec); err != nil {
		_ = d.log.Close()
		return err
	}
	d.active.Store(true)
	for _, sh := range s.shards {
		sh.durable = d
	}
	s.durable = d
	s.bus.SetTap(d.logEvents)

	// 4. Re-arm expiry and advance id generators. Past-due promises fire
	// (asynchronously) through the normal expiry path, which is now logged.
	for _, sh := range s.shards {
		snap := sh.store.Snapshot()
		_ = snap.Scan(TablePromises, func(key string, row txn.Row) bool {
			p := &row.(*promiseRow).p
			if p.State == Active {
				sh.trackExpiry(p.ID, p.Expires)
			}
			// Observe, not a raw suffix scan: a shard's table can hold
			// promises migrated in from other shards, whose suffixes must
			// not advance this shard's generator.
			sh.promiseIDs.Observe(key)
			return true
		})
		_ = snap.Scan(TablePromisesDone, func(key string, _ txn.Row) bool {
			sh.promiseIDs.Observe(key)
			return true
		})
	}

	// 5. Initial checkpoint: prunes the recovered generation's segments so
	// the fresh stores' version numbering owns the retained log. Once it
	// is durable, a per-shard layout is no longer needed.
	if err := d.Checkpoint(); err != nil {
		_ = d.log.Close()
		return fmt.Errorf("core: initial checkpoint: %w", err)
	}
	if err := retireLegacy(dir, mf); err != nil {
		_ = d.log.Close()
		return fmt.Errorf("core: removing the per-shard layout: %w", err)
	}
	d.armCadence()
	return nil
}

// readCheckpoint decodes dir's newest intact checkpoint into v and returns
// the segment it covers up to; found is false when dir holds none.
func readCheckpoint(dir string, v any) (seg uint64, found bool, err error) {
	seg, _, payload, err := wal.LatestCheckpoint(dir)
	if err != nil || payload == nil {
		return 0, false, err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return 0, false, fmt.Errorf("decoding checkpoint in %s: %w", dir, err)
	}
	return seg, true, nil
}

// recover loads ck (nil: none) and replays the log from seg, the segment
// ck covers up to.
func (s *Manager) recover(dir string, seg uint64, ck *checkpoint) (uint64, error) {
	ver := make([]uint64, len(s.shards))
	if ck != nil {
		if len(ck.Shards) != len(s.shards) {
			return 0, fmt.Errorf("checkpoint holds %d shard(s), engine has %d", len(ck.Shards), len(s.shards))
		}
		s.restoreBus(&ck.busCheckpoint)
		for i := range ck.Shards {
			if err := restoreStore(s.shards[i], &ck.Shards[i]); err != nil {
				return 0, fmt.Errorf("shard %d: %w", i, err)
			}
			ver[i] = ck.Shards[i].Ver
		}
	}
	return s.replayLog(dir, seg, ver, -1)
}

// legacyBusDir and legacyShardDir name the per-shard layout's logs.
func legacyBusDir(dir string) string { return filepath.Join(dir, "bus") }

func legacyShardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d", i))
}

// recoverLegacy reads a directory in the per-shard layout the way it was
// written: the bus log behind its checkpoint first, so sequence numbering
// is back before any store replay stamps an epoch, then each shard's store
// behind its own.
func (s *Manager) recoverLegacy(dir string) (maxEpoch uint64, err error) {
	var bus busCheckpoint
	if _, found, err := readCheckpoint(legacyBusDir(dir), &bus); err != nil {
		return 0, err
	} else if found {
		s.restoreBus(&bus)
	}
	if _, err := s.replayLog(legacyBusDir(dir), 0, make([]uint64, len(s.shards)), -1); err != nil {
		return 0, fmt.Errorf("event log: %w", err)
	}
	for i, sh := range s.shards {
		var ck storeCheckpoint
		ver := make([]uint64, len(s.shards))
		if _, found, err := readCheckpoint(legacyShardDir(dir, i), &ck); err != nil {
			return 0, err
		} else if found {
			if err := restoreStore(sh, &ck); err != nil {
				return 0, fmt.Errorf("shard %d: %w", i, err)
			}
			ver[i] = ck.Ver
		}
		e, err := s.replayLog(legacyShardDir(dir, i), 0, ver, i)
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", i, err)
		}
		maxEpoch = max(maxEpoch, e)
	}
	return maxEpoch, nil
}

// retireLegacy removes a converted directory's per-shard layout: the
// manifest first, then the old logs. Called only once a single-log
// checkpoint is durable, and on every open, so a crash part-way through
// finishes on the next one.
func retireLegacy(dir string, mf *Manifest) error {
	if mf == nil {
		return nil // a directory this open created never had the layout
	}
	if mf.Version == layoutPerShard {
		if err := writeManifest(dir, mf.Shards); err != nil {
			return err
		}
	}
	if err := os.RemoveAll(legacyBusDir(dir)); err != nil {
		return err
	}
	for i := 0; i < mf.Shards; i++ {
		if err := os.RemoveAll(legacyShardDir(dir, i)); err != nil {
			return err
		}
	}
	return nil
}

// restoreStore loads one shard's checkpointed tables in one transaction.
func restoreStore(m *shard, ck *storeCheckpoint) error {
	tx := m.store.Begin(txn.Block)
	for tbl, rows := range ck.Tables {
		for key, raw := range rows {
			row, err := decodeRow(tbl, raw)
			if err == nil {
				err = tx.Put(tbl, key, row)
			}
			if err != nil {
				_ = tx.Abort()
				return fmt.Errorf("restoring %s/%s: %w", tbl, key, err)
			}
		}
	}
	return tx.Commit()
}

// restoreBus rewinds the bus and the composite directory to a checkpoint.
func (s *Manager) restoreBus(ck *busCheckpoint) {
	s.bus.restore(ck.Seq, ck.Ring)
	for i := range ck.Composites {
		s.restoreComposite(&ck.Composites[i])
	}
	for id, shard := range ck.Moved {
		s.moved.Store(id, shard)
	}
	s.compIDs.EnsureAtLeast(ck.CompNext)
}

// replayLog replays dir's log from segment from, in log order, and returns
// the highest epoch a commit record carried. ver[i] is the store version
// shard i's checkpoint already covers; commit records at or below it are
// skipped until a generation marker, after which the stores' version
// numbering restarted and every commit replays. fixed >= 0 routes every
// commit record to that shard (a per-shard-layout log); otherwise each
// record names its shard. Event replay skips Seqs the bus already holds,
// and directory records are plain overwrites, so both are idempotent.
func (s *Manager) replayLog(dir string, from uint64, ver []uint64, fixed int) (maxEpoch uint64, err error) {
	_, err = wal.Replay(dir, from, func(p []byte) error {
		var rec walRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			return err
		}
		switch rec.T {
		case recGen:
			clear(ver)
		case recEvents:
			s.bus.restoreEvents(rec.Events)
		case recDir:
			s.applyDirRecord(&rec)
		case recCommit:
			sh := rec.Shard
			if fixed >= 0 {
				sh = fixed
			}
			if sh < 0 || sh >= len(s.shards) {
				return fmt.Errorf("commit record for shard %d of %d", sh, len(s.shards))
			}
			maxEpoch = max(maxEpoch, rec.Epoch)
			if rec.Ver > ver[sh] {
				return replayCommit(s.shards[sh], &rec)
			}
		}
		return nil
	})
	return maxEpoch, err
}

// replayCommit re-applies one commit record in a transaction of its own,
// through the normal commit path, so the candidate index, snapshots and
// sentinels rebuild exactly as they were built the first time.
func replayCommit(m *shard, rec *walRecord) error {
	tx := m.store.Begin(txn.Block)
	for _, ch := range rec.Changes {
		var err error
		if ch.Row == nil {
			if err = tx.Delete(ch.Table, ch.Key); errors.Is(err, txn.ErrNotFound) {
				err = nil // delete of a row an earlier record never created here
			}
		} else {
			var row txn.Row
			if row, err = decodeRow(ch.Table, ch.Row); err == nil {
				err = tx.Put(ch.Table, ch.Key, row)
			}
		}
		if err != nil {
			_ = tx.Abort()
			return fmt.Errorf("replaying %s/%s: %w", ch.Table, ch.Key, err)
		}
	}
	return tx.Commit()
}

// restoreComposite re-installs one checkpointed composite-directory entry.
func (s *Manager) restoreComposite(wc *walComposite) {
	c := compositeFromWal(wc)
	s.dirMu.Lock()
	for _, part := range c.parts {
		s.partOf[part.id] = wc.ID
	}
	s.dirMu.Unlock()
	s.dir.Store(wc.ID, c)
	s.compIDs.Observe(wc.ID)
}

// applyDirRecord replays one logged directory mutation.
func (s *Manager) applyDirRecord(rec *walRecord) {
	switch rec.Op {
	case dirAdd:
		if rec.Comp != nil {
			s.restoreComposite(rec.Comp)
		}
	case dirMove:
		s.dirMu.Lock()
		s.rehomeLocked(rec.Promise, rec.Shard)
		s.dirMu.Unlock()
	case dirDrop:
		s.dropComposite(rec.ID)
	}
}

// Checkpoint serializes the engine's current state into the data directory
// and truncates the log behind it. Safe to call while the engine serves
// requests: the log rotates first, state is captured after, so every
// pruned record is covered by the written checkpoint.
func (d *durableEngine) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("core: engine is closed")
	}
	return d.checkpointLocked()
}

func (d *durableEngine) checkpointLocked() error {
	// Rotate before capturing anything: a record in a pre-rotation segment
	// was appended after its snapshot (or bus/directory mutation)
	// published, so state captured now covers it.
	keep, err := d.log.Rotate()
	if err != nil {
		return err
	}
	ck := checkpoint{Shards: make([]storeCheckpoint, len(d.s.shards))}
	for i, sh := range d.s.shards {
		if ck.Shards[i], err = captureStore(sh.store.Snapshot()); err != nil {
			return err
		}
	}
	ck.Seq, ck.Ring = d.s.bus.snapshotRing()
	for id, c := range d.s.snapshotDir() {
		ck.Composites = append(ck.Composites, *compositeToWal(id, c))
	}
	moved := make(map[string]int)
	d.s.moved.Range(func(k, v any) bool {
		moved[k.(string)] = v.(int)
		return true
	})
	if len(moved) > 0 {
		ck.Moved = moved
	}
	ck.CompNext = d.s.compIDs.Count()
	payload, err := json.Marshal(&ck)
	if err != nil {
		return err
	}
	// Checkpoints are named by the segment they cover up to — the one
	// monotonic ordinal a directory has across process generations (store
	// versions restart on a fresh store).
	if err := wal.WriteCheckpoint(d.dir, keep, ck.Seq, payload); err != nil {
		return err
	}
	if err := d.log.RemoveSegmentsBefore(keep); err != nil {
		return err
	}
	d.checkpoints.Add(1)
	return nil
}

// armCadence keeps one clock alarm scheduled for the next automatic
// checkpoint. Disabled when the cadence is negative or the clock cannot
// alarm.
func (d *durableEngine) armCadence() {
	if d.opts.CheckpointEvery <= 0 {
		return
	}
	al, ok := d.clk.(clock.Alarmer)
	if !ok {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.alarmStop = al.AfterFunc(d.clk.Now().Add(d.opts.CheckpointEvery), func() {
		// Best-effort: a failed cadence checkpoint leaves the previous one
		// in place; logs simply grow until one succeeds.
		_ = d.Checkpoint()
		d.armCadence()
	})
}

// armReprobe keeps one clock alarm scheduled for the next degraded-mode
// log probe. It is the engineHealth onTrip hook, so the first persistence
// failure of an episode arms it; each failed probe re-arms. Disabled when
// the cadence is negative or the clock cannot alarm.
func (d *durableEngine) armReprobe() {
	if d.opts.ReprobeEvery <= 0 {
		return
	}
	al, ok := d.clk.(clock.Alarmer)
	if !ok {
		return
	}
	d.probeMu.Lock()
	defer d.probeMu.Unlock()
	if d.probeClosed {
		return
	}
	d.probeStop = al.AfterFunc(d.clk.Now().Add(d.opts.ReprobeEvery), func() {
		if d.reprobe() {
			return
		}
		d.armReprobe()
	})
}

// reprobe tests whether the log accepts writes again: one probe record
// appended and synced, then a full checkpoint. Commits that kept mutating
// memory while their appends failed (expiries, the request that tripped
// the latch) left holes in the log; the checkpoint recaptures the complete
// state, so the latch can be cleared without a future recovery ever
// replaying an incomplete history. Reports whether service was restored.
func (d *durableEngine) reprobe() bool {
	d.probeMu.Lock()
	closed := d.probeClosed
	d.probeMu.Unlock()
	if closed {
		return true
	}
	rec, err := json.Marshal(&walRecord{T: recProbe})
	if err != nil {
		return false
	}
	if d.log.Append(rec) != nil || d.log.Sync() != nil {
		return false
	}
	if err := d.Checkpoint(); err != nil {
		return false
	}
	d.errMu.Lock()
	d.err = nil
	d.errMu.Unlock()
	d.health.clear()
	return true
}

// close flushes everything, writes a final checkpoint, and closes the log.
// Idempotent. Callers should have quiesced requests first: a commit racing
// past the final state capture survives only in memory.
func (d *durableEngine) close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	stop := d.alarmStop
	d.alarmStop = nil
	d.mu.Unlock()
	if stop != nil {
		stop()
	}
	d.probeMu.Lock()
	d.probeClosed = true
	pstop := d.probeStop
	d.probeStop = nil
	d.probeMu.Unlock()
	if pstop != nil {
		pstop()
	}
	// Quiesce the engine's own background activity before the final
	// capture: deadline alarms would otherwise commit into a closed log.
	for _, sh := range d.s.shards {
		sh.exp.shutdown()
	}
	d.s.alarm.shutdown()

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	// Deactivate persistence first, then capture: everything committed up
	// to the capture lands in the final checkpoint whether or not its
	// record made the log, and nothing appends to the rotated log after.
	d.active.Store(false)
	d.s.bus.SetTap(nil)
	firstErr := d.checkpointLocked()
	d.closed = true
	if err := d.log.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Checkpoint forces a checkpoint of a durable Manager; see
// DurabilityOptions.CheckpointEvery for the automatic cadence.
// ErrNotDurable without a data directory.
func (s *Manager) Checkpoint() error {
	if s.durable == nil {
		return ErrNotDurable
	}
	return s.durable.Checkpoint()
}

// Close flushes state to the data directory (final checkpoint) and closes
// its logs. A Manager without a data directory only stops its expiry
// alarm. See promises.Engine.
func (s *Manager) Close() error {
	if s.durable == nil {
		for _, sh := range s.shards {
			sh.exp.shutdown()
		}
		s.alarm.shutdown()
		return nil
	}
	return s.durable.close()
}
