package core

// This file is the startup half of the durability layer (durable.go holds
// the record vocabulary and commit-path hooks): OpenDurable builds an
// engine whose state is the latest checkpoint plus a replay of the log
// tail, then keeps it durable from that point on.
//
// Recovery order matters and is fixed here:
//
//  1. Restore the bus (sequence cursor, replay ring, composite directory)
//     from the bus checkpoint, then its log tail. Sequence numbers must be
//     back before any store replay stamps an epoch.
//  2. Replay each shard's store: checkpoint tables in one transaction, then
//     every retained commit record in its own transaction through the
//     normal commit path — so the candidate index, snapshots and sentinels
//     rebuild exactly as they were built the first time.
//  3. Open fresh log segments, write a generation marker, and attach the
//     persist hooks. From here every commit is logged again.
//  4. Re-arm the expiry heap from the recovered promise tables and advance
//     the id generators past every recovered id.
//  5. Take an initial checkpoint. This prunes the previous generation's
//     segments, which is what makes the fresh store's restarted version
//     numbering unambiguous on the next recovery (any record surviving from
//     before it sits behind a generation marker).
//  6. Arm the checkpoint cadence alarm.

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
	data, err := json.Marshal(Manifest{Version: 1, Shards: shards})
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

// durableShard pairs one shard with its log and directory.
type durableShard struct {
	m   *shard
	log *wal.Log
	dir string
}

// durableEngine is the checkpoint/recovery runtime owned by a durable
// Manager.
type durableEngine struct {
	dir    string
	busDir string
	opts   DurabilityOptions
	clk    clock.Clock

	bus        *EventBus
	busLog     *wal.Log
	busPersist *persistLog
	shards     []durableShard
	s          *Manager
	health     *engineHealth

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

// shardDirName returns the per-shard log directory under the data dir.
func shardDirName(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d", i))
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
	d, err := openDurable(opts, s)
	if err != nil {
		return nil, err
	}
	s.durable = d
	return s, nil
}

// openDurable runs the recovery sequence described at the top of the file
// and returns the armed runtime.
func openDurable(opts DurabilityOptions, s *Manager) (*durableEngine, error) {
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	if opts.ReprobeEvery == 0 {
		opts.ReprobeEvery = DefaultReprobeEvery
	}
	dir := opts.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mf, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if mf != nil && mf.Shards != len(s.shards) {
		return nil, fmt.Errorf("core: data directory %s holds %d shard(s), engine configured with %d", dir, mf.Shards, len(s.shards))
	}
	if mf == nil {
		if err := writeManifest(dir, len(s.shards)); err != nil {
			return nil, err
		}
	}

	d := &durableEngine{
		dir: dir, busDir: filepath.Join(dir, "bus"),
		opts: opts, clk: s.clk, bus: s.bus, s: s,
		health: &engineHealth{},
	}
	d.health.onTrip = d.armReprobe
	for _, sh := range s.shards {
		sh.health = d.health
	}
	s.health = d.health

	// 1. Bus first: sequence numbering must be restored before any store
	// replay publishes snapshots stamped with epochs.
	if err := s.recoverBus(d.busDir); err != nil {
		return nil, fmt.Errorf("core: recovering event log: %w", err)
	}

	// 2. Per-shard store replay.
	var maxEpoch uint64
	for i, sh := range s.shards {
		sdir := shardDirName(dir, i)
		epoch, err := recoverStore(sh, sdir)
		if err != nil {
			return nil, fmt.Errorf("core: recovering shard %d: %w", i, err)
		}
		if epoch > maxEpoch {
			maxEpoch = epoch
		}
		d.shards = append(d.shards, durableShard{m: sh, dir: sdir})
	}
	// A commit whose events record was lost in the crash must still never
	// see its epoch's sequence numbers reissued.
	s.bus.ensureSeqAtLeast(maxEpoch)

	// 3. Fresh segments, generation markers, persist hooks.
	wopts := wal.Options{Policy: opts.Sync, SyncEvery: opts.SyncEvery}
	if d.busLog, err = wal.OpenLog(d.busDir, wopts); err != nil {
		return nil, err
	}
	d.busPersist = &persistLog{log: d.busLog}
	genRec, err := json.Marshal(&walRecord{T: recGen})
	if err != nil {
		return nil, err
	}
	for i := range d.shards {
		lg, err := wal.OpenLog(d.shards[i].dir, wopts)
		if err == nil {
			err = lg.Append(genRec)
		}
		if err != nil {
			d.closeLogs()
			return nil, err
		}
		d.shards[i].log = lg
		p := &persistLog{log: lg, health: d.health}
		d.shards[i].m.persist = p
		p.active.Store(true)
	}
	d.busPersist.health = d.health
	d.busPersist.active.Store(true)
	s.bus.SetTap(d.busPersist.logEvents)
	s.busPersist = d.busPersist

	// 4. Re-arm expiry and advance id generators. Past-due promises fire
	// (asynchronously) through the normal expiry path, which is now logged.
	for _, sh := range d.shards {
		snap := sh.m.store.Snapshot()
		_ = snap.Scan(TablePromises, func(key string, row txn.Row) bool {
			p := &row.(*promiseRow).p
			if p.State == Active {
				sh.m.trackExpiry(p.ID, p.Expires)
			}
			// Observe, not a raw suffix scan: a shard's table can hold
			// promises migrated in from other shards, whose suffixes must
			// not advance this shard's generator.
			sh.m.promiseIDs.Observe(key)
			return true
		})
		_ = snap.Scan(TablePromisesDone, func(key string, _ txn.Row) bool {
			sh.m.promiseIDs.Observe(key)
			return true
		})
	}

	// 5. Initial checkpoint: prunes the recovered generation's segments so
	// the fresh store's version numbering owns the retained log.
	if err := d.Checkpoint(); err != nil {
		d.closeLogs()
		return nil, fmt.Errorf("core: initial checkpoint: %w", err)
	}

	// 6. Cadence.
	d.armCadence()
	return d, nil
}

// recoverStore rebuilds one shard's store from its directory: checkpoint
// tables in one transaction, then each retained commit record in its own,
// all through the normal commit path. It returns the highest epoch seen on
// a replayed record (zero when none).
func recoverStore(m *shard, dir string) (maxEpoch uint64, err error) {
	_, _, payload, err := wal.LatestCheckpoint(dir)
	if err != nil {
		return 0, err
	}
	var threshold uint64 // replay skips records at or below this version
	if payload != nil {
		var ck storeCheckpoint
		if err := json.Unmarshal(payload, &ck); err != nil {
			return 0, fmt.Errorf("decoding checkpoint: %w", err)
		}
		threshold = ck.Ver
		tx := m.store.Begin(txn.Block)
		for tbl, rows := range ck.Tables {
			for key, raw := range rows {
				row, err := decodeRow(tbl, raw)
				if err == nil {
					err = tx.Put(tbl, key, row)
				}
				if err != nil {
					_ = tx.Abort()
					return 0, fmt.Errorf("restoring %s/%s: %w", tbl, key, err)
				}
			}
		}
		if err := tx.Commit(); err != nil {
			return 0, err
		}
	}
	_, err = wal.Replay(dir, func(p []byte) error {
		var rec walRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			return err
		}
		switch rec.T {
		case recGen:
			// Everything after this marker was written by a later engine
			// generation, on top of exactly the state replay has just
			// rebuilt; its version numbering restarted, so the checkpoint
			// threshold no longer applies.
			threshold = 0
			return nil
		case recCommit:
		default:
			return nil
		}
		if rec.Epoch > maxEpoch {
			maxEpoch = rec.Epoch
		}
		if rec.Ver <= threshold {
			return nil // already inside the checkpoint
		}
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
	})
	return maxEpoch, err
}

// recoverBus rebuilds the shared bus and the composite directory from the
// bus checkpoint and log tail. Replay is idempotent: events at or below the
// restored cursor are skipped and directory records are plain overwrites.
func (s *Manager) recoverBus(dir string) error {
	_, _, payload, err := wal.LatestCheckpoint(dir)
	if err != nil {
		return err
	}
	if payload != nil {
		var ck busCheckpoint
		if err := json.Unmarshal(payload, &ck); err != nil {
			return fmt.Errorf("decoding bus checkpoint: %w", err)
		}
		s.bus.restore(ck.Seq, ck.Ring)
		for i := range ck.Composites {
			s.restoreComposite(&ck.Composites[i])
		}
		for id, shard := range ck.Moved {
			s.moved.Store(id, shard)
		}
		s.compIDs.EnsureAtLeast(ck.CompNext)
	}
	_, err = wal.Replay(dir, func(p []byte) error {
		var rec walRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			return err
		}
		switch rec.T {
		case recEvents:
			s.bus.restoreEvents(rec.Events)
		case recDir:
			s.applyDirRecord(&rec)
		}
		return nil
	})
	return err
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
		if rec.Shard < 0 {
			// A federated migrate-out: the slot left this node entirely,
			// so its moved entry (if any) is retired rather than re-homed.
			s.moved.Delete(rec.Promise)
			return
		}
		s.moved.Store(rec.Promise, rec.Shard)
		s.dirMu.Lock()
		cid, ok := s.partOf[rec.Promise]
		s.dirMu.Unlock()
		if !ok {
			return
		}
		v, ok := s.dir.Load(cid)
		if !ok {
			return
		}
		old := v.(*composite)
		fresh := &composite{
			client:  old.client,
			expires: old.expires,
			parts:   append([]compositePart(nil), old.parts...),
		}
		for i := range fresh.parts {
			if fresh.parts[i].id == rec.Promise {
				fresh.parts[i].shard = rec.Shard
			}
		}
		s.dir.Store(cid, fresh)
	case dirDrop:
		s.dropComposite(rec.ID)
	}
}

// Checkpoint serializes the engine's current state into the data directory
// and truncates the logs behind it. Safe to call while the engine serves
// requests: logs rotate first, state is captured after, so every pruned
// record is covered by the written checkpoint.
func (d *durableEngine) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("core: engine is closed")
	}
	return d.checkpointLocked()
}

func (d *durableEngine) checkpointLocked() error {
	// Rotate every log before capturing anything: a record in a pre-
	// rotation segment was appended after its snapshot (or bus/directory
	// mutation) published, so state captured now covers it.
	busKeep, err := d.busLog.Rotate()
	if err != nil {
		return err
	}
	shardKeep := make([]uint64, len(d.shards))
	for i := range d.shards {
		if shardKeep[i], err = d.shards[i].log.Rotate(); err != nil {
			return err
		}
	}
	for i := range d.shards {
		sh := d.shards[i]
		snap := sh.m.store.Snapshot()
		payload, err := encodeStoreCheckpoint(snap)
		if err != nil {
			return err
		}
		// Checkpoints are named by the segment they cover up to — the one
		// monotonic ordinal a directory has across process generations
		// (store versions restart on a fresh store; snapshot epochs are not
		// monotonic around engine construction).
		if err := wal.WriteCheckpoint(sh.dir, shardKeep[i], snap.Version(), payload); err != nil {
			return err
		}
		if err := sh.log.RemoveSegmentsBefore(shardKeep[i]); err != nil {
			return err
		}
	}
	seq, ring := d.bus.snapshotRing()
	ck := busCheckpoint{Seq: seq, Ring: ring}
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
	payload, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	if err := wal.WriteCheckpoint(d.busDir, busKeep, seq, payload); err != nil {
		return err
	}
	if err := d.busLog.RemoveSegmentsBefore(busKeep); err != nil {
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

// reprobe tests whether the logs accept writes again: one probe record
// appended and synced per log, then a full checkpoint. Commits that kept
// mutating memory while their appends failed (expiries, the request that
// tripped the latch) left holes in the log; the checkpoint recaptures the
// complete state, so the latches can be cleared without a future recovery
// ever replaying an incomplete history. Reports whether service was
// restored.
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
	probe := func(l *wal.Log) bool {
		return l.Append(rec) == nil && l.Sync() == nil
	}
	for _, sh := range d.shards {
		if !probe(sh.log) {
			return false
		}
	}
	if !probe(d.busLog) {
		return false
	}
	if err := d.Checkpoint(); err != nil {
		return false
	}
	for _, sh := range d.shards {
		sh.m.persist.clearLatched()
	}
	d.busPersist.clearLatched()
	d.health.clear()
	return true
}

// close flushes everything, writes a final checkpoint, and closes the logs.
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
	for _, sh := range d.shards {
		sh.m.exp.shutdown()
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	// Deactivate persistence first, then capture: everything committed up
	// to the capture lands in the final checkpoint whether or not its
	// record made the log, and nothing appends to the rotated logs after.
	for _, sh := range d.shards {
		sh.m.persist.active.Store(false)
	}
	d.busPersist.active.Store(false)
	d.bus.SetTap(nil)
	firstErr := d.checkpointLocked()
	d.closed = true
	for _, sh := range d.shards {
		if err := sh.log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := d.busLog.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// closeLogs is the open-path error cleanup: close whatever logs opened.
func (d *durableEngine) closeLogs() {
	for _, sh := range d.shards {
		if sh.log != nil {
			_ = sh.log.Close()
		}
	}
	if d.busLog != nil {
		_ = d.busLog.Close()
	}
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
// alarms. See promises.Engine.
func (s *Manager) Close() error {
	if s.durable == nil {
		for _, sh := range s.shards {
			sh.exp.shutdown()
		}
		return nil
	}
	return s.durable.close()
}
