package core

// This file is the serialization half of the durability layer (see
// recover.go for the startup half): the record vocabulary written to the
// write-ahead log, the per-table row codecs, and the hooks the commit path
// drives.
//
// One log per data directory carries every durable record. Each shard's
// store appends one "commit" record per committed transaction, tagged with
// the shard's index — written from the store's commit hook, which runs
// under the snapshot-publication mutex, so one shard's records land in its
// version order. The bus appends one "events" record per published event
// batch (under the bus mutex, so log order equals Seq order), and the
// composite directory one "dir" record per mutation. A "gen" marker
// separates log generations: it is appended when a recovered engine reopens
// the log, so a crash before the recovered engine's first checkpoint cannot
// confuse the old generation's version numbering with the new one's.
// Records are appended under shard and bus locks; the log is synced only
// outside them (Manager.syncAfter).

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/escrow"
	"repro/internal/resource"
	"repro/internal/softlock"
	"repro/internal/txn"
	"repro/internal/wal"
)

// SyncPolicy re-exports the WAL sync vocabulary at the engine surface.
type SyncPolicy = wal.SyncPolicy

// Sync policies (see wal.SyncPolicy).
const (
	SyncAlways   = wal.SyncAlways
	SyncInterval = wal.SyncInterval
	SyncNone     = wal.SyncNone
)

// ParseSyncPolicy parses "always", "interval" or "none" — the promised
// daemon's -sync vocabulary.
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// DurabilityOptions configures a durable engine (OpenDurable).
type DurabilityOptions struct {
	// Dir is the data directory. Required. One live process per directory;
	// the layout is documented in docs/operations.md.
	Dir string
	// Sync selects when log appends reach stable storage. The zero value is
	// SyncAlways: a responded request is durable.
	Sync SyncPolicy
	// SyncEvery is the background fsync cadence under SyncInterval; zero
	// means wal.DefaultSyncEvery (50ms).
	SyncEvery time.Duration
	// CheckpointEvery is the automatic checkpoint cadence, driven by the
	// engine clock when it can alarm. Zero means 1 minute; negative
	// disables automatic checkpoints (Checkpoint can still be called).
	CheckpointEvery time.Duration
	// ReprobeEvery is the degraded-mode log re-probe cadence: after a
	// persistent WAL failure trips read-only mode, the engine probes the
	// log on this cadence and restores service when a probe (append +
	// sync + checkpoint) succeeds. Zero means 5 seconds; negative disables
	// automatic re-probing (the engine stays degraded until restarted).
	ReprobeEvery time.Duration
}

// DefaultCheckpointEvery is the automatic checkpoint cadence when
// DurabilityOptions.CheckpointEvery is zero.
const DefaultCheckpointEvery = time.Minute

// DefaultReprobeEvery is the degraded-mode re-probe cadence when
// DurabilityOptions.ReprobeEvery is zero.
const DefaultReprobeEvery = 5 * time.Second

// ErrNotDurable is returned by Checkpoint on an engine opened without a
// data directory.
var ErrNotDurable = errors.New("core: engine has no data directory")

// Record types. Single letters: one is prefixed to every committed
// transaction and event batch.
const (
	recCommit = "c" // one committed store transaction
	recEvents = "e" // one published event batch
	recDir    = "d" // one composite-directory mutation
	recGen    = "g" // generation marker: a recovered engine reopened this log
	recProbe  = "p" // degraded-mode liveness probe; replay skips it
)

// Directory-record operations.
const (
	dirAdd  = "add"
	dirMove = "move"
	dirDrop = "drop"
)

// walChange is one row change of a commit record. A nil Row is a delete.
type walChange struct {
	Table string          `json:"tbl"`
	Key   string          `json:"key"`
	Row   json.RawMessage `json:"row,omitempty"`
}

// walPart mirrors compositePart.
type walPart struct {
	Shard   int       `json:"shard"`
	ID      string    `json:"id"`
	PredIdx []int     `json:"pred_idx,omitempty"`
	Expires time.Time `json:"expires"`
}

// walComposite mirrors a composite-directory entry.
type walComposite struct {
	ID      string    `json:"id"`
	Client  string    `json:"client"`
	Expires time.Time `json:"expires"`
	Parts   []walPart `json:"parts"`
}

// walRecord is the one record shape of the log; T selects which fields are
// meaningful.
type walRecord struct {
	T string `json:"t"`
	// Shard is the committing shard of a commit record and the destination
	// shard of a move record.
	Shard int `json:"shard,omitempty"`
	// commit records: the committed snapshot's version and epoch plus the
	// touched rows' new values.
	Ver     uint64      `json:"ver,omitempty"`
	Epoch   uint64      `json:"epoch,omitempty"`
	Changes []walChange `json:"changes,omitempty"`
	// events records: the published batch, Seq already stamped.
	Events []Event `json:"events,omitempty"`
	// dir records.
	Op      string        `json:"op,omitempty"`
	Comp    *walComposite `json:"comp,omitempty"`    // add
	Promise string        `json:"promise,omitempty"` // move: the migrated id
	ID      string        `json:"id,omitempty"`      // drop: composite id
}

// storeCheckpoint is one shard's serialized table state.
type storeCheckpoint struct {
	Ver    uint64                                `json:"ver"`
	Tables map[string]map[string]json.RawMessage `json:"tables"`
}

// busCheckpoint is the shared bus and composite-directory state.
type busCheckpoint struct {
	Seq        uint64         `json:"seq"`
	Ring       []Event        `json:"ring,omitempty"`
	Composites []walComposite `json:"composites,omitempty"`
	Moved      map[string]int `json:"moved,omitempty"`
	CompNext   uint64         `json:"comp_next,omitempty"`
}

// checkpoint is the whole engine's state in one file: every shard's tables,
// in shard order, plus the bus and composite directory.
type checkpoint struct {
	Shards []storeCheckpoint `json:"shards"`
	busCheckpoint
}

// durableTables lists exactly the tables the engine persists — the six its
// constructor creates. Rows an action writes into tables of its own are
// not durable (encodeRow fails loudly rather than dropping them silently).
var durableTables = []string{
	TablePromises, TablePromisesDone,
	escrow.Table, softlock.Table,
	resource.TablePools, resource.TableInstances,
}

// predJSON is the serialized form of one core Predicate: the property
// expression travels as its source text and is re-parsed on decode, so the
// codec never chases the Expr interface.
type predJSON struct {
	View     int    `json:"view"`
	Pool     string `json:"pool,omitempty"`
	Qty      int64  `json:"qty,omitempty"`
	Instance string `json:"instance,omitempty"`
	Expr     string `json:"expr,omitempty"`
}

// promiseJSON is the serialized form of a promiseRow.
type promiseJSON struct {
	ID           string     `json:"id"`
	Client       string     `json:"client"`
	Predicates   []predJSON `json:"predicates,omitempty"`
	Assigned     []string   `json:"assigned,omitempty"`
	DelegatedQty []int64    `json:"delegated_qty,omitempty"`
	DelegatedID  []string   `json:"delegated_id,omitempty"`
	Expires      time.Time  `json:"expires"`
	State        int        `json:"state"`
	Priority     int        `json:"priority,omitempty"`
	Preemptible  bool       `json:"preemptible,omitempty"`
}

// MarshalJSON implements json.Marshaler for checkpoint/WAL serialization.
func (r *promiseRow) MarshalJSON() ([]byte, error) {
	p := &r.p
	out := promiseJSON{
		ID: p.ID, Client: p.Client,
		Assigned: p.Assigned, DelegatedQty: p.DelegatedQty, DelegatedID: p.DelegatedID,
		Expires: p.Expires, State: int(p.State),
		Priority: p.Priority, Preemptible: p.Preemptible,
	}
	for _, pred := range p.Predicates {
		pj := predJSON{View: int(pred.View), Pool: pred.Pool, Qty: pred.Qty, Instance: pred.Instance}
		if pred.View == PropertyView {
			pj.Expr = pred.Source
			if pj.Expr == "" && pred.Expr != nil {
				pj.Expr = pred.Expr.String()
			}
		}
		out.Predicates = append(out.Predicates, pj)
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler; property expressions are
// re-parsed from their preserved source text.
func (r *promiseRow) UnmarshalJSON(data []byte) error {
	var in promiseJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	p := Promise{
		ID: in.ID, Client: in.Client,
		Assigned: in.Assigned, DelegatedQty: in.DelegatedQty, DelegatedID: in.DelegatedID,
		Expires: in.Expires, State: State(in.State),
		Priority: in.Priority, Preemptible: in.Preemptible,
	}
	for _, pj := range in.Predicates {
		switch View(pj.View) {
		case PropertyView:
			pred, err := Property(pj.Expr)
			if err != nil {
				return fmt.Errorf("core: promise %s: bad stored predicate %q: %w", in.ID, pj.Expr, err)
			}
			p.Predicates = append(p.Predicates, pred)
		case NamedView:
			p.Predicates = append(p.Predicates, Named(pj.Instance))
		default:
			p.Predicates = append(p.Predicates, Quantity(pj.Pool, pj.Qty))
		}
	}
	r.p = p
	return nil
}

// encodeRow serializes one row of a durable table.
func encodeRow(tbl string, row txn.Row) (json.RawMessage, error) {
	switch tbl {
	case TablePromises, TablePromisesDone:
		return json.Marshal(row.(*promiseRow))
	case escrow.Table, softlock.Table, resource.TablePools, resource.TableInstances:
		return json.Marshal(row)
	}
	return nil, fmt.Errorf("core: table %q is not durable (only the engine's own tables persist)", tbl)
}

// decodeRow deserializes one row of a durable table.
func decodeRow(tbl string, data []byte) (txn.Row, error) {
	switch tbl {
	case TablePromises, TablePromisesDone:
		r := &promiseRow{}
		if err := json.Unmarshal(data, r); err != nil {
			return nil, err
		}
		return r, nil
	case escrow.Table:
		return escrow.DecodeRow(data)
	case softlock.Table:
		return softlock.DecodeRow(data)
	case resource.TablePools:
		p := &resource.Pool{}
		if err := json.Unmarshal(data, p); err != nil {
			return nil, err
		}
		return p, nil
	case resource.TableInstances:
		i := &resource.Instance{}
		if err := json.Unmarshal(data, i); err != nil {
			return nil, err
		}
		return i, nil
	}
	return nil, fmt.Errorf("core: no row codec for table %q", tbl)
}

// The commit path's hooks into the log. Appends happen inside commit hooks
// and bus publication, which have no caller to return an error to; a
// failure is latched, and reported both by the commit path that appended
// (latched) and by the entry point's sync. Every hook is nil-safe: a
// non-durable engine has no durableEngine.

func (d *durableEngine) fail(err error) {
	d.errMu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.errMu.Unlock()
	d.health.trip(err.Error())
}

// latched reports the first append failure not yet cleared by a re-probe.
// Shard-level commit paths call it after committing: it costs no I/O, so it
// is safe under a shard lock.
func (d *durableEngine) latched() error {
	if d == nil {
		return nil
	}
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.err
}

// appendRecord logs one record while persistence is active.
func (d *durableEngine) appendRecord(rec *walRecord) {
	if d == nil || !d.active.Load() {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		d.fail(err)
		return
	}
	if err := d.log.Append(data); err != nil {
		d.fail(err)
	}
}

// sync surfaces any latched append failure, then forces the log to stable
// storage per its policy. Either failure trips degraded mode: the engine
// can no longer make commits durable.
func (d *durableEngine) sync() error {
	if d == nil {
		return nil
	}
	if err := d.latched(); err != nil {
		return err
	}
	if !d.active.Load() {
		return nil
	}
	if err := d.log.Sync(); err != nil {
		d.health.trip(err.Error())
		return err
	}
	return nil
}

// logCommit is the store commit hook's durability half: one commit record,
// tagged with the shard, naming every touched row's new value (or
// deletion). It runs under the snapshot-publication mutex, so one shard's
// records land in version order.
func (d *durableEngine) logCommit(shard int, snap *txn.Snapshot, touched []txn.TableKey) {
	if !d.active.Load() {
		return
	}
	rec := walRecord{T: recCommit, Shard: shard, Ver: snap.Version(), Epoch: snap.Epoch()}
	rec.Changes = make([]walChange, 0, len(touched))
	for _, tk := range touched {
		ch := walChange{Table: tk.Table, Key: tk.Key}
		if row, err := snap.Get(tk.Table, tk.Key); err == nil {
			data, err := encodeRow(tk.Table, row)
			if err != nil {
				d.fail(err)
				return
			}
			ch.Row = data
		}
		rec.Changes = append(rec.Changes, ch)
	}
	d.appendRecord(&rec)
}

// logEvents is the bus tap: one events record per published batch, appended
// under the bus mutex so log order equals Seq order.
func (d *durableEngine) logEvents(events []Event) {
	d.appendRecord(&walRecord{T: recEvents, Events: events})
}

// syncAfter forces the log to stable storage (per the sync policy),
// surfacing latched append failures, and folds the outcome into a
// request's: the request's own error wins, and a sync failure turns a
// success into "not durable". Every mutating entry point calls it once,
// after releasing its shard locks and whether or not the request failed
// (a failed request may still have committed compensations). With one
// log, that sync covers every record appended before it: the request's
// own, and those of every commit the request could have observed.
func (s *Manager) syncAfter(err error) error {
	if serr := s.durable.sync(); serr != nil && err == nil {
		return fmt.Errorf("core: commit not durable: %w", serr)
	}
	return err
}

func compositeToWal(id string, c *composite) *walComposite {
	wc := &walComposite{ID: id, Client: c.client, Expires: c.expires}
	for _, part := range c.parts {
		wc.Parts = append(wc.Parts, walPart{Shard: part.shard, ID: part.id, PredIdx: part.predIdx, Expires: part.expires})
	}
	return wc
}

func compositeFromWal(wc *walComposite) *composite {
	c := &composite{client: wc.Client, expires: wc.Expires}
	for _, part := range wc.Parts {
		c.parts = append(c.parts, compositePart{shard: part.Shard, id: part.ID, predIdx: part.PredIdx, expires: part.Expires})
	}
	return c
}

// captureStore serializes one store snapshot's durable tables.
func captureStore(snap *txn.Snapshot) (storeCheckpoint, error) {
	ck := storeCheckpoint{
		Ver:    snap.Version(),
		Tables: make(map[string]map[string]json.RawMessage, len(durableTables)),
	}
	for _, tbl := range durableTables {
		rows := make(map[string]json.RawMessage)
		var encErr error
		err := snap.Scan(tbl, func(key string, row txn.Row) bool {
			data, err := encodeRow(tbl, row)
			if err != nil {
				encErr = err
				return false
			}
			rows[key] = data
			return true
		})
		if err == nil {
			err = encErr
		}
		if err != nil {
			return ck, fmt.Errorf("core: checkpoint of table %q: %w", tbl, err)
		}
		ck.Tables[tbl] = rows
	}
	return ck, nil
}
