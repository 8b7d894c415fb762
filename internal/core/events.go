package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the subscription face of the promise manager: lifecycle
// transitions become typed, pushed events instead of states a client polls
// for with CheckBatch — the §6 notification direction ("managers notifying
// clients about promise lifecycle transitions") as an API.
//
// Every engine shape exposes the same Watch surface: the Manager injects
// one shared bus into every shard, so per-shard streams merge into a
// single totally ordered sequence and events survive a cross-shard slot migration under
// their promise id. The transport serves the bus as SSE (GET /events) and
// transport.Client re-exposes Watch over it.
//
// Events are per concrete promise: parts of a cross-shard composite appear
// individually under their per-shard ids, exactly as in ActivePromises.

// EventType names one promise lifecycle transition.
type EventType string

// Lifecycle event types.
const (
	// EventGranted: a promise was granted (one event per concrete promise;
	// the parts of a cross-shard composite each emit their own).
	EventGranted EventType = "granted"
	// EventRenewed: a grant that atomically released prior promises — the
	// §4 modify/upgrade shape. The event carries the new promise id; the
	// replaced promises emit EventReleased alongside. Parts of a
	// cross-shard pipeline always emit EventGranted.
	EventRenewed EventType = "renewed"
	// EventReleased: the client handed the promise back.
	EventReleased EventType = "released"
	// EventExpired: the promise lapsed at its deadline; its holds are free.
	EventExpired EventType = "expired"
	// EventExpiryImminent: the promise is within its configured warning
	// window of expiry (Config.ExpiryWarning / promises.WithExpiryWarning);
	// a client that still needs the guarantee should renew now.
	EventExpiryImminent EventType = "expiry-imminent"
	// EventViolated: a post-action check found the promise violated and
	// rolled the action back (§8). PromiseID may be empty when the
	// violation is a joint property-matching failure not attributable to
	// one promise.
	EventViolated EventType = "violated"
	// EventMigrated: the global matcher re-homed the promise's slot on
	// another shard; the promise id, client and expiry are unchanged.
	EventMigrated EventType = "migrated"
	// EventPreempted: a higher-priority grant revoked this preemptible
	// promise before its deadline. By carries the displacing promise id and
	// Priority the displacing tier; the holder's recourse is to re-request
	// (possibly at a higher tier) — see EventType docs in docs/architecture.md.
	EventPreempted EventType = "preempted"
)

// Event is one promise lifecycle transition.
type Event struct {
	// Seq is the bus-assigned sequence number, strictly increasing across
	// the whole engine. Consumers detect dropped events (SlowDrop policy)
	// by gaps, and resume a broken subscription with WatchOptions.AfterSeq
	// (the SSE Last-Event-ID cursor).
	Seq uint64 `json:"seq"`
	// Type is the transition.
	Type EventType `json:"type"`
	// PromiseID is the promise that transitioned.
	PromiseID string `json:"promise,omitempty"`
	// Client is the promise's owner.
	Client string `json:"client,omitempty"`
	// Time is the engine-clock instant of the transition.
	Time time.Time `json:"time"`
	// Expires is the promise's current expiry, where meaningful (granted,
	// renewed, expiry-imminent, migrated).
	Expires time.Time `json:"expires,omitempty"`
	// Reason carries detail: the violation message, the replaced ids of a
	// renewal, the shard movement of a migration.
	Reason string `json:"reason,omitempty"`
	// By, on a preempted event, is the displacing promise's id (the part id
	// on its shard for a cross-shard composite grant).
	By string `json:"by,omitempty"`
	// Priority, on a preempted event, is the displacing request's tier.
	Priority int `json:"priority,omitempty"`
}

// MarshalJSON omits a zero Expires — encoding/json's omitempty does not
// apply to struct zero values, and a released/expired event must not show
// a year-0001 expiry on the SSE wire.
func (e Event) MarshalJSON() ([]byte, error) {
	type alias Event
	aux := struct {
		alias
		Expires *time.Time `json:"expires,omitempty"`
	}{alias: alias(e)}
	if !e.Expires.IsZero() {
		aux.Expires = &e.Expires
	}
	return json.Marshal(aux)
}

// SlowPolicy selects what the bus does with a subscriber whose channel
// buffer is full when an event arrives.
type SlowPolicy int

const (
	// SlowDrop (the default) drops the event for that subscriber; the gap
	// is visible as missing Seq values.
	SlowDrop SlowPolicy = iota
	// SlowDisconnect closes the subscription instead of dropping, so a
	// consumer that must not miss events fails loudly and can re-Watch
	// with AfterSeq.
	SlowDisconnect
)

// WatchOptions filters and configures one subscription.
type WatchOptions struct {
	// Client restricts the stream to one client's promises ("" = all).
	Client string
	// PromiseIDs restricts the stream to specific promises (nil = all).
	PromiseIDs []string
	// Types restricts the stream to specific event types (nil = all).
	Types []EventType
	// Buffer is the subscription channel's capacity; 0 means 64.
	Buffer int
	// SlowPolicy selects the full-buffer behaviour.
	SlowPolicy SlowPolicy
	// AfterSeq, with Replay set, resumes a stream: retained events with
	// Seq > AfterSeq are delivered first, then live ones. The bus retains
	// a bounded ring of recent events; resuming past its horizon shows as
	// a Seq gap.
	AfterSeq uint64
	// Replay enables the AfterSeq replay (so AfterSeq zero can mean
	// "replay everything retained").
	Replay bool
}

// DefaultReplayRing bounds the replay ring when no explicit capacity is
// configured: reconnecting subscribers can resume across this many events.
// See Config.ReplayRing / promises.WithReplayRing / promised -replay-ring.
const DefaultReplayRing = 4096

// maxWatchBuffer caps a subscription's channel capacity. The buffer is
// remote-controllable through GET /events?buffer=, so it must not size an
// arbitrary allocation.
const maxWatchBuffer = 1 << 16

// subscriber is one Watch registration.
type subscriber struct {
	ch     chan Event
	opts   WatchOptions
	ids    map[string]bool
	types  map[EventType]bool
	closed bool
}

// matches reports whether the subscriber wants ev.
func (s *subscriber) matches(ev Event) bool {
	if s.opts.Client != "" && ev.Client != s.opts.Client {
		return false
	}
	if s.ids != nil && !s.ids[ev.PromiseID] {
		return false
	}
	if s.types != nil && !s.types[ev.Type] {
		return false
	}
	return true
}

// EventBus fans promise lifecycle events out to subscribers. Publication
// happens post-commit under the bus mutex, so subscribers observe one total
// order, and all events of one promise arrive in lifecycle order.
type EventBus struct {
	mu      sync.Mutex
	seq     atomic.Uint64 // written under mu; read lock-free by Seq
	ringCap int
	ring    []Event // newest last; grows to ringCap, then slides
	subs    map[uint64]*subscriber
	nextSub uint64
	// tap, when set, observes every published batch (Seq already stamped)
	// under b.mu — so tap call order equals Seq order. The durability layer
	// uses it to mirror the bus into the shared write-ahead log.
	tap func(events []Event)
}

// SetTap installs fn as the bus's publication tap: every subsequently
// published batch is passed to fn, with sequence numbers assigned, under
// the bus mutex. One tap at most; nil removes it. fn must not call back
// into the bus.
func (b *EventBus) SetTap(fn func(events []Event)) {
	b.mu.Lock()
	b.tap = fn
	b.mu.Unlock()
}

// restore rewinds the bus to a checkpointed state: the next published event
// gets sequence seq+1 and the replay ring holds ring (truncated to the
// bus's capacity, newest kept). Recovery-only; must precede any publish or
// Watch.
func (b *EventBus) restore(seq uint64, ring []Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq.Store(seq)
	if len(ring) > b.ringCap {
		ring = ring[len(ring)-b.ringCap:]
	}
	b.ring = append(b.ring[:0:0], ring...)
}

// restoreEvents re-appends logged events with sequence numbers beyond the
// restored cursor — the WAL tail after a checkpoint. Already-seen events
// (Seq at or below the cursor) are skipped, so replay is idempotent.
// Recovery-only; no fan-out happens (there are no subscribers yet).
func (b *EventBus) restoreEvents(events []Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ev := range events {
		if ev.Seq <= b.seq.Load() {
			continue
		}
		b.seq.Store(ev.Seq)
		b.ring = append(b.ring, ev)
		if len(b.ring) > b.ringCap {
			b.ring = b.ring[len(b.ring)-b.ringCap:]
		}
	}
}

// ensureSeqAtLeast advances the sequence cursor to at least n without
// touching the ring — recovery uses it so sequence numbers never repeat
// even when the tail of the event log was lost.
func (b *EventBus) ensureSeqAtLeast(n uint64) {
	b.mu.Lock()
	if n > b.seq.Load() {
		b.seq.Store(n)
	}
	b.mu.Unlock()
}

// snapshotRing copies the current cursor and replay ring for a checkpoint.
func (b *EventBus) snapshotRing() (uint64, []Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq.Load(), append([]Event(nil), b.ring...)
}

// NewEventBusCap returns an empty bus whose replay ring retains up to cap
// events (cap <= 0 means DefaultReplayRing). A larger ring lets
// reconnecting subscribers resume across longer outages at the cost of
// memory; a smaller one surfaces resume gaps sooner.
func NewEventBusCap(cap int) *EventBus {
	if cap <= 0 {
		cap = DefaultReplayRing
	}
	return &EventBus{ringCap: cap, subs: make(map[uint64]*subscriber)}
}

// Seq returns the sequence number of the most recently published event
// (zero before any). It is a lock-free atomic read: the promise manager
// stamps it onto every published store snapshot as the snapshot's epoch,
// so snapshot readers and Watch streams agree on how far history has
// progressed.
func (b *EventBus) Seq() uint64 { return b.seq.Load() }

// Watch subscribes to the bus: events matching opts are delivered on the
// returned channel until ctx is cancelled (the channel is then closed) or,
// under SlowDisconnect, the subscriber falls behind. See promises.Engine.
func (b *EventBus) Watch(ctx context.Context, opts WatchOptions) (<-chan Event, error) {
	if opts.Buffer < 0 {
		return nil, fmt.Errorf("%w: negative watch buffer %d", ErrBadRequest, opts.Buffer)
	}
	if opts.Buffer == 0 {
		opts.Buffer = 64
	}
	if opts.Buffer > maxWatchBuffer {
		opts.Buffer = maxWatchBuffer
	}
	sub := &subscriber{opts: opts}
	if len(opts.PromiseIDs) > 0 {
		sub.ids = make(map[string]bool, len(opts.PromiseIDs))
		for _, id := range opts.PromiseIDs {
			sub.ids[id] = true
		}
	}
	if len(opts.Types) > 0 {
		sub.types = make(map[EventType]bool, len(opts.Types))
		for _, t := range opts.Types {
			sub.types[t] = true
		}
	}

	b.mu.Lock()
	// Replay happens before the subscriber can possibly drain, so the
	// channel is sized to hold every replayed event on top of the
	// configured buffer — a Last-Event-ID resume within the ring is
	// lossless regardless of how far behind the cursor is.
	var replay []Event
	if opts.Replay {
		for _, ev := range b.retainedLocked() {
			if ev.Seq > opts.AfterSeq && sub.matches(ev) {
				replay = append(replay, ev)
			}
		}
	}
	sub.ch = make(chan Event, opts.Buffer+len(replay))
	for _, ev := range replay {
		sub.ch <- ev
	}
	id := b.nextSub
	b.nextSub++
	b.subs[id] = sub
	b.mu.Unlock()

	go func() {
		<-ctx.Done()
		b.unsubscribe(id)
	}()
	return sub.ch, nil
}

// retainedLocked lists the ring's events, oldest first. Callers hold b.mu
// and must not retain the slice past it.
func (b *EventBus) retainedLocked() []Event { return b.ring }

// deliverLocked enqueues ev for one subscriber, applying its slow policy on
// a full buffer.
func (b *EventBus) deliverLocked(id uint64, sub *subscriber, ev Event) {
	if sub.closed {
		return
	}
	select {
	case sub.ch <- ev:
	default:
		if sub.opts.SlowPolicy == SlowDisconnect {
			sub.closed = true
			close(sub.ch)
			delete(b.subs, id)
		}
		// SlowDrop: the gap shows as missing Seq values.
	}
}

// unsubscribe removes and closes one subscription.
func (b *EventBus) unsubscribe(id uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if sub, ok := b.subs[id]; ok && !sub.closed {
		sub.closed = true
		close(sub.ch)
	}
	delete(b.subs, id)
}

// publish assigns sequence numbers to events and fans them out. Callers
// invoke it only after the transition is durable (post-commit), in the
// order the transitions happened.
func (b *EventBus) publish(events ...Event) {
	if len(events) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var stamped []Event
	if b.tap != nil {
		stamped = make([]Event, 0, len(events))
	}
	for _, ev := range events {
		ev.Seq = b.seq.Add(1)
		b.ring = append(b.ring, ev)
		if len(b.ring) > b.ringCap {
			b.ring = b.ring[len(b.ring)-b.ringCap:]
		}
		for id, sub := range b.subs {
			if sub.matches(ev) {
				b.deliverLocked(id, sub, ev)
			}
		}
		if b.tap != nil {
			stamped = append(stamped, ev)
		}
	}
	if b.tap != nil {
		b.tap(stamped)
	}
}
