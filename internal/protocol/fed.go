package protocol

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/predicate"
)

// Federated two-phase grant elements. A cross-node grant reserves on each
// contributing node (<reserve-request>), runs the joint property match over
// the returned contexts, then commits or rolls back (<confirm-request> /
// <abort-request>) — the PR 2 reserve/confirm pipeline with the shard
// boundary replaced by the wire. The shapes mirror core's Fed* types
// one-to-one; conversion helpers below keep the engine code free of XML.

// FedPredicate is one predicate with its position in the original request.
type FedPredicate struct {
	WirePredicate
	Idx int `xml:"idx,attr"`
}

// ReserveRequest is the <reserve-request> element: this node's slice of a
// federated grant. The client comes from the envelope header.
type ReserveRequest struct {
	WantProps   bool           `xml:"want-props,attr,omitempty"`
	Duration    string         `xml:"duration,attr,omitempty"`
	MinDuration string         `xml:"min-duration,attr,omitempty"`
	TTL         string         `xml:"ttl,attr,omitempty"`
	Priority    int            `xml:"priority,attr,omitempty"`
	Preemptible bool           `xml:"preemptible,attr,omitempty"`
	Predicates  []FedPredicate `xml:"predicate"`
	Releases    []string       `xml:"release"`
}

// FedGranted is one part tentatively granted at reserve (or pinned at
// confirm).
type FedGranted struct {
	ID      string `xml:"id,attr"`
	Expires string `xml:"expires,attr"`
	PredIdx []int  `xml:"pred-idx"`
}

// FedWireSlot is one exported property slot.
type FedWireSlot struct {
	Key         string `xml:"key,attr"`
	Expr        string `xml:"expr,attr"`
	Assigned    string `xml:"assigned,attr,omitempty"`
	Shard       int    `xml:"shard,attr"`
	Migratable  bool   `xml:"migratable,attr,omitempty"`
	CrossNode   bool   `xml:"cross-node,attr,omitempty"`
	Client      string `xml:"client,attr"`
	Expires     string `xml:"expires,attr"`
	Priority    int    `xml:"priority,attr,omitempty"`
	Preemptible bool   `xml:"preemptible,attr,omitempty"`
}

// FedProp is one instance property (value in predicate source syntax).
type FedProp struct {
	Name  string `xml:"name,attr"`
	Value string `xml:",chardata"`
}

// FedWireCandidate is one exported candidate instance.
type FedWireCandidate struct {
	Instance  string    `xml:"instance,attr"`
	Shard     int       `xml:"shard,attr"`
	Tentative bool      `xml:"tentative,attr,omitempty"`
	Props     []FedProp `xml:"prop"`
}

// FedWireContext is a node's property-match state.
type FedWireContext struct {
	Slots      []FedWireSlot      `xml:"slot"`
	Candidates []FedWireCandidate `xml:"candidate"`
}

// ReserveResponse answers a reserve-request. Result mirrors the promise
// response vocabulary: "accepted" opened a session, "rejected" carries the
// node's rejection and no session exists.
type ReserveResponse struct {
	Session  string          `xml:"session,attr,omitempty"`
	Result   string          `xml:"result,attr"`
	Reason   string          `xml:"reason,omitempty"`
	Counter  []WirePredicate `xml:"counter>predicate,omitempty"`
	Granted  []FedGranted    `xml:"granted"`
	Deferred []int           `xml:"deferred>idx"`
	Context  *FedWireContext `xml:"context,omitempty"`
}

// FedWireRealloc re-backs one slot with another instance of the same node.
type FedWireRealloc struct {
	Slot     string `xml:"slot,attr"`
	Instance string `xml:"instance,attr"`
}

// FedWireMigrateIn re-homes a slot arriving from another node.
type FedWireMigrateIn struct {
	ID          string `xml:"id,attr"`
	Client      string `xml:"client,attr"`
	Expr        string `xml:"expr,attr"`
	Expires     string `xml:"expires,attr"`
	Instance    string `xml:"instance,attr"`
	From        string `xml:"from,attr,omitempty"`
	Priority    int    `xml:"priority,attr,omitempty"`
	Preemptible bool   `xml:"preemptible,attr,omitempty"`
}

// FedWirePinned grants one floating predicate onto an instance of this
// node. Bind names the chosen instance (WirePredicate.Instance is the
// named-view resource reference and stays untouched).
type FedWirePinned struct {
	WirePredicate
	Idx  int    `xml:"idx,attr"`
	Bind string `xml:"bind,attr"`
}

// ConfirmRequest is the <confirm-request> element: the caller's plan for
// the session, to apply and commit.
type ConfirmRequest struct {
	Session    string             `xml:"session,attr"`
	Realloc    []FedWireRealloc   `xml:"realloc"`
	MigrateOut []string           `xml:"migrate-out"`
	MigrateIn  []FedWireMigrateIn `xml:"migrate-in"`
	Pinned     []FedWirePinned    `xml:"pinned"`
}

// ConfirmResponse reports every part the session granted.
type ConfirmResponse struct {
	Granted []FedGranted `xml:"granted"`
}

// AbortRequest rolls a session back; idempotent.
type AbortRequest struct {
	Session string `xml:"session,attr"`
}

// AbortResponse acknowledges an abort.
type AbortResponse struct {
	OK bool `xml:"ok,attr"`
}

// ReserveToWire encodes a node-side reserve spec.
func ReserveToWire(spec core.FedReserveSpec) *ReserveRequest {
	out := &ReserveRequest{
		WantProps:   spec.WantProps,
		Releases:    spec.Releases,
		Priority:    spec.Priority,
		Preemptible: spec.Preemptible,
	}
	if spec.Duration != 0 {
		out.Duration = spec.Duration.String()
	}
	if spec.MinDuration != 0 {
		out.MinDuration = spec.MinDuration.String()
	}
	if spec.TTL != 0 {
		out.TTL = spec.TTL.String()
	}
	for i, p := range spec.Predicates {
		out.Predicates = append(out.Predicates, FedPredicate{
			WirePredicate: PredicateToWire(p),
			Idx:           spec.PredIdx[i],
		})
	}
	return out
}

// ReserveFromWire decodes a reserve request.
func ReserveFromWire(w *ReserveRequest) (core.FedReserveSpec, error) {
	spec := core.FedReserveSpec{WantProps: w.WantProps, Releases: w.Releases, Priority: w.Priority, Preemptible: w.Preemptible}
	var err error
	if spec.Duration, err = parseWireDuration(w.Duration); err != nil {
		return spec, err
	}
	if spec.MinDuration, err = parseWireDuration(w.MinDuration); err != nil {
		return spec, err
	}
	if spec.TTL, err = parseWireDuration(w.TTL); err != nil {
		return spec, err
	}
	for _, wp := range w.Predicates {
		p, err := PredicateFromWire(wp.WirePredicate)
		if err != nil {
			return spec, err
		}
		spec.Predicates = append(spec.Predicates, p)
		spec.PredIdx = append(spec.PredIdx, wp.Idx)
	}
	return spec, nil
}

func parseWireDuration(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("protocol: bad duration %q: %v", s, err)
	}
	return d, nil
}

func parseWireTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("protocol: bad time %q: %v", s, err)
	}
	return t, nil
}

func grantedToWire(parts []core.GrantedPart) []FedGranted {
	out := make([]FedGranted, 0, len(parts))
	for _, g := range parts {
		out = append(out, FedGranted{
			ID:      g.ID,
			Expires: g.Expires.UTC().Format(time.RFC3339Nano),
			PredIdx: g.PredIdx,
		})
	}
	return out
}

func grantedFromWire(ws []FedGranted) ([]core.GrantedPart, error) {
	out := make([]core.GrantedPart, 0, len(ws))
	for _, w := range ws {
		exp, err := parseWireTime(w.Expires)
		if err != nil {
			return nil, err
		}
		out = append(out, core.GrantedPart{ID: w.ID, Expires: exp, PredIdx: w.PredIdx})
	}
	return out, nil
}

func contextToWire(fc *core.FedContext) *FedWireContext {
	if fc == nil {
		return nil
	}
	out := &FedWireContext{}
	for _, s := range fc.Slots {
		out.Slots = append(out.Slots, FedWireSlot{
			Key:         s.Key,
			Expr:        s.Expr,
			Assigned:    s.Assigned,
			Shard:       s.Shard,
			Migratable:  s.Migratable,
			CrossNode:   s.CrossNode,
			Client:      s.Client,
			Expires:     s.Expires.UTC().Format(time.RFC3339Nano),
			Priority:    s.Priority,
			Preemptible: s.Preemptible,
		})
	}
	for _, c := range fc.Candidates {
		wc := FedWireCandidate{Instance: c.Instance, Shard: c.Shard, Tentative: c.Tentative}
		for _, name := range sortedPropNames(c.Props) {
			wc.Props = append(wc.Props, FedProp{Name: name, Value: c.Props[name].String()})
		}
		out.Candidates = append(out.Candidates, wc)
	}
	return out
}

func contextFromWire(w *FedWireContext) (*core.FedContext, error) {
	if w == nil {
		return nil, nil
	}
	out := &core.FedContext{}
	for _, s := range w.Slots {
		exp, err := parseWireTime(s.Expires)
		if err != nil {
			return nil, err
		}
		out.Slots = append(out.Slots, core.FedSlot{
			Key:         s.Key,
			Expr:        s.Expr,
			Assigned:    s.Assigned,
			Shard:       s.Shard,
			Migratable:  s.Migratable,
			CrossNode:   s.CrossNode,
			Client:      s.Client,
			Expires:     exp,
			Priority:    s.Priority,
			Preemptible: s.Preemptible,
		})
	}
	for _, wc := range w.Candidates {
		c := core.FedCandidate{Instance: wc.Instance, Shard: wc.Shard, Tentative: wc.Tentative}
		if len(wc.Props) > 0 {
			c.Props = make(map[string]predicate.Value, len(wc.Props))
			for _, p := range wc.Props {
				var v predicate.Value
				if err := v.UnmarshalText([]byte(p.Value)); err != nil {
					return nil, fmt.Errorf("protocol: candidate %s property %s: %v", wc.Instance, p.Name, err)
				}
				c.Props[p.Name] = v
			}
		}
		out.Candidates = append(out.Candidates, c)
	}
	return out, nil
}

// ReserveResultToWire encodes a reserve outcome.
func ReserveResultToWire(res *core.FedReserveResult) *ReserveResponse {
	if res.Reject != nil {
		out := &ReserveResponse{Result: ResultRejected, Reason: res.Reject.Reason}
		for _, p := range res.Reject.Counter {
			out.Counter = append(out.Counter, PredicateToWire(p))
		}
		return out
	}
	return &ReserveResponse{
		Session:  res.SessionID,
		Result:   ResultAccepted,
		Granted:  grantedToWire(res.Granted),
		Deferred: res.Deferred,
		Context:  contextToWire(res.Context),
	}
}

// ReserveResultFromWire decodes a reserve outcome.
func ReserveResultFromWire(w *ReserveResponse) (*core.FedReserveResult, error) {
	if w.Result == ResultRejected {
		rej := &core.PromiseResponse{Reason: w.Reason}
		for _, wp := range w.Counter {
			p, err := PredicateFromWire(wp)
			if err != nil {
				return nil, err
			}
			rej.Counter = append(rej.Counter, p)
		}
		return &core.FedReserveResult{Reject: rej}, nil
	}
	granted, err := grantedFromWire(w.Granted)
	if err != nil {
		return nil, err
	}
	fc, err := contextFromWire(w.Context)
	if err != nil {
		return nil, err
	}
	return &core.FedReserveResult{
		SessionID: w.Session,
		Granted:   granted,
		Deferred:  w.Deferred,
		Context:   fc,
	}, nil
}

// ConfirmToWire encodes a confirm plan.
func ConfirmToWire(session string, spec core.FedConfirmSpec) *ConfirmRequest {
	out := &ConfirmRequest{Session: session, MigrateOut: spec.MigrateOut}
	for _, ra := range spec.Realloc {
		out.Realloc = append(out.Realloc, FedWireRealloc{Slot: ra.Slot, Instance: ra.Instance})
	}
	for _, mi := range spec.MigrateIn {
		out.MigrateIn = append(out.MigrateIn, FedWireMigrateIn{
			ID:          mi.ID,
			Client:      mi.Client,
			Expr:        mi.Expr,
			Expires:     mi.Expires.UTC().Format(time.RFC3339Nano),
			Instance:    mi.Instance,
			From:        mi.FromNode,
			Priority:    mi.Priority,
			Preemptible: mi.Preemptible,
		})
	}
	for _, pin := range spec.Pinned {
		out.Pinned = append(out.Pinned, FedWirePinned{
			WirePredicate: PredicateToWire(pin.Predicate),
			Idx:           pin.PredIdx,
			Bind:          pin.Instance,
		})
	}
	return out
}

// ConfirmFromWire decodes a confirm plan.
func ConfirmFromWire(w *ConfirmRequest) (core.FedConfirmSpec, error) {
	spec := core.FedConfirmSpec{MigrateOut: w.MigrateOut}
	for _, ra := range w.Realloc {
		spec.Realloc = append(spec.Realloc, core.FedRealloc{Slot: ra.Slot, Instance: ra.Instance})
	}
	for _, mi := range w.MigrateIn {
		exp, err := parseWireTime(mi.Expires)
		if err != nil {
			return spec, err
		}
		spec.MigrateIn = append(spec.MigrateIn, core.FedMigrateIn{
			ID:          mi.ID,
			Client:      mi.Client,
			Expr:        mi.Expr,
			Expires:     exp,
			Instance:    mi.Instance,
			FromNode:    mi.From,
			Priority:    mi.Priority,
			Preemptible: mi.Preemptible,
		})
	}
	for _, pin := range w.Pinned {
		p, err := PredicateFromWire(pin.WirePredicate)
		if err != nil {
			return spec, err
		}
		spec.Pinned = append(spec.Pinned, core.FedPinned{
			Predicate: p,
			PredIdx:   pin.Idx,
			Instance:  pin.Bind,
		})
	}
	return spec, nil
}

// ConfirmResultToWire encodes the parts a confirmed session granted.
func ConfirmResultToWire(parts []core.GrantedPart) *ConfirmResponse {
	return &ConfirmResponse{Granted: grantedToWire(parts)}
}

// ConfirmResultFromWire decodes a confirm outcome.
func ConfirmResultFromWire(w *ConfirmResponse) ([]core.GrantedPart, error) {
	return grantedFromWire(w.Granted)
}

// sortedPropNames orders property names for deterministic encoding.
func sortedPropNames(props map[string]predicate.Value) []string {
	names := make([]string, 0, len(props))
	for n := range props {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
