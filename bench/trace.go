package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/promises"
)

// Layer names of the spans the benchmark records around program code.
const (
	spanDriver = "driver" // one engine call as the client sees it
	spanRT     = "rt"     // one HTTP round trip as the client's transport sees it
	spanServer = "server" // the server's handler
	spanCore   = "core"   // the state-holding engine behind everything
)

const opHeader = "X-Bench-Op"

type opKind uint8

const (
	opGrant opKind = iota
	opCheck
	opSettle
	numOpKinds
)

func (k opKind) String() string { return [...]string{"grant", "check", "settle"}[k] }

// span is one timed interval at a layer boundary. Spans of one engine call
// share op; parent is the span that caused this one (0 for a driver span).
type span struct {
	ID, Parent uint64
	Op         uint64 // flow<<2 | opKind, unique per run
	Name       string
	Start, End int64 // ns since the tracer's epoch
	Bytes      int64 // request+response body bytes (rt spans)
}

func (s span) kind() opKind { return opKind(s.Op & 3) }
func (s span) flow() uint64 { return s.Op >> 2 }
func opID(flow uint64, k opKind) uint64 {
	return flow<<2 | uint64(k)
}

// tracer collects spans in memory; nothing is written until the run ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	shards [8]struct {
		mu    sync.Mutex
		spans []span
	}
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	sh := &t.shards[s.Op%uint64(len(t.shards))]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

func (t *tracer) all() []span {
	var out []span
	for i := range t.shards {
		t.shards[i].mu.Lock()
		out = append(out, t.shards[i].spans...)
		t.shards[i].mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// spanRef travels in the context (and the X-Bench-Op header) from a span to
// the spans it causes.
type spanRef struct{ op, parent uint64 }

type spanRefKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanRefKey{}, r)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanRefKey{}).(spanRef)
	return r, ok
}

// begin opens a child span of whatever span ctx carries; calls made outside
// a traced flow (set-up, warm-up, verification) carry none and are skipped.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func(bytes int64)) {
	ref, ok := spanFrom(ctx)
	if !ok {
		return ctx, func(int64) {}
	}
	s := span{ID: t.nextID.Add(1), Parent: ref.parent, Op: ref.op, Name: name, Start: t.now()}
	return withSpan(ctx, spanRef{op: ref.op, parent: s.ID}), func(bytes int64) {
		s.End, s.Bytes = t.now(), bytes
		t.record(s)
	}
}

// ---- the wrappers ----

// tracedEngine decorates a state-holding engine with core spans. It keeps
// the federation surface the transport server probes for.
type tracedEngine struct {
	promises.Engine
	t *tracer
}

type tracedFedEngine struct {
	tracedEngine
	fed transport.FedEngine
}

func (t *tracer) wrapEngine(e promises.Engine) promises.Engine {
	te := tracedEngine{Engine: e, t: t}
	if fed, ok := e.(transport.FedEngine); ok {
		return &tracedFedEngine{tracedEngine: te, fed: fed}
	}
	return &te
}

func (e *tracedEngine) Execute(ctx context.Context, req promises.Request) (*promises.Response, error) {
	ctx, end := e.t.begin(ctx, spanCore)
	defer end(0)
	return e.Engine.Execute(ctx, req)
}

func (e *tracedEngine) GrantBatch(ctx context.Context, client string, reqs []promises.PromiseRequest) ([]promises.PromiseResponse, error) {
	ctx, end := e.t.begin(ctx, spanCore)
	defer end(0)
	return e.Engine.GrantBatch(ctx, client, reqs)
}

func (e *tracedEngine) CheckBatch(ctx context.Context, client string, ids []string) ([]error, error) {
	ctx, end := e.t.begin(ctx, spanCore)
	defer end(0)
	return e.Engine.CheckBatch(ctx, client, ids)
}

func (e *tracedEngine) Release(ctx context.Context, client string, ids ...string) error {
	ctx, end := e.t.begin(ctx, spanCore)
	defer end(0)
	return e.Engine.Release(ctx, client, ids...)
}

func (e *tracedFedEngine) FedReserve(ctx context.Context, client string, spec core.FedReserveSpec) (*core.FedReserveResult, error) {
	ctx, end := e.t.begin(ctx, spanCore)
	defer end(0)
	return e.fed.FedReserve(ctx, client, spec)
}

func (e *tracedFedEngine) FedConfirm(ctx context.Context, session string, spec core.FedConfirmSpec) ([]core.GrantedPart, error) {
	ctx, end := e.t.begin(ctx, spanCore)
	defer end(0)
	return e.fed.FedConfirm(ctx, session, spec)
}

func (e *tracedFedEngine) FedAbort(session string)      { e.fed.FedAbort(session) }
func (e *tracedFedEngine) FedSummary() core.NodeSummary { return e.fed.FedSummary() }

// wrapRoundTripper stamps the op header on outgoing requests and counts
// body bytes both ways.
func (t *tracer) wrapRoundTripper(next http.RoundTripper) http.RoundTripper {
	return &tracedRoundTripper{next: next, t: t}
}

type tracedRoundTripper struct {
	next http.RoundTripper
	t    *tracer
}

func (rt *tracedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, end := rt.t.begin(req.Context(), spanRT)
	ref, ok := spanFrom(ctx)
	if !ok {
		return rt.next.RoundTrip(req)
	}
	req = req.Clone(ctx)
	req.Header.Set(opHeader, strconv.FormatUint(ref.op, 10)+":"+strconv.FormatUint(ref.parent, 10))
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		end(max(req.ContentLength, 0))
		return nil, err
	}
	// The span ends when the caller has read the reply to its end.
	resp.Body = &countingBody{ReadCloser: resp.Body, sent: max(req.ContentLength, 0), end: end}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	sent, got int64
	end       func(int64)
	once      sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.got += int64(n)
	if err != nil {
		b.once.Do(func() { b.end(b.sent + b.got) })
	}
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() { b.end(b.sent + b.got) })
	return b.ReadCloser.Close()
}

// wrapHandler opens a server span for requests that carry the op header.
func (t *tracer) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, parent, ok := strings.Cut(r.Header.Get(opHeader), ":")
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		opN, err1 := strconv.ParseUint(op, 10, 64)
		parentN, err2 := strconv.ParseUint(parent, 10, 64)
		if err1 != nil || err2 != nil {
			next.ServeHTTP(w, r)
			return
		}
		ctx, end := t.begin(withSpan(r.Context(), spanRef{op: opN, parent: parentN}), spanServer)
		defer end(0)
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// ---- analysis ----

// selfTime is a span's duration minus the part of it its children cover
// (overlapping children are counted once).
func selfTime(s span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	covered, edge := int64(0), s.Start
	for _, c := range children {
		lo, hi := max(c.Start, edge), min(c.End, s.End)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return s.End - s.Start - covered
}

// flowTrace is the per-layer time of one flow, from its spans.
type flowTrace struct {
	self       map[string]int64 // layer -> self ns summed over the flow's three ops
	coreByKind [numOpKinds]int64
	roundTrips int
	bytes      int64
	ops        int // driver spans seen
}

// analyse folds spans into per-flow layer times. Only flows whose three
// driver spans were all recorded count (abandoned flows have two).
func analyse(spans []span) []flowTrace {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	flows := make(map[uint64]*flowTrace)
	for _, s := range spans {
		ft := flows[s.flow()]
		if ft == nil {
			ft = &flowTrace{self: make(map[string]int64)}
			flows[s.flow()] = ft
		}
		ft.self[s.Name] += selfTime(s, children[s.ID])
		switch s.Name {
		case spanDriver:
			ft.ops++
		case spanRT:
			ft.roundTrips++
			ft.bytes += s.Bytes
		case spanCore:
			ft.coreByKind[s.kind()] += s.End - s.Start
		}
	}
	out := make([]flowTrace, 0, len(flows))
	for _, ft := range flows {
		if ft.ops == int(numOpKinds) {
			out = append(out, *ft)
		}
	}
	return out
}

// maxTraceFileSpans bounds the span file; the in-memory analysis always
// uses every span.
const maxTraceFileSpans = 200_000

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	n := min(len(spans), maxTraceFileSpans)
	fmt.Fprintf(w, `{"spans_recorded":%d,"spans_written":%d,"time_unit":"ns since trace start"}`+"\n", len(spans), n)
	enc := json.NewEncoder(w)
	for _, s := range spans[:n] {
		err = enc.Encode(struct {
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
			Op     uint64 `json:"op"`
			Flow   uint64 `json:"flow"`
			Kind   string `json:"kind"`
			Name   string `json:"name"`
			Start  int64  `json:"start"`
			End    int64  `json:"end"`
			Bytes  int64  `json:"bytes,omitempty"`
		}{s.ID, s.Parent, s.Op, s.flow(), s.kind().String(), s.Name, s.Start, s.End, s.Bytes})
		if err != nil {
			break
		}
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
