// Package transport deploys the Figure 2 prototype architecture (§8) over
// HTTP: a Server exposes a promise manager and its application services at
// a single endpoint; a Client sends protocol envelopes carrying promise
// headers and action bodies. "The client adds promises header messages to
// its normal service requests and sends them to the promise manager for
// processing. The promise manager then does its work and passes the request
// on to the application."
//
// Client implements the same context-first Engine surface as the in-process
// managers (promises.Engine), so an application, supplier chain or tool
// written against that interface runs unchanged whether its promise maker
// is a local store or a remote daemon; wrapped in promises.EngineSupplier,
// a Client backs delegation chains (§5) that span processes.
package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/failpoint"
	"repro/internal/protocol"
	"repro/internal/service"
)

// Endpoint is the promise manager's HTTP path.
const Endpoint = "/promises"

// FaultHeader carries the protocol fault code of a non-200 response, so
// top-level errors (bad request, unknown action) round-trip onto the same
// sentinel errors local engines return — errors.Is works identically
// against every engine shape.
const FaultHeader = "X-Promise-Fault"

// Engine is the manager-side surface the transport serves and the Client
// re-exposes — the same method set as promises.Engine. core.Manager
// implements it at any shard count, and so does the cluster engine, so a
// daemon picks its deployment shape at construction time without the
// transport caring.
type Engine interface {
	Execute(ctx context.Context, req core.Request) (*core.Response, error)
	GrantBatch(ctx context.Context, client string, reqs []core.PromiseRequest) ([]core.PromiseResponse, error)
	CheckBatch(ctx context.Context, client string, ids []string) ([]error, error)
	Release(ctx context.Context, client string, ids ...string) error
	Watch(ctx context.Context, opts core.WatchOptions) (<-chan core.Event, error)
	Stats() core.Stats
	Audit() (*core.AuditReport, error)
}

// Server adapts a promise manager and a service registry to HTTP.
type Server struct {
	manager    Engine
	registry   *service.Registry
	admit      *admission
	failpoints bool
}

// ServerOption configures optional Server behavior.
type ServerOption func(*Server)

// WithAdmission enables admission control on the promise endpoint: a
// bounded in-flight limit, a bounded wait queue, and priority-aware load
// shedding (see AdmissionConfig). Read endpoints are unaffected.
func WithAdmission(cfg AdmissionConfig) ServerOption {
	return func(s *Server) { s.admit = newAdmission(cfg) }
}

// WithFailpointEndpoint exposes the failpoint harness over HTTP — POST
// /failpoints arms a spec, GET lists, DELETE resets — for chaos drills
// against a live daemon. Never enable it on a production listener.
func WithFailpointEndpoint() ServerOption {
	return func(s *Server) { s.failpoints = true }
}

// NewServer returns a Server for manager and registry.
func NewServer(manager Engine, registry *service.Registry, opts ...ServerOption) *Server {
	s := &Server{manager: manager, registry: registry}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Handler returns the http.Handler exposing the promise endpoint plus the
// read-only operational endpoints:
//
//	GET /stats   — the manager's activity counters (+ admission stats)
//	GET /audit   — a full consistency audit (500 when unhealthy)
//	GET /events  — the promise lifecycle event stream as SSE (events.go)
//	GET /healthz — process liveness (always 200)
//	GET /readyz  — engine readiness (503 while degraded read-only)
//
// /stats and /audit render human-readable text by default and structured
// JSON with ?format=json, for machine scrapers. With WithFailpointEndpoint,
// /failpoints (POST spec / GET list / DELETE reset) drives chaos drills.
//
// The health and read endpoints bypass admission control deliberately:
// they are what operators and load balancers rely on while the promise
// endpoint is shedding.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+Endpoint, s.handle)
	mux.HandleFunc("GET "+EventsEndpoint, s.handleEvents)
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		st := s.manager.Stats()
		if wantsJSON(r) {
			if s.admit != nil {
				adm := s.admit.snapshot()
				writeJSON(w, http.StatusOK, struct {
					core.Stats
					Admission *AdmissionStats `json:"admission"`
				}{st, &adm})
				return
			}
			writeJSON(w, http.StatusOK, st)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, st)
		if s.admit != nil {
			adm := s.admit.snapshot()
			fmt.Fprintf(w, "admission: admitted=%d queued=%d shed(brownout=%d deadline=%d full=%d) in_flight=%d waiting=%d\n",
				adm.Admitted, adm.Queued, adm.ShedBrownout, adm.ShedDeadline, adm.ShedFull, adm.InFlight, adm.Waiting)
		}
	})
	mux.HandleFunc("GET /audit", func(w http.ResponseWriter, r *http.Request) {
		rep, err := s.manager.Audit()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		status := http.StatusOK
		if !rep.Healthy() {
			status = http.StatusInternalServerError
		}
		if wantsJSON(r) {
			writeJSON(w, status, rep)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(status)
		fmt.Fprintln(w, rep)
	})
	mux.HandleFunc("GET "+SummaryEndpoint, s.handleSummary)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: the process answers. Readiness lives at /readyz.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	if s.failpoints {
		mux.HandleFunc("POST /failpoints", func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := failpoint.Arm(strings.TrimSpace(string(body))); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		})
		mux.HandleFunc("GET /failpoints", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, p := range failpoint.List() {
				fmt.Fprintln(w, p)
			}
		})
		mux.HandleFunc("DELETE /failpoints", func(w http.ResponseWriter, r *http.Request) {
			failpoint.Reset()
			w.WriteHeader(http.StatusNoContent)
		})
	}
	return mux
}

// handleReady serves GET /readyz: 200 while the engine accepts mutations,
// 503 with the degradation reason while it is read-only (core.ErrDegraded).
// Engines that don't report health (e.g. pure in-memory) are always ready.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	var h core.Health
	if hr, ok := s.manager.(core.HealthReporter); ok {
		h = hr.Health()
	}
	status := http.StatusOK
	if h.Degraded {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	if wantsJSON(r) {
		writeJSON(w, status, struct {
			Ready bool `json:"ready"`
			core.Health
		}{!h.Degraded, h})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	if h.Degraded {
		fmt.Fprintf(w, "degraded: %s\n", h.Reason)
		return
	}
	fmt.Fprintln(w, "ready")
}

// httpFault reports a top-level error, stamping its protocol fault code in
// FaultHeader so the client can reconstruct the sentinel.
func httpFault(w http.ResponseWriter, err error, status int) {
	if f := protocol.FaultFromError(err); f != nil && f.Code != protocol.FaultActionFailed {
		w.Header().Set(FaultHeader, f.Code)
	}
	http.Error(w, err.Error(), status)
}

// engineFault classifies an engine error onto its HTTP status — the one
// sentinel→status mapping shared by the promise, batch and federation
// handlers — then reports it through httpFault so remote callers rebuild
// the same typed error a local engine would have returned.
func engineFault(w http.ResponseWriter, err error) {
	var status int
	switch {
	case errors.Is(err, core.ErrDegraded):
		// The server's disk is the problem, not the request: 503 with a
		// retry hint, so clients back off and retry like an admission shed.
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	case errors.Is(err, core.ErrPromiseNotFound):
		status = http.StatusNotFound
	case errors.Is(err, core.ErrBadRequest),
		errors.Is(err, core.ErrPromiseExpired),
		errors.Is(err, core.ErrPromiseReleased),
		errors.Is(err, core.ErrPromisePreempted),
		errors.Is(err, core.ErrPromiseViolated):
		status = http.StatusBadRequest
	default:
		// Unclassified engine failures (e.g. a commit that missed
		// durability) are server faults.
		status = http.StatusInternalServerError
	}
	httpFault(w, err, status)
}

// applyDeadline re-imposes the client's remaining call budget (stamped in
// the envelope header) on the server-side context, so the ctx-deadline cap
// on granted durations — and cancellation of overlong work — behave exactly
// as they would against a local engine.
func applyDeadline(ctx context.Context, budget string) (context.Context, context.CancelFunc, error) {
	if budget == "" {
		return ctx, func() {}, nil
	}
	d, err := time.ParseDuration(budget)
	if err != nil {
		return ctx, func() {}, fmt.Errorf("transport: bad deadline %q: %v", budget, err)
	}
	if d <= 0 {
		d = time.Nanosecond // already past: surface context.DeadlineExceeded
	}
	ctx, cancel := context.WithTimeout(ctx, d)
	return ctx, cancel, nil
}

// wantsJSON reports whether the scrape asked for structured output.
func wantsJSON(r *http.Request) bool {
	return r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json")
}

// writeJSON renders v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	in, err := protocol.Decode(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel, err := applyDeadline(r.Context(), in.Header.Deadline)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer cancel()
	// Admission control gates every mutating envelope; pure check batches
	// classify as reads and pass straight through (they are served off
	// snapshots and must keep flowing during brownout).
	done, admErr := s.admit.acquire(ctx, classify(in))
	if admErr != nil {
		var shed *shedError
		if errors.As(admErr, &shed) {
			writeShed(w, shed)
			return
		}
		http.Error(w, admErr.Error(), http.StatusServiceUnavailable)
		return
	}
	defer done()
	if err := failpoint.Eval("transport/handle"); err != nil {
		// A failpoint-injected handler fault, for chaos drills; the sleep
		// action holds an admission slot, which is how the harness
		// manufactures overload deterministically.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if in.Header.Batch != nil {
		s.handleBatch(ctx, w, in)
		return
	}
	if in.Header.Reserve != nil || in.Header.Confirm != nil || in.Header.Abort != nil {
		s.handleFed(ctx, w, in)
		return
	}
	req := core.Request{Client: in.Header.Client}
	if in.Header.Promise != nil {
		for _, wr := range in.Header.Promise.Requests {
			pr, err := protocol.RequestFromWire(wr)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			req.PromiseRequests = append(req.PromiseRequests, pr)
		}
	}
	req.Env = protocol.EnvFromWire(in.Header.Environment)
	if in.Body.Action != nil {
		if err := s.bindAction(&req, in.Body.Action); err != nil {
			// An unknown action is a bad request on a local engine
			// (resolveAction wraps ErrBadRequest); mirror that class so
			// errors.Is behaves identically across deployments.
			httpFault(w, fmt.Errorf("%w: %v", core.ErrBadRequest, err), http.StatusNotFound)
			return
		}
	}

	resp, err := s.manager.Execute(ctx, req)
	if err != nil {
		engineFault(w, err)
		return
	}

	out := &protocol.Envelope{}
	if len(resp.Promises) > 0 {
		out.Header.Promise = &protocol.PromiseHeader{}
		for _, pr := range resp.Promises {
			out.Header.Promise.Responses = append(out.Header.Promise.Responses, protocol.ResponseToWire(pr))
		}
	}
	if resp.ActionErr != nil {
		out.Body.Fault = protocol.FaultFromError(resp.ActionErr)
	} else if s, ok := resp.ActionResult.(string); ok {
		out.Body.Result = s
	}
	w.Header().Set("Content-Type", "application/xml")
	if err := protocol.Encode(w, out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// bindAction resolves a wire action against the registry and attaches it to
// req, surfacing the named resources so the engine routes the action to the
// shard owning them.
func (s *Server) bindAction(req *core.Request, wa *protocol.WireAction) error {
	handler, err := s.registry.Resolve(wa.Name)
	if err != nil {
		return err
	}
	params := wa.ParamMap()
	req.Action = func(ac *core.ActionContext) (any, error) {
		return handler(params, ac)
	}
	// The standard handlers name their resources in the "pool" and
	// "instance" params.
	if p := params["pool"]; p != "" {
		req.Resources = append(req.Resources, p)
	}
	if p := params["instance"]; p != "" {
		req.Resources = append(req.Resources, p)
	}
	return nil
}

// handleBatch answers a <batch-request> envelope: grants run through the
// engine's batched grant path (one lock acquisition per shard set), then
// standalone releases, then piggybacked actions (each its own §8
// transaction), then checks — so checks observe the envelope's own releases
// and actions — and the results ride back in one <batch-response>.
func (s *Server) handleBatch(ctx context.Context, w http.ResponseWriter, in *protocol.Envelope) {
	if in.Header.Promise != nil || in.Header.Environment != nil || in.Body.Action != nil {
		http.Error(w, "transport: batch-request cannot combine with promise, environment or action elements", http.StatusBadRequest)
		return
	}
	client := in.Header.Client
	batch := in.Header.Batch
	reqs := make([]core.PromiseRequest, 0, len(batch.Grants))
	for _, wr := range batch.Grants {
		pr, err := protocol.RequestFromWire(wr)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reqs = append(reqs, pr)
	}
	out := &protocol.Envelope{}
	out.Header.BatchResult = &protocol.BatchResponse{}
	result := out.Header.BatchResult
	if len(reqs) > 0 {
		resps, err := s.manager.GrantBatch(ctx, client, reqs)
		if err != nil {
			engineFault(w, err)
			return
		}
		for _, pr := range resps {
			result.Responses = append(result.Responses, protocol.ResponseToWire(pr))
		}
	}
	for _, rel := range batch.Releases {
		// Entries are independent: one dead promise must not strand its
		// neighbours, so each release is its own engine call.
		err := s.manager.Release(ctx, client, rel.ID)
		result.Releases = append(result.Releases,
			protocol.CheckResult{ID: rel.ID, Fault: protocol.FaultFromError(err)})
	}
	for _, ba := range batch.Actions {
		req := core.Request{Client: client, Env: protocol.EnvFromWire(&protocol.EnvironmentHeader{Refs: ba.Env})}
		ar := protocol.ActionResult{}
		if err := s.bindAction(&req, &ba.Action); err != nil {
			ar.Fault = &protocol.Fault{Code: protocol.FaultBadRequest, Message: err.Error()}
		} else if resp, err := s.manager.Execute(ctx, req); err != nil {
			ar.Fault = protocol.FaultFromError(err)
		} else if resp.ActionErr != nil {
			ar.Fault = protocol.FaultFromError(resp.ActionErr)
		} else if s, ok := resp.ActionResult.(string); ok {
			ar.Result = s
		}
		result.Actions = append(result.Actions, ar)
	}
	if len(batch.Checks) > 0 {
		ids := make([]string, len(batch.Checks))
		for i, c := range batch.Checks {
			ids[i] = c.ID
		}
		errs, err := s.manager.CheckBatch(ctx, client, ids)
		if err != nil {
			engineFault(w, err)
			return
		}
		for i, err := range errs {
			result.Checks = append(result.Checks,
				protocol.CheckResult{ID: ids[i], Fault: protocol.FaultFromError(err)})
		}
	}
	w.Header().Set("Content-Type", "application/xml")
	if err := protocol.Encode(w, out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Client talks to a remote promise manager through the same context-first
// Engine surface the in-process managers expose, so call sites cannot tell
// a daemon from a local store.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8642".
	BaseURL string
	// Client is the default promise-client identity, used when a call does
	// not carry its own (Request.Client or the client argument).
	Client string
	// HTTP is the underlying transport; nil uses http.DefaultClient.
	HTTP *http.Client
	// Retry tunes the transient-error retry loop; nil uses DefaultRetry.
	Retry *RetryPolicy
}

// RetryPolicy bounds the client's retry loop on transient transport
// errors. Which failures retry depends on what the request can have done
// server-side, not just on the policy:
//
//   - connection-refused dial errors and 503 responses retry for every
//     request — the server provably never processed it;
//   - mid-flight failures (connection reset, unexpected EOF) retry only
//     for requests that are safe to repeat: reads (checks, stats
//     scrapes) and idempotent federation aborts. A grant that died
//     mid-flight may have committed, so repeating it could grant twice —
//     those fail fast and the caller decides.
//
// Backoff doubles from Base with jitter, and every sleep honors the
// context deadline.
type RetryPolicy struct {
	// Attempts is the total number of tries. <= 0 means DefaultRetry's.
	Attempts int
	// Base is the first backoff delay. <= 0 means DefaultRetry's.
	Base time.Duration
}

// DefaultRetry is the retry policy used when Client.Retry is nil.
var DefaultRetry = RetryPolicy{Attempts: 3, Base: 25 * time.Millisecond}

func (c *Client) retryPolicy() RetryPolicy {
	p := DefaultRetry
	if c.Retry != nil {
		if c.Retry.Attempts > 0 {
			p.Attempts = c.Retry.Attempts
		}
		if c.Retry.Base > 0 {
			p.Base = c.Retry.Base
		}
	}
	return p
}

// transientDial reports an error raised before the request left this
// machine: nothing reached the server, so any request may retry.
func transientDial(err error) bool {
	if errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// transientMidflight reports a connection that died after the request may
// have reached the server — retryable only for repeat-safe requests.
func transientMidflight(err error) bool {
	return errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// repeatSafe reports whether re-sending the envelope can never double a
// server-side effect: nothing in it grants, releases, acts or opens a
// federated session. Aborts are explicitly idempotent server-side.
func repeatSafe(env *protocol.Envelope) bool {
	h := &env.Header
	if h.Promise != nil || h.Environment != nil || env.Body.Action != nil ||
		h.Reserve != nil || h.Confirm != nil {
		return false
	}
	if h.Batch != nil && (len(h.Batch.Grants) > 0 || len(h.Batch.Releases) > 0 || len(h.Batch.Actions) > 0) {
		return false
	}
	return true
}

// sleepBackoff waits out the attempt's backoff (exponential from base,
// with jitter), honoring ctx.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int) error {
	d := base << (attempt - 1)
	if d > time.Second {
		d = time.Second
	}
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	return sleepFor(ctx, d)
}

// sleepFor waits d, honoring ctx.
func sleepFor(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// parseRetryAfter reads a Retry-After header: delay-seconds or an
// HTTP-date. 0 means absent or unusable.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// refusal consumes a 429/503 response — the server refused the request
// before processing it, so any shape may retry. The stamped fault code
// rebuilds the typed error (ErrOverloaded for admission sheds, ErrDegraded
// for the read-only engine), and the server's Retry-After hint replaces
// the client's own backoff for the next attempt.
func refusal(resp *http.Response) (error, time.Duration) {
	var msg bytes.Buffer
	_, _ = msg.ReadFrom(resp.Body)
	resp.Body.Close()
	text := fmt.Sprintf("transport: %s: %s", resp.Status, bytes.TrimSpace(msg.Bytes()))
	err := errors.New(text)
	switch code := resp.Header.Get(FaultHeader); code {
	case "":
	case protocol.FaultOverloaded:
		// ErrOverloaded lives here, not in protocol (which cannot import
		// transport), so the code maps outside ErrorFromFault.
		err = fmt.Errorf("%w: %s", ErrOverloaded, text)
	default:
		err = protocol.ErrorFromFault(&protocol.Fault{Code: code, Message: text})
	}
	return err, parseRetryAfter(resp.Header.Get("Retry-After"))
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Close implements the Engine surface: it releases idle connections held by
// the client's own HTTP transport. The daemon's state is the daemon's (see
// promised -data-dir); closing a client never flushes or destroys anything
// server-side. The shared http.DefaultClient is left untouched.
func (c *Client) Close() error {
	if c.HTTP != nil {
		c.HTTP.CloseIdleConnections()
	}
	return nil
}

// clientID resolves a per-call identity against the bound default.
func (c *Client) clientID(client string) string {
	if client != "" {
		return client
	}
	return c.Client
}

// Do sends an envelope (stamping the default client identity when the
// envelope carries none, and the context's remaining deadline budget so the
// server enforces it exactly like a local engine) and returns the response
// envelope.
func (c *Client) Do(ctx context.Context, env *protocol.Envelope) (*protocol.Envelope, error) {
	if env.Header.Client == "" {
		env.Header.Client = c.Client
	}
	if d, ok := ctx.Deadline(); ok && env.Header.Deadline == "" {
		env.Header.Deadline = time.Until(d).Round(time.Millisecond).String()
	}
	// Encode once; each attempt re-reads the same bytes so a retried
	// request is byte-identical to the first.
	var buf bytes.Buffer
	if err := protocol.Encode(&buf, env); err != nil {
		return nil, err
	}
	body := buf.Bytes()
	safe := repeatSafe(env)
	pol := c.retryPolicy()
	var lastErr error
	var retryAfter time.Duration
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if attempt > 0 {
			// A server-provided Retry-After overrides the client's own
			// backoff: the server knows when it expects to have capacity.
			wait := sleepBackoff
			if retryAfter > 0 {
				d := retryAfter
				retryAfter = 0
				wait = func(ctx context.Context, _ time.Duration, _ int) error { return sleepFor(ctx, d) }
			}
			if err := wait(ctx, pol.Base, attempt); err != nil {
				return nil, fmt.Errorf("transport: %w (last error: %v)", err, lastErr)
			}
		}
		httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+Endpoint, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		httpReq.Header.Set("Content-Type", "application/xml")
		httpResp, err := c.httpClient().Do(httpReq)
		if err == nil {
			if fpErr := failpoint.Eval("transport/drop-response"); fpErr != nil {
				// Chaos drill: the response is dropped on the floor, as if
				// the connection died after the server processed the
				// request — the mid-flight class, retryable only when safe.
				httpResp.Body.Close()
				err = fmt.Errorf("%w: %v", io.ErrUnexpectedEOF, fpErr)
			}
		}
		if err != nil {
			if ctx.Err() == nil && (transientDial(err) || (safe && transientMidflight(err))) {
				lastErr = err
				continue
			}
			return nil, err
		}
		if httpResp.StatusCode == http.StatusServiceUnavailable || httpResp.StatusCode == http.StatusTooManyRequests {
			// 503 and 429 mean the server refused before processing —
			// retryable for every request shape.
			lastErr, retryAfter = refusal(httpResp)
			continue
		}
		if httpResp.StatusCode != http.StatusOK {
			defer httpResp.Body.Close()
			var msg bytes.Buffer
			_, _ = msg.ReadFrom(httpResp.Body)
			// A stamped fault code reconstructs the sentinel the engine raised,
			// so errors.Is(err, ErrBadRequest) etc. work like a local call.
			if code := httpResp.Header.Get(FaultHeader); code != "" {
				return nil, protocol.ErrorFromFault(&protocol.Fault{
					Code:    code,
					Message: fmt.Sprintf("transport: %s: %s", httpResp.Status, bytes.TrimSpace(msg.Bytes())),
				})
			}
			return nil, fmt.Errorf("transport: %s: %s", httpResp.Status, bytes.TrimSpace(msg.Bytes()))
		}
		reply, err := protocol.Decode(httpResp.Body)
		httpResp.Body.Close()
		if err != nil && ctx.Err() == nil && safe && transientMidflight(err) {
			// The connection died while the response streamed back.
			lastErr = err
			continue
		}
		return reply, err
	}
	return nil, fmt.Errorf("transport: giving up after %d attempts: %w", pol.Attempts, lastErr)
}

// Execute implements the Engine surface over the wire: promise requests,
// environment entries and a named action cross as one §6 envelope and run
// as one atomic message on the server. Function-valued actions cannot cross
// the wire — requests carrying Request.Action are rejected; use
// Request.ActionName, which the daemon resolves against its registry. The
// returned ActionResult is always the action's string rendering.
func (c *Client) Execute(ctx context.Context, req core.Request) (*core.Response, error) {
	if req.Action != nil {
		return nil, fmt.Errorf("%w: transport: function actions cannot cross the wire; use Request.ActionName", core.ErrBadRequest)
	}
	msg := &protocol.Envelope{}
	msg.Header.Client = c.clientID(req.Client)
	if len(req.PromiseRequests) > 0 {
		msg.Header.Promise = &protocol.PromiseHeader{}
		for _, r := range req.PromiseRequests {
			msg.Header.Promise.Requests = append(msg.Header.Promise.Requests, protocol.RequestToWire(r))
		}
	}
	msg.Header.Environment = protocol.EnvToWire(req.Env)
	if req.ActionName != "" {
		action := &protocol.WireAction{Name: req.ActionName}
		for _, k := range sortedParamKeys(req.ActionParams) {
			action.Params = append(action.Params, protocol.Param{Name: k, Value: req.ActionParams[k]})
		}
		msg.Body.Action = action
	}

	reply, err := c.Do(ctx, msg)
	if err != nil {
		return nil, err
	}
	out := &core.Response{}
	if reply.Body.Result != "" {
		out.ActionResult = reply.Body.Result
	}
	if reply.Header.Promise != nil {
		for _, wr := range reply.Header.Promise.Responses {
			pr, err := protocol.ResponseFromWire(wr)
			if err != nil {
				return nil, err
			}
			out.Promises = append(out.Promises, pr)
		}
	}
	// Local engines answer every promise request positionally; a reply that
	// doesn't (version skew, broken middlebox) must error, not make
	// resp.Promises[i] indexing panic at the call site.
	if len(out.Promises) != len(req.PromiseRequests) {
		return nil, fmt.Errorf("transport: got %d promise responses, want %d", len(out.Promises), len(req.PromiseRequests))
	}
	out.ActionErr = protocol.ErrorFromFault(reply.Body.Fault)
	return out, nil
}

// sortedParamKeys orders action parameters deterministically on the wire.
func sortedParamKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Result is the client-side view of one full exchange.
type Result struct {
	// Promises are the promise responses from the header.
	Promises []core.PromiseResponse
	// ActionResult is the body result string.
	ActionResult string
	// ActionErr is the body fault mapped back onto sentinel errors.
	ActionErr error
}

// Exchange sends promise requests, an environment and an optional action in
// one message and decodes the reply — the envelope-level surface beneath
// Execute, for callers that build wire actions directly.
func (c *Client) Exchange(ctx context.Context, reqs []core.PromiseRequest, env []core.EnvEntry, action *protocol.WireAction) (*Result, error) {
	msg := &protocol.Envelope{}
	if len(reqs) > 0 {
		msg.Header.Promise = &protocol.PromiseHeader{}
		for _, r := range reqs {
			msg.Header.Promise.Requests = append(msg.Header.Promise.Requests, protocol.RequestToWire(r))
		}
	}
	msg.Header.Environment = protocol.EnvToWire(env)
	msg.Body.Action = action

	reply, err := c.Do(ctx, msg)
	if err != nil {
		return nil, err
	}
	out := &Result{ActionResult: reply.Body.Result}
	if reply.Header.Promise != nil {
		for _, wr := range reply.Header.Promise.Responses {
			pr, err := protocol.ResponseFromWire(wr)
			if err != nil {
				return nil, err
			}
			out.Promises = append(out.Promises, pr)
		}
	}
	out.ActionErr = protocol.ErrorFromFault(reply.Body.Fault)
	return out, nil
}

// Batch is one multi-operation round trip: independent grants, standalone
// releases, piggybacked actions and usability checks — the client face of
// the extended §6 <batch-request> element.
type Batch struct {
	Grants   []core.PromiseRequest
	Releases []string
	Actions  []BatchAction
	Checks   []string
}

// BatchAction is one piggybacked action invocation.
type BatchAction struct {
	Name   string
	Params map[string]string
	// Env protects the action; release options apply atomically with it.
	Env []core.EnvEntry
}

// BatchOutcome carries a Batch's results, index-aligned with its fields.
type BatchOutcome struct {
	Grants      []core.PromiseResponse
	ReleaseErrs []error
	Actions     []ActionOutcome
	CheckErrs   []error
}

// ActionOutcome is one piggybacked action's result or error.
type ActionOutcome struct {
	Result string
	Err    error
}

// DoBatch runs a whole Batch in one round trip for the given client (empty
// means the bound identity). The server processes grants, then releases,
// then actions, then checks.
func (c *Client) DoBatch(ctx context.Context, client string, b Batch) (*BatchOutcome, error) {
	msg := &protocol.Envelope{}
	msg.Header.Client = c.clientID(client)
	msg.Header.Batch = &protocol.BatchRequest{}
	for _, r := range b.Grants {
		msg.Header.Batch.Grants = append(msg.Header.Batch.Grants, protocol.RequestToWire(r))
	}
	for _, id := range b.Releases {
		msg.Header.Batch.Releases = append(msg.Header.Batch.Releases, protocol.PromiseRef{ID: id, Release: true})
	}
	for _, ba := range b.Actions {
		wa := protocol.BatchAction{Action: protocol.WireAction{Name: ba.Name}}
		for _, k := range sortedParamKeys(ba.Params) {
			wa.Action.Params = append(wa.Action.Params, protocol.Param{Name: k, Value: ba.Params[k]})
		}
		if env := protocol.EnvToWire(ba.Env); env != nil {
			wa.Env = env.Refs
		}
		msg.Header.Batch.Actions = append(msg.Header.Batch.Actions, wa)
	}
	for _, id := range b.Checks {
		msg.Header.Batch.Checks = append(msg.Header.Batch.Checks, protocol.PromiseRef{ID: id})
	}

	reply, err := c.Do(ctx, msg)
	if err != nil {
		return nil, err
	}
	br := reply.Header.BatchResult
	if br == nil {
		return nil, fmt.Errorf("transport: reply carries no batch-response")
	}
	if len(b.Grants) > 0 && len(br.Responses) != len(b.Grants) {
		return nil, fmt.Errorf("transport: got %d batch responses, want %d", len(br.Responses), len(b.Grants))
	}
	if len(br.Releases) != len(b.Releases) {
		return nil, fmt.Errorf("transport: got %d release results, want %d", len(br.Releases), len(b.Releases))
	}
	if len(br.Actions) != len(b.Actions) {
		return nil, fmt.Errorf("transport: got %d action results, want %d", len(br.Actions), len(b.Actions))
	}
	if len(br.Checks) != len(b.Checks) {
		return nil, fmt.Errorf("transport: got %d check results, want %d", len(br.Checks), len(b.Checks))
	}
	out := &BatchOutcome{}
	for _, wr := range br.Responses {
		pr, err := protocol.ResponseFromWire(wr)
		if err != nil {
			return nil, err
		}
		out.Grants = append(out.Grants, pr)
	}
	for _, cr := range br.Releases {
		out.ReleaseErrs = append(out.ReleaseErrs, protocol.ErrorFromFault(cr.Fault))
	}
	for _, ar := range br.Actions {
		out.Actions = append(out.Actions, ActionOutcome{Result: ar.Result, Err: protocol.ErrorFromFault(ar.Fault)})
	}
	for _, cr := range br.Checks {
		out.CheckErrs = append(out.CheckErrs, protocol.ErrorFromFault(cr.Fault))
	}
	return out, nil
}

// GrantBatch sends many independent promise requests in one round trip and
// returns the responses in request order — the remote mirror of the
// engines' GrantBatch.
func (c *Client) GrantBatch(ctx context.Context, client string, reqs []core.PromiseRequest) ([]core.PromiseResponse, error) {
	out, err := c.DoBatch(ctx, client, Batch{Grants: reqs})
	if err != nil {
		return nil, err
	}
	return out.Grants, nil
}

// CheckBatch asks, in one round trip, whether each promise is currently
// usable by the client: nil when usable, otherwise the sentinel-wrapped
// error, exactly like the engines' CheckBatch.
func (c *Client) CheckBatch(ctx context.Context, client string, ids []string) ([]error, error) {
	out, err := c.DoBatch(ctx, client, Batch{Checks: ids})
	if err != nil {
		return nil, err
	}
	return out.CheckErrs, nil
}

// Release hands back the named promises atomically in one round trip,
// exactly like the engines' Release: either every id is usable and all are
// released, or none are.
func (c *Client) Release(ctx context.Context, client string, ids ...string) error {
	if len(ids) == 0 {
		return nil
	}
	env := make([]core.EnvEntry, len(ids))
	for i, id := range ids {
		env[i] = core.EnvEntry{PromiseID: id, Release: true}
	}
	resp, err := c.Execute(ctx, core.Request{Client: client, Env: env})
	if err != nil {
		return err
	}
	return resp.ActionErr
}

// FetchStats retrieves the daemon's activity counters from the structured
// /stats endpoint.
func (c *Client) FetchStats(ctx context.Context) (core.Stats, error) {
	var st core.Stats
	err := c.getJSON(ctx, "/stats?format=json", &st)
	return st, err
}

// Stats implements the Engine surface. Transport failures yield a zero
// snapshot; use FetchStats when the error matters.
func (c *Client) Stats() core.Stats {
	st, _ := c.FetchStats(context.Background())
	return st
}

// Audit runs a server-side consistency audit and returns the report — like
// the local engines, an unhealthy report is a report, not an error.
func (c *Client) Audit() (*core.AuditReport, error) {
	rep := &core.AuditReport{}
	if err := c.getJSON(context.Background(), "/audit?format=json", rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// getJSON fetches one operational endpoint into out. A 500 with a JSON body
// still decodes (an unhealthy audit is a valid report). GETs are read-only,
// so every transient failure class retries under the client's policy.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	pol := c.retryPolicy()
	var lastErr error
	var retryAfter time.Duration
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if attempt > 0 {
			if retryAfter > 0 {
				d := retryAfter
				retryAfter = 0
				if err := sleepFor(ctx, d); err != nil {
					return fmt.Errorf("transport: %w (last error: %v)", err, lastErr)
				}
			} else if err := sleepBackoff(ctx, pol.Base, attempt); err != nil {
				return fmt.Errorf("transport: %w (last error: %v)", err, lastErr)
			}
		}
		httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
		if err != nil {
			return err
		}
		httpResp, err := c.httpClient().Do(httpReq)
		if err != nil {
			if ctx.Err() == nil && (transientDial(err) || transientMidflight(err)) {
				lastErr = err
				continue
			}
			return err
		}
		if httpResp.StatusCode == http.StatusServiceUnavailable || httpResp.StatusCode == http.StatusTooManyRequests {
			lastErr, retryAfter = refusal(httpResp)
			continue
		}
		if !strings.HasPrefix(httpResp.Header.Get("Content-Type"), "application/json") {
			var msg bytes.Buffer
			_, _ = msg.ReadFrom(httpResp.Body)
			httpResp.Body.Close()
			return fmt.Errorf("transport: %s: %s", httpResp.Status, bytes.TrimSpace(msg.Bytes()))
		}
		err = json.NewDecoder(httpResp.Body).Decode(out)
		httpResp.Body.Close()
		if err != nil && ctx.Err() == nil && transientMidflight(err) {
			lastErr = err
			continue
		}
		return err
	}
	return fmt.Errorf("transport: giving up after %d attempts: %w", pol.Attempts, lastErr)
}

// RequestPromise asks for one promise over the given predicates.
func (c *Client) RequestPromise(ctx context.Context, preds []core.Predicate, d time.Duration) (core.PromiseResponse, error) {
	res, err := c.Exchange(ctx, []core.PromiseRequest{{Predicates: preds, Duration: d}}, nil, nil)
	if err != nil {
		return core.PromiseResponse{}, err
	}
	if len(res.Promises) != 1 {
		return core.PromiseResponse{}, fmt.Errorf("transport: got %d promise responses, want 1", len(res.Promises))
	}
	return res.Promises[0], nil
}

// Invoke runs a registered action under the given environment.
func (c *Client) Invoke(ctx context.Context, env []core.EnvEntry, name string, params map[string]string) (string, error) {
	resp, err := c.Execute(ctx, core.Request{Env: env, ActionName: name, ActionParams: params})
	if err != nil {
		return "", err
	}
	if resp.ActionErr != nil {
		return "", resp.ActionErr
	}
	s, _ := resp.ActionResult.(string)
	return s, nil
}
