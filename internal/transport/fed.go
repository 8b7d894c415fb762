// Federation over HTTP: the reserve / confirm / abort elements of a
// cross-node two-phase grant (see internal/core/fed.go for the node-side
// machinery and internal/cluster for the caller). The elements ride the
// same POST /promises endpoint as ordinary envelopes; GET /cluster/summary
// exposes the node's candidate summary for cluster-level pre-filtering.
package transport

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/protocol"
)

// SummaryEndpoint serves the node's federation candidate summary as JSON.
const SummaryEndpoint = "/cluster/summary"

// FedEngine is the node-side federation surface. core.Manager implements
// it; other engines do not, and a server wrapping one answers federation
// traffic with a not-found fault.
type FedEngine interface {
	FedReserve(ctx context.Context, client string, spec core.FedReserveSpec) (*core.FedReserveResult, error)
	FedConfirm(ctx context.Context, sessionID string, spec core.FedConfirmSpec) ([]core.GrantedPart, error)
	FedAbort(sessionID string)
	FedSummary() core.NodeSummary
}

var _ FedEngine = (*core.Manager)(nil)

// fedEngine resolves the manager's federation surface, or nil.
func (s *Server) fedEngine() FedEngine {
	fe, _ := s.manager.(FedEngine)
	return fe
}

// handleFed answers an envelope carrying a reserve, confirm or abort
// element. Federation elements travel alone — they never combine with
// promise headers, batches or actions.
func (s *Server) handleFed(ctx context.Context, w http.ResponseWriter, in *protocol.Envelope) {
	fe := s.fedEngine()
	if fe == nil {
		httpFault(w, fmt.Errorf("%w: node does not serve federation", core.ErrBadRequest), http.StatusNotFound)
		return
	}
	if in.Header.Promise != nil || in.Header.Environment != nil || in.Header.Batch != nil || in.Body.Action != nil {
		http.Error(w, "transport: federation elements cannot combine with promise, environment, batch or action elements", http.StatusBadRequest)
		return
	}
	out := &protocol.Envelope{}
	switch {
	case in.Header.Reserve != nil:
		spec, err := protocol.ReserveFromWire(in.Header.Reserve)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := fe.FedReserve(ctx, in.Header.Client, spec)
		if err != nil {
			engineFault(w, err)
			return
		}
		out.Header.ReserveResult = protocol.ReserveResultToWire(res)
	case in.Header.Confirm != nil:
		spec, err := protocol.ConfirmFromWire(in.Header.Confirm)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		parts, err := fe.FedConfirm(ctx, in.Header.Confirm.Session, spec)
		if err != nil {
			engineFault(w, err)
			return
		}
		out.Header.ConfirmResult = protocol.ConfirmResultToWire(parts)
	case in.Header.Abort != nil:
		fe.FedAbort(in.Header.Abort.Session)
		out.Header.AbortResult = &protocol.AbortResponse{OK: true}
	}
	w.Header().Set("Content-Type", "application/xml")
	if err := protocol.Encode(w, out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleSummary serves GET /cluster/summary.
func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	fe := s.fedEngine()
	if fe == nil {
		http.Error(w, "transport: node does not serve federation", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, fe.FedSummary())
}

// FedReserve opens a federated session on the remote node: this node's
// slice of predicates and releases reserves under the node's shard locks
// until confirmed, aborted, or the server-side TTL fires.
func (c *Client) FedReserve(ctx context.Context, client string, spec core.FedReserveSpec) (*core.FedReserveResult, error) {
	env := &protocol.Envelope{}
	env.Header.Client = c.clientID(client)
	env.Header.Reserve = protocol.ReserveToWire(spec)
	reply, err := c.Do(ctx, env)
	if err != nil {
		return nil, err
	}
	if reply.Header.ReserveResult == nil {
		return nil, fmt.Errorf("transport: reserve reply carries no reserve-response element")
	}
	return protocol.ReserveResultFromWire(reply.Header.ReserveResult)
}

// FedConfirm applies the caller's plan to a reserved session and commits.
func (c *Client) FedConfirm(ctx context.Context, sessionID string, spec core.FedConfirmSpec) ([]core.GrantedPart, error) {
	env := &protocol.Envelope{}
	env.Header.Confirm = protocol.ConfirmToWire(sessionID, spec)
	reply, err := c.Do(ctx, env)
	if err != nil {
		return nil, err
	}
	if reply.Header.ConfirmResult == nil {
		return nil, fmt.Errorf("transport: confirm reply carries no confirm-response element")
	}
	return protocol.ConfirmResultFromWire(reply.Header.ConfirmResult)
}

// FedAbort rolls a reserved session back. Idempotent server-side, so the
// client retries it like a read.
func (c *Client) FedAbort(ctx context.Context, sessionID string) error {
	env := &protocol.Envelope{}
	env.Header.Abort = &protocol.AbortRequest{Session: sessionID}
	reply, err := c.Do(ctx, env)
	if err != nil {
		return err
	}
	if reply.Header.AbortResult == nil {
		return fmt.Errorf("transport: abort reply carries no abort-response element")
	}
	return nil
}

// FedSummary fetches the node's merged candidate summary.
func (c *Client) FedSummary(ctx context.Context) (core.NodeSummary, error) {
	var sum core.NodeSummary
	err := c.getJSON(ctx, SummaryEndpoint+"?format=json", &sum)
	return sum, err
}
