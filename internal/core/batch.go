package core

import (
	"context"
	"fmt"
)

// This file holds the shard's snapshot read paths behind the Manager's
// CheckBatch and environment validation.

// CheckBatch reports, per promise id, whether the promise is currently
// usable by client: nil when active and unexpired, otherwise the matching
// sentinel error (ErrPromiseNotFound, ErrPromiseReleased,
// ErrPromiseExpired). All ids are checked against one immutable committed
// store snapshot, with zero lock acquisition — checks never block grants
// and never queue behind each other, no matter how many writers are
// running. The outer error reports a failure of the check itself (a
// cancelled context, a dead transport), never a per-promise state.
func (m *shard) CheckBatch(ctx context.Context, client string, ids []string) ([]error, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]error, len(ids))
	snap := m.store.Snapshot()
	for i, id := range ids {
		_, out[i] = m.promiseForClient(snap, client, id)
	}
	return out, nil
}

// usable reports whether the promise exists, belongs to client, and is
// still active and unexpired, against the latest committed snapshot.
func (m *shard) usable(client, id string) error {
	_, err := m.promiseForClient(m.store.Snapshot(), client, id)
	return err
}

// envOK validates an environment against the latest committed snapshot:
// every promise exists, belongs to client, and has not expired or been
// released.
func (m *shard) envOK(client string, env []EnvEntry) error {
	if client == "" {
		return fmt.Errorf("%w: missing client", ErrBadRequest)
	}
	return m.validateEnv(m.store.Snapshot(), client, env)
}
