package core

import (
	"context"
	"time"
)

// Supplier is an upstream promise maker backing delegation (§5): "Promises
// are made that rely on the promises of third parties. For example, a
// purchase order can be accepted by the merchant if it has received a
// promise from the distributor that a backorder will be fulfilled on time."
//
// When an anonymous-view promise request exceeds local unreserved stock and
// the pool has a registered Supplier, the manager covers the shortfall by
// obtaining an upstream promise for the missing quantity.
//
// Supplier calls cross trust domains and are NOT part of the local ACID
// transaction (§8: the transaction "does not include any external messaging
// or code outside the scope of the service"). The manager therefore
// compensates: an upstream promise obtained during a request that later
// aborts is released again, and upstream releases triggered by a local
// release run only after the local transaction commits. Compensation and
// post-commit releases run under context.Background() — a dead client must
// not strand upstream state.
//
// The request context flows through: cancelling the downstream request
// cancels the upstream call it is waiting on.
type Supplier interface {
	// RequestPromise asks for qty units of pool for the given duration,
	// returning the upstream promise id on success.
	RequestPromise(ctx context.Context, pool string, qty int64, d time.Duration) (id string, err error)
	// ReleasePromise hands an upstream promise back.
	ReleasePromise(ctx context.Context, id string) error
	// ConsumePromise fulfils qty units under the upstream promise and
	// releases it (the backorder ships).
	ConsumePromise(ctx context.Context, id string, qty int64) error
}
