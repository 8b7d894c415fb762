package core

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"
)

// testShards returns the shard count for shard-count-generic tests: the
// PROMISES_TEST_SHARDS environment variable when set (the CI matrix plumbs
// {1, 8} through it, exercising both the degenerate single-shard
// configuration and a wide one), else def. Tests whose scenario pins
// resources to specific shard indices set Config.Shards explicitly
// instead.
func testShards(def int) int {
	if v := os.Getenv("PROMISES_TEST_SHARDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// bg is the context every test that doesn't exercise cancellation uses.
var bg = context.Background()

// checkEngine is the slice of the Engine surface the check helper needs.
type checkEngine interface {
	CheckBatch(ctx context.Context, client string, ids []string) ([]error, error)
}

// checkB runs CheckBatch under the background context, failing the test on
// an engine-level error (per-promise sentinels are returned for asserting).
func checkB(t testing.TB, e checkEngine, client string, ids []string) []error {
	t.Helper()
	errs, err := e.CheckBatch(bg, client, ids)
	if err != nil {
		t.Fatalf("CheckBatch: %v", err)
	}
	return errs
}

// only returns the one shard of a single-shard engine, whose store and
// resource manager the unit tests seed and inspect directly.
func (m *Manager) only() *shard {
	if len(m.shards) != 1 {
		panic(fmt.Sprintf("only: engine has %d shards", len(m.shards)))
	}
	return m.shards[0]
}
