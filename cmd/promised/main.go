// Command promised serves a promise manager over HTTP — the PM box of the
// paper's Figure 2 deployed as a standalone process. It hosts the standard
// resource-operation services and can seed demo resources at startup.
//
// Usage:
//
//	promised [-addr :8642] [-seed retail|hotel|bank] [-shards N] [-max-duration 10m]
//	         [-data-dir /var/lib/promised] [-sync always|interval|none]
//	         [-pprof-addr localhost:6060]
//
// -shards defaults to GOMAXPROCS.
//
// -pprof-addr serves net/http/pprof profiles (CPU, heap, goroutine,
// contention) on a second listener, separate from the client-facing
// protocol port so profiling access can be firewalled independently. Off
// by default; see docs/operations.md.
//
// State is striped across -shards independent shards (hash of pool or
// instance id) so parallel clients on different resources proceed
// concurrently; -shards 1 serializes every request through one store. Both
// configurations come from promises.Open and serve the same Engine surface,
// so clients cannot tell them apart.
//
// With -data-dir the daemon is durable: every committed transaction and
// published event is logged under the directory, and a restart recovers the
// previous process's state — promises, pools, escrow, soft locks, pending
// expiries, and the Watch replay ring — before listening (docs/operations.md
// has the full persistence story). A directory that already holds state is
// never re-seeded, and its manifest supplies the shard count when -shards is
// not given explicitly. SIGINT/SIGTERM drain in-flight requests, flush a
// final checkpoint, and exit cleanly.
//
// The wire protocol is the §6 promise protocol over XML; see
// internal/protocol. Try it with cmd/promisectl, or from code with
// promises.Open(promises.WithRemote(url)).
//
// Clustering: -node-id names the daemon as a cluster member (promise ids
// gain the "<id>!" namespace the federation layer routes by), and
//
//	promised -coordinator -nodes n0=http://h0:8642,n1=http://h1:8642 [-addr :8640]
//	         [-probe-every 1s] [-canary-max 250ms]
//
// runs the control-plane coordinator instead of a promise manager: it
// health-checks the named nodes, drains slow ones by migrating their
// promise slots to ring successors, and serves GET /cluster/status (text,
// or ?format=json). Grants never pass through the coordinator; point
// clients at the nodes (promises.WithCluster) or at the coordinator's
// status endpoint via promisectl -cluster, which discovers the node set
// from it. See docs/operations.md, "Running a cluster".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failpoint"
	"repro/internal/service"
	"repro/internal/transport"
	"repro/promises"
)

func main() {
	addr := flag.String("addr", ":8642", "listen address")
	seed := flag.String("seed", "retail", "demo dataset to seed: retail, hotel, bank, none")
	seedFile := flag.String("seed-file", "", "XML resource seed file (see internal/resource seed format); overrides -seed")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "state shards; 1 serializes all requests through one store")
	maxDur := flag.Duration("max-duration", 10*time.Minute, "cap on granted promise durations")
	statsEvery := flag.Duration("sweep", 5*time.Second, "activity log interval (expiry itself fires at promise deadlines)")
	warn := flag.Duration("expiry-warning", 2*time.Second, "emit expiry-imminent events this long before each deadline; 0 disables")
	replayRing := flag.Int("replay-ring", 0, "event replay-ring capacity for SSE Last-Event-ID resume; 0 means the default (4096)")
	dataDir := flag.String("data-dir", "", "durable data directory: log every commit, recover state on restart; empty runs in-memory")
	syncPol := flag.String("sync", "always", "with -data-dir, when log writes reach disk: always, interval, none")
	syncEvery := flag.Duration("sync-every", 0, "with -sync interval, the group-fsync cadence; 0 means 50ms")
	ckptEvery := flag.Duration("checkpoint-every", 0, "with -data-dir, how often the log compacts into a checkpoint; 0 means 1m, negative disables")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables profiling")
	reprobeEvery := flag.Duration("reprobe-every", 0, "with -data-dir, how often a degraded engine probes the directory for recovery; 0 means 5s")
	maxInflight := flag.Int("max-inflight", 0, "admission control: mutating requests dispatched concurrently; 0 disables the limiter")
	maxQueue := flag.Int("max-queue", 0, "with -max-inflight, requests waiting for a slot before 503; 0 means 2x max-inflight")
	retryAfter := flag.Duration("retry-after", 0, "with -max-inflight, the Retry-After hint stamped on shed responses; 0 means 1s")
	failpoints := flag.String("failpoints", "", "arm failpoints at startup, e.g. 'wal/sync=error(disk gone);transport/handle=sleep(50ms)'; PROMISES_FAILPOINTS env adds more")
	fpEndpoint := flag.Bool("failpoint-endpoint", false, "serve POST/GET/DELETE /failpoints to arm, list, and reset failpoints at runtime (chaos drills only)")
	nodeID := flag.String("node-id", "", "cluster member id; namespaces promise ids as '<id>!…' for federation routing")
	coordinator := flag.Bool("coordinator", false, "run the cluster coordinator (health checks, drains, /cluster/status) instead of a promise manager")
	nodes := flag.String("nodes", "", "with -coordinator: comma-separated id=url member list")
	probeEvery := flag.Duration("probe-every", time.Second, "with -coordinator: health-probe interval")
	canaryMax := flag.Duration("canary-max", 250*time.Millisecond, "with -coordinator: grant-latency budget before a node is considered slow")
	flag.Parse()

	// Failpoints arm before anything else runs so startup paths (recovery,
	// seeding) are drillable too. The flag and the environment both feed the
	// same harness; arming is a no-op unless specs are given.
	for _, spec := range []string{*failpoints, os.Getenv("PROMISES_FAILPOINTS")} {
		if spec == "" {
			continue
		}
		if err := failpoint.Arm(spec); err != nil {
			log.Fatalf("promised: -failpoints: %v", err)
		}
	}
	if armed := failpoint.List(); len(armed) > 0 {
		log.Printf("promised: failpoints armed: %s", strings.Join(armed, "; "))
	}

	if *coordinator {
		runCoordinator(*addr, *nodes, *probeEvery, *canaryMax)
		return
	}

	shardsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			shardsSet = true
		}
	})

	// An existing data directory dictates its own shape: its manifest wins
	// over the -shards default, and its recovered resources must not be
	// seeded on top of.
	recovered := false
	opts := []promises.Option{promises.WithMaxDuration(*maxDur),
		promises.WithExpiryWarning(*warn), promises.WithReplayRing(*replayRing)}
	if *dataDir != "" {
		mf, err := core.ReadManifest(*dataDir)
		if err != nil {
			log.Fatalf("promised: reading %s: %v", *dataDir, err)
		}
		if mf != nil {
			recovered = true
			if !shardsSet {
				*shards = mf.Shards
			}
		}
		pol, err := promises.ParseSyncPolicy(*syncPol)
		if err != nil {
			log.Fatalf("promised: -sync: %v", err)
		}
		opts = append(opts, promises.WithDataDir(*dataDir), promises.WithSyncPolicy(pol))
		if *syncEvery != 0 {
			opts = append(opts, promises.WithSyncEvery(*syncEvery))
		}
		if *ckptEvery != 0 {
			opts = append(opts, promises.WithCheckpointEvery(*ckptEvery))
		}
		if *reprobeEvery != 0 {
			opts = append(opts, promises.WithReprobeEvery(*reprobeEvery))
		}
	}
	if *nodeID != "" {
		opts = append(opts, promises.WithNodeID(*nodeID))
	}
	eng, err := promises.Open(append(opts, promises.WithShards(*shards))...)
	if err != nil {
		log.Fatalf("promised: %v", err)
	}
	m := eng.(*promises.Manager)
	switch {
	case recovered:
		log.Printf("promised: recovered state from %s (%d shards); skipping seed", *dataDir, *shards)
	case *seedFile != "":
		f, err := os.Open(*seedFile)
		if err != nil {
			log.Fatalf("promised: %v", err)
		}
		pools, instances, err := m.LoadSeed(f)
		_ = f.Close()
		if err != nil {
			log.Fatalf("promised: seed file %s: %v", *seedFile, err)
		}
		log.Printf("promised: seeded %d pools, %d instances from %s", pools, instances, *seedFile)
	default:
		if err := seedData(m, *seed); err != nil {
			log.Fatalf("promised: seeding %q: %v", *seed, err)
		}
	}

	reg := service.NewRegistry()
	service.RegisterStandard(reg)

	// Expiry no longer needs a periodic sweep — the engine's expiry heap
	// lapses promises at their deadlines — so the ticker only logs activity.
	go func() {
		for range time.Tick(*statsEvery) {
			log.Printf("promised: %s", m.Stats())
		}
	}()

	var srvOpts []transport.ServerOption
	if *maxInflight > 0 {
		srvOpts = append(srvOpts, transport.WithAdmission(transport.AdmissionConfig{
			MaxInFlight: *maxInflight,
			MaxQueue:    *maxQueue,
			RetryAfter:  *retryAfter,
		}))
		log.Printf("promised: admission control on (max-inflight=%d, max-queue=%d)", *maxInflight, *maxQueue)
	}
	if *fpEndpoint {
		srvOpts = append(srvOpts, transport.WithFailpointEndpoint())
		log.Printf("promised: /failpoints endpoint enabled")
	}
	srv := transport.NewServer(m, reg, srvOpts...)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// The profiler gets its own mux on its own listener: nothing pprof
	// ever shares a port with the client-facing protocol, so exposure is
	// an explicit operator decision (and firewallable separately).
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("promised: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("promised: pprof server: %v", err)
			}
		}()
	}

	// SIGINT/SIGTERM drain in-flight requests, then Close flushes a final
	// checkpoint so the next start replays no log tail.
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Printf("promised: %v — shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("promised: shutdown: %v", err)
		}
	}()

	log.Printf("promised: promise manager listening on %s (seed=%s, shards=%d, actions=%v)",
		*addr, *seed, *shards, reg.Names())
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := m.Close(); err != nil {
		log.Printf("promised: close: %v", err)
		os.Exit(1)
	}
	log.Printf("promised: stopped")
}

// runCoordinator serves the cluster control plane: health probes over the
// member list, drains of slow nodes, and the /cluster/status endpoint.
func runCoordinator(addr, nodeList string, probeEvery, canaryMax time.Duration) {
	if nodeList == "" {
		log.Fatalf("promised: -coordinator requires -nodes id=url,...")
	}
	var ports []cluster.NodePort
	for _, ent := range strings.Split(nodeList, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(ent), "=")
		if !ok || id == "" || url == "" {
			log.Fatalf("promised: -nodes entry %q: want id=url", ent)
		}
		ports = append(ports, cluster.NewHTTPPort(id, url, "cluster-coordinator", nil))
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Ports:     ports,
		CanaryMax: canaryMax,
	})
	if err != nil {
		log.Fatalf("promised: %v", err)
	}

	runCtx, cancel := context.WithCancel(context.Background())
	go coord.Run(runCtx, probeEvery)

	httpSrv := &http.Server{Addr: addr, Handler: coord.Handler()}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Printf("promised: %v — shutting down coordinator", s)
		cancel()
		ctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
		defer stop()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("promised: shutdown: %v", err)
		}
	}()

	log.Printf("promised: cluster coordinator listening on %s (%d nodes, probe every %v)",
		addr, len(ports), probeEvery)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	log.Printf("promised: coordinator stopped")
}

// seedData installs one of the demo datasets used throughout the examples,
// routing each pool and instance to its owning shard.
func seedData(m *promises.Manager, name string) error {
	if name == "none" {
		return nil
	}
	switch name {
	case "retail":
		for pool, qty := range map[string]int64{
			"pink-widgets": 100, "blue-widgets": 100, "shipping-slots": 20,
		} {
			if err := m.CreatePool(pool, qty, nil); err != nil {
				return err
			}
		}
	case "hotel":
		for i := 1; i <= 20; i++ {
			floor := int64(1 + (i-1)/4)
			props := map[string]promises.Value{
				"floor":   promises.Int(floor),
				"view":    promises.Bool(i%3 == 0),
				"smoking": promises.Bool(i%7 == 0),
				"beds":    promises.Str([]string{"twin", "king", "single"}[i%3]),
			}
			if err := m.CreateInstance(fmt.Sprintf("room-%d%02d", floor, i%4+10), props); err != nil {
				return err
			}
		}
	case "bank":
		for _, acct := range []struct {
			id  string
			bal int64
		}{{"alice", 50000}, {"bob", 12000}, {"carol", 300}} {
			if err := m.CreatePool("acct-"+acct.id, acct.bal, nil); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown seed %q", name)
	}
	return nil
}
