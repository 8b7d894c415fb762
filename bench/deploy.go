package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/transport"
	"repro/promises"
)

const (
	residentClient = "resident"
	idleClient     = "bench-nobody" // the client filtered subscribers watch; it never acts
	primeClient    = "bench-prime"  // touches every pool once before the clients start
)

// deployment is one workload's running system: the engine the clients
// drive, the node engines behind it, and everything to tear down.
type deployment struct {
	workload string
	engine   promises.Engine   // driven by the clients
	pools    []string          // every pool the clients can ask for
	nodes    []promises.Engine // the engines holding state (engine itself for in-process shapes)

	residents    []string // property promises pre-granted to residentClient
	expectActive int      // live promises the deployment itself holds
	dataDir      string   // daemon_durable's data directory
	fan          *fanout  // watch_fanout's subscribers

	closers []func() error // run in reverse order
}

func (d *deployment) onClose(f func() error) { d.closers = append(d.closers, f) }

// close stops servers and subscribers, closes engines and removes the data
// directory; it returns once every goroutine the deployment started ended.
func (d *deployment) close() error {
	var errs []error
	for i := len(d.closers) - 1; i >= 0; i-- {
		if err := d.closers[i](); err != nil {
			errs = append(errs, err)
		}
	}
	d.closers = nil
	return errors.Join(errs...)
}

// deploy builds the workload's deployment shape. With a tracer, every layer
// boundary the benchmark can reach from outside is wrapped: the engine
// handed to the server (or driven directly), the server's handler and the
// HTTP client's transport.
func deploy(workload, workDir string, tr *tracer) (d *deployment, err error) {
	d = &deployment{workload: workload}
	defer func() {
		if err != nil {
			_ = d.close()
		}
	}()
	switch workload {
	case "order_local", "watch_fanout":
		e, err := d.openNode(tr, promises.WithShards(numShards), promises.WithStandardActions())
		if err != nil {
			return nil, err
		}
		if err := seedPools(d.nodes[0], orderPoolNames); err != nil {
			return nil, err
		}
		d.engine, d.pools = e, orderPoolNames
		if workload == "watch_fanout" {
			if d.fan, err = startFanout(d.engine); err != nil {
				return nil, err
			}
			d.onClose(d.fan.stop)
		}
	case "hotel_property":
		e, err := d.openNode(tr, promises.WithShards(numShards), promises.WithPropertyMode(promises.MatchingMode))
		if err != nil {
			return nil, err
		}
		d.engine = e
		if err := d.seedHotel(); err != nil {
			return nil, err
		}
	case "daemon_durable":
		d.dataDir, err = os.MkdirTemp(workDir, "data-")
		if err != nil {
			return nil, err
		}
		d.onClose(func() error { return os.RemoveAll(d.dataDir) })
		e, err := d.openNode(tr, promises.WithShards(numShards), promises.WithDataDir(d.dataDir),
			promises.WithSyncPolicy(promises.SyncAlways), promises.WithStandardActions())
		if err != nil {
			return nil, err
		}
		if err := seedPools(d.nodes[0], orderPoolNames); err != nil {
			return nil, err
		}
		url, err := d.serve(e, tr)
		if err != nil {
			return nil, err
		}
		d.engine, err = promises.Open(promises.WithRemote(url), promises.WithHTTPClient(d.httpClient(tr)))
		if err != nil {
			return nil, err
		}
		d.pools = orderPoolNames
		d.onClose(d.engine.Close)
	case "cluster_span":
		byNode, _, err := clusterOwners()
		if err != nil {
			return nil, err
		}
		urls := make(map[string]string)
		for _, id := range clusterNodeIDs {
			e, err := d.openNode(tr, promises.WithShards(numShards), promises.WithNodeID(id), promises.WithStandardActions())
			if err != nil {
				return nil, err
			}
			if err := seedPools(d.nodes[len(d.nodes)-1], byNode[id]); err != nil {
				return nil, err
			}
			if urls[id], err = d.serve(e, tr); err != nil {
				return nil, err
			}
			d.pools = append(d.pools, byNode[id]...)
		}
		d.engine, err = promises.Open(promises.WithCluster(urls), promises.WithHTTPClient(d.httpClient(tr)))
		if err != nil {
			return nil, err
		}
		d.onClose(d.engine.Close)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return d, nil
}

// openNode opens one state-holding engine, registers it for teardown and
// returns what the next layer up should call: the engine itself, or its
// span decorator when tracing.
func (d *deployment) openNode(tr *tracer, opts ...promises.Option) (promises.Engine, error) {
	e, err := promises.Open(opts...)
	if err != nil {
		return nil, err
	}
	d.nodes = append(d.nodes, e)
	d.onClose(e.Close)
	if tr != nil {
		return tr.wrapEngine(e), nil
	}
	return e, nil
}

func seedPools(e promises.Engine, pools []string) error {
	s, err := promises.Seed(e)
	if err != nil {
		return err
	}
	for _, p := range pools {
		if err := s.CreatePool(p, poolLevel, nil); err != nil {
			return err
		}
	}
	return nil
}

// seedHotel creates the rooms, sells out one cell with named holds and
// pre-grants the resident property promises.
func (d *deployment) seedHotel() error {
	s, err := promises.Seed(d.nodes[0])
	if err != nil {
		return err
	}
	var reqs []promises.PromiseRequest
	for i := 0; i < hotelRooms; i++ {
		if err := s.CreateInstance(roomName(i), roomProps(i)); err != nil {
			return err
		}
		if roomSoldOut(i) {
			reqs = append(reqs, promises.PromiseRequest{
				Predicates: []promises.Predicate{promises.Named(roomName(i))}, Duration: standingHold})
		}
	}
	named := len(reqs)
	for i := 0; i < hotelResidents; i++ {
		reqs = append(reqs, promises.PromiseRequest{
			Predicates: []promises.Predicate{promises.MustProperty(hotelResidentText(i))}, Duration: standingHold})
	}
	resps, err := d.nodes[0].GrantBatch(context.Background(), residentClient, reqs)
	if err != nil {
		return err
	}
	for i, r := range resps {
		if !r.Accepted {
			return fmt.Errorf("hotel seed: resident request %d rejected: %s", i, r.Reason)
		}
		if i >= named {
			d.residents = append(d.residents, r.PromiseID)
		}
	}
	d.expectActive = len(resps)
	return nil
}

// serve puts the engine behind the §6 HTTP protocol on a loopback port.
func (d *deployment) serve(e promises.Engine, tr *tracer) (string, error) {
	reg := service.NewRegistry()
	service.RegisterStandard(reg)
	h := transport.NewServer(e, reg).Handler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	d.onClose(func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if err != nil {
			err = srv.Close()
		}
		<-done
		return err
	})
	return "http://" + ln.Addr().String(), nil
}

// httpClient allows one connection per client goroutine and host.
func (d *deployment) httpClient(tr *tracer) *http.Client {
	t := &http.Transport{
		MaxConnsPerHost:     numClients,
		MaxIdleConnsPerHost: numClients,
		DisableCompression:  true,
	}
	d.onClose(func() error { t.CloseIdleConnections(); return nil })
	if tr != nil {
		return &http.Client{Transport: tr.wrapRoundTripper(t)}
	}
	return &http.Client{Transport: t}
}

// copyDataDir copies the durable node's directory while it is still open.
func (d *deployment) copyDataDir(dst string) error {
	return filepath.WalkDir(d.dataDir, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(d.dataDir, path)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}

// dirUsage sums the data directory: total bytes, WAL segments, checkpoints.
type dirUsage struct {
	bytes                 int64
	segments, checkpoints int
}

func (d *deployment) dirUsage() (u dirUsage) {
	if d.dataDir == "" {
		return u
	}
	_ = filepath.WalkDir(d.dataDir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return nil // a segment pruned mid-walk is not an error here
		}
		if info, err := e.Info(); err == nil {
			u.bytes += info.Size()
		}
		switch filepath.Ext(e.Name()) {
		case ".log":
			u.segments++
		case ".ckpt":
			u.checkpoints++
		}
		return nil
	})
	return u
}

// ---- watch_fanout subscribers ----

// fanout is the subscriber set of watch_fanout: half unfiltered, half
// filtered to a client that never acts, each drained by one goroutine.
type fanout struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	subs   []*subscriber
}

type subscriber struct {
	filtered bool
	received atomic.Uint64
	lastSeq  atomic.Uint64
	disorder atomic.Uint64 // events whose Seq did not increase

	mu   sync.Mutex
	lags []int64 // ns from Event.Time to receipt, every lagSampleEvery-th event
}

const lagSampleEvery = 64

func startFanout(e promises.Engine) (*fanout, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fanout{cancel: cancel}
	for i := 0; i < watchSubscribers; i++ {
		s := &subscriber{filtered: i%2 == 1}
		opts := promises.WatchOptions{Buffer: watchBuffer, SlowPolicy: promises.SlowDrop}
		if s.filtered {
			opts.Client = idleClient
		}
		ch, err := e.Watch(ctx, opts)
		if err != nil {
			_ = f.stop()
			return nil, err
		}
		f.subs = append(f.subs, s)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			s.drain(ch)
		}()
	}
	return f, nil
}

func (s *subscriber) drain(ch <-chan promises.Event) {
	for ev := range ch {
		n := s.received.Add(1)
		if ev.Seq <= s.lastSeq.Load() {
			s.disorder.Add(1)
		}
		s.lastSeq.Store(ev.Seq)
		if n%lagSampleEvery == 0 {
			lag := time.Since(ev.Time).Nanoseconds()
			s.mu.Lock()
			s.lags = append(s.lags, lag)
			s.mu.Unlock()
		}
	}
}

func (f *fanout) stop() error {
	f.cancel()
	f.wg.Wait()
	return nil
}

// settle waits until the subscribers have drained what was published: two
// equal readings 5 ms apart, or one second.
func (f *fanout) settle() {
	prev := f.counts().received
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		cur := f.counts().received
		if cur == prev {
			return
		}
		prev = cur
	}
}

// fanoutCounts is a point-in-time reading of the unfiltered subscribers.
type fanoutCounts struct {
	received uint64 // summed over unfiltered subscribers
	maxSeq   uint64 // highest Seq any subscriber saw: events published so far
	lagMarks []int  // per-subscriber lag sample counts, to window the lags
}

func (f *fanout) counts() (c fanoutCounts) {
	for _, s := range f.subs {
		if s.filtered {
			continue
		}
		c.received += s.received.Load()
		c.maxSeq = max(c.maxSeq, s.lastSeq.Load())
		s.mu.Lock()
		c.lagMarks = append(c.lagMarks, len(s.lags))
		s.mu.Unlock()
	}
	return c
}

// lagsBetween returns the lag samples taken between two readings.
func (f *fanout) lagsBetween(a, b fanoutCounts) []int64 {
	var out []int64
	i := 0
	for _, s := range f.subs {
		if s.filtered {
			continue
		}
		s.mu.Lock()
		out = append(out, s.lags[a.lagMarks[i]:b.lagMarks[i]]...)
		s.mu.Unlock()
		i++
	}
	return out
}
