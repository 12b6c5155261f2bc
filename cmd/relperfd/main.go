// Command relperfd is the relative-performance serving daemon: it runs
// suites of studies on a shared worker budget, caches results by canonical
// config fingerprint and serves them over HTTP.
//
//	relperfd -addr :8077 -seed 1 -workers 0 -suite examples/suite.json \
//	         -wal relperfd.wal -snapshot relperfd.checkpoint
//
// -pprof addr (off by default) additionally serves net/http/pprof on its
// own listener, kept separate from the serving address so profiling is
// reachable under load and can be firewalled independently.
//
// Endpoints:
//
//	GET  /v1/healthz                  liveness + engine counters
//	POST /v1/suites                   submit a suite, receive fingerprints
//	GET  /v1/studies                  paginated fingerprint index
//	GET  /v1/studies/{fingerprint}    canonical study result JSON
//	                                  (?wait=stream serves SSE events;
//	                                  ETag/If-None-Match revalidation)
//	GET  /v1/studies/{fp}/summary     per-algorithm quantile summary
//	GET  /v1/trace/{fingerprint}      study timeline (on a coordinator:
//	                                  merged coordinator + worker spans)
//	POST /v1/replica/snapshot         absorb a pushed checkpoint (standby)
//	POST /v1/grid/workers             worker heartbeat   (-coordinator)
//	GET  /v1/grid/workers             worker + dispatch state (-coordinator)
//	GET  /v1/grid/tasks               dispatch journal (-coordinator;
//	                                  WAL-backed journals survive restarts)
//	GET  /v1/grid/metrics             federated exposition: coordinator +
//	                                  workers, worker="<id>"-labeled
//	GET  /v1/gridz                    fleet summary JSON (-coordinator)
//
// Grid modes: -coordinator shards submitted suites across workers that
// join with -join <coordinator-url>; workers are ordinary daemons started
// with the same -seed. -max-study-cost bounds the admission-control cost
// estimate of any single study (HTTP 429 above it).
//
// Determinism contract: for a fixed -seed, a study's response bytes are
// identical whatever the worker budget, whether the result was computed,
// cached or restored from a checkpoint, whichever suite submitted it — and,
// in grid mode, whichever worker computed it, at any worker count, across
// worker deaths, retries and local fallback.
//
// Durability: relperfd runs in one of two configurations. Without
// persistence flags it is in-memory and a restart starts cold. Durable
// mode is -wal and -snapshot together: every control-plane event — spec
// retained, result merged, task dispatched — is appended to a checksummed,
// fsync'd write-ahead log before it is acked, so a `kill -9` at any
// instant loses nothing acknowledged. Every -snapshot-interval (and at
// shutdown) the store is written to the -snapshot file as a checkpoint —
// a compacted log in the WAL's own frame format — and the log is
// compacted to the records the checkpoint missed, so both files stay
// bounded by the store. Startup reads the checkpoint, then the log tail
// (truncating a torn tail loudly), and restores every record through one
// validator: a corrupt checkpoint, or a record that fails validation,
// stops the daemon before it serves. -standby pushes each checkpoint to
// standby daemons over POST /v1/replica/snapshot, so a promoted standby
// serves warm, byte-identical results with zero recomputation. Any other
// combination of these flags is refused at startup.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"relperf/internal/faultpoint"
	"relperf/internal/fleet"
	"relperf/internal/grid"
	"relperf/internal/obs"
	"relperf/internal/wal"
)

// options collects the daemon's flag values.
type options struct {
	addr             string
	workers          int
	seed             uint64
	cacheCap         int
	snapshotPath     string
	suitePath        string
	pprofAddr        string
	maxStudyCost     int64
	coordinator      bool
	joinURL          string
	advertiseURL     string
	gridTTL          time.Duration
	gridReqTimeout   time.Duration
	gridHBTimeout    time.Duration
	replicaTimeout   time.Duration
	shutdownTimeout  time.Duration
	walPath          string
	snapshotInterval time.Duration
	intervalSet      bool // -snapshot-interval was given explicitly
	standbys         string
	logFormat        string
	mutexFraction    int
	blockRate        int
	traceStudies     int
	traceSpans       int
	scrapeTimeout    time.Duration
}

// defaultSnapshotInterval is the durable mode's compaction cadence.
const defaultSnapshotInterval = 30 * time.Second

// parseFlags parses the daemon's command line into options.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("relperfd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8077", "HTTP listen address")
	fs.IntVar(&o.workers, "workers", 0, "global worker budget shared by all studies (0 = GOMAXPROCS)")
	fs.Uint64Var(&o.seed, "seed", 1, "suite seed; equal seeds serve bit-identical results")
	fs.IntVar(&o.cacheCap, "cache", 0, "max cached studies, LRU-evicted (0 = unbounded)")
	fs.StringVar(&o.snapshotPath, "snapshot", "", "checkpoint file (durable mode, with -wal): loaded at startup, rewritten every -snapshot-interval and at shutdown")
	fs.StringVar(&o.suitePath, "suite", "", "suite spec JSON to submit at startup (warms the cache)")
	fs.StringVar(&o.pprofAddr, "pprof", "", "optional net/http/pprof listen address (e.g. localhost:6060); off when empty")
	fs.Int64Var(&o.maxStudyCost, "max-study-cost", 0, "admission bound on a study's estimated cost (placements × measurements × reps); 0 = unbounded")
	fs.BoolVar(&o.coordinator, "coordinator", false, "serve as a grid coordinator: register workers on /v1/grid/workers and shard suites across them")
	fs.StringVar(&o.joinURL, "join", "", "coordinator base URL to join as a grid worker (e.g. http://coord:8077)")
	fs.StringVar(&o.advertiseURL, "advertise", "", "base URL this worker advertises to the coordinator (default http://<bound address>)")
	fs.DurationVar(&o.gridTTL, "grid-ttl", 0, "coordinator: expire workers silent for this long (default 15s)")
	fs.DurationVar(&o.gridReqTimeout, "grid-request-timeout", 0, "coordinator: cap one remote dispatch attempt end to end; a paused or wedged worker fails over after this long (default 10m)")
	fs.DurationVar(&o.gridHBTimeout, "grid-heartbeat-timeout", grid.DefaultHeartbeatTimeout, "worker: cap one heartbeat request to the coordinator")
	fs.DurationVar(&o.replicaTimeout, "replica-timeout", 0, "cap one checkpoint push to a standby (0 = no timeout)")
	fs.DurationVar(&o.shutdownTimeout, "shutdown-timeout", 5*time.Second, "max wait for in-flight requests at shutdown before closing their connections")
	fs.StringVar(&o.walPath, "wal", "", "write-ahead log file (durable mode, with -snapshot): control-plane events are fsync'd here before being acked, and replayed over the checkpoint at startup")
	fs.DurationVar(&o.snapshotInterval, "snapshot-interval", defaultSnapshotInterval, "durable mode: write the checkpoint and compact the WAL every interval (> 0)")
	fs.StringVar(&o.standbys, "standby", "", "durable mode: comma-separated standby base URLs; each checkpoint is pushed to their POST /v1/replica/snapshot")
	fs.StringVar(&o.logFormat, "log-format", "text", "structured log format: text or json")
	fs.IntVar(&o.mutexFraction, "mutex-profile-fraction", 0, "with -pprof: runtime.SetMutexProfileFraction rate — sample 1/n mutex contention events (0 = off)")
	fs.IntVar(&o.blockRate, "block-profile-rate", 0, "with -pprof: runtime.SetBlockProfileRate threshold in ns — sample goroutine blocking events (0 = off)")
	fs.IntVar(&o.traceStudies, "trace-studies", 0, "max study timelines the tracer retains, LRU-evicted (0 = default 256)")
	fs.IntVar(&o.traceSpans, "trace-spans", 0, "max spans per study timeline, later spans dropped (0 = default 64)")
	fs.DurationVar(&o.scrapeTimeout, "grid-scrape-timeout", 0, "coordinator: cap one federated metrics scrape or trace fetch of one worker (default 2s)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	fs.Visit(func(f *flag.Flag) { o.intervalSet = o.intervalSet || f.Name == "snapshot-interval" })
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2) // the flag set already printed the error and usage
	}
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "relperfd: %v\n", err)
		os.Exit(1)
	}
}

// durable validates the persistence flags and reports whether the daemon
// runs durable. There are exactly two configurations: in-memory (none of
// -wal, -snapshot, -snapshot-interval, -standby), or durable (-wal and
// -snapshot together, compacted every -snapshot-interval > 0, optionally
// pushing to -standby). Every other combination is an error naming the
// flag at fault.
func (o options) durable() (bool, error) {
	switch {
	case o.walPath != "" && o.snapshotPath == "":
		return false, errors.New("-wal needs -snapshot: the log is compacted into the snapshot, or it grows without bound")
	case o.snapshotPath != "" && o.walPath == "":
		return false, errors.New("-snapshot needs -wal: without the log, every result acked since the last snapshot is lost in a crash")
	case o.walPath != "" && o.snapshotInterval <= 0:
		return false, fmt.Errorf("-snapshot-interval %v: durable mode needs a positive compaction interval", o.snapshotInterval)
	case o.walPath != "":
		return true, nil
	case o.intervalSet:
		return false, errors.New("-snapshot-interval needs -wal and -snapshot: an in-memory daemon has nothing to compact")
	case o.standbys != "":
		return false, errors.New("-standby needs -wal and -snapshot: standbys receive the durable mode's compacted snapshots")
	}
	return false, nil
}

// newLogger builds the daemon's structured logger. The default text
// handler keeps log lines greppable (the e2e harness and ops scripts
// scrape "serving on" and the WAL's RECOVERY marker); json emits one
// object per line for log pipelines.
func newLogger(format string) (*slog.Logger, error) {
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
	return slog.New(h), nil
}

// logfFor adapts logger to the printf-style diagnostic callbacks the
// library layers take (wal.Open, grid.Config.Logf, fleet.Replicator):
// the formatted line becomes the message of an Info record, so library
// diagnostics land in the same structured stream as the daemon's own.
func logfFor(logger *slog.Logger) func(format string, args ...any) {
	return func(format string, args ...any) {
		logger.Info(fmt.Sprintf(format, args...))
	}
}

// servePprof exposes the runtime profiling handlers on their own listener,
// never on the serving address: profiles stay reachable when the main
// server saturates, and operators can firewall the two ports separately.
// Like the main server, the actual bound address is logged so scripted
// callers can scrape it even with ":0"-style addrs.
func servePprof(addr string, logger *slog.Logger) (io.Closer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("pprof server failed", "err", err)
		}
	}()
	logger.Info(fmt.Sprintf("pprof serving on http://%s/debug/pprof/", ln.Addr()))
	return srv, nil
}

func run(o options) error {
	if o.coordinator && o.joinURL != "" {
		return errors.New("-coordinator and -join are mutually exclusive (a node is either the coordinator or a worker)")
	}
	// Validated before anything else — a refused configuration must not
	// have created a log or snapshot file.
	durable, err := o.durable()
	if err != nil {
		return err
	}
	logger, err := newLogger(o.logFormat)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	logf := logfFor(logger)
	// Fault injection is armed first: a point named in the environment must
	// already be live when the WAL below takes its first write.
	if err := faultpoint.ArmFromEnv(os.Getenv(faultpoint.EnvVar), logf); err != nil {
		return err
	}
	// The first faultpoint is startup itself: arming daemon.start makes the
	// process die (or error out) before it serves anything — the lever the
	// chaos harness and the supervisor crash-loop test pull to simulate a
	// child that can never come up. Each restarted child re-arms from the
	// inherited environment, so "error" (without a hit count) dooms every
	// start until the supervisor declares a crash loop.
	if err := faultpoint.Hit("daemon.start"); err != nil {
		return fmt.Errorf("daemon.start: %w", err)
	}
	// Mutex/block profiling rates are global runtime knobs; setting them
	// without the pprof listener would pay the sampling cost with no way
	// to read the profile, so they require -pprof.
	if (o.mutexFraction > 0 || o.blockRate > 0) && o.pprofAddr == "" {
		return errors.New("-mutex-profile-fraction and -block-profile-rate need -pprof to serve the profiles they enable")
	}
	if o.pprofAddr != "" {
		if o.mutexFraction > 0 {
			runtime.SetMutexProfileFraction(o.mutexFraction)
			logger.Info("mutex profiling enabled", "fraction", o.mutexFraction)
		}
		if o.blockRate > 0 {
			runtime.SetBlockProfileRate(o.blockRate)
			logger.Info("block profiling enabled", "rate_ns", o.blockRate)
		}
		srv, err := servePprof(o.pprofAddr, logger)
		if err != nil {
			return err
		}
		defer srv.Close()
	}

	// One Obs shared by every layer — scheduler, store, WAL, grid — so
	// GET /v1/metrics serves a single unified exposition and
	// GET /v1/trace/{fp} sees a study's whole lifecycle across layers.
	// The tracer bounds come from -trace-studies/-trace-spans (zero keeps
	// the package defaults).
	obsv := &obs.Obs{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(o.traceStudies, o.traceSpans)}

	// Durable state is recovered in layers: the checkpoint is the compacted
	// base, the WAL is the fsync'd tail on top of it. The WAL opens first
	// (it validates its seed header, truncates any torn tail and refuses,
	// untouched, a file it did not write — a v1 log included), but its
	// records replay only after the checkpoint's — replay order is what
	// makes "checkpoint then compact" crash-safe, since replaying a record
	// the checkpoint already holds is an idempotent no-op merge. Both go
	// through the same validator (fleet.ReplayWAL), and the checkpoint's
	// task records come before the tail's.
	store := fleet.NewStore(o.cacheCap)
	var walLog *wal.Log
	var taskRecs []wal.Record
	if durable {
		var walRecs []wal.Record
		walLog, walRecs, err = wal.Open(o.walPath, o.seed, logf)
		if err != nil {
			return fmt.Errorf("opening wal %s: %w", o.walPath, err)
		}
		defer walLog.Close()
		if f, err := os.Open(o.snapshotPath); err == nil {
			recs, err := fleet.ReadCheckpoint(f, o.seed)
			f.Close()
			if err != nil {
				return fmt.Errorf("loading checkpoint %s: %w", o.snapshotPath, err)
			}
			counts, tasks, err := fleet.ReplayWAL(store, o.seed, recs)
			if err != nil {
				return fmt.Errorf("restoring checkpoint %s: %w", o.snapshotPath, err)
			}
			taskRecs = tasks
			logger.Info("restored checkpoint", "path", o.snapshotPath, "specs", counts.Specs, "results", counts.Results, "studies", store.Len(), "tasks", counts.Tasks)
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
		counts, tasks, err := fleet.ReplayWAL(store, o.seed, walRecs)
		if err != nil {
			return fmt.Errorf("replaying wal %s: %w", o.walPath, err)
		}
		taskRecs = append(taskRecs, tasks...)
		if counts.Specs+counts.Results+counts.Tasks > 0 {
			logger.Info("replayed wal", "path", o.walPath, "specs", counts.Specs, "results", counts.Results, "tasks", counts.Tasks)
		}
	}

	// Coordinator mode: studies are offered to the grid dispatcher before
	// local execution, and the /v1/grid/* endpoints join the mux below.
	var coord *grid.Coordinator
	opts := fleet.Options{Workers: o.workers, Seed: o.seed, Store: store, Obs: obsv}
	if o.coordinator {
		coord = grid.New(grid.Config{Seed: o.seed, TTL: o.gridTTL, RequestTimeout: o.gridReqTimeout, ScrapeTimeout: o.scrapeTimeout, Logf: logf, Journal: walLog, Obs: obsv})
		if n := coord.RestoreJournal(taskRecs); n > 0 {
			logger.Info("restored dispatch journal", "entries", n)
		}
		opts.Dispatch = coord.Dispatch
	}
	// Only now does the store start journaling (and the WAL its metrics):
	// attached after replay, so recovered records are never appended back
	// into the log they came from, and replay work is counted as recovery
	// rather than as live appends.
	if durable {
		store.SetWAL(walLog)
		walLog.SetMetrics(wal.NewMetrics(obsv.Registry))
	}
	sched := fleet.New(opts)
	defer sched.Close()

	var standbyURLs []string
	if o.standbys != "" {
		for _, u := range strings.Split(o.standbys, ",") {
			if u = strings.TrimSpace(u); u != "" {
				standbyURLs = append(standbyURLs, u)
			}
		}
	}
	replicator := &fleet.Replicator{URLs: standbyURLs, Logf: logf}
	if o.replicaTimeout > 0 {
		replicator.Client = &http.Client{Timeout: o.replicaTimeout}
	}

	// checkpoint compacts the durable state: the checkpoint bytes and a WAL
	// cut point are captured atomically with respect to journaled
	// mutations (Store.SnapshotCut), the checkpoint is written atomically,
	// and only then is the WAL compacted to the cut — a result acked
	// between the capture and the compaction sits above the cut and
	// survives in the log, so compaction can never silently drop an
	// acknowledged write the checkpoint missed. Then the same bytes are
	// pushed to the standbys. Serialized: overlapping checkpoints would
	// race the write/compact ordering that makes this crash-safe.
	//
	// A coordinator's dispatch journal rides along as task frames after the
	// store's records. It is captured before SnapshotCut reads the cut, so
	// a task record is either in the checkpoint or above the cut, never
	// restored twice — but one appended inside that capture window is in
	// neither and is lost (it is observability, not state). A crash between
	// the checkpoint write and the compaction restores the task records
	// both files then hold twice.
	var checkpointMu sync.Mutex
	checkpoint := func(reason string) {
		checkpointMu.Lock()
		defer checkpointMu.Unlock()
		var tasks []wal.Record
		if coord != nil {
			tasks = coord.JournalRecords()
		}
		data, cut, err := store.SnapshotCut(o.seed)
		for _, rec := range tasks {
			if err == nil {
				data, err = wal.AppendRecord(data, rec)
			}
		}
		if err != nil {
			logger.Error("checkpoint failed", "reason", reason, "err", err)
			return
		}
		if err := fleet.WriteSnapshotBytesAtomic(data, o.snapshotPath); err != nil {
			logger.Error("checkpoint failed", "reason", reason, "err", err)
			return // the WAL still holds the tail; never compact it now
		}
		if err := walLog.CompactTo(cut, o.seed); err != nil {
			logger.Error("wal compaction failed", "reason", reason, "err", err)
		}
		if err := replicator.Push(context.Background(), data); err != nil {
			logger.Error("replication failed", "reason", reason, "err", err)
		}
	}

	if o.suitePath != "" {
		f, err := os.Open(o.suitePath)
		if err != nil {
			return err
		}
		req, err := fleet.DecodeSuiteRequest(f)
		f.Close()
		if err != nil {
			return err
		}
		// SubmitSpecs retains each spec in the store, so the startup suite
		// is recomputable from the checkpoint after future restarts.
		fps, err := sched.SubmitSpecs(req.Studies)
		if err != nil {
			return err
		}
		logger.Info("submitted startup suite", "path", o.suitePath, "studies", len(fps))
		for _, fp := range fps {
			logger.Info("study submitted", "url", "/v1/studies/"+fp)
		}
	}

	var serverOpts []fleet.ServerOption
	if o.maxStudyCost > 0 {
		serverOpts = append(serverOpts, fleet.WithMaxStudyCost(o.maxStudyCost))
	}
	if coord != nil {
		// Cross-node trace fan-in: GET /v1/trace/{fp} on the coordinator
		// merges its dispatch/retry spans with the owning worker's timeline,
		// each span tagged with the node it came from.
		serverOpts = append(serverOpts, fleet.WithTraceFanIn("coordinator", coord.WorkerTrace))
	}
	apiSrv := fleet.NewServer(sched, serverOpts...)
	handler := http.Handler(apiSrv)
	if coord != nil {
		// The grid endpoints share the serving address: workers register
		// against the same URL clients submit suites to. /v1/gridz is the
		// fleet-summary endpoint; it lives outside the /v1/grid/ prefix, so
		// it gets its own mount.
		mux := http.NewServeMux()
		gridHandler := coord.Handler()
		mux.Handle("/v1/grid/", gridHandler)
		mux.Handle("/v1/gridz", gridHandler)
		mux.Handle("/", handler)
		handler = mux
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Listen explicitly so the actual bound address is known (and logged)
	// even with ":0"-style addrs — scripted callers and the e2e test scrape
	// it from the log line.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Periodic compaction: checkpoint + WAL compaction + standby push on a
	// timer, so neither file outgrows the store between restarts.
	if durable {
		go func() {
			ticker := time.NewTicker(o.snapshotInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					checkpoint("interval")
				}
			}
		}()
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	mode := "single-node"
	if o.coordinator {
		mode = "coordinator"
	} else if o.joinURL != "" {
		mode = "worker"
	}
	// One message, not split attrs: tooling (and the e2e harness) scrapes
	// "serving on <addr>" out of the log line to find the bound port.
	logger.Info(fmt.Sprintf("relperfd serving on %s (seed=%d workers=%d cache=%d mode=%s)", ln.Addr(), o.seed, o.workers, o.cacheCap, mode))

	// Worker mode: announce this daemon to the coordinator and keep the
	// lease fresh until shutdown.
	if o.joinURL != "" {
		advertise := o.advertiseURL
		if advertise == "" {
			// A wildcard bind (":8078", "0.0.0.0:...") has no host the
			// coordinator could dial back; advertising it would register a
			// worker that resolves to the coordinator's own machine and
			// silently fail every dispatch. Refuse loudly instead.
			tcp, ok := ln.Addr().(*net.TCPAddr)
			if !ok || tcp.IP.IsUnspecified() {
				httpSrv.Close()
				return fmt.Errorf("-join with a wildcard -addr (%s) needs -advertise http://<reachable-host:port> so the coordinator can dial back", ln.Addr())
			}
			advertise = "http://" + ln.Addr().String()
		}
		// Epoch stamps this process incarnation: a supervised worker that
		// crashed and restarted heartbeats with a fresh epoch, which tells
		// the coordinator to clear the old incarnation's failure history and
		// requalify the worker immediately instead of holding it quarantined.
		info := grid.WorkerInfo{ID: advertise, URL: advertise, Capacity: sched.Workers(), Seed: o.seed, Epoch: uint64(time.Now().UnixNano())}
		// Each heartbeat piggybacks a fresh stats digest (inflight, store
		// occupancy, serve p99), giving the coordinator a last-known view of
		// this worker that survives the worker becoming unreachable. The
		// serve histogram is the study-GET route's — registering the same
		// name and labels returns the server's own instrument.
		serveHist := obsv.Registry.Histogram("http_request_seconds", "HTTP request latency by route.", nil, obs.L("route", "GET /v1/studies/{fingerprint}"))
		hbInfo := func() grid.WorkerInfo {
			i := info
			i.Digest = &grid.HeartbeatDigest{
				Inflight:     sched.Inflight(),
				StoreEntries: sched.Store().Stats().Entries,
				Computes:     sched.Computes(),
				ServeP99Ms:   serveHist.Quantile(0.99) * 1000,
			}
			return i
		}
		hbClient := &http.Client{Timeout: o.gridHBTimeout}
		go grid.RunHeartbeatsFunc(ctx, hbClient, o.joinURL, hbInfo, 0, logf)
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	// Streams first: an SSE subscriber parked on a slow study would pin
	// Shutdown until the deadline guillotined it mid-stream; draining sends
	// each one a terminal "shutdown" event instead.
	apiSrv.DrainStreams()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.shutdownTimeout)
	defer cancel()
	_ = httpSrv.Shutdown(shutdownCtx)
	sched.Close()
	if durable {
		checkpoint("shutdown")
	}
	return nil
}
