package main

// The traced run's per-layer metrics. Most come from replaying a seeded
// sample of the workload's ops in-process, through the public calls the
// daemon makes, each wrapped in a span; the rest are diffs of the daemon's
// own /v1/metrics counters and its /proc entries over the timed phase.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"relperf"
	"relperf/internal/fleet"
	"relperf/internal/obs"
	"relperf/internal/wal"
)

// layerInputs is what the load phase hands the per-layer measurement.
type layerInputs struct {
	fx                    *fixture
	seed                  uint64
	workload              string
	ops                   []op
	results               []opResult // sorted by op
	diff, after           series
	procBefore, procAfter procStat
	okOps                 int
	snapshotBytes         int64
	checkpoints           int
	dataDir               string // the stopped daemon's data directory
	scratch               string
}

type layerMetric struct {
	name    string
	unit    string
	value   float64
	samples int
}

type layers struct {
	layerInputs
	tr  tracer
	out []layerMetric
}

func (l *layers) put(name, unit string, value float64, samples int) {
	l.out = append(l.out, layerMetric{name, unit, value, samples})
}

// putSelf reports the median self time of the spans named span, in unit
// "ms" or "us".
func (l *layers) putSelf(metric, span, unit string, by map[string][]time.Duration) error {
	ds := by[span]
	if len(ds) == 0 {
		return fmt.Errorf("traced run recorded no %q span", span)
	}
	conv := us
	if unit == "ms" {
		conv = ms
	}
	l.put(metric, unit, median(durs(ds, conv)), len(ds))
	return nil
}

// Replay sizes: studies per engine mode, requests per HTTP route.
const (
	replayPerMode  = 8
	replayRequests = 300
	replayRecovers = 3
)

func measureLayers(ctx context.Context, in layerInputs) ([]layerMetric, *tracer, error) {
	l := &layers{layerInputs: in, tr: tracer{name: "replay", origin: time.Now(), on: true}}
	if err := os.MkdirAll(in.scratch, 0o755); err != nil {
		return nil, nil, err
	}
	store, log, err := l.recover()
	if err != nil {
		return nil, nil, fmt.Errorf("replaying recovery: %w", err)
	}
	defer log.Close()
	reg := obs.NewRegistry()
	log.SetMetrics(wal.NewMetrics(reg))
	sample := l.sample()
	if err := l.studies(ctx, sample, log); err != nil {
		return nil, nil, fmt.Errorf("replaying studies: %w", err)
	}
	fsync := reg.Histogram("wal_fsync_seconds", "fsync portion of append latency.", nil)
	if err := l.engineCounts(ctx, sample); err != nil {
		return nil, nil, err
	}
	l.storeGets(store)
	handlers, err := l.handlers(ctx, store)
	if err != nil {
		return nil, nil, fmt.Errorf("replaying HTTP handlers: %w", err)
	}
	if err := l.checkpoint(log); err != nil {
		return nil, nil, fmt.Errorf("replaying checkpoint: %w", err)
	}

	by := l.tr.selfByName()
	for _, m := range modes {
		for _, stage := range []string{relperf.StageMeasure, relperf.StageCluster, relperf.StageFinalize} {
			if err := l.putSelf(fmt.Sprintf("engine.%s_ms.%s", stage, m), fmt.Sprintf("engine.%s.%s", stage, m), "ms", by); err != nil {
				return nil, nil, err
			}
		}
	}
	// Each span's metric is its name plus its unit.
	for _, s := range []struct{ span, unit string }{
		{"spec.decode", "us"}, {"spec.key", "us"}, {"wire.encode", "us"},
		{"store.merge", "us"}, {"wal.append", "us"},
		{"recover.wal_open", "ms"}, {"recover.snapshot_load", "ms"}, {"recover.replay", "ms"},
		{"snapshot.cut", "ms"}, {"snapshot.write", "ms"}, {"wal.compact", "ms"},
		{"http.get_study", "us"}, {"http.summary", "us"}, {"http.not_modified", "us"},
		{"http.index", "us"}, {"http.post_suite", "us"}, {"http.sse_cached", "us"},
	} {
		if err := l.putSelf(s.span+"_"+s.unit, s.span, s.unit, by); err != nil {
			return nil, nil, err
		}
	}
	if fsync.Count() == 0 {
		return nil, nil, errors.New("traced run recorded no WAL fsync")
	}
	l.put("wal.fsync_us", "us", 1e6*fsync.Sum()/float64(fsync.Count()), int(fsync.Count()))
	l.daemonMetrics()
	l.residual(sample, handlers, by)
	return l.out, &l.tr, nil
}

// recover replays the daemon's start-up recovery on fresh copies of the
// data directory and keeps the last recovered store and WAL.
func (l *layers) recover() (*fleet.Store, *wal.Log, error) {
	var store *fleet.Store
	var log *wal.Log
	for k := 0; k < replayRecovers; k++ {
		if log != nil {
			log.Close()
		}
		dir := filepath.Join(l.scratch, fmt.Sprintf("recover%d", k))
		if err := l.fx.copyTo(dir); err != nil {
			return nil, nil, err
		}
		var recs []wal.Record
		var err error
		root := l.tr.start("recover", -1)
		l.tr.time("recover.wal_open", root, func() { log, recs, err = wal.Open(filepath.Join(dir, walFile), l.seed, nil) })
		if err != nil {
			return nil, nil, err
		}
		store = fleet.NewStore(0)
		l.tr.time("recover.snapshot_load", root, func() {
			var f *os.File
			if f, err = os.Open(filepath.Join(dir, snapshotFile)); err == nil {
				_, err = store.LoadSnapshot(f, l.seed)
				f.Close()
			}
		})
		if err != nil {
			log.Close()
			return nil, nil, err
		}
		l.tr.time("recover.replay", root, func() { _, _, err = fleet.ReplayWAL(store, l.seed, recs) })
		l.tr.end(root)
		if err != nil {
			log.Close()
			return nil, nil, err
		}
	}
	if n := store.Len(); n != len(l.fx.studies) {
		log.Close()
		return nil, nil, fmt.Errorf("recovered %d studies, fixture holds %d", n, len(l.fx.studies))
	}
	return store, log, nil
}

// sampledOp is one replayed client op: the studies it submitted (or read),
// the bytes the daemon served for them, and its client-side latency.
type sampledOp struct {
	studies []genStudy
	want    [][]byte
	lat     time.Duration
	inproc  time.Duration // summed replay time of its studies
}

// sample picks the ops to replay: per engine mode, replayPerMode studies
// from ops the daemon served (cold-compute, durable-ingest) or from the
// fixture (warm-read, whose daemon computed nothing).
func (l *layers) sample() []sampledOp {
	rng := newRNG(l.seed, streamSample+1)
	var out []sampledOp
	perMode := map[string]int{}
	full := func() bool {
		for _, m := range modes {
			if perMode[m] < replayPerMode {
				return false
			}
		}
		return true
	}
	if l.workload == wlWarm {
		for _, i := range rng.Perm(len(l.fx.studies)) {
			st := l.fx.studies[i]
			if perMode[st.Mode] >= replayPerMode {
				continue
			}
			perMode[st.Mode]++
			out = append(out, sampledOp{studies: []genStudy{st.genStudy}, want: [][]byte{st.Result}})
			if full() {
				break
			}
		}
		return out
	}
	for _, i := range rng.Perm(len(l.results)) {
		if full() {
			break
		}
		r := l.results[i]
		if !r.ok {
			continue
		}
		o := l.ops[r.op]
		useful := false
		for _, st := range o.studies {
			useful = useful || perMode[st.Mode] < replayPerMode
		}
		if !useful {
			continue
		}
		for _, st := range o.studies {
			perMode[st.Mode]++
		}
		out = append(out, sampledOp{studies: o.studies, want: r.blobs, lat: r.lat})
	}
	return out
}

// studies replays each sampled study through the layers a POSTed study
// passes in the daemon: spec decode, keying, the engine (stage split from
// Result.Stages), wire encode, spec retention and result merge into a
// store, and the two WAL appends the daemon journals for them. Every
// result must equal the bytes the daemon served.
func (l *layers) studies(ctx context.Context, ops []sampledOp, log *wal.Log) error {
	store := fleet.NewStore(0)
	walBefore := log.Size()
	nStudies := 0
	var sizes []float64
	for oi := range ops {
		so := &ops[oi]
		for k, st := range so.studies {
			blob, d, err := l.study(ctx, st, store, log)
			if err != nil {
				return fmt.Errorf("%s: %w", st.FP, err)
			}
			if !bytes.Equal(blob, so.want[k]) {
				return fmt.Errorf("%s: in-process result differs from the bytes served", st.FP)
			}
			so.inproc += d
			nStudies++
			sizes = append(sizes, float64(len(blob)))
		}
	}
	l.put("wire.bytes", "B", median(sizes), len(sizes))
	l.put("wal.bytes_per_study", "B", float64(log.Size()-walBefore)/float64(nStudies), nStudies)
	return nil
}

func (l *layers) study(ctx context.Context, st genStudy, store *fleet.Store, log *wal.Log) ([]byte, time.Duration, error) {
	t := &l.tr
	start := time.Now()
	root := t.start("study", -1)
	defer t.end(root)
	var sp *relperf.StudySpec
	var err error
	t.time("spec.decode", root, func() { sp, err = relperf.ParseStudySpec(st.Spec) })
	if err != nil {
		return nil, 0, err
	}
	var study *relperf.Study
	var fp string
	t.time("spec.key", root, func() { study, fp, err = oneWorkerStudy(sp, l.seed) })
	if err != nil {
		return nil, 0, err
	}
	if fp != st.FP {
		return nil, 0, fmt.Errorf("spec keys to %s in-process", fp)
	}
	run := t.start("engine.run", root)
	res, err := study.RunOn(ctx, nil)
	t.end(run)
	if err != nil {
		return nil, 0, err
	}
	for _, s := range res.Stages {
		t.add("engine."+s.Name+"."+st.Mode, run, s.Start, s.Start.Add(time.Duration(s.Seconds*float64(time.Second))))
	}
	var blob []byte
	t.time("wire.encode", root, func() { blob, err = res.MarshalWire() })
	if err != nil {
		return nil, 0, err
	}
	t.time("store.putspec", root, func() { err = store.PutSpec(fp, st.Spec) })
	if err != nil {
		return nil, 0, err
	}
	t.time("wal.append", root, func() { err = log.Append(wal.Record{Type: wal.TypeSpec, Fingerprint: fp, Data: st.Spec}) })
	if err != nil {
		return nil, 0, err
	}
	t.time("store.merge", root, func() { err = store.Merge(fp, blob) })
	if err != nil {
		return nil, 0, err
	}
	t.time("wal.append", root, func() { err = log.Append(wal.Record{Type: wal.TypeResult, Fingerprint: fp, Data: blob}) })
	return blob, time.Since(start), err
}

// engineCounts measures the engine's exact allocation count for one exact
// study of the sample at one worker, and a tiny durable-ingest study's
// run time.
func (l *layers) engineCounts(ctx context.Context, sample []sampledOp) error {
	var exact *genStudy
	for _, so := range sample {
		for i := range so.studies {
			if so.studies[i].Mode == modeExact {
				exact = &so.studies[i]
				break
			}
		}
		if exact != nil {
			break
		}
	}
	if exact == nil {
		return errors.New("sample holds no exact study")
	}
	sp, err := relperf.ParseStudySpec(exact.Spec)
	if err != nil {
		return err
	}
	study, _, err := oneWorkerStudy(sp, l.seed)
	if err != nil {
		return err
	}
	var allocs []float64
	var ms0, ms1 runtime.MemStats
	for k := 0; k < 3; k++ {
		runtime.ReadMemStats(&ms0)
		_, err := study.RunOn(ctx, nil)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return err
		}
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
	}
	l.put("engine.allocs_per_study", "count", median(allocs), len(allocs))

	tiny := tinySpec(newRNG(l.seed, streamSample+2), "tiny", modeExact)
	if study, _, err = oneWorkerStudy(&tiny, l.seed); err != nil {
		return err
	}
	var runs []float64
	for k := 0; k < 50; k++ {
		id := l.tr.start("engine.tiny_study", -1)
		start := time.Now()
		_, err := study.RunOn(ctx, nil)
		runs = append(runs, ms(time.Since(start)))
		l.tr.end(id)
		if err != nil {
			return err
		}
	}
	l.put("engine.tiny_study_ms", "ms", median(runs), len(runs))
	return nil
}

// zipfKeys draws n fixture indices with the warm-read key law.
func (l *layers) zipfKeys(n int) []int {
	ops := genWarm(l.seed+1, n, len(l.fx.studies))
	out := make([]int, n)
	for i := range out {
		out[i] = ops[i].fx
	}
	return out
}

// storeGets times Store.Get on the recovered store in batches (one Get is
// too short for the clock).
func (l *layers) storeGets(store *fleet.Store) {
	const batch = 2000
	keys := l.zipfKeys(batch)
	fps := make([]string, batch)
	for i, k := range keys {
		fps[i] = l.fx.studies[k].FP
	}
	var per []float64
	for b := 0; b < 5; b++ {
		id := l.tr.start("store.get×2000", -1)
		start := time.Now()
		for _, fp := range fps {
			store.Get(fp)
		}
		per = append(per, us(time.Since(start))/batch)
		l.tr.end(id)
	}
	l.put("store.get_us", "us", median(per), len(per)*batch)
}

// handlerTimes are the median in-process handler times in ms, for the
// residual.
type handlerTimes map[string]float64

// handlers replays each route the workloads hit through Server.ServeHTTP
// on a scheduler over the recovered store, checking every response.
func (l *layers) handlers(ctx context.Context, store *fleet.Store) (handlerTimes, error) {
	sched := fleet.New(fleet.Options{Workers: 1, Seed: l.seed, Store: store, Obs: obs.New()})
	defer sched.Close()
	srv := fleet.NewServer(sched)
	keys := l.zipfKeys(replayRequests)
	serve := func(span string, req *http.Request, want int) ([]byte, error) {
		rec := httptest.NewRecorder()
		l.tr.time(span, -1, func() { srv.ServeHTTP(rec, req) })
		if rec.Code != want {
			return nil, fmt.Errorf("%s %s: %d (want %d): %s", req.Method, req.URL, rec.Code, want, strings.TrimSpace(rec.Body.String()))
		}
		return rec.Body.Bytes(), nil
	}
	for _, k := range keys {
		st := l.fx.studies[k]
		path := "/v1/studies/" + st.FP
		body, err := serve("http.get_study", httptest.NewRequest(http.MethodGet, path, nil), http.StatusOK)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(bytes.TrimSuffix(body, []byte{'\n'}), st.Result) {
			return nil, fmt.Errorf("GET %s: body differs", path)
		}
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("If-None-Match", `"`+st.FP+`"`)
		if _, err := serve("http.not_modified", req, http.StatusNotModified); err != nil {
			return nil, err
		}
		want, err := fleet.SummarizeResult(st.FP, st.Result)
		if err != nil {
			return nil, err
		}
		wantBody, err := encodeJSON(want)
		if err != nil {
			return nil, err
		}
		if body, err = serve("http.summary", httptest.NewRequest(http.MethodGet, path+"/summary", nil), http.StatusOK); err != nil {
			return nil, err
		}
		if !bytes.Equal(body, wantBody) {
			return nil, fmt.Errorf("GET %s/summary: body differs", path)
		}
		if body, err = serve("http.sse_cached", httptest.NewRequest(http.MethodGet, path+"?wait=stream", nil), http.StatusOK); err != nil {
			return nil, err
		}
		if got, err := sseResult(body); err != nil || !bytes.Equal(got, st.Result) {
			return nil, fmt.Errorf("GET %s?wait=stream: result event differs (%v)", path, err)
		}
	}
	for i := 0; i < replayRequests/3; i++ {
		cursor := l.fx.sorted[keys[i]]
		if _, err := serve("http.index", httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/studies?limit=%d&cursor=%s", indexLimit, cursor), nil), http.StatusOK); err != nil {
			return nil, err
		}
	}
	rng := newRNG(l.seed, streamSample+3)
	for i := 0; i < replayRequests/6; i++ {
		sp := tinySpec(rng, fmt.Sprintf("post-%d", i), modeExact)
		st, err := keyStudy(&sp, l.seed)
		if err != nil {
			return nil, err
		}
		body, err := suiteBody([]genStudy{st})
		if err != nil {
			return nil, err
		}
		if _, err := serve("http.post_suite", httptest.NewRequest(http.MethodPost, "/v1/suites", bytes.NewReader(body)), http.StatusAccepted); err != nil {
			return nil, err
		}
		// Let the compute finish off the clock before the next request.
		if _, err := sched.Result(ctx, st.FP); err != nil {
			return nil, err
		}
	}
	by := l.tr.selfByName()
	ht := handlerTimes{}
	for _, name := range []string{"http.get_study", "http.not_modified", "http.summary", "http.index"} {
		ht[name] = median(durs(by[name], ms))
	}
	return ht, nil
}

// checkpoint replays the daemon's interval checkpoint on the store the
// daemon left on disk: snapshot cut, atomic snapshot write, WAL compaction.
func (l *layers) checkpoint(log *wal.Log) error {
	store := fleet.NewStore(0)
	f, err := os.Open(filepath.Join(l.dataDir, snapshotFile))
	if err != nil {
		return err
	}
	_, err = store.LoadSnapshot(f, l.seed)
	f.Close()
	if err != nil {
		return err
	}
	path := filepath.Join(l.scratch, snapshotFile)
	for k := 0; k < 3; k++ {
		root := l.tr.start("checkpoint", -1)
		var data []byte
		l.tr.time("snapshot.cut", root, func() { data, _, err = store.SnapshotCut(l.seed) })
		if err == nil {
			l.tr.time("snapshot.write", root, func() { err = fleet.WriteSnapshotBytesAtomic(data, path) })
		}
		if err == nil {
			l.tr.time("wal.compact", root, func() { err = log.CompactTo(log.Size(), l.seed) })
		}
		l.tr.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// daemonMetrics reports the per-layer numbers read from the daemon itself
// over the timed phase.
func (l *layers) daemonMetrics() {
	d := l.diff
	computes := d["fleet_computes_total"]
	wait := 0.0
	if n := d["fleet_queue_wait_seconds_count"]; n > 0 {
		wait = 1000 * d["fleet_queue_wait_seconds_sum"] / n
	}
	l.put("sched.queue_wait_ms", "ms", wait, int(d["fleet_queue_wait_seconds_count"]))
	l.put("sched.computes", "count", computes, 1)
	l.put("sched.coalesced", "count", d["fleet_coalesced_total"], 1)
	hits, misses := d["store_hits_total"], d["store_misses_total"]
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	l.put("store.hit_ratio", "ratio", ratio, int(hits+misses))
	l.put("store.entries", "count", l.after["store_entries"], 1)
	perStudy := 0.0
	if computes > 0 {
		perStudy = d["wal_appends_total"] / computes
	}
	l.put("wal.appends_per_study", "count", perStudy, int(computes))
	l.put("snapshot.bytes", "B", float64(l.snapshotBytes), 1)
	l.put("snapshot.checkpoints", "count", float64(l.checkpoints), 1)
	var bs []bucket
	for _, r := range routeNames {
		bs = addBuckets(bs, d.buckets("http_request_seconds", fmt.Sprintf("route=%q", r)))
	}
	p50, _ := bucketQuantile(bs, 0.5)
	p99, _ := bucketQuantile(bs, 0.99)
	n := 0
	if len(bs) > 0 {
		n = int(bs[len(bs)-1].count)
	}
	l.put("http.server_p50_ms", "ms", 1000*p50, n)
	l.put("http.server_p99_ms", "ms", 1000*p99, n)
	l.put("daemon.peak_rss_mb", "MB", float64(l.procAfter.hwmKiB)/1024, 1)
	l.put("daemon.cpu_ms_per_op", "ms", ms(l.procAfter.cpu-l.procBefore.cpu)/float64(max(l.okOps, 1)), l.okOps)
}

// residual compares the replayed layer time of an op with the latency the
// client measured for it: the gap is transport, queueing and CPU the daemon
// spends outside the op's own calls. cold-compute and durable-ingest
// compare the sampled ops themselves; warm-read compares the op mix's mean
// handler time with the mean op latency. The interval checkpoints' share
// of that outside CPU is reported per op.
func (l *layers) residual(ops []sampledOp, ht handlerTimes, by map[string][]time.Duration) {
	var client, inproc []float64
	if l.workload == wlWarm {
		handler := map[int]string{opGet: "http.get_study", opRevalidate: "http.not_modified", opSummary: "http.summary", opIndex: "http.index"}
		for _, r := range l.results {
			if r.ok {
				client = append(client, ms(r.lat))
				inproc = append(inproc, ht[handler[l.ops[r.op].kind]])
			}
		}
	} else {
		for _, so := range ops {
			client = append(client, ms(so.lat))
			inproc = append(inproc, ms(so.inproc))
		}
	}
	c, p := mean(client), mean(inproc)
	l.put("trace.op_ms", "ms", p, len(inproc))
	l.put("trace.client_op_ms", "ms", c, len(client))
	l.put("trace.residual_ms", "ms", c-p, len(client))
	l.put("trace.residual_share", "ratio", (c-p)/c, len(client))
	perCheckpoint := 0.0
	for _, name := range []string{"snapshot.cut", "snapshot.write", "wal.compact"} {
		perCheckpoint += median(durs(by[name], ms))
	}
	l.put("trace.checkpoint_ms_per_op", "ms", perCheckpoint*float64(l.checkpoints)/float64(max(l.okOps, 1)), l.checkpoints)
}
