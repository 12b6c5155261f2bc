package main

// Input generation. Every function here is a pure function of its seed:
// the same seed yields the same fixture specs, the same fingerprints and
// the same op sequence (gen_test.go pins this). The daemon only ever sees
// the generated request bytes.

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"relperf"
)

// Workload names, as passed to --workload.
const (
	wlCold   = "cold-compute"
	wlIngest = "durable-ingest"
	wlWarm   = "warm-read"
)

var workloadNames = []string{wlCold, wlIngest, wlWarm}

// Study modes; the engine's per-stage metrics are split by them.
const (
	modeExact  = "exact"
	modeMatrix = "matrix"
	modeSketch = "sketch"
)

var modes = []string{modeExact, modeMatrix, modeSketch}

// RNG streams, one per generated artefact, so adding draws to one never
// shifts another.
const (
	streamFixture = iota + 1
	streamCold
	streamIngest
	streamWarm
	streamSample
)

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x70657266<<8|stream))
}

// genStudy is one generated study: its canonical wire spec (the bytes
// Scheduler.SubmitSpecs retains), the fingerprint it keys to under the
// daemon seed, and its engine mode.
type genStudy struct {
	FP   string
	Mode string
	Spec []byte
}

func specMode(sp *relperf.StudySpec) string {
	switch {
	case sp.Sketch != nil:
		return modeSketch
	case sp.Matrix:
		return modeMatrix
	}
	return modeExact
}

// keyStudy resolves a spec to its fingerprint under seed, exactly as the
// daemon keys a submitted spec.
func keyStudy(sp *relperf.StudySpec, seed uint64) (genStudy, error) {
	_, fp, err := oneWorkerStudy(sp, seed)
	if err != nil {
		return genStudy{}, err
	}
	b, err := json.Marshal(sp)
	if err != nil {
		return genStudy{}, err
	}
	return genStudy{FP: fp, Mode: specMode(sp), Spec: b}, nil
}

// randomProgram draws a declarative task chain. The kernel parameters only
// change what is simulated, not how much work the engine does, so they give
// studies distinct identities at a steady cost.
func randomProgram(rng *rand.Rand, name string, tasks int) *relperf.ProgramSpec {
	p := &relperf.ProgramSpec{Name: name}
	for t := 0; t < tasks; t++ {
		ts := relperf.TaskSpec{Name: fmt.Sprintf("L%d", t+1)}
		switch rng.IntN(3) {
		case 0:
			ts.Kernel, ts.Size, ts.Iters = "gemm", 32+rng.IntN(480), 1+rng.IntN(60)
		case 1:
			ts.Kernel, ts.Size, ts.Iters, ts.Lambda = "rls", 32+rng.IntN(300), 1+rng.IntN(8), 0.5
		default:
			ts.Kernel = "raw"
			ts.Flops = relperf.SpecCount(1_000_000 + rng.Int64N(1_000_000_000))
			ts.Launches = relperf.SpecCount(1 + rng.IntN(30))
			ts.HostInBytes = relperf.SpecCount(4096 + rng.Int64N(8<<20))
			ts.HostOutBytes = relperf.SpecCount(512 + rng.Int64N(1<<20))
			ts.Transfers = relperf.SpecCount(1 + rng.IntN(4))
			ts.AccelEff = float64(2+rng.IntN(48)) / 100
		}
		p.Tasks = append(p.Tasks, ts)
	}
	return p
}

// fixtureSpecs draws the n cheap studies of the shared data directory:
// at most 8 placements, small N and reps; six in ten exact, two matrix, two
// sketch. Only sketch studies, whose clustering is cheap, get 3 tasks.
func fixtureSpecs(seed uint64, n int) []relperf.StudySpec {
	rng := newRNG(seed, streamFixture)
	out := make([]relperf.StudySpec, n)
	for i := range out {
		sp := relperf.StudySpec{Measurements: 4 + rng.IntN(4), Reps: 4 + rng.IntN(4)}
		tasks := 1 + rng.IntN(2)
		switch i % 10 {
		case 6, 7:
			sp.Matrix = true
		case 8, 9:
			tasks = 1 + rng.IntN(3)
			sp.Measurements = 50 + rng.IntN(100)
			sp.Sketch = &relperf.SketchSpec{K: 16 << rng.IntN(2)}
		}
		sp.Program = randomProgram(rng, fmt.Sprintf("fx-%d", i), tasks)
		out[i] = sp
	}
	return out
}

// coldClasses are the study kinds of cold-compute, each at a fixed engine
// cost: Table-I, Figure-1 and custom programs, exact, matrix and sketch.
// Only identity fields (loop_n, warmup, program name and kernels) vary.
var coldClasses = []struct {
	name string
	make func(rng *rand.Rand, i int) relperf.StudySpec
}{
	{"tableI-exact", func(rng *rand.Rand, i int) relperf.StudySpec {
		return relperf.StudySpec{Workload: "tableI", LoopN: 2 + rng.IntN(1_000_000), Measurements: 10, Reps: 16}
	}},
	{"fig1-exact", func(rng *rand.Rand, i int) relperf.StudySpec {
		return relperf.StudySpec{Workload: "fig1", Warmup: rng.IntN(400), Measurements: 16 + rng.IntN(3), Reps: 24 + rng.IntN(5)}
	}},
	{"program-exact", func(rng *rand.Rand, i int) relperf.StudySpec {
		return relperf.StudySpec{Program: randomProgram(rng, fmt.Sprintf("cc-%d", i), 3), Measurements: 10, Reps: 16}
	}},
	{"tableI-matrix", func(rng *rand.Rand, i int) relperf.StudySpec {
		return relperf.StudySpec{Workload: "tableI", LoopN: 2 + rng.IntN(1_000_000), Measurements: 16, Reps: 32, Matrix: true}
	}},
	{"program-matrix", func(rng *rand.Rand, i int) relperf.StudySpec {
		return relperf.StudySpec{Program: randomProgram(rng, fmt.Sprintf("cc-%d", i), 3), Measurements: 16, Reps: 32, Matrix: true}
	}},
	{"tableI-sketch", func(rng *rand.Rand, i int) relperf.StudySpec {
		return relperf.StudySpec{Workload: "tableI", LoopN: 2 + rng.IntN(1_000_000), Measurements: 1500, Reps: 30, Sketch: &relperf.SketchSpec{K: 64}}
	}},
	{"program-sketch", func(rng *rand.Rand, i int) relperf.StudySpec {
		return relperf.StudySpec{Program: randomProgram(rng, fmt.Sprintf("cc-%d", i), 3), Measurements: 1500, Reps: 30, Sketch: &relperf.SketchSpec{K: 64}}
	}},
}

// coldDeck is one block of cold-compute ops, as indices into coldClasses:
// 5 exact, 3 matrix, 4 sketch. Each block is shuffled, so the mix is exact
// over every 12 ops and only the order depends on the seed.
var coldDeck = []int{0, 0, 1, 2, 2, 3, 3, 4, 5, 5, 6, 6}

// coldStreamPerBlock ops of each coldDeck block read by SSE, the rest by a
// blocking GET.
const coldStreamPerBlock = 3

// Op kinds.
const (
	opCold       = iota // POST one study, read its result (GET or SSE)
	opSuite             // POST a suite of tiny studies, GET each result
	opGet               // GET a stored study
	opSummary           // GET a stored study's summary
	opRevalidate        // conditional GET answered 304
	opIndex             // GET one page of the study index
)

// op is one generated client operation; request bodies and paths are
// built here, before any timing starts.
type op struct {
	kind    int
	body    []byte     // POST body
	studies []genStudy // studies the POST submits
	stream  bool       // cold: read the result by SSE
	fx      int        // warm: fixture study index
	cursor  int        // index: cursor slot
	class   int        // cold: coldClasses index
}

// genCold draws n cold-compute ops of never-seen studies: none repeats and
// none collides with a fixture fingerprint in seen.
func genCold(seed uint64, n int, seen map[string]bool) ([]op, error) {
	rng := newRNG(seed, streamCold)
	ops := make([]op, 0, n)
	deck := append([]int(nil), coldDeck...)
	stream := make([]bool, len(deck))
	for len(ops) < n {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for i := range stream {
			stream[i] = i < coldStreamPerBlock
		}
		rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		for k, c := range deck {
			if len(ops) == n {
				break
			}
			var st genStudy
			for tries := 0; ; tries++ {
				if tries == 100 {
					return nil, fmt.Errorf("cold-compute: cannot draw a fresh %s study", coldClasses[c].name)
				}
				sp := coldClasses[c].make(rng, len(ops))
				var err error
				if st, err = keyStudy(&sp, seed); err != nil {
					return nil, err
				}
				if !seen[st.FP] {
					break
				}
			}
			seen[st.FP] = true
			body, err := suiteBody([]genStudy{st})
			if err != nil {
				return nil, err
			}
			ops = append(ops, op{kind: opCold, body: body, studies: []genStudy{st}, stream: stream[k], class: c})
		}
	}
	return ops, nil
}

// ingestSuiteModes is the mode of each of the 8 tiny studies in a
// durable-ingest suite.
var ingestSuiteModes = []string{modeExact, modeExact, modeExact, modeExact, modeMatrix, modeMatrix, modeSketch, modeSketch}

// tinySpec is the durable-ingest study: one task (2 placements), N=5,
// reps=5, in the given mode. The name gives it its identity.
func tinySpec(rng *rand.Rand, name, mode string) relperf.StudySpec {
	sp := relperf.StudySpec{Program: randomProgram(rng, name, 1), Measurements: 5, Reps: 5}
	switch mode {
	case modeMatrix:
		sp.Matrix = true
	case modeSketch:
		sp.Sketch = &relperf.SketchSpec{K: 16}
	}
	return sp
}

// genIngest draws n durable-ingest ops, each a suite of 8 never-seen tiny
// studies.
func genIngest(seed uint64, n int, seen map[string]bool) ([]op, error) {
	rng := newRNG(seed, streamIngest)
	ops := make([]op, n)
	for i := range ops {
		sts := make([]genStudy, len(ingestSuiteModes))
		for j, m := range ingestSuiteModes {
			sp := tinySpec(rng, fmt.Sprintf("di-%d-%d", i, j), m)
			st, err := keyStudy(&sp, seed)
			if err != nil {
				return nil, err
			}
			if seen[st.FP] {
				return nil, fmt.Errorf("durable-ingest: study %s drawn twice", st.FP)
			}
			seen[st.FP] = true
			sts[j] = st
		}
		body, err := suiteBody(sts)
		if err != nil {
			return nil, err
		}
		ops[i] = op{kind: opSuite, body: body, studies: sts}
	}
	return ops, nil
}

// warmDeck is one block of warm-read ops: 14 GET, 3 summary, 2
// revalidations and 1 index page in every 20.
var warmDeck = []int{
	opGet, opGet, opGet, opGet, opGet, opGet, opGet, opGet, opGet, opGet, opGet, opGet, opGet, opGet,
	opSummary, opSummary, opSummary, opRevalidate, opRevalidate, opIndex,
}

// warmCursors is how many distinct index cursors warm-read pages from;
// their expected pages are encoded before timing.
const warmCursors = 64

// genWarm draws n warm-read ops over a fixture of nfx studies. Keys follow
// a Zipf law (s=1.1) over a seeded permutation of the fixture, so which
// studies are hot depends on the seed.
func genWarm(seed uint64, n, nfx int) []op {
	rng := newRNG(seed, streamWarm)
	perm := rng.Perm(nfx)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(nfx-1))
	ops := make([]op, 0, n)
	deck := append([]int(nil), warmDeck...)
	for len(ops) < n {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, k := range deck {
			if len(ops) == n {
				break
			}
			o := op{kind: k, fx: perm[zipf.Uint64()]}
			if k == opIndex {
				o.cursor = rng.IntN(warmCursors)
			}
			ops = append(ops, o)
		}
	}
	return ops
}

// warmCursorKeys picks the fixture positions (in sorted-fingerprint order)
// index pages start after.
func warmCursorKeys(seed uint64, nfx int) []int {
	rng := newRNG(seed, streamWarm+100)
	out := make([]int, warmCursors)
	for i := range out {
		out[i] = rng.IntN(nfx)
	}
	return out
}

// suiteRequest mirrors the POST /v1/suites body.
type suiteRequest struct {
	Studies []json.RawMessage `json:"studies"`
}

func suiteBody(sts []genStudy) ([]byte, error) {
	req := suiteRequest{Studies: make([]json.RawMessage, len(sts))}
	for i, st := range sts {
		req.Studies[i] = st.Spec
	}
	return json.Marshal(req)
}
