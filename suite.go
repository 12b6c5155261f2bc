package relperf

// This file is the multi-study layer of the library: canonical config
// fingerprinting, the shared worker Budget, and the Suite API that runs
// many studies — deduplicated by fingerprint — on one global concurrency
// budget. The fleet scheduler (internal/fleet) and the relperfd daemon are
// built on these primitives.
//
// The determinism contract extends to suites: every study's seed derives
// from xrand.Mix(suiteSeed, fingerprintKey), so a study's Result depends
// only on (suite seed, study config) — never on the suite's composition,
// the worker budget, or scheduling. Equal suite seeds therefore produce
// bit-identical per-study results at any worker count, and a result cached
// under its fingerprint is valid for every future suite with the same seed.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"

	"relperf/internal/compare"
	"relperf/internal/core"
	"relperf/internal/device"
	"relperf/internal/pool"
	"relperf/internal/xrand"
)

// Budget is a shared global worker budget: a fixed number of execution
// tokens that every work unit (placement campaign, clustering repetition,
// matrix pre-pass pair) of every study running on it must acquire. Passing
// one Budget to many concurrent Study.RunOn calls bounds their combined
// concurrency without affecting any study's result.
type Budget struct {
	pool *pool.Pool
}

// NewBudget returns a budget of the given width (0 means GOMAXPROCS).
func NewBudget(workers int) *Budget {
	return &Budget{pool: pool.NewPool(workers)}
}

// Workers returns the budget's token count.
func (b *Budget) Workers() int { return b.pool.Workers() }

// fingerprintVersion tags the canonical encoding; bump it whenever the
// encoding or the engine's result semantics change so stale cached results
// can never be served for a new engine.
const fingerprintVersion = "relperf-study-v1"

// Fingerprint returns the canonical content fingerprint of a study
// configuration: a 32-hex-digit string identifying everything that
// determines the study's Result except Seed and Workers — the platform
// model, the program, the placement set, N, Warmup, Reps, the clustering
// path and the comparator's decision parameters. Configurations that are
// semantically identical (e.g. a nil comparator vs. an explicit
// default-parameter bootstrap, or an unset vs. explicit default N)
// fingerprint identically. The fleet layers use the fingerprint as the
// cache identity of a study and as the key that derives its seed.
//
// Only the built-in comparator types can be fingerprinted; a custom
// Comparator implementation returns an error because its decision
// parameters cannot be canonically observed.
func Fingerprint(cfg StudyConfig) (string, error) {
	s, err := NewStudy(cfg)
	if err != nil {
		return "", err
	}
	return s.Fingerprint()
}

// Fingerprint returns the canonical fingerprint of the study's
// configuration; see the package-level Fingerprint.
func (s *Study) Fingerprint() (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", fingerprintVersion)
	cmp := s.cfg.Comparator
	if cmp == nil && s.cfg.SketchK > 0 {
		// Sketch mode's nil default resolves to the sketch comparator, not
		// the bootstrap — the identities must match what actually runs.
		cmp = compare.SketchComparator{}
	}
	if err := fingerprintComparator(h, cmp); err != nil {
		return "", err
	}
	if err := fingerprintDevice(h, "edge", s.cfg.Platform.Edge); err != nil {
		return "", err
	}
	if err := fingerprintDevice(h, "accel", s.cfg.Platform.Accel); err != nil {
		return "", err
	}
	link := s.cfg.Platform.Link
	linkNoise, err := fingerprintNoise(link.Noise)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(h, "link %q latency=%d bandwidth=%v noise=%s\n",
		link.Name, link.Latency.Nanoseconds(), link.Bandwidth, linkNoise)
	fmt.Fprintf(h, "program %q\n", s.cfg.Program.Name)
	for i := range s.cfg.Program.Tasks {
		t := &s.cfg.Program.Tasks[i]
		fmt.Fprintf(h, "task %q flops=%d mem=%d launches=%d in=%d out=%d transfers=%d edgeeff=%v acceleff=%v cache=%v\n",
			t.Name, t.Flops, t.MemBytes, t.Launches, t.HostInBytes, t.HostOutBytes,
			t.Transfers, t.EdgeEff, t.AccelEff, t.CachePenaltySeconds)
	}
	for _, pl := range s.placements {
		fmt.Fprintf(h, "placement %s\n", pl)
	}
	// The trial cap only matters on the matrix path; normalizing it keeps
	// no-op flag differences from splitting the cache identity.
	trials := 0
	if s.cfg.Matrix {
		trials = s.cfg.MatrixTrials
		if trials <= 0 {
			trials = core.DefaultMatrixTrials
		}
	}
	fmt.Fprintf(h, "n=%d warmup=%d reps=%d matrix=%v trials=%d\n",
		s.cfg.N, s.cfg.Warmup, s.cfg.Reps, s.cfg.Matrix, trials)
	// The sketch line exists only in sketch mode, so an exact study and a
	// sketch study over the same configuration can never share an identity —
	// a cache must not serve an approximation where exact bytes were
	// promised, or vice versa.
	if s.cfg.SketchK > 0 {
		fmt.Fprintf(h, "sketch k=%d\n", s.cfg.SketchK)
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16]), nil
}

func fingerprintDevice(w io.Writer, label string, d *device.Device) error {
	noise, err := fingerprintNoise(d.Noise)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s %q kind=%d peak=%v membw=%v launch=%d task=%d threads=%d noise=%s energy=(idle=%v active=%v jpb=%v)\n",
		label, d.Name, d.Kind, d.PeakFlops, d.MemBandwidth,
		d.LaunchOverhead.Nanoseconds(), d.TaskOverhead.Nanoseconds(),
		d.Threads, noise, d.Energy.IdleWatts, d.Energy.ActiveWatts, d.Energy.JoulesPerByte)
	return nil
}

// fingerprintNoise renders a noise model canonically by its decision
// parameters: field values only — never fmt's %#v, which would print heap
// addresses for pointer-shaped models and destabilize fingerprints across
// process runs. Pointer and value forms of one model encode identically,
// zero-valued fields encode as the defaults Perturb applies, and unknown
// model types are rejected just like unknown comparators.
func fingerprintNoise(n device.NoiseModel) (string, error) {
	switch m := n.(type) {
	case nil:
		return "none", nil
	case device.LogNormalNoise:
		return fmt.Sprintf("lognormal(sigma=%v)", m.Sigma), nil
	case *device.LogNormalNoise:
		return fingerprintNoise(*m)
	case device.GaussianNoise:
		floor := m.Floor
		if floor == 0 {
			floor = device.DefaultGaussianFloor
		}
		return fmt.Sprintf("gaussian(rel=%v floor=%v)", m.Rel, floor), nil
	case *device.GaussianNoise:
		return fingerprintNoise(*m)
	case device.SpikyNoise:
		base, err := fingerprintNoise(m.Base)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("spiky(p=%v scale=%v alpha=%v base=%s)", m.P, m.Scale, m.Alpha, base), nil
	case *device.SpikyNoise:
		return fingerprintNoise(*m)
	case device.ShiftNoise:
		base, err := fingerprintNoise(m.Base)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("shift(shift=%v base=%s)", m.Shift, base), nil
	case *device.ShiftNoise:
		return fingerprintNoise(*m)
	case device.NoNoise:
		// NoNoise and nil are one identity: neither perturbs nor draws
		// from the RNG stream, so they produce identical Results.
		return "none", nil
	case *device.NoNoise:
		return "none", nil
	default:
		return "", fmt.Errorf("relperf: cannot fingerprint noise model of type %T (only built-in noise models have a canonical identity)", n)
	}
}

// fingerprintComparator writes the comparator's decision parameters in
// normalized form: zero-valued fields encode as the defaults the comparator
// would apply at Compare time, and a nil comparator encodes as the default
// bootstrap it resolves to. A comparator's RNG seed is deliberately absent —
// on the engine's fork path every repetition reseeds from the study seed,
// so the built-in comparators' own randomness never reaches a Result.
func fingerprintComparator(w io.Writer, cmp compare.Comparator) error {
	switch c := cmp.(type) {
	case nil:
		d := compare.NewBootstrap(0)
		fmt.Fprintf(w, "cmp bootstrap rounds=%d margin=%v quantiles=%v\n", d.Rounds, d.Margin, d.Quantiles)
	case *compare.Bootstrap:
		rounds := c.Rounds
		if rounds <= 0 {
			rounds = compare.DefaultRounds
		}
		margin := c.Margin
		if margin <= 0 {
			margin = compare.DefaultMargin
		}
		qs := c.Quantiles
		if len(qs) == 0 {
			qs = compare.DefaultQuantiles
		}
		fmt.Fprintf(w, "cmp bootstrap rounds=%d margin=%v quantiles=%v\n", rounds, margin, qs)
	case compare.KS:
		alpha := c.Alpha
		if alpha <= 0 {
			alpha = compare.DefaultAlpha
		}
		fmt.Fprintf(w, "cmp ks alpha=%v\n", alpha)
	case compare.MannWhitney:
		alpha := c.Alpha
		if alpha <= 0 {
			alpha = compare.DefaultAlpha
		}
		fmt.Fprintf(w, "cmp mannwhitney alpha=%v\n", alpha)
	case compare.MeanThreshold:
		tol := c.RelTol
		if tol <= 0 {
			tol = compare.DefaultRelTol
		}
		fmt.Fprintf(w, "cmp mean reltol=%v\n", tol)
	case compare.SketchComparator:
		margin := c.Margin
		if margin <= 0 {
			margin = compare.DefaultMargin
		}
		qs := c.Quantiles
		if len(qs) == 0 {
			qs = compare.DefaultQuantiles
		}
		fmt.Fprintf(w, "cmp sketch margin=%v quantiles=%v\n", margin, qs)
	default:
		return fmt.Errorf("relperf: cannot fingerprint comparator of type %T (only built-in comparators have a canonical identity)", cmp)
	}
	return nil
}

// StudySeed derives the seed a study with the given fingerprint runs under
// in a suite keyed by suiteSeed. The derivation depends only on the two
// inputs, so any runner — Suite.Run, the fleet scheduler, a remote worker —
// reproduces the exact same study.
func StudySeed(suiteSeed uint64, fingerprint string) (uint64, error) {
	b, err := hex.DecodeString(fingerprint)
	if err != nil || len(b) < 8 {
		return 0, fmt.Errorf("relperf: malformed fingerprint %q", fingerprint)
	}
	return xrand.Mix(suiteSeed, binary.BigEndian.Uint64(b[:8])), nil
}

// NewKeyedStudy builds the study exactly as it runs inside a suite keyed
// by suiteSeed: validated once, fingerprinted, and seeded with
// StudySeed(suiteSeed, fingerprint). cfg.Seed and cfg.Workers are ignored —
// the derivation replaces the former and the suite's shared budget governs
// the latter. This is the one-build primitive the suite and fleet layers
// share; the returned Study is safe to run repeatedly and concurrently.
func NewKeyedStudy(cfg StudyConfig, suiteSeed uint64) (*Study, string, error) {
	cfg.Workers = 0
	study, err := NewStudy(cfg)
	if err != nil {
		return nil, "", err
	}
	fp, err := study.Fingerprint()
	if err != nil {
		return nil, "", err
	}
	seed, err := StudySeed(suiteSeed, fp)
	if err != nil {
		return nil, "", err
	}
	study.cfg.Seed = seed
	return study, fp, nil
}

// SuiteConfig configures a multi-study run.
type SuiteConfig struct {
	// Studies are the member configurations. Their Seed and Workers fields
	// are ignored: seeds derive from Seed and each study's fingerprint, and
	// all studies share the suite's worker budget.
	Studies []StudyConfig
	// Seed keys every study (see StudySeed). Suites with equal seeds
	// produce bit-identical per-study results whatever the budget.
	Seed uint64
	// Workers is the global concurrency budget shared by every work unit
	// of every study (0 means GOMAXPROCS).
	Workers int
}

// Suite is a validated, deduplicated set of studies ready to run on one
// shared budget.
type Suite struct {
	cfg SuiteConfig
	// studies and fps hold the deduplicated members in first-occurrence
	// order; inputFPs maps every input config (duplicates included) to its
	// fingerprint.
	studies  []*Study
	fps      []string
	inputFPs []string
}

// NewSuite validates every member configuration, fingerprints it, drops
// duplicates (same fingerprint ⇒ same result) and derives the members'
// seeds from cfg.Seed.
func NewSuite(cfg SuiteConfig) (*Suite, error) {
	if len(cfg.Studies) == 0 {
		return nil, errors.New("relperf: SuiteConfig.Studies is empty")
	}
	s := &Suite{cfg: cfg}
	seen := make(map[string]bool, len(cfg.Studies))
	for i := range cfg.Studies {
		study, fp, err := NewKeyedStudy(cfg.Studies[i], cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("relperf: suite study %d: %w", i, err)
		}
		s.inputFPs = append(s.inputFPs, fp)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		s.studies = append(s.studies, study)
		s.fps = append(s.fps, fp)
	}
	return s, nil
}

// Fingerprints returns the fingerprint of every input configuration in
// input order, duplicates included — the suite's submission receipt.
func (s *Suite) Fingerprints() []string {
	out := make([]string, len(s.inputFPs))
	copy(out, s.inputFPs)
	return out
}

// Len returns the number of deduplicated studies the suite will run.
func (s *Suite) Len() int { return len(s.studies) }

// StudyOutcome is one completed study, streamed to a Suite.Stream callback.
type StudyOutcome struct {
	// Fingerprint identifies the study's configuration.
	Fingerprint string
	// Result is the completed study result.
	Result *Result
}

// SuiteResult holds every deduplicated study result of a suite run.
type SuiteResult struct {
	// Fingerprints lists the deduplicated studies in first-occurrence
	// order; Results is index-aligned.
	Fingerprints []string
	Results      []*Result
	byFP         map[string]*Result
}

// ByFingerprint returns the result of the study with the given
// fingerprint, or false when the suite did not contain it.
func (sr *SuiteResult) ByFingerprint(fp string) (*Result, bool) {
	r, ok := sr.byFP[fp]
	return r, ok
}

// Run executes every deduplicated study of the suite concurrently on one
// shared worker budget and returns all results. Per-study results are
// bit-identical for equal suite seeds at every budget width.
func (s *Suite) Run(ctx context.Context) (*SuiteResult, error) {
	return s.Stream(ctx, nil)
}

// Stream is Run with a subscriber: fn (when non-nil) is invoked with each
// study's outcome as it completes — completion order varies with
// scheduling, the outcomes themselves never do. Callbacks are serialized;
// a slow subscriber delays notifications, not study execution.
func (s *Suite) Stream(ctx context.Context, fn func(StudyOutcome)) (*SuiteResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	budget := NewBudget(s.cfg.Workers)
	results := make([]*Result, len(s.studies))
	errs := make([]error, len(s.studies))
	var cbMu sync.Mutex
	var wg sync.WaitGroup
	for i := range s.studies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.studies[i].RunOn(ctx, budget)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = res
			if fn != nil {
				cbMu.Lock()
				fn(StudyOutcome{Fingerprint: s.fps[i], Result: res})
				cbMu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sr := &SuiteResult{
		Fingerprints: append([]string(nil), s.fps...),
		Results:      results,
		byFP:         make(map[string]*Result, len(results)),
	}
	for i, fp := range sr.Fingerprints {
		sr.byFP[fp] = results[i]
	}
	return sr, nil
}

// ExpandPlatformRefs resolves named-platform references in a suite's study
// specs: a study whose platform is {"name": "x"} has it substituted by
// platforms["x"], so a custom platform is defined once at the suite level
// and referenced by many studies. Substitution happens before validation
// and before specs are retained or fingerprinted, so an expanded spec is
// fully self-contained — snapshots, recompute-after-eviction and grid
// dispatch to remote workers all see the inline definition and never need
// the map. Unknown references, invalid definitions, references carrying
// extra fields and definitions that are themselves references are explicit
// errors; defined-but-unreferenced platforms are fine.
func ExpandPlatformRefs(specs []StudySpec, platforms map[string]*PlatformSpec) error {
	for name, def := range platforms {
		if name == "" {
			return errors.New("relperf: suite platforms map has an empty name")
		}
		if def == nil {
			return fmt.Errorf("relperf: suite platform %q is null", name)
		}
		if def.Name != "" {
			return fmt.Errorf("relperf: suite platform %q references %q (definitions cannot chain)", name, def.Name)
		}
		if err := def.Validate(); err != nil {
			return fmt.Errorf("relperf: suite platform %q: %w", name, err)
		}
	}
	for i := range specs {
		pl := specs[i].Platform
		if pl == nil || pl.Name == "" {
			continue
		}
		if pl.Preset != "" || pl.Edge != nil || pl.Accel != nil || pl.Link != nil {
			return fmt.Errorf("relperf: spec study %d: platform reference %q excludes preset and explicit edge/accel/link", i, pl.Name)
		}
		def, ok := platforms[pl.Name]
		if !ok {
			return fmt.Errorf("relperf: spec study %d references undefined platform %q", i, pl.Name)
		}
		specs[i].Platform = def
	}
	return nil
}

// NewSuiteFromSpecs builds a suite from declarative wire specs (the JSON
// schema of spec.go): each spec resolves to a StudyConfig, then the members
// are deduplicated, keyed and budgeted exactly as in NewSuite. This is the
// local (in-process) counterpart of POSTing the specs to a relperfd daemon.
func NewSuiteFromSpecs(specs []StudySpec, seed uint64, workers int) (*Suite, error) {
	configs, err := ConfigsFromSpecs(specs)
	if err != nil {
		return nil, err
	}
	return NewSuite(SuiteConfig{Studies: configs, Seed: seed, Workers: workers})
}

// RunSuite is the one-call form: NewSuite followed by Run.
func RunSuite(ctx context.Context, cfg SuiteConfig) (*SuiteResult, error) {
	suite, err := NewSuite(cfg)
	if err != nil {
		return nil, err
	}
	return suite.Run(ctx)
}
