package relperf

// This file holds the primitives the suite runner is built on: canonical
// config fingerprinting, per-study seed derivation, the shared worker
// Budget and suite-level platform references. The suite runner is the
// fleet scheduler (internal/fleet), which the relperfd daemon serves as
// POST /v1/suites: it deduplicates studies by fingerprint, caches their
// results and recomputes evicted ones from their retained declarative
// specs.
//
// The determinism contract extends to suites: every study's seed derives
// from xrand.Mix(suiteSeed, fingerprintKey), so a study's Result depends
// only on (suite seed, study config) — never on the suite's composition,
// the worker budget, or scheduling. Equal suite seeds therefore produce
// bit-identical per-study results at any worker count, and a result cached
// under its fingerprint is valid for every future suite with the same seed.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"

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
// configuration; see the package-level Fingerprint. The canonical form is
// built with strconv: a float renders as fmt's %v does ('g', shortest), a
// name as fmt's %q does, and a quantile list as "[a b c]".
func (s *Study) Fingerprint() (string, error) {
	b := make([]byte, 0, 1024)
	b = append(b, fingerprintVersion+"\n"...)
	cmp := s.cfg.Comparator
	if cmp == nil && s.cfg.SketchK > 0 {
		// Sketch mode's nil default resolves to the sketch comparator, not
		// the bootstrap — the identities must match what actually runs.
		cmp = compare.SketchComparator{}
	}
	b, err := fingerprintComparator(b, cmp)
	if err != nil {
		return "", err
	}
	if b, err = fingerprintDevice(b, "edge", s.cfg.Platform.Edge); err != nil {
		return "", err
	}
	if b, err = fingerprintDevice(b, "accel", s.cfg.Platform.Accel); err != nil {
		return "", err
	}
	link := s.cfg.Platform.Link
	b = strconv.AppendQuote(append(b, "link "...), link.Name)
	b = strconv.AppendInt(append(b, " latency="...), link.Latency.Nanoseconds(), 10)
	b = appendFloat(append(b, " bandwidth="...), link.Bandwidth)
	if b, err = fingerprintNoise(append(b, " noise="...), link.Noise); err != nil {
		return "", err
	}
	b = strconv.AppendQuote(append(b, "\nprogram "...), s.cfg.Program.Name)
	b = append(b, '\n')
	for i := range s.cfg.Program.Tasks {
		t := &s.cfg.Program.Tasks[i]
		b = strconv.AppendQuote(append(b, "task "...), t.Name)
		b = strconv.AppendInt(append(b, " flops="...), t.Flops, 10)
		b = strconv.AppendInt(append(b, " mem="...), t.MemBytes, 10)
		b = strconv.AppendInt(append(b, " launches="...), t.Launches, 10)
		b = strconv.AppendInt(append(b, " in="...), t.HostInBytes, 10)
		b = strconv.AppendInt(append(b, " out="...), t.HostOutBytes, 10)
		b = strconv.AppendInt(append(b, " transfers="...), t.Transfers, 10)
		b = appendFloat(append(b, " edgeeff="...), t.EdgeEff)
		b = appendFloat(append(b, " acceleff="...), t.AccelEff)
		b = appendFloat(append(b, " cache="...), t.CachePenaltySeconds)
		b = append(b, '\n')
	}
	for _, pl := range s.placements {
		b = append(append(append(b, "placement "...), pl.String()...), '\n')
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
	b = strconv.AppendInt(append(b, "n="...), int64(s.cfg.N), 10)
	b = strconv.AppendInt(append(b, " warmup="...), int64(s.cfg.Warmup), 10)
	b = strconv.AppendInt(append(b, " reps="...), int64(s.cfg.Reps), 10)
	b = strconv.AppendBool(append(b, " matrix="...), s.cfg.Matrix)
	b = strconv.AppendInt(append(b, " trials="...), int64(trials), 10)
	b = append(b, '\n')
	// The sketch line exists only in sketch mode, so an exact study and a
	// sketch study over the same configuration can never share an identity —
	// a cache must not serve an approximation where exact bytes were
	// promised, or vice versa.
	if s.cfg.SketchK > 0 {
		b = strconv.AppendInt(append(b, "sketch k="...), int64(s.cfg.SketchK), 10)
		b = append(b, '\n')
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16]), nil
}

// appendFloat appends f as fmt's %v renders it.
func appendFloat(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

// appendFloats appends fs as fmt's %v renders a []float64: "[a b c]".
func appendFloats(b []byte, fs []float64) []byte {
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendFloat(b, f)
	}
	return append(b, ']')
}

func fingerprintDevice(b []byte, label string, d *device.Device) ([]byte, error) {
	b = strconv.AppendQuote(append(append(b, label...), ' '), d.Name)
	b = strconv.AppendInt(append(b, " kind="...), int64(d.Kind), 10)
	b = appendFloat(append(b, " peak="...), d.PeakFlops)
	b = appendFloat(append(b, " membw="...), d.MemBandwidth)
	b = strconv.AppendInt(append(b, " launch="...), d.LaunchOverhead.Nanoseconds(), 10)
	b = strconv.AppendInt(append(b, " task="...), d.TaskOverhead.Nanoseconds(), 10)
	b = strconv.AppendInt(append(b, " threads="...), int64(d.Threads), 10)
	b, err := fingerprintNoise(append(b, " noise="...), d.Noise)
	if err != nil {
		return nil, err
	}
	b = appendFloat(append(b, " energy=(idle="...), d.Energy.IdleWatts)
	b = appendFloat(append(b, " active="...), d.Energy.ActiveWatts)
	b = appendFloat(append(b, " jpb="...), d.Energy.JoulesPerByte)
	return append(b, ")\n"...), nil
}

// fingerprintNoise appends a noise model canonically by its decision
// parameters: field values only — never fmt's %#v, which would print heap
// addresses for pointer-shaped models and destabilize fingerprints across
// process runs. Pointer and value forms of one model encode identically,
// zero-valued fields encode as the defaults Perturb applies, and unknown
// model types are rejected just like unknown comparators.
func fingerprintNoise(b []byte, n device.NoiseModel) ([]byte, error) {
	switch m := n.(type) {
	case nil:
		return append(b, "none"...), nil
	case device.LogNormalNoise:
		return append(appendFloat(append(b, "lognormal(sigma="...), m.Sigma), ')'), nil
	case *device.LogNormalNoise:
		return fingerprintNoise(b, *m)
	case device.GaussianNoise:
		floor := m.Floor
		if floor == 0 {
			floor = device.DefaultGaussianFloor
		}
		b = appendFloat(append(b, "gaussian(rel="...), m.Rel)
		return append(appendFloat(append(b, " floor="...), floor), ')'), nil
	case *device.GaussianNoise:
		return fingerprintNoise(b, *m)
	case device.SpikyNoise:
		b = appendFloat(append(b, "spiky(p="...), m.P)
		b = appendFloat(append(b, " scale="...), m.Scale)
		b = appendFloat(append(b, " alpha="...), m.Alpha)
		b, err := fingerprintNoise(append(b, " base="...), m.Base)
		if err != nil {
			return nil, err
		}
		return append(b, ')'), nil
	case *device.SpikyNoise:
		return fingerprintNoise(b, *m)
	case device.ShiftNoise:
		b = appendFloat(append(b, "shift(shift="...), m.Shift)
		b, err := fingerprintNoise(append(b, " base="...), m.Base)
		if err != nil {
			return nil, err
		}
		return append(b, ')'), nil
	case *device.ShiftNoise:
		return fingerprintNoise(b, *m)
	case device.NoNoise:
		// NoNoise and nil are one identity: neither perturbs nor draws
		// from the RNG stream, so they produce identical Results.
		return append(b, "none"...), nil
	case *device.NoNoise:
		return append(b, "none"...), nil
	default:
		return nil, fmt.Errorf("relperf: cannot fingerprint noise model of type %T (only built-in noise models have a canonical identity)", n)
	}
}

// fingerprintComparator appends the comparator's decision parameters in
// normalized form: zero-valued fields encode as the defaults the comparator
// would apply at Compare time, and a nil comparator encodes as the default
// bootstrap it resolves to. A comparator's RNG seed is deliberately absent —
// on the engine's fork path every repetition reseeds from the study seed,
// so the built-in comparators' own randomness never reaches a Result.
func fingerprintComparator(b []byte, cmp compare.Comparator) ([]byte, error) {
	bootstrap := func(rounds int, margin float64, qs []float64) []byte {
		b = strconv.AppendInt(append(b, "cmp bootstrap rounds="...), int64(rounds), 10)
		b = appendFloat(append(b, " margin="...), margin)
		return append(appendFloats(append(b, " quantiles="...), qs), '\n')
	}
	alpha := func(name string, a float64) []byte {
		if a <= 0 {
			a = compare.DefaultAlpha
		}
		return append(appendFloat(append(append(append(b, "cmp "...), name...), " alpha="...), a), '\n')
	}
	switch c := cmp.(type) {
	case nil:
		d := compare.NewBootstrap(0)
		return bootstrap(d.Rounds, d.Margin, d.Quantiles), nil
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
		return bootstrap(rounds, margin, qs), nil
	case compare.KS:
		return alpha("ks", c.Alpha), nil
	case compare.MannWhitney:
		return alpha("mannwhitney", c.Alpha), nil
	case compare.MeanThreshold:
		tol := c.RelTol
		if tol <= 0 {
			tol = compare.DefaultRelTol
		}
		return append(appendFloat(append(b, "cmp mean reltol="...), tol), '\n'), nil
	case compare.SketchComparator:
		margin := c.Margin
		if margin <= 0 {
			margin = compare.DefaultMargin
		}
		qs := c.Quantiles
		if len(qs) == 0 {
			qs = compare.DefaultQuantiles
		}
		b = appendFloat(append(b, "cmp sketch margin="...), margin)
		return append(appendFloats(append(b, " quantiles="...), qs), '\n'), nil
	default:
		return nil, fmt.Errorf("relperf: cannot fingerprint comparator of type %T (only built-in comparators have a canonical identity)", cmp)
	}
}

// StudySeed derives the seed a study with the given fingerprint runs under
// in a suite keyed by suiteSeed. The derivation depends only on the two
// inputs, so any runner — the fleet scheduler, a grid worker, a standalone
// NewStudy run — reproduces the exact same study.
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
// the derivation replaces the former and the Budget passed to RunOn governs
// the latter. The fleet scheduler builds every study it runs this way; the
// returned Study is safe to run repeatedly and concurrently.
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
