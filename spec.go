package relperf

// Declarative study specifications: the JSON wire schema clients use to
// describe a study — program, platform, engine parameters — without any Go
// code. A StudySpec either names one of the built-in workloads (tableI,
// fig1) or carries a declarative ProgramSpec (a chain of named kernels with
// per-task sizes and iteration counts) plus an optional PlatformSpec
// (device presets or explicit speed/energy/noise parameters). Config
// resolves a validated spec into a runnable StudyConfig; because resolution
// produces the exact model objects the engine fingerprints, equal specs
// share one canonical Fingerprint, dedupe in suites and derive stable
// seeds — the property the fleet daemon's spec snapshots rely on to
// recompute evicted studies after a restart.
//
// Validation is strict: unknown JSON fields, out-of-range values, kernel
// parameter mix-ups and unknown preset names are explicit errors, never
// silent defaults. Zero values mean the library defaults, exactly as in
// StudyConfig.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"relperf/internal/compare"
	"relperf/internal/device"
	"relperf/internal/sim"
	"relperf/internal/workload"
)

// Spec size bounds. They keep declarative submissions inside what the
// engine can actually enumerate and compute: placements grow as 2^tasks and
// task FLOP volumes must stay well inside int64.
const (
	// MaxSpecTasks bounds the task-chain length of a declarative program
	// (the engine enumerates 2^L placements when none are given).
	MaxSpecTasks = 16
	// MaxSpecKernelSize bounds the matrix dimension of rls/gemm kernels.
	MaxSpecKernelSize = 1 << 20
	// MaxSpecKernelIters bounds the loop count of rls/gemm kernels.
	MaxSpecKernelIters = 1 << 30
	// maxSpecFlops bounds a task's total FLOP volume (iters × per-iter).
	maxSpecFlops = float64(1 << 62)
	// maxNoiseDepth bounds base-model nesting in a NoiseSpec.
	maxNoiseDepth = 8
)

// SpecCount is an integer wire field that also accepts JSON exponent
// notation — resource volumes read naturally as "flops": 4e8. Plain
// integer literals are exact over the full int64 range; fraction or
// exponent forms go through float64 and must convert to int64 exactly
// (1e16 is fine, 1.5 or 1e19 is not) — anything else is an error, never
// silent rounding. It marshals as a plain JSON integer.
type SpecCount int64

// UnmarshalJSON implements json.Unmarshaler.
func (c *SpecCount) UnmarshalJSON(b []byte) error {
	s := string(bytes.TrimSpace(b))
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		*c = SpecCount(i)
		return nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("relperf: %q is not a count", s)
	}
	// float64(1<<63) is exact, so f >= it (or < the negative bound) is
	// precisely the int64 overflow condition; the round-trip check below
	// rejects in-range values float64 cannot represent exactly.
	if f != math.Trunc(f) || f >= 1<<63 || f < -(1<<63) {
		return fmt.Errorf("relperf: count %s is not an exact integer", s)
	}
	i := int64(f)
	if float64(i) != f {
		return fmt.Errorf("relperf: count %s is not an exact integer", s)
	}
	*c = SpecCount(i)
	return nil
}

// StudySpec is the JSON wire form of a study configuration, shared by
// POST /v1/suites bodies, relperfd startup suites, fleet snapshot files and
// the relperf CLI's -spec mode. Exactly one of Workload and Program must be
// set. Zero values mean the library defaults.
type StudySpec struct {
	// Workload names a built-in program/platform pair: "tableI" or "fig1".
	// Mutually exclusive with Program.
	Workload string `json:"workload,omitempty"`
	// LoopN is the loop iteration count of the tableI workload (default
	// 10); rejected with fig1 (whose loops are fixed) and with Program.
	LoopN int `json:"loop_n,omitempty"`
	// Program is a declarative task chain; mutually exclusive with
	// Workload.
	Program *ProgramSpec `json:"program,omitempty"`
	// Platform overrides the modeled hardware. Optional: named workloads
	// default to their paper testbed, declarative programs to the default
	// Xeon+P100+PCIe platform.
	Platform *PlatformSpec `json:"platform,omitempty"`
	// Measurements is N, the measurements per algorithm (default 30).
	Measurements int `json:"measurements,omitempty"`
	// Warmup measurements are discarded first.
	Warmup int `json:"warmup,omitempty"`
	// Reps is the number of clustering repetitions (default 100).
	Reps int `json:"reps,omitempty"`
	// Matrix enables the precomputed pairwise-statistics clustering path.
	Matrix bool `json:"matrix,omitempty"`
	// MatrixTrials caps the per-pair trials on the matrix path.
	MatrixTrials int `json:"matrix_trials,omitempty"`
	// Comparator selects a built-in comparator at default parameters:
	// "bootstrap" (default), "ks", "mannwhitney", "mean" or "sketch" (the
	// last only together with Sketch).
	Comparator string `json:"comparator,omitempty"`
	// Placements restricts the algorithm set ("DDA", ...); empty means all
	// 2^L placements.
	Placements []string `json:"placements,omitempty"`
	// Sketch switches the study into sketch mode (StudyConfig.SketchK):
	// measurement campaigns stream into fixed-capacity quantile sketches
	// instead of materializing, and the clustering compares sketch
	// quantiles. Incompatible with Matrix and with comparators other than
	// "" or "sketch". A sketch-mode spec fingerprints differently from the
	// same spec without the block — by construction, so exact and
	// approximate results never collide in a fleet store.
	Sketch *SketchSpec `json:"sketch,omitempty"`
}

// SketchSpec parameterizes sketch mode on the wire.
type SketchSpec struct {
	// K is the sketch capacity; rank error is bounded by
	// stats.SketchEpsilon(K) = 2/sqrt(K). Must be in
	// [MinSketchK, MaxStudySketchK].
	K int `json:"k"`
}

// ProgramSpec is a declarative task chain: named kernels from the workload
// layer, resolved against the platform's accelerator peak rate.
type ProgramSpec struct {
	// Name labels the program in reports and is part of the study's
	// canonical fingerprint; default "custom".
	Name string `json:"name,omitempty"`
	// Tasks is the dependent task chain, executed strictly in order.
	Tasks []TaskSpec `json:"tasks"`
}

// TaskSpec describes one task of a declarative program. Kernel selects the
// resource model:
//
//   - "rls": a loop of Iters Regularized-Least-Squares MathTasks on
//     Size×Size matrices (the paper's Procedure 6), with the calibrated
//     accelerator-efficiency curve of the workload layer.
//   - "gemm": a loop of Iters Size×Size matrix products (the Figure-1
//     kernel), optionally with a same-device cache-carry penalty.
//   - "raw": a direct resource description (flops, bytes, launches,
//     transfers, efficiencies) for workloads outside the built-in kernels.
type TaskSpec struct {
	// Name labels the task ("L1"); required.
	Name string `json:"name"`
	// Kernel is "rls", "gemm" or "raw".
	Kernel string `json:"kernel"`
	// Size is the matrix dimension of rls/gemm kernels.
	Size int `json:"size,omitempty"`
	// Iters is the loop count of rls/gemm kernels.
	Iters int `json:"iters,omitempty"`
	// Lambda is the rls regularization constant (default 0.5); rls only.
	Lambda float64 `json:"lambda,omitempty"`
	// CachePenaltySeconds is the extra cost when the task runs on the same
	// device as its predecessor; gemm and raw kernels only.
	CachePenaltySeconds float64 `json:"cache_penalty_seconds,omitempty"`

	// Raw resource description (kernel "raw" only; see sim.Task).
	Flops        SpecCount `json:"flops,omitempty"`
	MemBytes     SpecCount `json:"mem_bytes,omitempty"`
	Launches     SpecCount `json:"launches,omitempty"`
	HostInBytes  SpecCount `json:"host_in_bytes,omitempty"`
	HostOutBytes SpecCount `json:"host_out_bytes,omitempty"`
	Transfers    SpecCount `json:"transfers,omitempty"`
	// EdgeEff and AccelEff are the sustainable fractions of the device
	// peak for this op mix, in (0,1]. As in sim.Task, 0 (or omitted) means
	// 1.0 — fully efficient; a device the task can barely use wants a
	// small positive value, not 0.
	EdgeEff  float64 `json:"edge_eff,omitempty"`
	AccelEff float64 `json:"accel_eff,omitempty"`
}

// PlatformSpec models the hardware declaratively: either a named preset or
// explicit edge/accel/link descriptions. Components left nil default to the
// paper testbed's corresponding part (Xeon core, P100, PCIe).
type PlatformSpec struct {
	// Name references a custom platform defined once in the enclosing
	// suite's top-level "platforms" map (see ExpandPlatformRefs). A
	// reference is resolved — substituted by the named definition — before
	// validation; a spec that still carries one outside a suite is an
	// error, never a silent default. Mutually exclusive with every other
	// field.
	Name string `json:"name,omitempty"`
	// Preset names a complete platform: "xeon-p100" (the paper testbed,
	// also the default) or "fig1" (the testbed with the Figure-1 noise
	// amplitudes). Mutually exclusive with the component fields.
	Preset string `json:"preset,omitempty"`
	// Edge is the edge device ("D").
	Edge *DeviceSpec `json:"edge,omitempty"`
	// Accel is the accelerator ("A").
	Accel *DeviceSpec `json:"accel,omitempty"`
	// Link is the interconnect between them.
	Link *LinkSpec `json:"link,omitempty"`
}

// DeviceSpec describes one device: a named preset or explicit parameters.
type DeviceSpec struct {
	// Preset names a built-in device model: "xeon-8160-core", "p100",
	// "raspberry-pi-4" or "smartphone-soc". Mutually exclusive with the
	// explicit fields.
	Preset string `json:"preset,omitempty"`
	// Name identifies an explicitly described device; required without
	// Preset and part of the canonical fingerprint.
	Name string `json:"name,omitempty"`
	// PeakFlops is the sustained rate in FLOP/s; required, > 0.
	PeakFlops float64 `json:"peak_flops,omitempty"`
	// MemBandwidth is in bytes/s; required, > 0.
	MemBandwidth float64 `json:"mem_bandwidth,omitempty"`
	// LaunchOverheadNs is the per-dispatch cost in nanoseconds.
	LaunchOverheadNs SpecCount `json:"launch_overhead_ns,omitempty"`
	// TaskOverheadNs is the per-task setup cost in nanoseconds.
	TaskOverheadNs SpecCount `json:"task_overhead_ns,omitempty"`
	// Threads is the host worker-thread count of the hybrid executor.
	Threads int `json:"threads,omitempty"`
	// Noise perturbs computed durations; nil means noiseless.
	Noise *NoiseSpec `json:"noise,omitempty"`
	// Energy converts activity into joules; nil means zero-power.
	Energy *EnergySpec `json:"energy,omitempty"`
}

// LinkSpec describes the edge↔accelerator interconnect.
type LinkSpec struct {
	// Preset names a built-in link model: "pcie3-x16", "wifi" or
	// "5g-edge". Mutually exclusive with the explicit fields.
	Preset string `json:"preset,omitempty"`
	// Name identifies an explicitly described link.
	Name string `json:"name,omitempty"`
	// LatencyNs is the fixed per-transfer cost in nanoseconds.
	LatencyNs SpecCount `json:"latency_ns,omitempty"`
	// Bandwidth is in bytes/s; required, > 0.
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// Noise perturbs transfer times; nil means deterministic.
	Noise *NoiseSpec `json:"noise,omitempty"`
}

// NoiseSpec selects one of the built-in noise models — exactly the set the
// fingerprinting layer can canonically identify.
type NoiseSpec struct {
	// Kind is "none", "lognormal", "gaussian", "spiky" or "shift".
	Kind string `json:"kind"`
	// Sigma is the log-standard-deviation of "lognormal".
	Sigma float64 `json:"sigma,omitempty"`
	// Rel and Floor parameterize "gaussian".
	Rel   float64 `json:"rel,omitempty"`
	Floor float64 `json:"floor,omitempty"`
	// P, Scale and Alpha parameterize the "spiky" tail.
	P     float64 `json:"p,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	Alpha float64 `json:"alpha,omitempty"`
	// Shift is the added delay in seconds of "shift".
	Shift float64 `json:"shift,omitempty"`
	// Base is the inner model of "spiky" and "shift".
	Base *NoiseSpec `json:"base,omitempty"`
}

// EnergySpec is the wire form of device.EnergyModel.
type EnergySpec struct {
	IdleWatts     float64 `json:"idle_watts,omitempty"`
	ActiveWatts   float64 `json:"active_watts,omitempty"`
	JoulesPerByte float64 `json:"joules_per_byte,omitempty"`
}

// ParseStudySpec parses one StudySpec document, rejecting unknown fields
// so schema typos fail loudly instead of silently running a default study.
// The spec is validated; use Config to resolve it.
func ParseStudySpec(b []byte) (*StudySpec, error) {
	var sp StudySpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("relperf: decoding study spec: %w", err)
	}
	if err := ensureEOF(dec); err != nil {
		return nil, err
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// DecodeStudySpec reads one StudySpec document from rd; see ParseStudySpec.
func DecodeStudySpec(rd io.Reader) (*StudySpec, error) {
	b, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("relperf: reading study spec: %w", err)
	}
	return ParseStudySpec(b)
}

// ensureEOF rejects trailing garbage after a decoded document; a read
// error surfaces as itself rather than being mislabeled as trailing data.
func ensureEOF(dec *json.Decoder) error {
	if _, err := dec.Token(); err != io.EOF {
		if err != nil {
			return fmt.Errorf("relperf: reading study spec: %w", err)
		}
		return fmt.Errorf("relperf: trailing data after study spec")
	}
	return nil
}

// Validate checks the spec without resolving it: every out-of-range value,
// kernel/field mix-up and unknown name is an explicit error.
func (sp *StudySpec) Validate() error {
	if field := sp.invalidUTF8(); field != "" {
		return fmt.Errorf("relperf: spec %s is not valid UTF-8", field)
	}
	if (sp.Workload == "") == (sp.Program == nil) {
		return fmt.Errorf("relperf: spec must set exactly one of workload and program")
	}
	if sp.Workload != "" {
		switch sp.Workload {
		case "tableI", "table1", "fig1", "figure1":
		default:
			return fmt.Errorf("relperf: unknown workload %q (want tableI or fig1)", sp.Workload)
		}
	}
	if sp.LoopN < 0 {
		return fmt.Errorf("relperf: loop_n must be >= 0, got %d", sp.LoopN)
	}
	if sp.LoopN > 0 && sp.Workload != "tableI" && sp.Workload != "table1" {
		return fmt.Errorf("relperf: loop_n applies only to the tableI workload")
	}
	if sp.Program != nil {
		if err := sp.Program.Validate(); err != nil {
			return err
		}
	}
	if sp.Platform != nil {
		if err := sp.Platform.Validate(); err != nil {
			return err
		}
	}
	if sp.Measurements < 0 {
		return fmt.Errorf("relperf: measurements must be >= 0, got %d", sp.Measurements)
	}
	if sp.Warmup < 0 {
		return fmt.Errorf("relperf: warmup must be >= 0, got %d", sp.Warmup)
	}
	if sp.Reps < 0 {
		return fmt.Errorf("relperf: reps must be >= 0, got %d", sp.Reps)
	}
	if sp.MatrixTrials < 0 {
		return fmt.Errorf("relperf: matrix_trials must be >= 0, got %d", sp.MatrixTrials)
	}
	if sp.MatrixTrials > 0 && !sp.Matrix {
		return fmt.Errorf("relperf: matrix_trials requires matrix: true")
	}
	switch sp.Comparator {
	case "", "bootstrap", "ks", "mannwhitney", "mean":
	case "sketch":
		if sp.Sketch == nil {
			return fmt.Errorf("relperf: comparator \"sketch\" requires a sketch block")
		}
	default:
		return fmt.Errorf("relperf: unknown comparator %q (want bootstrap, ks, mannwhitney, mean or sketch)", sp.Comparator)
	}
	if sp.Sketch != nil {
		if sp.Sketch.K < MinSketchK || sp.Sketch.K > MaxStudySketchK {
			return fmt.Errorf("relperf: sketch k must be in [%d, %d], got %d",
				MinSketchK, MaxStudySketchK, sp.Sketch.K)
		}
		if sp.Matrix {
			return fmt.Errorf("relperf: sketch mode is incompatible with matrix clustering")
		}
		if sp.Comparator != "" && sp.Comparator != "sketch" {
			return fmt.Errorf("relperf: sketch mode requires comparator \"sketch\" (or none), got %q", sp.Comparator)
		}
	}
	placements, err := sp.placements()
	if err != nil {
		return err
	}
	return checkPlacements(placements, sp.taskCount())
}

// invalidUTF8 names where the spec's first string that is not valid UTF-8
// sits, as a JSON path to the field or to the object holding it, or
// returns "" if every string is valid. A spec parsed from JSON
// never holds one (the decoder substitutes U+FFFD), but a Go-built one can,
// and its names reach the result: the result encoder writes such bytes as
// the escape \ufffd, which decodes to a different string, so the result
// could never pass the canonical intake check after a restore.
func (sp *StudySpec) invalidUTF8() string {
	bad := func(s string) bool { return !utf8.ValidString(s) }
	switch {
	case bad(sp.Workload):
		return "workload"
	case bad(sp.Comparator):
		return "comparator"
	}
	for i, pl := range sp.Placements {
		if bad(pl) {
			return fmt.Sprintf("placements[%d]", i)
		}
	}
	if pr := sp.Program; pr != nil {
		if bad(pr.Name) {
			return "program.name"
		}
		for i := range pr.Tasks {
			if ts := &pr.Tasks[i]; bad(ts.Name) || bad(ts.Kernel) {
				return fmt.Sprintf("program.tasks[%d]", i)
			}
		}
	}
	pf := sp.Platform
	if pf == nil {
		return ""
	}
	if bad(pf.Name) || bad(pf.Preset) {
		return "platform"
	}
	for _, d := range []struct {
		field string
		spec  *DeviceSpec
	}{{"platform.edge", pf.Edge}, {"platform.accel", pf.Accel}} {
		if d.spec != nil && (bad(d.spec.Preset) || bad(d.spec.Name) || !d.spec.Noise.validUTF8()) {
			return d.field
		}
	}
	if l := pf.Link; l != nil && (bad(l.Preset) || bad(l.Name) || !l.Noise.validUTF8()) {
		return "platform.link"
	}
	return ""
}

// validUTF8 reports whether every kind in the noise chain is valid UTF-8.
func (ns *NoiseSpec) validUTF8() bool {
	for ; ns != nil; ns = ns.Base {
		if !utf8.ValidString(ns.Kind) {
			return false
		}
	}
	return true
}

// placements parses the spec's placement names.
func (sp *StudySpec) placements() ([]sim.Placement, error) {
	var pls []sim.Placement
	for _, raw := range sp.Placements {
		pl, err := sim.ParsePlacement(raw)
		if err != nil {
			return nil, err
		}
		pls = append(pls, pl)
	}
	return pls, nil
}

// taskCount returns the program length the spec resolves to (for placement
// validation). Callers run it only on otherwise-valid specs.
func (sp *StudySpec) taskCount() int {
	switch sp.Workload {
	case "tableI", "table1":
		return 3
	case "fig1", "figure1":
		return 2
	}
	if sp.Program != nil {
		return len(sp.Program.Tasks)
	}
	return 0
}

// CostEstimate returns the admission-control cost of the study the spec
// describes: placements × measurements × clustering repetitions, with the
// library defaults resolved (30 measurements, 100 reps, all 2^L placements
// when none are named) and warmup runs counted as measurements — they are
// simulated all the same. The estimate is what a serving daemon compares
// against its -max-study-cost bound before admitting a spec, so a hostile
// request (say, a 16-task program with no placement list: 65536 placements)
// is priced before any work starts. Call it only on validated specs.
func (sp *StudySpec) CostEstimate() int64 {
	placements := int64(len(sp.Placements))
	if placements == 0 {
		placements = int64(1) << uint(sp.taskCount())
	}
	measurements := int64(sp.Measurements)
	if measurements == 0 {
		measurements = 30
	}
	measurements = satAdd(measurements, int64(sp.Warmup))
	reps := int64(sp.Reps)
	if reps == 0 {
		reps = 100
	}
	// Saturating arithmetic: measurement/rep counts have no schema upper
	// bound, and a product that wrapped around int64 would slip a
	// maximally hostile spec under the admission bound it was built to
	// trip.
	if sp.Sketch != nil {
		// Sketch mode exists precisely so large campaigns do not cost
		// measurements × reps: the clustering repetitions compare fixed-size
		// summaries, never the N measurements. The dominant terms are the
		// simulation itself (placements × measurements) and the clustering
		// work over the summaries (placements × reps).
		return satAdd(satMul(placements, measurements), satMul(placements, reps))
	}
	return satMul(satMul(placements, measurements), reps)
}

// satAdd and satMul saturate at MaxInt64 instead of wrapping; inputs are
// non-negative (spec validation rejects negatives).
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

// Config validates the spec and resolves it into a runnable study
// configuration. Seed and Workers are not part of the wire form — the suite
// layers derive the former and budget the latter.
func (sp *StudySpec) Config() (StudyConfig, error) {
	var cfg StudyConfig
	if err := sp.Validate(); err != nil {
		return cfg, err
	}
	var err error
	if sp.Platform != nil {
		cfg.Platform, err = sp.Platform.Resolve()
		if err != nil {
			return cfg, err
		}
	}
	switch {
	case sp.Workload == "tableI" || sp.Workload == "table1":
		if cfg.Platform == nil {
			cfg.Platform = sim.DefaultPlatform()
		}
		loopN := sp.LoopN
		if loopN == 0 {
			loopN = 10
		}
		cfg.Program = workload.TableI(loopN, cfg.Platform.Accel.PeakFlops)
	case sp.Workload == "fig1" || sp.Workload == "figure1":
		if cfg.Platform == nil {
			cfg.Platform = workload.Figure1Platform()
		}
		// The Figure-1 program's offload efficiencies are calibrated to
		// the platform's accelerator peak, as in the relperf CLI.
		cfg.Program = workload.Figure1(cfg.Platform.Accel.PeakFlops)
	default:
		if cfg.Platform == nil {
			cfg.Platform = sim.DefaultPlatform()
		}
		cfg.Program, err = sp.Program.Resolve(cfg.Platform.Accel.PeakFlops)
		if err != nil {
			return cfg, err
		}
	}
	switch sp.Comparator {
	case "", "bootstrap":
		cfg.Comparator = nil
	case "ks":
		cfg.Comparator = compare.KS{}
	case "mannwhitney":
		cfg.Comparator = compare.MannWhitney{}
	case "mean":
		cfg.Comparator = compare.MeanThreshold{}
	case "sketch":
		// Sketch mode's default comparator; NewStudy accepts nil too, but
		// resolving it here keeps Config's output self-describing.
		cfg.Comparator = compare.SketchComparator{}
	}
	if sp.Sketch != nil {
		cfg.SketchK = sp.Sketch.K
		if cfg.Comparator == nil {
			cfg.Comparator = compare.SketchComparator{}
		}
	}
	if cfg.Placements, err = sp.placements(); err != nil {
		return cfg, err
	}
	cfg.N = sp.Measurements
	cfg.Warmup = sp.Warmup
	cfg.Reps = sp.Reps
	cfg.Matrix = sp.Matrix
	cfg.MatrixTrials = sp.MatrixTrials
	return cfg, nil
}

// Validate checks the program spec.
func (ps *ProgramSpec) Validate() error {
	if len(ps.Tasks) == 0 {
		return fmt.Errorf("relperf: program spec has no tasks")
	}
	if len(ps.Tasks) > MaxSpecTasks {
		return fmt.Errorf("relperf: program spec has %d tasks, max %d (placements grow as 2^tasks)",
			len(ps.Tasks), MaxSpecTasks)
	}
	for i := range ps.Tasks {
		if err := ps.Tasks[i].Validate(); err != nil {
			return fmt.Errorf("relperf: program task %d: %w", i, err)
		}
	}
	return nil
}

// Resolve builds the simulator program, deriving rls/gemm accelerator
// efficiencies from accelPeak (the platform accelerator's PeakFlops).
func (ps *ProgramSpec) Resolve(accelPeak float64) (*sim.Program, error) {
	if err := ps.Validate(); err != nil {
		return nil, err
	}
	name := ps.Name
	if name == "" {
		name = "custom"
	}
	p := &sim.Program{Name: name}
	for i := range ps.Tasks {
		task, err := ps.Tasks[i].resolve(accelPeak)
		if err != nil {
			return nil, fmt.Errorf("relperf: program task %d: %w", i, err)
		}
		p.Tasks = append(p.Tasks, task)
	}
	return p, nil
}

// Validate checks one task spec against its kernel's parameter set.
func (ts *TaskSpec) Validate() error {
	if ts.Name == "" {
		return fmt.Errorf("task name is required")
	}
	switch ts.Kernel {
	case "rls", "gemm":
		if ts.Size <= 0 || ts.Size > MaxSpecKernelSize {
			return fmt.Errorf("%s kernel %s: size must be in 1..%d, got %d", ts.Kernel, ts.Name, MaxSpecKernelSize, ts.Size)
		}
		if ts.Iters <= 0 || ts.Iters > MaxSpecKernelIters {
			return fmt.Errorf("%s kernel %s: iters must be in 1..%d, got %d", ts.Kernel, ts.Name, MaxSpecKernelIters, ts.Iters)
		}
		if ts.Flops != 0 || ts.MemBytes != 0 || ts.Launches != 0 ||
			ts.HostInBytes != 0 || ts.HostOutBytes != 0 || ts.Transfers != 0 ||
			ts.EdgeEff != 0 || ts.AccelEff != 0 {
			return fmt.Errorf("%s kernel %s: raw resource fields (flops, launches, ...) apply only to kernel \"raw\"", ts.Kernel, ts.Name)
		}
		if ts.Kernel == "rls" {
			if ts.CachePenaltySeconds != 0 {
				return fmt.Errorf("rls kernel %s: cache_penalty_seconds applies only to gemm and raw kernels", ts.Name)
			}
			if ts.Lambda < 0 {
				return fmt.Errorf("rls kernel %s: lambda must be >= 0, got %v", ts.Name, ts.Lambda)
			}
		} else if ts.Lambda != 0 {
			return fmt.Errorf("gemm kernel %s: lambda applies only to the rls kernel", ts.Name)
		}
		if ts.CachePenaltySeconds < 0 {
			return fmt.Errorf("%s kernel %s: cache_penalty_seconds must be >= 0", ts.Kernel, ts.Name)
		}
	case "raw":
		if ts.Size != 0 || ts.Iters != 0 || ts.Lambda != 0 {
			return fmt.Errorf("raw kernel %s: size/iters/lambda apply only to rls and gemm kernels", ts.Name)
		}
		if ts.Flops < 0 || ts.MemBytes < 0 || ts.Launches < 0 ||
			ts.HostInBytes < 0 || ts.HostOutBytes < 0 || ts.Transfers < 0 {
			return fmt.Errorf("raw kernel %s: resource counts must be >= 0", ts.Name)
		}
		if ts.EdgeEff < 0 || ts.EdgeEff > 1 || ts.AccelEff < 0 || ts.AccelEff > 1 {
			return fmt.Errorf("raw kernel %s: efficiencies must be in [0,1]", ts.Name)
		}
		if ts.CachePenaltySeconds < 0 {
			return fmt.Errorf("raw kernel %s: cache_penalty_seconds must be >= 0", ts.Name)
		}
	case "":
		return fmt.Errorf("task %s: kernel is required (rls, gemm or raw)", ts.Name)
	default:
		return fmt.Errorf("task %s: unknown kernel %q (want rls, gemm or raw)", ts.Name, ts.Kernel)
	}
	return nil
}

// resolve converts the validated task spec into the simulator's resource
// description.
func (ts *TaskSpec) resolve(accelPeak float64) (sim.Task, error) {
	switch ts.Kernel {
	case "rls":
		spec := workload.MathTaskSpec{Name: ts.Name, Size: ts.Size, Iters: ts.Iters, Lambda: ts.Lambda}
		if spec.Lambda == 0 {
			spec.Lambda = 0.5
		}
		if flops := float64(ts.Iters) * float64(spec.FlopsPerIter()); flops > maxSpecFlops {
			return sim.Task{}, fmt.Errorf("rls kernel %s: %g total flops exceeds the engine bound", ts.Name, flops)
		}
		return spec.Task(accelPeak), nil
	case "gemm":
		spec := workload.GEMMTaskSpec{Name: ts.Name, Size: ts.Size, Iters: ts.Iters,
			CachePenaltySeconds: ts.CachePenaltySeconds}
		if flops := float64(ts.Iters) * float64(spec.FlopsPerIter()); flops > maxSpecFlops {
			return sim.Task{}, fmt.Errorf("gemm kernel %s: %g total flops exceeds the engine bound", ts.Name, flops)
		}
		return spec.Task(accelPeak), nil
	case "raw":
		return sim.Task{
			Name:                ts.Name,
			Flops:               int64(ts.Flops),
			MemBytes:            int64(ts.MemBytes),
			Launches:            int64(ts.Launches),
			HostInBytes:         int64(ts.HostInBytes),
			HostOutBytes:        int64(ts.HostOutBytes),
			Transfers:           int64(ts.Transfers),
			EdgeEff:             ts.EdgeEff,
			AccelEff:            ts.AccelEff,
			CachePenaltySeconds: ts.CachePenaltySeconds,
		}, nil
	}
	return sim.Task{}, fmt.Errorf("task %s: unknown kernel %q", ts.Name, ts.Kernel)
}

// platformPresets names the complete built-in platforms.
var platformPresets = map[string]func() *sim.Platform{
	"xeon-p100": sim.DefaultPlatform,
	"default":   sim.DefaultPlatform,
	"tableI":    sim.DefaultPlatform,
	"fig1":      workload.Figure1Platform,
	"figure1":   workload.Figure1Platform,
}

// devicePresets names the built-in device models of internal/device.
var devicePresets = map[string]func() *device.Device{
	"xeon-8160-core": device.XeonCore,
	"p100":           device.P100,
	"raspberry-pi-4": device.RaspberryPi,
	"smartphone-soc": device.Smartphone,
}

// linkPresets names the built-in link models.
var linkPresets = map[string]func() *device.Link{
	"pcie3-x16": device.PCIe3x16,
	"wifi":      device.WiFi,
	"5g-edge":   device.FiveG,
}

// Validate checks the platform spec.
func (ps *PlatformSpec) Validate() error {
	if ps.Name != "" {
		if ps.Preset != "" || ps.Edge != nil || ps.Accel != nil || ps.Link != nil {
			return fmt.Errorf("relperf: platform reference %q excludes preset and explicit edge/accel/link", ps.Name)
		}
		return fmt.Errorf("relperf: unresolved platform reference %q (references resolve only inside a suite with a top-level \"platforms\" map)", ps.Name)
	}
	if ps.Preset != "" {
		if ps.Edge != nil || ps.Accel != nil || ps.Link != nil {
			return fmt.Errorf("relperf: platform preset %q excludes explicit edge/accel/link", ps.Preset)
		}
		if _, ok := platformPresets[ps.Preset]; !ok {
			return fmt.Errorf("relperf: unknown platform preset %q (want xeon-p100 or fig1)", ps.Preset)
		}
		return nil
	}
	if ps.Edge != nil {
		if err := ps.Edge.validate(device.EdgeDevice); err != nil {
			return fmt.Errorf("relperf: platform edge: %w", err)
		}
	}
	if ps.Accel != nil {
		if err := ps.Accel.validate(device.Accelerator); err != nil {
			return fmt.Errorf("relperf: platform accel: %w", err)
		}
	}
	if ps.Link != nil {
		if err := ps.Link.validate(); err != nil {
			return fmt.Errorf("relperf: platform link: %w", err)
		}
	}
	return nil
}

// Resolve builds the simulator platform. Components left nil default to the
// paper testbed's corresponding part.
func (ps *PlatformSpec) Resolve() (*sim.Platform, error) {
	if err := ps.Validate(); err != nil {
		return nil, err
	}
	if ps.Preset != "" {
		return platformPresets[ps.Preset](), nil
	}
	pl := sim.DefaultPlatform()
	var err error
	if ps.Edge != nil {
		if pl.Edge, err = ps.Edge.resolve(device.EdgeDevice); err != nil {
			return nil, fmt.Errorf("relperf: platform edge: %w", err)
		}
	}
	if ps.Accel != nil {
		if pl.Accel, err = ps.Accel.resolve(device.Accelerator); err != nil {
			return nil, fmt.Errorf("relperf: platform accel: %w", err)
		}
	}
	if ps.Link != nil {
		if pl.Link, err = ps.Link.resolve(); err != nil {
			return nil, fmt.Errorf("relperf: platform link: %w", err)
		}
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return pl, nil
}

// validate checks a device spec for the given platform slot.
func (ds *DeviceSpec) validate(slot device.Kind) error {
	if ds.Preset != "" {
		if ds.Name != "" || ds.PeakFlops != 0 || ds.MemBandwidth != 0 ||
			ds.LaunchOverheadNs != 0 || ds.TaskOverheadNs != 0 || ds.Threads != 0 ||
			ds.Noise != nil || ds.Energy != nil {
			return fmt.Errorf("device preset %q excludes explicit parameters", ds.Preset)
		}
		ctor, ok := devicePresets[ds.Preset]
		if !ok {
			return fmt.Errorf("unknown device preset %q", ds.Preset)
		}
		if ctor().Kind != slot {
			return fmt.Errorf("device preset %q cannot fill the %s slot", ds.Preset, slot)
		}
		return nil
	}
	if ds.Name == "" {
		return fmt.Errorf("device name is required without a preset")
	}
	if ds.PeakFlops <= 0 {
		return fmt.Errorf("device %s: peak_flops must be > 0", ds.Name)
	}
	if ds.MemBandwidth <= 0 {
		return fmt.Errorf("device %s: mem_bandwidth must be > 0", ds.Name)
	}
	if ds.LaunchOverheadNs < 0 || ds.TaskOverheadNs < 0 {
		return fmt.Errorf("device %s: overheads must be >= 0", ds.Name)
	}
	if ds.Threads < 0 {
		return fmt.Errorf("device %s: threads must be >= 0", ds.Name)
	}
	if ds.Noise != nil {
		if err := ds.Noise.validate(0); err != nil {
			return fmt.Errorf("device %s: %w", ds.Name, err)
		}
	}
	if ds.Energy != nil {
		if ds.Energy.IdleWatts < 0 || ds.Energy.ActiveWatts < 0 || ds.Energy.JoulesPerByte < 0 {
			return fmt.Errorf("device %s: energy parameters must be >= 0", ds.Name)
		}
	}
	return nil
}

// resolve builds the device model for the given platform slot.
func (ds *DeviceSpec) resolve(slot device.Kind) (*device.Device, error) {
	if err := ds.validate(slot); err != nil {
		return nil, err
	}
	if ds.Preset != "" {
		return devicePresets[ds.Preset](), nil
	}
	d := &device.Device{
		Name:           ds.Name,
		Kind:           slot,
		PeakFlops:      ds.PeakFlops,
		MemBandwidth:   ds.MemBandwidth,
		LaunchOverhead: time.Duration(ds.LaunchOverheadNs) * time.Nanosecond,
		TaskOverhead:   time.Duration(ds.TaskOverheadNs) * time.Nanosecond,
		Threads:        ds.Threads,
	}
	if ds.Noise != nil {
		n, err := ds.Noise.Resolve()
		if err != nil {
			return nil, fmt.Errorf("device %s: %w", ds.Name, err)
		}
		d.Noise = n
	}
	if ds.Energy != nil {
		d.Energy = device.EnergyModel{
			IdleWatts:     ds.Energy.IdleWatts,
			ActiveWatts:   ds.Energy.ActiveWatts,
			JoulesPerByte: ds.Energy.JoulesPerByte,
		}
	}
	return d, nil
}

// validate checks a link spec.
func (ls *LinkSpec) validate() error {
	if ls.Preset != "" {
		if ls.Name != "" || ls.LatencyNs != 0 || ls.Bandwidth != 0 || ls.Noise != nil {
			return fmt.Errorf("link preset %q excludes explicit parameters", ls.Preset)
		}
		if _, ok := linkPresets[ls.Preset]; !ok {
			return fmt.Errorf("unknown link preset %q", ls.Preset)
		}
		return nil
	}
	if ls.Name == "" {
		return fmt.Errorf("link name is required without a preset")
	}
	if ls.Bandwidth <= 0 {
		return fmt.Errorf("link %s: bandwidth must be > 0", ls.Name)
	}
	if ls.LatencyNs < 0 {
		return fmt.Errorf("link %s: latency_ns must be >= 0", ls.Name)
	}
	if ls.Noise != nil {
		if err := ls.Noise.validate(0); err != nil {
			return fmt.Errorf("link %s: %w", ls.Name, err)
		}
	}
	return nil
}

// resolve builds the link model.
func (ls *LinkSpec) resolve() (*device.Link, error) {
	if err := ls.validate(); err != nil {
		return nil, err
	}
	if ls.Preset != "" {
		return linkPresets[ls.Preset](), nil
	}
	l := &device.Link{
		Name:      ls.Name,
		Latency:   time.Duration(ls.LatencyNs) * time.Nanosecond,
		Bandwidth: ls.Bandwidth,
	}
	if ls.Noise != nil {
		n, err := ls.Noise.Resolve()
		if err != nil {
			return nil, fmt.Errorf("link %s: %w", ls.Name, err)
		}
		l.Noise = n
	}
	return l, nil
}

// validate checks a noise spec at the given base-nesting depth.
func (ns *NoiseSpec) validate(depth int) error {
	if depth > maxNoiseDepth {
		return fmt.Errorf("noise models nest deeper than %d", maxNoiseDepth)
	}
	// allowed mirrors ns with only the fields the kind consumes copied
	// over; any difference means a parameter of another noise kind is set —
	// a mix-up that must not silently run a different model.
	allowed := NoiseSpec{Kind: ns.Kind, Base: ns.Base}
	wantBase := false
	switch ns.Kind {
	case "none":
		allowed.Base = nil
		if *ns != allowed {
			return fmt.Errorf("noise kind none takes no parameters")
		}
		return nil
	case "lognormal":
		allowed.Sigma = ns.Sigma
		if ns.Sigma <= 0 {
			return fmt.Errorf("lognormal noise: sigma must be > 0")
		}
	case "gaussian":
		allowed.Rel, allowed.Floor = ns.Rel, ns.Floor
		if ns.Rel <= 0 {
			return fmt.Errorf("gaussian noise: rel must be > 0")
		}
		if ns.Floor < 0 || ns.Floor >= 1 {
			return fmt.Errorf("gaussian noise: floor must be in [0,1)")
		}
	case "spiky":
		allowed.P, allowed.Scale, allowed.Alpha = ns.P, ns.Scale, ns.Alpha
		if ns.P < 0 || ns.P > 1 {
			return fmt.Errorf("spiky noise: p must be in [0,1]")
		}
		if ns.Scale < 0 {
			return fmt.Errorf("spiky noise: scale must be >= 0")
		}
		if ns.Alpha <= 0 {
			return fmt.Errorf("spiky noise: alpha must be > 0")
		}
		wantBase = true
	case "shift":
		allowed.Shift = ns.Shift
		if ns.Shift < 0 {
			return fmt.Errorf("shift noise: shift must be >= 0")
		}
		wantBase = true
	case "":
		return fmt.Errorf("noise kind is required (none, lognormal, gaussian, spiky or shift)")
	default:
		return fmt.Errorf("unknown noise kind %q (want none, lognormal, gaussian, spiky or shift)", ns.Kind)
	}
	if *ns != allowed {
		return fmt.Errorf("%s noise: parameters of another noise kind are set", ns.Kind)
	}
	if ns.Base != nil {
		if !wantBase {
			return fmt.Errorf("%s noise takes no base model", ns.Kind)
		}
		return ns.Base.validate(depth + 1)
	}
	return nil
}

// Resolve builds the noise model; "none" resolves to nil (which the
// fingerprinting layer treats as the same identity as device.NoNoise).
func (ns *NoiseSpec) Resolve() (device.NoiseModel, error) {
	if err := ns.validate(0); err != nil {
		return nil, err
	}
	return ns.resolve(), nil
}

// resolve builds the already-validated model.
func (ns *NoiseSpec) resolve() device.NoiseModel {
	switch ns.Kind {
	case "none":
		return nil
	case "lognormal":
		return device.LogNormalNoise{Sigma: ns.Sigma}
	case "gaussian":
		return device.GaussianNoise{Rel: ns.Rel, Floor: ns.Floor}
	case "spiky":
		var base device.NoiseModel
		if ns.Base != nil {
			base = ns.Base.resolve()
		}
		return device.SpikyNoise{Base: base, P: ns.P, Scale: ns.Scale, Alpha: ns.Alpha}
	case "shift":
		var base device.NoiseModel
		if ns.Base != nil {
			base = ns.Base.resolve()
		}
		return device.ShiftNoise{Base: base, Shift: ns.Shift}
	}
	return nil
}
