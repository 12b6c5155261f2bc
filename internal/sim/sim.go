// Package sim is the execution substrate: it turns (program, placement) pairs
// into execution-time samples on a modeled platform of one edge device, one
// accelerator and the link between them.
//
// A Program is the paper's "scientific code": a sequence of dependent tasks
// (Procedure 5's L1, L2, L3 cannot run concurrently because each consumes the
// previous task's penalty), so execution is strictly serial and the total
// time is the sum of per-task times. A Placement assigns each task to the
// edge device ("D") or the accelerator ("A"); the 2^L placements are exactly
// the paper's set A of mathematically-equivalent algorithms.
//
// The data-movement model is host-centric, matching the TensorFlow setup the
// paper measures: task inputs live on the edge device (the host generates
// them), so a task placed on the accelerator pays to ship its inputs over and
// its result back on every loop iteration. Tasks placed on the edge device
// move nothing.
package sim

import (
	"fmt"
	"strings"

	"relperf/internal/device"
	"relperf/internal/xrand"
)

// Task describes one loop of the scientific code in resource terms.
type Task struct {
	// Name labels the task in traces ("L1").
	Name string
	// Flops is the total floating-point work of the task (all iterations).
	Flops int64
	// MemBytes is the memory traffic for the roofline bound; 0 means the
	// task is compute-bound on every device.
	MemBytes int64
	// Launches is the number of kernel dispatches the task issues (loop
	// iterations × ops per iteration); each costs the executing device's
	// LaunchOverhead. This is what makes many-small-op tasks expensive to
	// offload.
	Launches int64
	// HostInBytes is the input data shipped host→accelerator when the task
	// is placed on the accelerator (per the host-centric model).
	HostInBytes int64
	// HostOutBytes is the result data shipped back accelerator→host.
	HostOutBytes int64
	// Transfers is the number of link transactions used to move the data
	// (loop iterations × tensors per iteration); each pays link latency.
	Transfers int64
	// EdgeEff and AccelEff are the fractions of the respective device's
	// PeakFlops this task's op mix can sustain (the roofline ceiling for
	// the kernel). Zero means 1.0 (fully efficient).
	EdgeEff, AccelEff float64
	// CachePenaltySeconds is an extra cost charged when this task executes
	// on the same device as its predecessor: back-to-back dense kernels
	// interfere through the cache hierarchy (Peise & Bientinesi, "A study
	// on the influence of caching: sequences of dense linear algebra
	// kernels" — reference [2] of the paper). Running the predecessor on
	// the other device leaves this device's caches undisturbed.
	CachePenaltySeconds float64
}

// effOn returns the task's efficiency on a device of the given kind.
func (t *Task) effOn(k device.Kind) float64 {
	var e float64
	if k == device.Accelerator {
		e = t.AccelEff
	} else {
		e = t.EdgeEff
	}
	if e <= 0 {
		return 1
	}
	return e
}

// Validate reports nonsensical task definitions.
func (t *Task) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("sim: task with empty name")
	}
	if t.Flops < 0 || t.MemBytes < 0 || t.Launches < 0 ||
		t.HostInBytes < 0 || t.HostOutBytes < 0 || t.Transfers < 0 {
		return fmt.Errorf("sim: task %s has negative resource counts", t.Name)
	}
	if t.EdgeEff < 0 || t.EdgeEff > 1 || t.AccelEff < 0 || t.AccelEff > 1 {
		return fmt.Errorf("sim: task %s efficiency outside [0,1]", t.Name)
	}
	if t.CachePenaltySeconds < 0 {
		return fmt.Errorf("sim: task %s has negative cache penalty", t.Name)
	}
	return nil
}

// Program is an ordered dependent task chain.
type Program struct {
	Name  string
	Tasks []Task
}

// Validate checks the program and every task.
func (p *Program) Validate() error {
	if len(p.Tasks) == 0 {
		return fmt.Errorf("sim: program %q has no tasks", p.Name)
	}
	for i := range p.Tasks {
		if err := p.Tasks[i].Validate(); err != nil {
			return fmt.Errorf("sim: program %q task %d: %w", p.Name, i, err)
		}
	}
	return nil
}

// Placement assigns each task of a program to a device kind.
type Placement []device.Kind

// String renders the paper's algorithm naming: "DDA" means L1 and L2 on the
// edge device and L3 on the accelerator.
func (p Placement) String() string {
	var b strings.Builder
	for _, k := range p {
		b.WriteString(k.Letter())
	}
	return b.String()
}

// ParsePlacement converts a string like "DAD" into a Placement.
func ParsePlacement(s string) (Placement, error) {
	p := make(Placement, 0, len(s))
	for _, r := range s {
		switch r {
		case 'D', 'd':
			p = append(p, device.EdgeDevice)
		case 'A', 'a':
			p = append(p, device.Accelerator)
		default:
			return nil, fmt.Errorf("sim: invalid placement letter %q in %q", r, s)
		}
	}
	if len(p) == 0 {
		return nil, fmt.Errorf("sim: empty placement")
	}
	return p, nil
}

// EnumeratePlacements returns all 2^n placements of an n-task program in
// lexicographic order with D < A (DDD, DDA, DAD, DAA, ADD, ...).
func EnumeratePlacements(n int) []Placement {
	if n <= 0 {
		return nil
	}
	total := 1 << uint(n)
	out := make([]Placement, 0, total)
	for mask := 0; mask < total; mask++ {
		p := make(Placement, n)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(n-1-i)) != 0 {
				p[i] = device.Accelerator
			}
		}
		out = append(out, p)
	}
	return out
}

// Platform is the modeled hardware: one edge device, one accelerator, and
// the link between them.
type Platform struct {
	Edge  *device.Device
	Accel *device.Device
	Link  *device.Link
}

// Validate checks the platform configuration.
func (pl *Platform) Validate() error {
	if pl.Edge == nil || pl.Accel == nil || pl.Link == nil {
		return fmt.Errorf("sim: platform requires edge, accel and link")
	}
	if err := pl.Edge.Validate(); err != nil {
		return err
	}
	if err := pl.Accel.Validate(); err != nil {
		return err
	}
	if err := pl.Link.Validate(); err != nil {
		return err
	}
	if pl.Edge.Kind != device.EdgeDevice {
		return fmt.Errorf("sim: edge slot holds a %s", pl.Edge.Kind)
	}
	if pl.Accel.Kind != device.Accelerator {
		return fmt.Errorf("sim: accel slot holds a %s", pl.Accel.Kind)
	}
	return nil
}

// DefaultPlatform returns the paper's testbed: one Xeon core, a P100 and
// PCIe between them.
func DefaultPlatform() *Platform {
	return &Platform{Edge: device.XeonCore(), Accel: device.P100(), Link: device.PCIe3x16()}
}

// device returns the device for a placement kind.
func (pl *Platform) device(k device.Kind) *device.Device {
	if k == device.Accelerator {
		return pl.Accel
	}
	return pl.Edge
}

// TaskTrace records the cost breakdown of one task execution.
type TaskTrace struct {
	Task     string
	On       device.Kind
	Start    float64 // seconds since run start
	Compute  float64 // seconds of device compute (incl. launch overhead)
	Transfer float64 // seconds of link traffic
	Flops    int64   // flops executed on the device
	Moved    int64   // bytes moved over the link
}

// End returns the completion time of the traced task.
func (t TaskTrace) End() float64 { return t.Start + t.Compute + t.Transfer }

// RunResult is the outcome of simulating one execution.
type RunResult struct {
	Placement Placement
	Seconds   float64 // total wall-clock time
	Trace     []TaskTrace
	// EdgeBusy / AccelBusy are compute seconds per device.
	EdgeBusy, AccelBusy float64
	// EdgeFlops / AccelFlops are the FLOPs executed per device — the
	// quantity the paper's FLOP-budget decision model constrains.
	EdgeFlops, AccelFlops int64
	// BytesMoved is the total link traffic.
	BytesMoved int64
	// EdgeJoules / AccelJoules are modeled energy for the run, counting
	// active compute, idle waiting and transfer energy.
	EdgeJoules, AccelJoules float64
}

// Simulator produces execution-time samples for (program, placement) pairs.
// It is not safe for concurrent use (it owns a Rand and scratch state);
// create one per goroutine with independent seeds — a Platform is immutable
// during simulation and may be shared by concurrent simulators. For
// determinism across worker counts, seed per-work-unit simulators with
// xrand.Mix(seed, unitIndex) rather than splitting a shared stream.
type Simulator struct {
	Platform *Platform
	rng      *xrand.Rand
	// scratch backs the allocation-free Seconds path.
	scratch RunResult
}

// NewSimulator validates the platform and returns a simulator seeded with
// seed.
func NewSimulator(pl *Platform, seed uint64) (*Simulator, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{Platform: pl, rng: xrand.New(seed)}, nil
}

// Run simulates one execution and returns the full result with trace.
func (s *Simulator) Run(prog *Program, pl Placement) (*RunResult, error) {
	res := &RunResult{}
	if err := s.RunInto(res, prog, pl, true); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto simulates one execution into res, reusing res's slice capacity —
// the hot path for repeated measurement campaigns: after the first call at a
// given program shape, subsequent calls perform no heap allocations. All
// fields of res are overwritten. When withTrace is false the per-task trace
// is skipped (res.Trace is truncated to empty).
func (s *Simulator) RunInto(res *RunResult, prog *Program, pl Placement, withTrace bool) error {
	if len(pl) != len(prog.Tasks) {
		return fmt.Errorf("sim: placement %s has %d slots for %d tasks",
			pl, len(pl), len(prog.Tasks))
	}
	res.Placement = append(res.Placement[:0], pl...)
	res.Trace = res.Trace[:0]
	res.Seconds = 0
	res.EdgeBusy, res.AccelBusy = 0, 0
	res.EdgeFlops, res.AccelFlops = 0, 0
	res.BytesMoved = 0
	res.EdgeJoules, res.AccelJoules = 0, 0
	clock := 0.0
	for i := range prog.Tasks {
		task := &prog.Tasks[i]
		kind := pl[i]
		dev := s.Platform.device(kind)

		// Compute cost: launches + roofline with the task's op-mix ceiling.
		eff := task.effOn(kind)
		effFlops := float64(task.Flops) / eff
		tc := effFlops / dev.PeakFlops
		if tm := float64(task.MemBytes) / dev.MemBandwidth; tm > tc {
			tc = tm
		}
		compute := dev.TaskOverhead.Seconds() + float64(task.Launches)*dev.LaunchOverhead.Seconds() + tc
		if i > 0 && pl[i-1] == kind {
			compute += task.CachePenaltySeconds
		}
		if dev.Noise != nil && compute > 0 {
			compute = dev.Noise.Perturb(s.rng, compute)
		}

		// Transfer cost: only accelerator placements move data (host-centric
		// model); latency is paid per link transaction.
		var transfer float64
		var moved int64
		if kind == device.Accelerator {
			moved = task.HostInBytes + task.HostOutBytes
			if moved > 0 {
				nominal := float64(task.Transfers)*s.Platform.Link.Latency.Seconds() +
					float64(moved)/s.Platform.Link.Bandwidth
				transfer = nominal
				if s.Platform.Link.Noise != nil {
					transfer = s.Platform.Link.Noise.Perturb(s.rng, nominal)
				}
			}
		}

		if withTrace {
			res.Trace = append(res.Trace, TaskTrace{
				Task: task.Name, On: kind, Start: clock,
				Compute: compute, Transfer: transfer,
				Flops: task.Flops, Moved: moved,
			})
		}
		clock += compute + transfer
		if kind == device.Accelerator {
			res.AccelBusy += compute
			res.AccelFlops += task.Flops
		} else {
			res.EdgeBusy += compute
			res.EdgeFlops += task.Flops
		}
		res.BytesMoved += moved
	}
	res.Seconds = clock

	// Energy: active while computing, idle while the other side works or the
	// link is busy; transfer energy charged per device model.
	edgeIdle := clock - res.EdgeBusy
	accelIdle := clock - res.AccelBusy
	res.EdgeJoules = s.Platform.Edge.Energy.ComputeEnergy(res.EdgeBusy) +
		s.Platform.Edge.Energy.IdleEnergy(edgeIdle) +
		s.Platform.Edge.Energy.TransferEnergy(res.BytesMoved)
	res.AccelJoules = s.Platform.Accel.Energy.ComputeEnergy(res.AccelBusy) +
		s.Platform.Accel.Energy.IdleEnergy(accelIdle) +
		s.Platform.Accel.Energy.TransferEnergy(res.BytesMoved)
	return nil
}

// Seconds simulates one execution and returns only the total time, the value
// the measurement harness collects. It reuses the simulator's scratch result
// and skips the trace, so it is allocation-free after the first call.
func (s *Simulator) Seconds(prog *Program, pl Placement) (float64, error) {
	if err := s.RunInto(&s.scratch, prog, pl, false); err != nil {
		return 0, err
	}
	return s.scratch.Seconds, nil
}

// NominalSeconds returns the noiseless execution time of a placement — the
// deterministic center of the distribution, used by calibration tests and
// the decision models.
func (s *Simulator) NominalSeconds(prog *Program, pl Placement) (float64, error) {
	if len(pl) != len(prog.Tasks) {
		return nil2(fmt.Errorf("sim: placement %s has %d slots for %d tasks", pl, len(pl), len(prog.Tasks)))
	}
	total := 0.0
	for i := range prog.Tasks {
		task := &prog.Tasks[i]
		kind := pl[i]
		dev := s.Platform.device(kind)
		eff := task.effOn(kind)
		tc := float64(task.Flops) / eff / dev.PeakFlops
		if tm := float64(task.MemBytes) / dev.MemBandwidth; tm > tc {
			tc = tm
		}
		total += dev.TaskOverhead.Seconds() + float64(task.Launches)*dev.LaunchOverhead.Seconds() + tc
		if i > 0 && pl[i-1] == kind {
			total += task.CachePenaltySeconds
		}
		if kind == device.Accelerator {
			moved := task.HostInBytes + task.HostOutBytes
			if moved > 0 {
				total += float64(task.Transfers)*s.Platform.Link.Latency.Seconds() +
					float64(moved)/s.Platform.Link.Bandwidth
			}
		}
	}
	return total, nil
}

func nil2(err error) (float64, error) { return 0, err }

// Sample runs the placement n times and returns the execution-time samples —
// the "N measurements" of the paper's methodology.
func (s *Simulator) Sample(prog *Program, pl Placement, n int) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		v, err := s.Seconds(prog, pl)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
