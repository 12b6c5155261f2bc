package relperf

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// declTableI is the declarative twin of {"workload":"tableI","loop_n":2}:
// the same three RLS loops, resolved against the same paper testbed.
const declTableI = `{
	"program": {
		"name": "tableI-n2",
		"tasks": [
			{"name": "L1", "kernel": "rls", "size": 50, "iters": 2, "lambda": 0.5},
			{"name": "L2", "kernel": "rls", "size": 75, "iters": 2, "lambda": 0.5},
			{"name": "L3", "kernel": "rls", "size": 300, "iters": 2, "lambda": 0.5}
		]
	},
	"platform": {"preset": "xeon-p100"},
	"measurements": 6,
	"reps": 10
}`

// declFig1 is the declarative twin of {"workload":"fig1"}.
const declFig1 = `{
	"program": {
		"name": "figure1",
		"tasks": [
			{"name": "L1", "kernel": "gemm", "size": 320, "iters": 25},
			{"name": "L2", "kernel": "gemm", "size": 160, "iters": 200, "cache_penalty_seconds": 0.0007}
		]
	},
	"platform": {"preset": "fig1"},
	"measurements": 6,
	"reps": 10
}`

// TestDeclarativeSpecMatchesNamedWorkload is the schema's core property: a
// declarative spec that describes a built-in workload exactly produces the
// same canonical fingerprint and bit-identical results as the named
// workload — at any worker count. This is what lets clients migrate from
// named to declarative specs (or mix them) without splitting the fleet
// cache or changing a single served byte.
func TestDeclarativeSpecMatchesNamedWorkload(t *testing.T) {
	cases := []struct {
		name        string
		named, decl string
	}{
		{"tableI", `{"workload":"tableI","loop_n":2,"measurements":6,"reps":10}`, declTableI},
		{"fig1", `{"workload":"fig1","measurements":6,"reps":10}`, declFig1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			named, err := ParseStudySpec([]byte(tc.named))
			if err != nil {
				t.Fatal(err)
			}
			decl, err := ParseStudySpec([]byte(tc.decl))
			if err != nil {
				t.Fatal(err)
			}
			cfgN, err := named.Config()
			if err != nil {
				t.Fatal(err)
			}
			cfgD, err := decl.Config()
			if err != nil {
				t.Fatal(err)
			}
			fpN, err := Fingerprint(cfgN)
			if err != nil {
				t.Fatal(err)
			}
			fpD, err := Fingerprint(cfgD)
			if err != nil {
				t.Fatal(err)
			}
			if fpN != fpD {
				t.Fatalf("fingerprints differ: named %s, declarative %s", fpN, fpD)
			}

			var blobs [][]byte
			for _, cfg := range []StudyConfig{cfgN, cfgD} {
				for _, workers := range []int{1, 8} {
					cfg.Seed = 9
					cfg.Workers = workers
					study, err := NewStudy(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := study.Run()
					if err != nil {
						t.Fatal(err)
					}
					b, err := res.MarshalWire()
					if err != nil {
						t.Fatal(err)
					}
					blobs = append(blobs, b)
				}
			}
			for i := 1; i < len(blobs); i++ {
				if !bytes.Equal(blobs[0], blobs[i]) {
					t.Fatalf("run %d produced different bytes (named/declarative × Workers=1/8 must all agree)", i)
				}
			}
		})
	}
}

// TestSpecValidationErrors is the table of rejections: every out-of-range
// value, kernel mix-up and unknown name must be an explicit error with a
// recognizable message — never a silent default.
func TestSpecValidationErrors(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"neither workload nor program", `{}`, "exactly one of"},
		{"both workload and program", `{"workload":"tableI","program":{"tasks":[{"name":"L1","kernel":"raw"}]}}`, "exactly one of"},
		{"unknown workload", `{"workload":"nope"}`, "unknown workload"},
		{"negative loop_n", `{"workload":"tableI","loop_n":-1}`, "loop_n"},
		{"loop_n with program", `{"loop_n":3,"program":{"tasks":[{"name":"L1","kernel":"raw"}]}}`, "loop_n"},
		{"loop_n with fig1", `{"workload":"fig1","loop_n":3}`, "loop_n"},
		{"negative measurements", `{"workload":"tableI","measurements":-5}`, "measurements"},
		{"negative warmup", `{"workload":"tableI","warmup":-1}`, "warmup"},
		{"negative reps", `{"workload":"tableI","reps":-10}`, "reps"},
		{"negative matrix_trials", `{"workload":"tableI","matrix":true,"matrix_trials":-2}`, "matrix_trials"},
		{"matrix_trials without matrix", `{"workload":"tableI","matrix_trials":8}`, "matrix"},
		{"unknown comparator", `{"workload":"tableI","comparator":"psychic"}`, "unknown comparator"},
		{"bad placement", `{"workload":"tableI","placements":["DXA"]}`, "placement"},
		{"placement length mismatch", `{"workload":"fig1","placements":["DDA"]}`, "slots"},
		{"repeated placement", `{"workload":"tableI","placements":["DDA","DDA","AAA"]}`, "twice"},
		{"unknown field", `{"workload":"tableI","bogus":1}`, "bogus"},
		{"trailing garbage", `{"workload":"tableI"} {"again":true}`, "trailing"},
		{"empty program", `{"program":{"tasks":[]}}`, "no tasks"},
		{"task without name", `{"program":{"tasks":[{"kernel":"raw"}]}}`, "name is required"},
		{"task without kernel", `{"program":{"tasks":[{"name":"L1"}]}}`, "kernel is required"},
		{"unknown kernel", `{"program":{"tasks":[{"name":"L1","kernel":"fft"}]}}`, "unknown kernel"},
		{"rls without size", `{"program":{"tasks":[{"name":"L1","kernel":"rls","iters":5}]}}`, "size"},
		{"rls without iters", `{"program":{"tasks":[{"name":"L1","kernel":"rls","size":50}]}}`, "iters"},
		{"rls with raw fields", `{"program":{"tasks":[{"name":"L1","kernel":"rls","size":50,"iters":5,"flops":100}]}}`, "raw"},
		{"rls with cache penalty", `{"program":{"tasks":[{"name":"L1","kernel":"rls","size":50,"iters":5,"cache_penalty_seconds":0.1}]}}`, "cache_penalty_seconds"},
		{"gemm with lambda", `{"program":{"tasks":[{"name":"L1","kernel":"gemm","size":50,"iters":5,"lambda":0.5}]}}`, "lambda"},
		{"raw with size", `{"program":{"tasks":[{"name":"L1","kernel":"raw","size":50}]}}`, "size/iters/lambda"},
		{"raw negative flops", `{"program":{"tasks":[{"name":"L1","kernel":"raw","flops":-1}]}}`, ">= 0"},
		{"raw efficiency above one", `{"program":{"tasks":[{"name":"L1","kernel":"raw","edge_eff":1.5}]}}`, "[0,1]"},
		{"platform preset with components", `{"workload":"tableI","platform":{"preset":"xeon-p100","link":{"preset":"wifi"}}}`, "excludes"},
		{"unknown platform preset", `{"workload":"tableI","platform":{"preset":"cray"}}`, "unknown platform preset"},
		{"unknown device preset", `{"workload":"tableI","platform":{"edge":{"preset":"abacus"}}}`, "unknown device preset"},
		{"device preset wrong slot", `{"workload":"tableI","platform":{"edge":{"preset":"p100"}}}`, "slot"},
		{"device preset with params", `{"workload":"tableI","platform":{"edge":{"preset":"xeon-8160-core","threads":4}}}`, "excludes"},
		{"device without name", `{"workload":"tableI","platform":{"edge":{"peak_flops":1e9,"mem_bandwidth":1e9}}}`, "name is required"},
		{"device zero peak", `{"workload":"tableI","platform":{"edge":{"name":"d","mem_bandwidth":1e9}}}`, "peak_flops"},
		{"unknown link preset", `{"workload":"tableI","platform":{"link":{"preset":"carrier-pigeon"}}}`, "unknown link preset"},
		{"link zero bandwidth", `{"workload":"tableI","platform":{"link":{"name":"l"}}}`, "bandwidth"},
		{"unknown noise kind", `{"workload":"tableI","platform":{"link":{"name":"l","bandwidth":1e9,"noise":{"kind":"fractal"}}}}`, "unknown noise kind"},
		{"noise without kind", `{"workload":"tableI","platform":{"link":{"name":"l","bandwidth":1e9,"noise":{"sigma":0.1}}}}`, "kind is required"},
		{"lognormal zero sigma", `{"workload":"tableI","platform":{"link":{"name":"l","bandwidth":1e9,"noise":{"kind":"lognormal"}}}}`, "sigma"},
		{"gaussian bad floor", `{"workload":"tableI","platform":{"link":{"name":"l","bandwidth":1e9,"noise":{"kind":"gaussian","rel":0.1,"floor":1.5}}}}`, "floor"},
		{"spiky zero alpha", `{"workload":"tableI","platform":{"link":{"name":"l","bandwidth":1e9,"noise":{"kind":"spiky","p":0.1,"scale":0.1}}}}`, "alpha"},
		{"lognormal with base", `{"workload":"tableI","platform":{"link":{"name":"l","bandwidth":1e9,"noise":{"kind":"lognormal","sigma":0.1,"base":{"kind":"none"}}}}}`, "base"},
		{"none with params", `{"workload":"tableI","platform":{"link":{"name":"l","bandwidth":1e9,"noise":{"kind":"none","sigma":0.1}}}}`, "no parameters"},
		{"gaussian with foreign sigma", `{"workload":"tableI","platform":{"link":{"name":"l","bandwidth":1e9,"noise":{"kind":"gaussian","rel":0.1,"sigma":0.5}}}}`, "another noise kind"},
		{"shift with foreign alpha", `{"workload":"tableI","platform":{"link":{"name":"l","bandwidth":1e9,"noise":{"kind":"shift","shift":0.01,"alpha":1.5}}}}`, "another noise kind"},
		{"negative energy", `{"workload":"tableI","platform":{"edge":{"name":"d","peak_flops":1e9,"mem_bandwidth":1e9,"energy":{"idle_watts":-5}}}}`, "energy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseStudySpec([]byte(tc.spec))
			if err == nil {
				t.Fatalf("spec accepted: %s", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSpecCountNotation: counts accept every notation that denotes an
// exact int64 — plain literals over the full range, exponent forms even
// above 2^53 — and reject fractions and overflow instead of rounding.
func TestSpecCountNotation(t *testing.T) {
	parse := func(lit string) (int64, error) {
		sp, err := ParseStudySpec([]byte(
			`{"program":{"tasks":[{"name":"L1","kernel":"raw","flops":` + lit + `}]}}`))
		if err != nil {
			return 0, err
		}
		return int64(sp.Program.Tasks[0].Flops), nil
	}
	for lit, want := range map[string]int64{
		"4e8":                 4e8,
		"1e16":                1e16, // exact above 2^53
		"2.5e9":               25e8,
		"9223372036854775807": 1<<63 - 1, // full int64 range as a plain literal
	} {
		got, err := parse(lit)
		if err != nil || got != want {
			t.Errorf("flops %s: got %d, %v; want %d", lit, got, err, want)
		}
	}
	for _, lit := range []string{"1.5", "1e19", "9.3e18", `"40"`, "NaN"} {
		if _, err := parse(lit); err == nil {
			t.Errorf("flops %s accepted", lit)
		}
	}
}

// TestSpecTooManyTasks: placement enumeration grows as 2^tasks, so the
// schema bounds the chain length explicitly.
func TestSpecTooManyTasks(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"program":{"tasks":[`)
	for i := 0; i <= MaxSpecTasks; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"name":"T","kernel":"raw","flops":1}`)
	}
	sb.WriteString(`]}}`)
	if _, err := ParseStudySpec([]byte(sb.String())); err == nil || !strings.Contains(err.Error(), "max") {
		t.Fatalf("oversized task chain: err = %v", err)
	}
}

// TestSpecNoiseNestingDepth: base chains must terminate.
func TestSpecNoiseNestingDepth(t *testing.T) {
	noise := `{"kind":"none"}`
	for i := 0; i < 2*maxNoiseDepth; i++ {
		noise = `{"kind":"shift","shift":0.001,"base":` + noise + `}`
	}
	spec := `{"workload":"tableI","platform":{"link":{"name":"l","bandwidth":1e9,"noise":` + noise + `}}}`
	if _, err := ParseStudySpec([]byte(spec)); err == nil || !strings.Contains(err.Error(), "nest") {
		t.Fatalf("deep noise nesting: err = %v", err)
	}
}

// TestSpecCustomPlatformResolution: an explicit device/link description
// resolves into a runnable, fingerprintable study, and the fingerprint is a
// pure function of the spec content (field order and re-parsing don't
// matter).
func TestSpecCustomPlatformResolution(t *testing.T) {
	const spec = `{
		"program": {
			"name": "pipeline",
			"tasks": [
				{"name": "S1", "kernel": "raw", "flops": 4e8, "launches": 12, "host_in_bytes": 2e6, "host_out_bytes": 1e6, "transfers": 3, "accel_eff": 0.05},
				{"name": "S2", "kernel": "gemm", "size": 96, "iters": 40}
			]
		},
		"platform": {
			"edge": {"preset": "raspberry-pi-4"},
			"accel": {
				"name": "jetson-like",
				"peak_flops": 5e11,
				"mem_bandwidth": 6e10,
				"launch_overhead_ns": 9000,
				"task_overhead_ns": 400000,
				"noise": {"kind": "spiky", "p": 0.02, "scale": 0.08, "alpha": 1.5, "base": {"kind": "lognormal", "sigma": 0.12}},
				"energy": {"idle_watts": 4, "active_watts": 17, "joules_per_byte": 2e-10}
			},
			"link": {"preset": "wifi"}
		},
		"measurements": 5,
		"reps": 8
	}`
	sp, err := ParseStudySpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Platform.Edge.Name != "raspberry-pi-4" || cfg.Platform.Accel.Name != "jetson-like" ||
		cfg.Platform.Link.Name != "wifi" {
		t.Fatalf("platform resolved to %s/%s/%s", cfg.Platform.Edge.Name, cfg.Platform.Accel.Name, cfg.Platform.Link.Name)
	}
	fp1, err := Fingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Re-marshal the parsed spec (canonical field order) and re-parse: the
	// fingerprint must not move.
	canon, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	sp2, err := ParseStudySpec(canon)
	if err != nil {
		t.Fatalf("canonical re-parse: %v", err)
	}
	cfg2, err := sp2.Config()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := Fingerprint(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("fingerprint moved across re-marshal: %s vs %s", fp1, fp2)
	}

	// And the study actually runs end to end.
	cfg.Seed = 3
	study, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != 4 { // 2 tasks → 4 placements
		t.Fatalf("%d profiles for a 2-task program", len(res.Profiles))
	}
}

// TestSpecNamedWorkloadPlatformOverride: a named workload on alternative
// hardware (one of the paper's other device-accelerator settings) resolves
// and fingerprints differently from the testbed default.
func TestSpecNamedWorkloadPlatformOverride(t *testing.T) {
	base, err := ParseStudySpec([]byte(`{"workload":"tableI","loop_n":2}`))
	if err != nil {
		t.Fatal(err)
	}
	override, err := ParseStudySpec([]byte(`{"workload":"tableI","loop_n":2,
		"platform":{"edge":{"preset":"raspberry-pi-4"},"link":{"preset":"wifi"}}}`))
	if err != nil {
		t.Fatal(err)
	}
	cfgB, err := base.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfgO, err := override.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfgO.Platform.Edge.Name != "raspberry-pi-4" || cfgO.Platform.Accel.Name != cfgB.Platform.Accel.Name {
		t.Fatalf("override platform = %s/%s", cfgO.Platform.Edge.Name, cfgO.Platform.Accel.Name)
	}
	fpB, err := Fingerprint(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	fpO, err := Fingerprint(cfgO)
	if err != nil {
		t.Fatal(err)
	}
	if fpB == fpO {
		t.Fatal("different platforms share a fingerprint")
	}
}
