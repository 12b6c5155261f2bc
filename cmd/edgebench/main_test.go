package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldens pins every deterministic experiment byte for byte: each
// golden is the stdout of `edgebench -seed 1 <args>` with default flags,
// regenerated here through parseFlags, the experiment functions and their
// printers. The engine's determinism contract makes the bytes independent
// of the worker count, so each golden is checked at Workers=1 and 4
// (-short: default workers only). kernels and hybrid time real kernels on
// the host and cannot be pinned.
func TestGoldens(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"fig1", []string{"-exp", "fig1"}},
		{"fig2", []string{"-exp", "fig2"}},
		{"scores", []string{"-exp", "scores"}},
		{"table1", []string{"-exp", "table1"}},
		{"table1_matrix", []string{"-exp", "table1", "-matrix"}},
		{"decision", []string{"-exp", "decision"}},
		{"energy", []string{"-exp", "energy"}},
		{"predict", []string{"-exp", "predict"}},
		{"race", []string{"-exp", "race"}},
	}
	workers := [][]string{{"-workers", "1"}, {"-workers", "4"}}
	if testing.Short() {
		workers = [][]string{nil}
	}
	for _, tc := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workers {
			args := append(append([]string{"-seed", "1"}, tc.args...), w...)
			exp, o, err := parseFlags(args)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(&got, exp, o); err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%v: output differs from testdata/%s.golden:\n%s", args, tc.golden, got.String())
			}
		}
	}
}

func TestParseFlagsRejectsUnknownExperiment(t *testing.T) {
	if _, _, err := parseFlags([]string{"-exp", "fig3"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestFigure1Claim: in Figure 1b, AD alone is fastest and DD and DA are
// statistically equivalent.
func TestFigure1Claim(t *testing.T) {
	_, o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fig1(o)
	if err != nil {
		t.Fatal(err)
	}
	rank := map[string]int{}
	for i, name := range res.Names {
		rank[name] = res.Final.Rank[i]
	}
	for name, r := range rank {
		if (r == 1) != (name == "algAD") {
			t.Errorf("%s has rank %d; want algAD alone in class 1 (ranks %v)", name, r, rank)
		}
	}
	if rank["algDD"] != rank["algDA"] {
		t.Errorf("algDD rank %d, algDA rank %d; want them equivalent", rank["algDD"], rank["algDA"])
	}
}

// TestEnergySwitchClaim: the §IV session falls back from algDDD to algDAA,
// and switching keeps the accumulator within one preferred job of the
// high-water mark, where never switching does not.
func TestEnergySwitchClaim(t *testing.T) {
	_, o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := energy(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Switcher.Fallback.Name; got != "DAA" {
		t.Errorf("fallback alg%s, want algDAA", got)
	}
	bound := r.Switcher.HighWater + r.Switcher.Preferred.EdgeJoules
	if r.Session.PeakEnergy >= bound {
		t.Errorf("switching session peaks at %.2f J, want below %.2f J", r.Session.PeakEnergy, bound)
	}
	never := r.Switcher
	never.Fallback = never.Preferred
	sess, err := never.RunSession(len(r.Session.Steps))
	if err != nil {
		t.Fatal(err)
	}
	if sess.PeakEnergy <= bound {
		t.Errorf("never-switching session peaks at %.2f J, want above %.2f J", sess.PeakEnergy, bound)
	}
}
