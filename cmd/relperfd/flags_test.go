package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestPersistenceFlagCombinations: relperfd accepts exactly two persistence
// configurations — in-memory, or -wal and -snapshot together with a
// positive -snapshot-interval. Every other combination makes run fail
// with an error that starts with the flag at fault, before it creates a
// log or snapshot file.
func TestPersistenceFlagCombinations(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "relperfd.wal")
	snapPath := filepath.Join(dir, "relperfd.snapshot.json")
	const standby = "http://127.0.0.1:1"
	for _, tc := range []struct {
		name    string
		args    []string
		durable bool   // accepted combinations: the mode they select
		fault   string // rejected combinations: the flag the error names
	}{
		{name: "in-memory", args: nil},
		{name: "durable", args: []string{"-wal", walPath, "-snapshot", snapPath}, durable: true},
		{name: "durable with interval and standby", args: []string{"-wal", walPath, "-snapshot", snapPath, "-snapshot-interval", "1s", "-standby", standby}, durable: true},
		{name: "wal alone", args: []string{"-wal", walPath}, fault: "-wal"},
		{name: "wal and interval", args: []string{"-wal", walPath, "-snapshot-interval", "5s"}, fault: "-wal"},
		{name: "snapshot alone", args: []string{"-snapshot", snapPath}, fault: "-snapshot"},
		{name: "snapshot and standby", args: []string{"-snapshot", snapPath, "-standby", standby}, fault: "-snapshot"},
		{name: "durable with zero interval", args: []string{"-wal", walPath, "-snapshot", snapPath, "-snapshot-interval", "0s"}, fault: "-snapshot-interval"},
		{name: "durable with negative interval", args: []string{"-wal", walPath, "-snapshot", snapPath, "-snapshot-interval", "-1s"}, fault: "-snapshot-interval"},
		{name: "interval without durability", args: []string{"-snapshot-interval", "5s"}, fault: "-snapshot-interval"},
		{name: "default interval given without durability", args: []string{"-snapshot-interval", defaultSnapshotInterval.String()}, fault: "-snapshot-interval"},
		{name: "standby without durability", args: []string{"-standby", standby}, fault: "-standby"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseFlags(append([]string{"-addr", "127.0.0.1:0"}, tc.args...))
			if err != nil {
				t.Fatalf("parseFlags: %v", err)
			}
			if tc.fault == "" {
				durable, err := o.durable()
				if err != nil || durable != tc.durable {
					t.Fatalf("durable() = (%v, %v), want (%v, nil)", durable, err, tc.durable)
				}
			} else {
				errc := make(chan error, 1)
				go func() { errc <- run(o) }()
				select {
				case err = <-errc:
				case <-time.After(10 * time.Second):
					t.Fatalf("run accepted %v and started serving", tc.args)
				}
				if err == nil || !strings.HasPrefix(err.Error(), tc.fault+" ") {
					t.Fatalf("run(%v) = %v, want an error naming %s", tc.args, err, tc.fault)
				}
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				t.Errorf("validating %v created %s", tc.args, e.Name())
			}
		})
	}
}
