package main

// The shared data directory every run starts relperfd on: n cheap studies,
// the first half compacted into a snapshot and the second half in the WAL
// tail above it — the state a restart between two checkpoints finds. It is
// built in-process through the same store and WAL calls the daemon makes,
// untimed, before set-up.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"relperf"
	"relperf/internal/fleet"
	"relperf/internal/wal"
)

const (
	snapshotFile = "snapshot.json"
	walFile      = "wal.log"
)

// fixtureStudy is one study of the data directory with its canonical
// result bytes.
type fixtureStudy struct {
	genStudy
	Result []byte
}

type fixture struct {
	dir     string
	seed    uint64
	studies []fixtureStudy
	sorted  []string // fingerprints in index (lexicographic) order
	// File sizes of the data directory.
	snapshotBytes, walBytes int64
	buildSeconds            float64
}

// computeStudies keys and runs every spec, on GOMAXPROCS goroutines of one
// engine worker each; the determinism contract makes the bytes independent
// of that split.
func computeStudies(specs []relperf.StudySpec, seed uint64) ([]fixtureStudy, error) {
	out := make([]fixtureStudy, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = computeStudy(&specs[i], seed)
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("study %d: %w", i, err)
		}
	}
	return out, nil
}

func computeStudy(sp *relperf.StudySpec, seed uint64) (fixtureStudy, error) {
	st, err := keyStudy(sp, seed)
	if err != nil {
		return fixtureStudy{}, err
	}
	blob, err := runStudy(sp, seed)
	if err != nil {
		return fixtureStudy{}, err
	}
	return fixtureStudy{genStudy: st, Result: blob}, nil
}

// oneWorkerStudy resolves a spec to a runnable study at one engine worker;
// the determinism contract makes its result the daemon's, at any budget.
func oneWorkerStudy(sp *relperf.StudySpec, seed uint64) (*relperf.Study, string, error) {
	cfg, err := sp.Config()
	if err != nil {
		return nil, "", err
	}
	cfg.Workers = 1
	return relperf.NewKeyedStudy(cfg, seed)
}

// runStudy computes a spec's canonical result bytes at one engine worker.
func runStudy(sp *relperf.StudySpec, seed uint64) ([]byte, error) {
	study, _, err := oneWorkerStudy(sp, seed)
	if err != nil {
		return nil, err
	}
	res, err := study.RunOn(context.Background(), nil)
	if err != nil {
		return nil, err
	}
	return res.MarshalWire()
}

// buildFixture writes the data directory for seed into dir.
func buildFixture(dir string, seed uint64, n int) (*fixture, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	studies, err := computeStudies(fixtureSpecs(seed, n), seed)
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	store := fleet.NewStore(0)
	half := n / 2
	for _, st := range studies[:half] {
		if err := putStudy(store, st); err != nil {
			return nil, err
		}
	}
	data, _, err := store.SnapshotCut(seed)
	if err != nil {
		return nil, err
	}
	if err := fleet.WriteSnapshotBytesAtomic(data, filepath.Join(dir, snapshotFile)); err != nil {
		return nil, err
	}
	log, _, err := wal.Open(filepath.Join(dir, walFile), seed, nil)
	if err != nil {
		return nil, err
	}
	store.SetWAL(log)
	for _, st := range studies[half:] {
		if err := putStudy(store, st); err != nil {
			log.Close()
			return nil, err
		}
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	fx := &fixture{dir: dir, seed: seed, studies: studies}
	for _, st := range studies {
		fx.sorted = append(fx.sorted, st.FP)
	}
	sort.Strings(fx.sorted)
	if fx.snapshotBytes, err = fileSize(filepath.Join(dir, snapshotFile)); err != nil {
		return nil, err
	}
	if fx.walBytes, err = fileSize(filepath.Join(dir, walFile)); err != nil {
		return nil, err
	}
	fx.buildSeconds = time.Since(start).Seconds()
	return fx, nil
}

// putStudy stores a study the way a daemon does after SubmitSpecs and a
// completed compute: spec retained, result merged.
func putStudy(store *fleet.Store, st fixtureStudy) error {
	if err := store.PutSpec(st.FP, st.Spec); err != nil {
		return err
	}
	return store.Merge(st.FP, st.Result)
}

// copyTo gives dst the fixture's state: the snapshot is hard-linked (the
// daemon only ever replaces it by rename), the WAL — which the daemon
// appends to in place — is copied and fsync'd, so no write-back of it is
// pending while a timed recovery reads it.
func (fx *fixture) copyTo(dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	if err := os.Link(filepath.Join(fx.dir, snapshotFile), filepath.Join(dst, snapshotFile)); err != nil {
		return err
	}
	return copyFile(filepath.Join(fx.dir, walFile), filepath.Join(dst, walFile))
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
