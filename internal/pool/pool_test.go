package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 100} {
		const n = 50
		var hits [n]int32
		err := ForEach(context.Background(), nil, n, workers, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmptyRange(t *testing.T) {
	if err := ForEach(context.Background(), nil, 0, 4, func(int) error { t.Fatal("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachReturnsError(t *testing.T) {
	e3, e7 := errors.New("e3"), errors.New("e7")
	fail := func(i int) error {
		switch i {
		case 3:
			return e3
		case 7:
			return e7
		}
		return nil
	}
	// Serial: units run in index order, 3 fails first and 7 is skipped.
	if err := ForEach(context.Background(), nil, 10, 1, fail); !errors.Is(err, e3) {
		t.Fatalf("serial err = %v, want the index-3 error", err)
	}
	// Parallel: which injected error surfaces depends on scheduling, but
	// one of them must.
	if err := ForEach(context.Background(), nil, 10, 4, fail); !errors.Is(err, e3) && !errors.Is(err, e7) {
		t.Fatalf("parallel err = %v, want an injected error", err)
	}
}

func TestForEachSkipsAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran int32
	err := ForEach(context.Background(), nil, 1000, 1, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("%d units ran after the first failure, want short-circuit to 1", ran)
	}
}

// TestForEachStopsDispatchAfterFailure is the regression test for the
// short-circuit: after an early failure the remaining indices must not be
// claimed at all. The range is large enough that walking it to the end
// would dominate the runtime, while the executed-unit count bounds how
// much work escaped before the halt propagated.
func TestForEachStopsDispatchAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4, 16} {
		var ran int32
		err := ForEach(context.Background(), nil, 1<<30, workers, func(i int) error {
			atomic.AddInt32(&ran, 1)
			if i == 0 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatal(err)
		}
		// The real regression signal is that this test returns at all:
		// running out the full 2^30 range takes minutes. The executed-unit
		// bound is deliberately loose — workers may churn units until the
		// failing goroutine gets scheduled — but must stay far below the
		// range size.
		if int(ran) > 1<<20 {
			t.Fatalf("workers=%d: %d units ran after early failure", workers, ran)
		}
	}
}

func TestForEachCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	err := ForEach(ctx, nil, 1<<30, 4, func(i int) error {
		if atomic.AddInt32(&ran, 1) == 8 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if int(ran) > 1<<20 {
		t.Fatalf("%d units ran after cancellation", ran)
	}
}

func TestForEachUnitErrorWinsOverCancellation(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := ForEach(ctx, nil, 100, 2, func(i int) error {
		if i == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the unit error", err)
	}
}

// TestPoolSharedBudget: two concurrent fan-outs through one 2-token pool
// never exceed 2 units in flight in total.
func TestPoolSharedBudget(t *testing.T) {
	p := NewPool(2)
	var inFlight, maxSeen int32
	unit := func(int) error {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			seen := atomic.LoadInt32(&maxSeen)
			if cur <= seen || atomic.CompareAndSwapInt32(&maxSeen, seen, cur) {
				break
			}
		}
		atomic.AddInt32(&inFlight, -1)
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ForEach(context.Background(), p, 200, 0, unit); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if maxSeen > 2 {
		t.Fatalf("max in-flight units = %d, want <= budget 2", maxSeen)
	}
}

func TestPoolForEachError(t *testing.T) {
	p := NewPool(4)
	boom := errors.New("boom")
	var ran int32
	err := ForEach(context.Background(), p, 1<<30, 0, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if int(ran) > 1<<20 {
		t.Fatalf("%d units ran after early failure", ran)
	}
}

// spinUnit burns about a microsecond of CPU without touching shared
// memory: the size of the finest units callers fan out (one checkpoint
// record validated, one small resample), where the cost of handing out an
// index is visible.
func spinUnit(i int) error {
	x := uint64(i) + 1
	for j := 0; j < 400; j++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 { // xorshift never maps a non-zero word to 0
		return errors.New("unreachable")
	}
	return nil
}

// BenchmarkForEachTinyUnits fans 10⁴ units of about 1 µs out at
// GOMAXPROCS width, on a transient pool and on a shared one: per-unit
// overhead of ForEach at the grain where it matters most.
func BenchmarkForEachTinyUnits(b *testing.B) {
	const units = 10_000
	b.Run("transient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ForEach(context.Background(), nil, units, 0, spinUnit); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pool", func(b *testing.B) {
		p := NewPool(0)
		for i := 0; i < b.N; i++ {
			if err := ForEach(context.Background(), p, units, 0, spinUnit); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serial-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for u := 0; u < units; u++ {
				if err := spinUnit(u); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
