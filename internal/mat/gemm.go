package mat

import (
	"runtime"
	"sync"
)

// gemmBlock is the cache-blocking tile edge for the blocked kernels. 64×64
// float64 tiles (32 KiB per operand pair) fit comfortably in L1/L2 on every
// target the paper considers (Xeon, Raspberry Pi, phone SoCs).
const gemmBlock = 64

// mulParallelFlops is the multiply-add count (M·N·K) above which Mul
// dispatches to the row-parallel kernel. Below it the goroutine fan-out
// costs more than the arithmetic saved; 128³ = 2 Mi multiply-adds is the
// first square size where parallel rows win consistently.
const mulParallelFlops = 1 << 21

// Mul returns m · n. Small products use the blocked serial kernel; above
// mulParallelFlops multiply-adds the rows are partitioned over GOMAXPROCS
// goroutines. No in-repo front end crosses the threshold: the real-kernel
// RLS variants of edgebench -exp kernels and -exp hybrid run at sizes of
// 64 and below, on the serial kernel. The mat tests cover MulParallel.
func (m *Mat) Mul(n *Mat) (*Mat, error) {
	if int64(m.Rows)*int64(m.Cols)*int64(n.Cols) >= mulParallelFlops {
		return m.MulParallel(n, 0)
	}
	return m.MulBlocked(n)
}

// MulNaive is the reference triple-loop product, kept as the correctness
// oracle for the optimized kernels and as the slow baseline in the kernel
// ablation benchmarks.
func (m *Mat) MulNaive(n *Mat) (*Mat, error) {
	if m.Cols != n.Rows {
		return nil, ErrShape
	}
	out := New(m.Rows, n.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < n.Cols; j++ {
			var s float64
			for k := 0; k < m.Cols; k++ {
				s += m.Data[i*m.Cols+k] * n.Data[k*n.Cols+j]
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out, nil
}

// MulBlocked computes m · n with i-k-j loop order and cache blocking. The
// k-j inner ordering streams both the n row and the output row, avoiding the
// strided column walk of the naive kernel.
func (m *Mat) MulBlocked(n *Mat) (*Mat, error) {
	if m.Cols != n.Rows {
		return nil, ErrShape
	}
	out := New(m.Rows, n.Cols)
	mulBlockedInto(out, m, n, 0, m.Rows)
	return out, nil
}

// mulBlockedInto accumulates rows [rowLo, rowHi) of m·n into out.
func mulBlockedInto(out, m, n *Mat, rowLo, rowHi int) {
	K, J := m.Cols, n.Cols
	for ii := rowLo; ii < rowHi; ii += gemmBlock {
		iMax := min(ii+gemmBlock, rowHi)
		for kk := 0; kk < K; kk += gemmBlock {
			kMax := min(kk+gemmBlock, K)
			for jj := 0; jj < J; jj += gemmBlock {
				jMax := min(jj+gemmBlock, J)
				for i := ii; i < iMax; i++ {
					mrow := m.Data[i*K : (i+1)*K]
					orow := out.Data[i*J : (i+1)*J]
					for k := kk; k < kMax; k++ {
						a := mrow[k]
						if a == 0 {
							continue
						}
						nrow := n.Data[k*J : (k+1)*J]
						for j := jj; j < jMax; j++ {
							orow[j] += a * nrow[j]
						}
					}
				}
			}
		}
	}
}

// MulParallel computes m · n with rows partitioned over workers goroutines
// (0 means GOMAXPROCS). It is the kernel the hybrid executor uses when a
// device model allows more than one thread.
func (m *Mat) MulParallel(n *Mat, workers int) (*Mat, error) {
	if m.Cols != n.Rows {
		return nil, ErrShape
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m.Rows {
		workers = m.Rows
	}
	out := New(m.Rows, n.Cols)
	if workers <= 1 {
		mulBlockedInto(out, m, n, 0, m.Rows)
		return out, nil
	}
	var wg sync.WaitGroup
	chunk := (m.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, m.Rows)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulBlockedInto(out, m, n, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return out, nil
}

// Gram returns mᵀ·m (the AᵀA of the normal equations) exploiting symmetry:
// only the upper triangle is computed and then mirrored, roughly halving the
// FLOPs relative to a general product.
func (m *Mat) Gram() *Mat {
	n := m.Cols
	out := New(n, n)
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*n : (r+1)*n]
		for i := 0; i < n; i++ {
			a := row[i]
			if a == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j := i; j < n; j++ {
				orow[j] += a * row[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out.Data[j*n+i] = out.Data[i*n+j]
		}
	}
	return out
}

// MulT returns mᵀ · n without materializing the transpose.
func (m *Mat) MulT(n *Mat) (*Mat, error) {
	if m.Rows != n.Rows {
		return nil, ErrShape
	}
	out := New(m.Cols, n.Cols)
	for r := 0; r < m.Rows; r++ {
		mrow := m.Data[r*m.Cols : (r+1)*m.Cols]
		nrow := n.Data[r*n.Cols : (r+1)*n.Cols]
		for i, a := range mrow {
			if a == 0 {
				continue
			}
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, b := range nrow {
				orow[j] += a * b
			}
		}
	}
	return out, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
