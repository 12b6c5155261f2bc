package stats

// This file is the streaming quantile sketch: the fixed-size, deterministic,
// mergeable summary that lets a measurement campaign reach N = 10^6–10^8
// values per placement without holding them. It is the opt-in alternative to
// the exact array-backed path (SortedSample), with an explicit error-bound
// contract instead of bit-identity to the exact quantiles.
//
// # Construction
//
// The sketch is a compactor hierarchy in the KLL tradition, with the
// compaction decisions keyed deterministically through xrand rather than
// drawn from a shared RNG. Every added value receives an identity hash
//
//	h = xrand.Mix(seed, counter)
//
// fixed forever at Add time (seed identifies the ingest stream, counter is
// the value's index within it). The hierarchy level of an item is the number
// of leading zero bits of h: an item "survives" compaction level theta iff
// its top theta bits are zero, which happens with probability 2^-theta —
// exactly the geometric level assignment of a KLL compactor stack. The
// sketch retains the items surviving the current level and compacts (raises
// theta by one, re-filtering) whenever more than k items survive, so each
// retained item stands for 2^theta ingested values.
//
// Because survival is a pure predicate of (h, theta), the retained set — and
// with it theta itself, maintained minimal — is a pure function of the
// ingested multiset of (value, hash) pairs and k. That gives the sketch the
// property the engine's determinism contract needs and a shared-RNG
// compactor cannot offer: Merge is associative, commutative and
// order-insensitive, so equal seeds produce bit-identical sketch bytes at
// any worker count and under any merge tree, shuffled or not.
//
// Alongside the sampled items the sketch tracks the exact count n and the
// exact extremes min/max (combined with an IEEE total-order comparison, so
// even the -0.0/+0.0 tie merges identically in any order).
//
// # Quantiles
//
// While theta == 0 nothing has ever been dropped: the retained items are the
// entire stream and Quantile is the exact type-7 quantile (QuantileSorted),
// so small-N sketches degrade to the exact path. Once theta > 0 the
// retained values are a uniform 2^-theta sample of the stream; Quantile
// interpolates type-7 over the sorted retained values bracketed by the exact
// [min, max], which keeps Quantile monotone non-decreasing in q with
// Quantile(0) == min and Quantile(1) == max exactly. The rank error of any
// quantile is bounded by SketchEpsilon(k) with high probability; the
// property tests pin it against SortedSample ground truth at N up to 10^6.
//
// # Wire encoding
//
// MarshalBinary emits a canonical fixed-width big-endian encoding (magic,
// k, theta, count, n, min, max, items sorted by total-order value then
// hash). DecodeSketch validates strictly — magic, bounds, sortedness,
// survivor consistency, exact length — and decode→encode is a byte-level
// fixed point, the property FuzzSketchDecode holds.

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"relperf/internal/xrand"
)

// MaxSketchK bounds the retained-item capacity of a sketch; it exists so a
// hostile encoding cannot demand an absurd capacity, not as a practical
// limit (1<<26 items is already a gigabyte of retained state).
const MaxSketchK = 1 << 26

// SketchEpsilon returns the documented rank-error bound of a capacity-k
// sketch: for any q, the value returned by Quantile(q) has true rank within
// q ± SketchEpsilon(k) of the ingested distribution (with high probability
// over the hash assignment; the deterministic property suite pins it for
// the engine's seed derivations). After compaction the retained set is a
// uniform sample of at least ~k/2 values, so the bound is the DKW-style
// 2/sqrt(k).
func SketchEpsilon(k int) float64 {
	if k <= 0 {
		return math.NaN()
	}
	return 2 / math.Sqrt(float64(k))
}

// sketchItem is one retained value with its immutable identity hash.
type sketchItem struct {
	v float64
	h uint64
}

// Sketch is a fixed-size deterministic mergeable quantile sketch. Construct
// with NewSketch (for ingestion) or DecodeSketch (from wire bytes). The zero
// value is not usable. A Sketch is not safe for concurrent mutation;
// Quantile and the other read methods are safe to call concurrently with
// each other once no more Add/Merge calls occur (the engine's clustering
// stage reads one frozen sketch from many goroutines).
type Sketch struct {
	k     int
	seed  uint64 // identity-hash stream key; not part of the distribution state
	count uint64 // next Add's hash counter within the stream
	theta uint8  // current survival level; retained items stand for 2^theta values

	items []sketchItem // survivors of theta, sorted by (total-order v, h)
	n     uint64       // exact ingested count
	min   float64      // exact extremes (total-order), valid iff n > 0
	max   float64

	// est caches the sorted estimation array Quantile reads (retained
	// values, bracketed by min/max once theta > 0); estMu guards its lazy
	// build so concurrent readers of a frozen sketch race-freely share one
	// build. Mutations invalidate it by clearing est without the lock:
	// they never run concurrently with reads (see Sketch), so whatever
	// hands the mutated sketch to its readers orders the two.
	estMu sync.Mutex
	est   []float64
}

// NewSketch returns an empty sketch of capacity k whose item hashes are
// keyed by seed. Sketches with equal (k, seed) fed equal value sequences are
// bit-identical; independent streams (one per placement) must use distinct
// seeds, conventionally xrand.Mix(studySketchSeed, streamIndex). k must be
// in [1, MaxSketchK].
func NewSketch(k int, seed uint64) (*Sketch, error) {
	if k < 1 || k > MaxSketchK {
		return nil, fmt.Errorf("stats: sketch k must be in 1..%d, got %d", MaxSketchK, k)
	}
	return &Sketch{k: k, seed: seed, min: math.NaN(), max: math.NaN()}, nil
}

// totalKey maps a float64 onto a uint64 whose unsigned order is the IEEE
// total order of the value (for non-NaN inputs): negative values sort below
// positive, and -0.0 below +0.0. Using it for every value comparison keeps
// the sketch state a pure function of value bit patterns, so merges are
// order-insensitive even on bit-distinct ties.
func totalKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

// totalLess is "a sorts strictly before b" in IEEE total order.
func totalLess(a, b float64) bool { return totalKey(a) < totalKey(b) }

// itemLess orders retained items canonically: total-order value, then hash.
func itemLess(a, b sketchItem) bool {
	ka, kb := totalKey(a.v), totalKey(b.v)
	if ka != kb {
		return ka < kb
	}
	return a.h < b.h
}

// survives reports whether an item with hash h is retained at level theta:
// its top theta bits must be zero (probability 2^-theta).
func survives(h uint64, theta uint8) bool {
	return theta == 0 || h>>(64-uint(theta)) == 0
}

// Add ingests one value. It panics on NaN or ±Inf — measurements are finite
// by the measure layer's validation, and a non-finite value would poison the
// canonical encoding.
func (s *Sketch) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic("stats: Sketch.Add of non-finite value")
	}
	h := xrand.Mix(s.seed, s.count)
	s.count++
	if s.n == 0 {
		s.min, s.max = v, v
	} else {
		if totalLess(v, s.min) {
			s.min = v
		}
		if totalLess(s.max, v) {
			s.max = v
		}
	}
	s.n++
	s.invalidate()
	if !survives(h, s.theta) {
		return
	}
	s.insert(sketchItem{v: v, h: h})
	if len(s.items) > s.k {
		s.compact()
	}
}

// insert places it into the canonically sorted retained slice.
func (s *Sketch) insert(it sketchItem) {
	i := sort.Search(len(s.items), func(i int) bool { return itemLess(it, s.items[i]) })
	s.items = append(s.items, sketchItem{})
	copy(s.items[i+1:], s.items[i:])
	s.items[i] = it
}

// compact raises theta until at most k items survive, re-filtering the
// retained slice in place. Filtering the retained set alone is exact: any
// item of the full stream surviving theta+1 also survives theta and is
// therefore already retained. The 63 cap is unreachable for any real stream
// (survival probability 2^-63) but keeps the shift defined.
func (s *Sketch) compact() {
	for len(s.items) > s.k && s.theta < 63 {
		s.theta++
		kept := s.items[:0]
		for _, it := range s.items {
			if survives(it.h, s.theta) {
				kept = append(kept, it)
			}
		}
		s.items = kept
	}
}

// Merge folds o into s. The two sketches must share k. Merging is
// associative, commutative and order-insensitive: any merge tree over the
// same ingest streams yields bit-identical state. o is not modified
// (merging a sketch into itself is allowed and doubles its counts).
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil {
		return errors.New("stats: Merge of nil sketch")
	}
	if s.k != o.k {
		return fmt.Errorf("stats: sketch k mismatch: %d vs %d", s.k, o.k)
	}
	if o.n == 0 {
		return nil
	}
	on := o.n // read before any aliasing mutation (o may be s)
	omin, omax := o.min, o.max
	if s.n == 0 {
		s.items = append(s.items[:0], o.items...)
		s.theta = o.theta
		s.n, s.min, s.max = on, omin, omax
		s.invalidate()
		return nil
	}
	theta := s.theta
	if o.theta > theta {
		theta = o.theta
	}
	merged := make([]sketchItem, 0, len(s.items)+len(o.items))
	i, j := 0, 0
	for i < len(s.items) && j < len(o.items) {
		if itemLess(o.items[j], s.items[i]) {
			merged = append(merged, o.items[j])
			j++
		} else {
			merged = append(merged, s.items[i])
			i++
		}
	}
	merged = append(merged, s.items[i:]...)
	merged = append(merged, o.items[j:]...)
	// Re-filter under the joint level (items from the lower-level side may
	// not survive it), then compact to capacity; starting from
	// max(theta_s, theta_o) is exact because the minimal admissible level
	// of a union is never below either side's.
	s.theta = theta
	kept := merged[:0]
	for _, it := range merged {
		if survives(it.h, theta) {
			kept = append(kept, it)
		}
	}
	s.items = kept
	if len(s.items) > s.k {
		s.compact()
	}
	s.n += on
	if totalLess(omin, s.min) {
		s.min = omin
	}
	if totalLess(s.max, omax) {
		s.max = omax
	}
	s.invalidate()
	return nil
}

// invalidate drops the cached estimation array after a mutation.
func (s *Sketch) invalidate() {
	s.est = nil
}

// estArray returns the sorted array Quantile interpolates over, building and
// caching it on first use: the retained values alone while theta == 0 (the
// exact stream), or bracketed by the exact extremes once sampling has begun.
func (s *Sketch) estArray() []float64 {
	s.estMu.Lock()
	defer s.estMu.Unlock()
	if s.est != nil {
		return s.est
	}
	if s.theta == 0 {
		est := make([]float64, len(s.items))
		for i, it := range s.items {
			est[i] = it.v
		}
		s.est = est
		return est
	}
	est := make([]float64, 0, len(s.items)+2)
	est = append(est, s.min)
	for _, it := range s.items {
		est = append(est, it.v)
	}
	est = append(est, s.max)
	s.est = est
	return est
}

// Quantile returns the estimated q-th quantile. It is monotone
// non-decreasing in q, exact at the endpoints (Quantile(0) == MinValue,
// Quantile(1) == MaxValue) and exact everywhere while theta == 0; otherwise
// its rank error is bounded by SketchEpsilon(k). Returns NaN for an empty
// sketch or q outside [0, 1].
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	return QuantileSorted(s.estArray(), q)
}

// N returns the exact number of ingested values.
func (s *Sketch) N() uint64 { return s.n }

// K returns the retained-item capacity.
func (s *Sketch) K() int { return s.k }

// Theta returns the current survival level; each retained item stands for
// 2^Theta ingested values.
func (s *Sketch) Theta() int { return int(s.theta) }

// Retained returns the number of currently retained items (<= K).
func (s *Sketch) Retained() int { return len(s.items) }

// MinValue returns the exact minimum ingested value (NaN when empty).
func (s *Sketch) MinValue() float64 { return s.min }

// MaxValue returns the exact maximum ingested value (NaN when empty).
func (s *Sketch) MaxValue() float64 { return s.max }

// Mean returns the estimated mean: the unweighted average of the retained
// items (each stands for the same 2^theta values), exact while theta == 0.
// Like every estimate it is a pure function of the canonical state, so it
// survives encode/decode and merge reordering unchanged. Returns NaN when
// empty; an (improbable) sketch whose retained set emptied under compaction
// falls back to the midrange.
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if len(s.items) == 0 {
		return (s.min + s.max) / 2
	}
	var sum float64
	for _, it := range s.items {
		sum += it.v
	}
	return sum / float64(len(s.items))
}

// Wire layout: magic, k, theta, count, n, min, max, count*(v, h), all
// big-endian fixed width.
var sketchMagic = [4]byte{'R', 'P', 'Q', '1'}

// sketchHeaderLen is the byte length of the fixed header.
const sketchHeaderLen = 4 + 4 + 1 + 4 + 8 + 8 + 8

// sketchItemLen is the byte length of one encoded item.
const sketchItemLen = 16

// MarshalBinary returns the canonical encoding of the sketch's distribution
// state. The ingest-stream key (seed, counter) is deliberately excluded: it
// is provenance of the writer, not of the summarized distribution, and
// excluding it is what lets differently-streamed sketches merge into one
// canonical state.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, sketchHeaderLen+len(s.items)*sketchItemLen))
}

// AppendBinary appends the MarshalBinary encoding to b.
func (s *Sketch) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, sketchMagic[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(s.k))
	b = append(b, s.theta)
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.items)))
	b = binary.BigEndian.AppendUint64(b, s.n)
	if s.n == 0 {
		b = binary.BigEndian.AppendUint64(b, 0)
		b = binary.BigEndian.AppendUint64(b, 0)
	} else {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(s.min))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(s.max))
	}
	for _, it := range s.items {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(it.v))
		b = binary.BigEndian.AppendUint64(b, it.h)
	}
	return b, nil
}

// DecodeSketch parses and strictly validates a MarshalBinary encoding:
// magic, bounds, exact length, survivor consistency, canonical item order
// and extreme consistency are all enforced, so decode→encode is a byte-level
// fixed point and a decoded sketch is always internally consistent. The
// decoded sketch carries no ingest-stream key; it is meant for reading and
// merging (Add to it derives hashes from the zero stream).
func DecodeSketch(b []byte) (*Sketch, error) {
	if len(b) < sketchHeaderLen {
		return nil, fmt.Errorf("stats: sketch encoding truncated at %d bytes", len(b))
	}
	if [4]byte(b[:4]) != sketchMagic {
		return nil, errors.New("stats: bad sketch magic")
	}
	k := binary.BigEndian.Uint32(b[4:8])
	theta := b[8]
	count := binary.BigEndian.Uint32(b[9:13])
	n := binary.BigEndian.Uint64(b[13:21])
	minBits := binary.BigEndian.Uint64(b[21:29])
	maxBits := binary.BigEndian.Uint64(b[29:37])
	if k < 1 || k > MaxSketchK {
		return nil, fmt.Errorf("stats: sketch k %d out of range", k)
	}
	if theta > 63 {
		return nil, fmt.Errorf("stats: sketch theta %d out of range", theta)
	}
	if uint64(count) > uint64(k) {
		return nil, fmt.Errorf("stats: sketch retains %d items over capacity %d", count, k)
	}
	if uint64(count) > n {
		return nil, fmt.Errorf("stats: sketch retains %d items of %d ingested", count, n)
	}
	if len(b) != sketchHeaderLen+int(count)*sketchItemLen {
		return nil, fmt.Errorf("stats: sketch encoding is %d bytes, want %d", len(b), sketchHeaderLen+int(count)*sketchItemLen)
	}
	s := &Sketch{k: int(k), theta: theta, n: n}
	if n == 0 {
		if theta != 0 || minBits != 0 || maxBits != 0 {
			return nil, errors.New("stats: empty sketch with non-zero state")
		}
		s.min, s.max = math.NaN(), math.NaN()
		return s, nil
	}
	s.min = math.Float64frombits(minBits)
	s.max = math.Float64frombits(maxBits)
	if math.IsNaN(s.min) || math.IsInf(s.min, 0) || math.IsNaN(s.max) || math.IsInf(s.max, 0) {
		return nil, errors.New("stats: sketch extremes are not finite")
	}
	if totalLess(s.max, s.min) {
		return nil, errors.New("stats: sketch max below min")
	}
	if theta == 0 && uint64(count) != n {
		return nil, fmt.Errorf("stats: uncompacted sketch retains %d of %d values", count, n)
	}
	s.items = make([]sketchItem, count)
	for i := range s.items {
		off := sketchHeaderLen + i*sketchItemLen
		v := math.Float64frombits(binary.BigEndian.Uint64(b[off : off+8]))
		h := binary.BigEndian.Uint64(b[off+8 : off+16])
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("stats: sketch item %d is not finite", i)
		}
		if totalLess(v, s.min) || totalLess(s.max, v) {
			return nil, fmt.Errorf("stats: sketch item %d outside [min, max]", i)
		}
		if !survives(h, theta) {
			return nil, fmt.Errorf("stats: sketch item %d does not survive level %d", i, theta)
		}
		it := sketchItem{v: v, h: h}
		if i > 0 && itemLess(it, s.items[i-1]) {
			return nil, fmt.Errorf("stats: sketch items out of canonical order at %d", i)
		}
		s.items[i] = it
	}
	if theta == 0 && count > 0 {
		if math.Float64bits(s.items[0].v) != minBits || math.Float64bits(s.items[count-1].v) != maxBits {
			return nil, errors.New("stats: uncompacted sketch extremes disagree with items")
		}
	}
	return s, nil
}

// MarshalJSON encodes the sketch as a base64 string of its canonical binary
// form, the representation the result wire format embeds.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	b, err := s.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return json.Marshal(base64.StdEncoding.EncodeToString(b))
}

// UnmarshalJSON decodes the MarshalJSON form, with DecodeSketch's strict
// validation.
func (s *Sketch) UnmarshalJSON(b []byte) error {
	var enc string
	if err := json.Unmarshal(b, &enc); err != nil {
		return fmt.Errorf("stats: sketch JSON: %w", err)
	}
	raw, err := base64.StdEncoding.DecodeString(enc)
	if err != nil {
		return fmt.Errorf("stats: sketch JSON base64: %w", err)
	}
	dec, err := DecodeSketch(raw)
	if err != nil {
		return err
	}
	// Field-wise assignment: copying the struct would copy estMu.
	s.k, s.seed, s.count, s.theta = dec.k, dec.seed, dec.count, dec.theta
	s.items, s.n, s.min, s.max = dec.items, dec.n, dec.min, dec.max
	s.invalidate()
	return nil
}
