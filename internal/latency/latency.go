// Package latency provides the fixed-bucket duration histogram
// behind the serving tier's observability: zngd's per-endpoint
// p50/p95/p99 gauges in /metrics, the service's per-simulation
// latency estimate feeding Retry-After on 429s, and zngload's
// client-side quantile report.
//
// The histogram is deliberately not part of the deterministic
// simulation core, which has no histogram: it measures wall-clock
// serving latency, which only the serving layer may observe —
// znglint's determinism analyzer keeps time.Now out of the simulation
// packages, and this package never reads the clock itself (callers
// observe durations they measured).
//
// Buckets are fixed powers of two from 1 µs up, so recording is one
// atomic increment with no allocation, histograms from different
// sources merge bucket-by-bucket, and quantile estimates are exact to
// bucket resolution (a linear interpolation within the bucket bounds
// the error to the bucket's width).
package latency

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets covers 1 µs .. ~134 s in doubling steps; the last bucket
// is open-ended, so slower observations saturate rather than vanish.
const numBuckets = 28

// bucketFloor is the lower bound of bucket 0.
const bucketFloor = time.Microsecond

// Histogram counts duration observations in fixed exponential
// buckets. The zero value is ready to use. All methods are safe for
// concurrent use; recording is a single atomic add.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	// sum accumulates total observed nanoseconds, for Mean.
	sum atomic.Uint64
}

// bucketIndex maps a duration to its bucket: bucket i holds
// observations in [1µs·2^i, 1µs·2^(i+1)), bucket 0 additionally
// catches everything faster, the last bucket everything slower.
func bucketIndex(d time.Duration) int {
	if d < bucketFloor {
		return 0
	}
	i := bits.Len64(uint64(d/bucketFloor)) - 1
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// bucketLow returns bucket i's inclusive lower bound.
func bucketLow(i int) time.Duration {
	if i == 0 {
		return 0
	}
	return bucketFloor << uint(i)
}

// bucketHigh returns bucket i's exclusive upper bound.
func bucketHigh(i int) time.Duration {
	return bucketFloor << uint(i+1)
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(d)].Add(1)
	h.sum.Add(uint64(d))
}

// Count reports the number of observations recorded.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum reports the total of every observed duration — with Count and
// Buckets, the exported surface the Prometheus emitter renders
// (_sum/_count/_bucket) without reaching into histogram internals.
func (h *Histogram) Sum() time.Duration {
	return time.Duration(h.sum.Load())
}

// InfUpper is the Upper sentinel of the final cumulative bucket — the
// histogram's open-ended "+Inf" bound.
const InfUpper = time.Duration(math.MaxInt64)

// Bucket is one cumulative bucket: Count observations were <= Upper.
// The last bucket's Upper is InfUpper and its Count equals Count().
type Bucket struct {
	Upper time.Duration
	Count uint64
}

// Buckets snapshots the histogram as cumulative upper-bound buckets,
// Prometheus-style. Counts are read once per bucket, so a snapshot
// under concurrent recording is approximate to in-flight traffic but
// never decreasing across buckets.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, numBuckets)
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = Bucket{Upper: bucketHigh(i), Count: cum}
	}
	// The final bucket is open-ended: everything slower than the
	// second-to-last bound saturated into it.
	out[numBuckets-1].Upper = InfUpper
	return out
}

// Mean reports the average observed duration (0 with no
// observations).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile estimates the q-th quantile (0 < q <= 1) by walking the
// cumulative bucket counts and interpolating linearly inside the
// bucket the quantile lands in, so the estimate is within one bucket
// width of the true value. It returns 0 when the histogram is empty
// or q is out of range.
func (h *Histogram) Quantile(q float64) time.Duration {
	if q <= 0 || q > 1 {
		return 0
	}
	// Snapshot the counts once so a concurrent Observe cannot make the
	// cumulative walk disagree with the total.
	var counts [numBuckets]uint64
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	// rank is the 1-based index of the observation the quantile names.
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range counts {
		if seen+c < rank {
			seen += c
			continue
		}
		lo, hi := bucketLow(i), bucketHigh(i)
		// Interpolate by the rank's position within this bucket.
		frac := float64(rank-seen) / float64(c)
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return bucketHigh(numBuckets - 1) // unreachable: total covers all buckets
}

// Merge adds every observation of o into h (o is read atomically,
// bucket by bucket; h keeps receiving concurrent observations).
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.sum.Add(o.sum.Load())
}

// Reset zeroes the histogram. Concurrent observations interleaved
// with the reset land wholly before or wholly after it per bucket;
// the histogram never goes negative.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}

// Snapshot is a self-contained JSON-ready summary of one histogram.
type Snapshot struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// Snapshot summarizes the histogram's current state. The three
// quantiles and the count come from one pass each, so a snapshot
// taken under concurrent recording is approximate to the traffic in
// flight, never torn per bucket.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count:  h.Count(),
		MeanMS: roundMS(h.Mean()),
		P50MS:  roundMS(h.Quantile(0.50)),
		P95MS:  roundMS(h.Quantile(0.95)),
		P99MS:  roundMS(h.Quantile(0.99)),
	}
}

// roundMS renders a duration as milliseconds with microsecond
// precision, the resolution /metrics publishes.
func roundMS(d time.Duration) float64 {
	return float64(d.Round(time.Microsecond)) / float64(time.Millisecond)
}

// String renders the summary for logs and error messages.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms",
		s.Count, s.MeanMS, s.P50MS, s.P95MS, s.P99MS)
}
