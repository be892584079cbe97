//! Counters, gauges and fixed-bucket log-scale histograms.
//!
//! Two histogram flavours share one bucket layout:
//!
//! * [`Histogram`] — plain single-owner data. Serializable (via
//!   [`Histogram::to_json`]), comparable, mergeable; what reports like
//!   `drone_firmware::SchedulerReport` embed.
//! * [`SharedHistogram`] — the same buckets behind atomics; what the
//!   [`Registry`](crate::Registry) hands out so hot loops can record
//!   through a shared handle without locks or allocation.
//!
//! Buckets are logarithmic — 32 per decade from 1 ns to 1 Gs — so one
//! layout covers EKF microseconds and mission-length seconds with a
//! bounded ~7 % relative quantile error. Quantiles report a bucket's
//! upper edge clamped into `[min, max]`, which makes `p100` exactly the
//! observed maximum and single-sample histograms exact at every
//! quantile.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Log-scale bucket resolution: buckets per power of ten.
pub const BUCKETS_PER_DECADE: usize = 32;
/// Decades covered: `1e-9 ..= 1e9`.
const DECADES: usize = 18;
/// Smallest distinguishable value; everything at or below it (including
/// zero and negatives) lands in the underflow bucket.
const MIN_TRACKABLE: f64 = 1e-9;
/// Total buckets: the covered decades plus underflow and overflow.
pub const BUCKET_COUNT: usize = BUCKETS_PER_DECADE * DECADES + 2;

/// The bucket a value lands in.
fn bucket_index(value: f64) -> usize {
    if value <= MIN_TRACKABLE {
        return 0;
    }
    // log10 difference (not a quotient) so huge values cannot overflow
    // the intermediate to infinity.
    let position = (value.log10() - MIN_TRACKABLE.log10()) * BUCKETS_PER_DECADE as f64;
    if position >= (BUCKET_COUNT - 2) as f64 {
        BUCKET_COUNT - 1
    } else {
        position.floor() as usize + 1
    }
}

/// Upper edge of a bucket (`+inf` for the overflow bucket).
fn bucket_upper_edge(index: usize) -> f64 {
    if index == 0 {
        MIN_TRACKABLE
    } else if index >= BUCKET_COUNT - 1 {
        f64::INFINITY
    } else {
        MIN_TRACKABLE * 10f64.powf(index as f64 / BUCKETS_PER_DECADE as f64)
    }
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Back to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins instantaneous measurement.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// A gauge reading zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Stores a new value.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Last stored value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Back to zero.
    pub fn reset(&self) {
        self.set(0.0);
    }
}

/// A plain log-scale histogram (see module docs for the layout).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. NaN samples are dropped.
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (`q` clamped into `[0, 1]`); `None` when empty.
    ///
    /// `quantile(0.0)` and `quantile(1.0)` are exactly the observed
    /// minimum and maximum; interior quantiles carry the bucket
    /// resolution (~7 % relative error).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return Some(self.max);
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (index, count) in self.buckets.iter().enumerate() {
            cumulative += count;
            if cumulative >= target {
                return Some(bucket_upper_edge(index).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Summary + sparse buckets as JSON. Stable layout:
    /// `{count, sum, min, max, mean, p50, p90, p99, buckets: [[i, n]...]}`.
    pub fn to_json(&self) -> Json {
        let mut buckets = Json::arr();
        for (index, count) in self.buckets.iter().enumerate() {
            if *count > 0 {
                buckets.push(vec![Json::from(index), Json::from(*count)]);
            }
        }
        Json::obj()
            .with("count", self.count)
            .with("sum", self.sum)
            .with("min", self.min().unwrap_or(f64::NAN))
            .with("max", self.max().unwrap_or(f64::NAN))
            .with("mean", self.mean().unwrap_or(f64::NAN))
            .with("p50", self.quantile(0.5).unwrap_or(f64::NAN))
            .with("p90", self.quantile(0.9).unwrap_or(f64::NAN))
            .with("p99", self.quantile(0.99).unwrap_or(f64::NAN))
            .with("buckets", buckets)
    }

    /// Rebuilds a histogram from [`Histogram::to_json`] output.
    /// Returns `None` on a malformed document.
    pub fn from_json(doc: &Json) -> Option<Histogram> {
        let mut hist = Histogram::new();
        hist.count = doc.get("count")?.as_f64()? as u64;
        hist.sum = doc.get("sum")?.as_f64()?;
        if hist.count > 0 {
            hist.min = doc.get("min")?.as_f64()?;
            hist.max = doc.get("max")?.as_f64()?;
        }
        for entry in doc.get("buckets")?.as_arr()? {
            let pair = entry.as_arr()?;
            let index = pair.first()?.as_f64()? as usize;
            let count = pair.get(1)?.as_f64()? as u64;
            *hist.buckets.get_mut(index)? = count;
        }
        Some(hist)
    }
}

/// The atomic counterpart of [`Histogram`]: record through a shared
/// handle (no locks, no allocation), snapshot into the plain form for
/// quantile extraction and export.
#[derive(Debug)]
pub struct SharedHistogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    /// Sum of samples, as f64 bits (CAS-updated).
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for SharedHistogram {
    fn default() -> Self {
        SharedHistogram::new()
    }
}

impl SharedHistogram {
    /// An empty histogram.
    pub fn new() -> SharedHistogram {
        SharedHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one sample. NaN samples are dropped.
    pub fn record(&self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + value).to_bits())
            });
        let _ = self
            .min_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (value < f64::from_bits(bits)).then(|| value.to_bits())
            });
        let _ = self
            .max_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (value > f64::from_bits(bits)).then(|| value.to_bits())
            });
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time plain copy (quantiles, export).
    pub fn snapshot(&self) -> Histogram {
        let mut hist = Histogram::new();
        for (mine, theirs) in hist.buckets.iter_mut().zip(&self.buckets) {
            *mine = theirs.load(Ordering::Relaxed);
        }
        hist.count = self.count.load(Ordering::Relaxed);
        hist.sum = f64::from_bits(self.sum_bits.load(Ordering::Relaxed));
        hist.min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        hist.max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        hist
    }

    /// Back to empty.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_holds_last_value() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(-3.25);
        assert_eq!(g.get(), -3.25);
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        let mut h = Histogram::new();
        h.record(0.0042);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(0.0042), "q={q}");
        }
        assert_eq!(h.mean(), Some(0.0042));
    }

    #[test]
    fn quantiles_bound_relative_error() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3); // 1 ms .. 1 s uniform
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 / 0.5 - 1.0).abs() < 0.2, "p50={p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 / 0.99 - 1.0).abs() < 0.2, "p99={p99}");
        assert_eq!(h.quantile(1.0), Some(1.0));
    }

    #[test]
    fn extremes_land_in_under_and_overflow() {
        let mut h = Histogram::new();
        h.record(-5.0);
        h.record(0.0);
        h.record(1e300);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(1.0), Some(1e300));
        assert_eq!(h.quantile(0.0), Some(-5.0));
        // NaN is dropped.
        h.record(f64::NAN);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let mut h = Histogram::new();
        for v in [0.0, 1e-6, 3.5e-3, 3.6e-3, 0.25, 7.0, 1e12] {
            h.record(v);
        }
        let doc = h.to_json();
        let back = Histogram::from_json(&doc).unwrap();
        assert_eq!(back, h);
        // And survives an actual text round-trip.
        let reparsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(Histogram::from_json(&reparsed).unwrap(), h);
    }

    #[test]
    fn empty_histogram_round_trips() {
        let h = Histogram::new();
        let back = Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn shared_histogram_matches_plain() {
        let shared = SharedHistogram::new();
        let mut plain = Histogram::new();
        for i in 0..500 {
            let v = (i as f64 * 0.37).sin().abs() * 1e-2;
            shared.record(v);
            plain.record(v);
        }
        assert_eq!(shared.snapshot(), plain);
        shared.reset();
        assert!(shared.snapshot().is_empty());
    }
}
