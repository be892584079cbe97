//! The metrics registry and span timing.
//!
//! Registration takes a short-lived lock and returns an `Arc` handle;
//! every subsequent update through the handle is a handful of relaxed
//! atomic operations — no locks, no allocation — which is what lets the
//! 1 kHz simulation loops stay instrumented. Snapshots render the whole
//! registry as one JSON object with sorted, stable key order.

use crate::clock::Clock;
use crate::json::Json;
use crate::metrics::{Counter, Gauge, SharedHistogram};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

#[derive(Default)]
struct Metrics {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<SharedHistogram>>,
}

struct RegistryInner {
    clock: Clock,
    metrics: Mutex<Metrics>,
}

/// A named collection of counters, gauges and histograms sharing one
/// [`Clock`].
///
/// Cloning a `Registry` is cheap and yields a handle onto the *same*
/// metrics — what lets a server hold its registry for live `stats`
/// snapshots while the caller keeps updating it.
///
/// # Example
///
/// ```
/// use drone_telemetry::Registry;
/// let registry = Registry::with_wall_clock();
/// let steps = registry.counter("sim.steps");
/// steps.inc();
/// {
///     let _timer = registry.span("ekf.update");
///     // ... work ...
/// }
/// let snapshot = registry.snapshot();
/// assert!(snapshot.render().contains("sim.steps"));
/// ```
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// A registry over the given clock.
    pub fn new(clock: Clock) -> Registry {
        Registry {
            inner: Arc::new(RegistryInner {
                clock,
                metrics: Mutex::new(Metrics::default()),
            }),
        }
    }

    /// A registry timing spans against real (monotonic) time.
    pub fn with_wall_clock() -> Registry {
        Registry::new(Clock::wall())
    }

    /// A registry timing spans against an explicitly advanced sim clock.
    pub fn with_sim_clock() -> Registry {
        Registry::new(Clock::sim())
    }

    /// The registry's time source.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// The counter with this name, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.inner.metrics.lock().expect("registry lock");
        match metrics.counters.get(name) {
            Some(handle) => Arc::clone(handle),
            None => {
                let handle = Arc::new(Counter::new());
                metrics
                    .counters
                    .insert(name.to_owned(), Arc::clone(&handle));
                handle
            }
        }
    }

    /// The gauge with this name, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.inner.metrics.lock().expect("registry lock");
        match metrics.gauges.get(name) {
            Some(handle) => Arc::clone(handle),
            None => {
                let handle = Arc::new(Gauge::new());
                metrics.gauges.insert(name.to_owned(), Arc::clone(&handle));
                handle
            }
        }
    }

    /// The histogram with this name, created on first use. Hot paths
    /// should call this once and keep the handle.
    pub fn histogram(&self, name: &str) -> Arc<SharedHistogram> {
        let mut metrics = self.inner.metrics.lock().expect("registry lock");
        match metrics.histograms.get(name) {
            Some(handle) => Arc::clone(handle),
            None => {
                let handle = Arc::new(SharedHistogram::new());
                metrics
                    .histograms
                    .insert(name.to_owned(), Arc::clone(&handle));
                handle
            }
        }
    }

    /// Starts a timing span recording into the named histogram on drop.
    pub fn span(&self, name: &str) -> SpanGuard {
        SpanGuard::enter(self.histogram(name), self.inner.clock.clone())
    }

    /// One stable JSON object for everything:
    /// `{counters: {...}, gauges: {...}, histograms: {...}}`, keys
    /// sorted by metric name.
    pub fn snapshot(&self) -> Json {
        let metrics = self.inner.metrics.lock().expect("registry lock");
        let mut counters = Json::obj();
        for (name, counter) in &metrics.counters {
            counters.insert(name, counter.get());
        }
        let mut gauges = Json::obj();
        for (name, gauge) in &metrics.gauges {
            gauges.insert(name, gauge.get());
        }
        let mut histograms = Json::obj();
        for (name, histogram) in &metrics.histograms {
            histograms.insert(name, histogram.snapshot().to_json());
        }
        Json::obj()
            .with("counters", counters)
            .with("gauges", gauges)
            .with("histograms", histograms)
    }

    /// Zeroes every metric but keeps registrations (and outstanding
    /// handles) alive — what `repro` does between experiments.
    pub fn reset(&self) {
        let metrics = self.inner.metrics.lock().expect("registry lock");
        for counter in metrics.counters.values() {
            counter.reset();
        }
        for gauge in metrics.gauges.values() {
            gauge.reset();
        }
        for histogram in metrics.histograms.values() {
            histogram.reset();
        }
    }
}

/// The process-wide default registry (wall clock). Library code takes a
/// `&Registry` so tests can isolate, but binaries and macros default to
/// this one.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::with_wall_clock)
}

/// An RAII timing guard: measures from construction to drop on the
/// owning registry's clock and records the elapsed seconds into a
/// histogram. Guards nest naturally — an enclosing span includes the
/// time of every span opened inside it.
#[must_use = "a span guard records on drop; binding it to _ measures nothing"]
pub struct SpanGuard {
    histogram: Arc<SharedHistogram>,
    clock: Clock,
    start: f64,
}

impl SpanGuard {
    fn enter(histogram: Arc<SharedHistogram>, clock: Clock) -> SpanGuard {
        let start = clock.now();
        SpanGuard {
            histogram,
            clock,
            start,
        }
    }

    /// Seconds elapsed so far (without closing the span).
    pub fn elapsed(&self) -> f64 {
        self.clock.now() - self.start
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.histogram.record(self.clock.now() - self.start);
    }
}

/// Opens a timing span: `span!("name")` on the global registry, or
/// `span!(registry, "name")` on a specific one. Bind the result to keep
/// it alive for the region being timed:
///
/// ```
/// use drone_telemetry::{span, Registry};
/// let registry = Registry::with_wall_clock();
/// let _timing = span!(&registry, "slam.local_ba");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::global().span($name)
    };
    ($registry:expr, $name:expr) => {
        ($registry).span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_handle() {
        let registry = Registry::with_wall_clock();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_has_sorted_stable_keys() {
        let registry = Registry::with_wall_clock();
        registry.counter("zeta").add(1);
        registry.counter("alpha").add(2);
        registry.gauge("mid").set(0.5);
        let snapshot = registry.snapshot();
        let counters = snapshot.get("counters").unwrap().as_obj().unwrap();
        let names: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }

    #[test]
    fn spans_record_sim_time() {
        let registry = Registry::with_sim_clock();
        {
            let guard = registry.span("phase");
            registry.clock().advance(0.125);
            assert_eq!(guard.elapsed(), 0.125);
        }
        let hist = registry.histogram("phase").snapshot();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max(), Some(0.125));
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_live() {
        let registry = Registry::with_wall_clock();
        let counter = registry.counter("n");
        counter.add(7);
        let hist = registry.histogram("h");
        hist.record(1.0);
        registry.reset();
        assert_eq!(counter.get(), 0);
        assert_eq!(registry.histogram("h").count(), 0);
        counter.inc();
        assert_eq!(registry.counter("n").get(), 1);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global().counter("telemetry.test.global");
        a.add(3);
        assert!(global().counter("telemetry.test.global").get() >= 3);
    }

    #[test]
    fn wall_spans_measure_nonnegative_time() {
        let registry = Registry::with_wall_clock();
        {
            let _guard = span!(&registry, "tick");
        }
        let hist = registry.histogram("tick").snapshot();
        assert_eq!(hist.count(), 1);
        assert!(hist.max().unwrap() >= 0.0);
    }
}
