//! A lock-free metrics registry rendered in the Prometheus text format.
//!
//! Instrumented code holds cheap cloneable handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) whose updates are single atomic operations — no lock is
//! ever taken on a request path. The [`MetricsRegistry`] itself only locks
//! at registration time and when a scrape renders the families, and
//! registration is idempotent: asking for an existing `(name, labels)`
//! series returns a handle to the same underlying cells, so two subsystems
//! can safely register the same counter.
//!
//! *Pull* metrics — values owned by another subsystem (session counts, WAL
//! fsyncs, cache hits) — are bridged with collector closures
//! ([`MetricsRegistry::register_collector`]): each render runs the
//! collectors first, which refresh gauges ([`Gauge::set`]) or advance
//! mirror counters monotonically ([`Counter::raise_to`]).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// A monotonically increasing counter. By Prometheus convention the family
/// name should end in `_total`.
#[derive(Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    fn new() -> Self {
        Counter { value: Arc::new(AtomicU64::new(0)) }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to `v` if it is currently below it (and never
    /// lowers it). This mirrors an external monotonic source — e.g. a WAL's
    /// own fsync tally — into the registry without double counting.
    pub fn raise_to(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous value that can go up and down.
#[derive(Clone)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    fn new() -> Self {
        Gauge { value: Arc::new(AtomicI64::new(0)) }
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Default latency buckets (seconds): 50µs to 2.5s, roughly exponential —
/// the generic fallback for histograms without a tuned family below.
pub const DEFAULT_LATENCY_BUCKETS: [f64; 12] =
    [0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.1, 0.5, 2.5];

/// Read-request latency buckets (seconds), log-scaled at half-decade
/// steps across the distribution the `read_hot` workload of
/// `BENCHMARK.json` actually measures: in-memory tree reads land in the tens of microseconds, the
/// secure (enclave) pipeline in the hundreds, and a read parked behind
/// an election can reach seconds.
pub const READ_LATENCY_BUCKETS: [f64; 12] =
    [0.00001, 0.0000316, 0.0001, 0.000316, 0.001, 0.00316, 0.01, 0.0316, 0.1, 0.316, 1.0, 3.16];

/// Write-request latency buckets (seconds), log-scaled at half-decade
/// steps from 100µs: replicated writes are quorum- and fsync-bound
/// (`write_quorum` measures ~1 ms medians on durable members), with a
/// long tail under group-commit stalls and leader failover.
pub const WRITE_LATENCY_BUCKETS: [f64; 12] =
    [0.0001, 0.000316, 0.001, 0.00316, 0.01, 0.0316, 0.1, 0.316, 1.0, 3.16, 10.0, 31.6];

/// Pipeline-stage duration buckets (seconds), log-scaled ×4 from 500ns:
/// individual stages range from sub-microsecond (queue handoff, apply)
/// through enclave seal/open (tens of µs) up to fsync batches and quorum
/// waits (ms), far below whole-request latency.
pub const STAGE_DURATION_BUCKETS: [f64; 12] = [
    0.0000005, 0.000002, 0.000008, 0.000032, 0.000128, 0.000512, 0.002048, 0.008192, 0.032768,
    0.131072, 0.524288, 2.097152,
];

struct HistogramCells {
    /// Upper bounds of the finite buckets, ascending; an implicit `+Inf`
    /// bucket follows.
    bounds: Vec<f64>,
    /// One count per finite bound plus the `+Inf` bucket (non-cumulative;
    /// render accumulates).
    counts: Vec<AtomicU64>,
    sum_nanos: AtomicU64,
}

/// A histogram of observations (typically latencies, in seconds).
#[derive(Clone)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            cells: Arc::new(HistogramCells {
                bounds: bounds.to_vec(),
                counts,
                sum_nanos: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation of `seconds`.
    pub fn observe(&self, seconds: f64) {
        let index = self
            .cells
            .bounds
            .iter()
            .position(|&bound| seconds <= bound)
            .unwrap_or(self.cells.bounds.len());
        self.cells.counts[index].fetch_add(1, Ordering::Relaxed);
        let nanos = (seconds * 1e9).max(0.0) as u64;
        self.cells.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records one observed duration.
    pub fn observe_duration(&self, duration: Duration) {
        self.observe(duration.as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.cells.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations, in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.cells.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }
}

#[derive(Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Family {
    name: String,
    help: String,
    kind: &'static str,
    series: Vec<(Vec<(String, String)>, Series)>,
}

/// The registry: families in registration order, plus the collector
/// closures that refresh pull-metrics before each render.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<Family>>,
    #[allow(clippy::type_complexity)]
    collectors: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or retrieves) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, &[], help)
    }

    /// Registers (or retrieves) a counter with labels.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind —
    /// a startup-time programming error.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        match self.series(name, labels, help, "counter", || Series::Counter(Counter::new())) {
            Series::Counter(counter) => counter,
            _ => unreachable!("kind checked in series()"),
        }
    }

    /// Registers (or retrieves) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, &[], help)
    }

    /// Registers (or retrieves) a gauge with labels.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        match self.series(name, labels, help, "gauge", || Series::Gauge(Gauge::new())) {
            Series::Gauge(gauge) => gauge,
            _ => unreachable!("kind checked in series()"),
        }
    }

    /// Registers (or retrieves) an unlabelled histogram with the given
    /// finite bucket bounds (ascending, in seconds; `+Inf` is implicit).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, &[], help, bounds)
    }

    /// Registers (or retrieves) a histogram with labels.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        bounds: &[f64],
    ) -> Histogram {
        match self
            .series(name, labels, help, "histogram", || Series::Histogram(Histogram::new(bounds)))
        {
            Series::Histogram(histogram) => histogram,
            _ => unreachable!("kind checked in series()"),
        }
    }

    fn series(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        kind: &'static str,
        make: impl FnOnce() -> Series,
    ) -> Series {
        let labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let mut families = self.families.lock();
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(family) => {
                assert_eq!(
                    family.kind, kind,
                    "metric {name} registered as both {} and {kind}",
                    family.kind
                );
                family
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some((_, series)) = family.series.iter().find(|(l, _)| *l == labels) {
            return series.clone();
        }
        let series = make();
        family.series.push((labels, series.clone()));
        series
    }

    /// Registers a collector closure run before every render to refresh
    /// pull-metrics. Collectors must only touch metric handles (never the
    /// registry itself) — they run outside the registry lock.
    pub fn register_collector(&self, collector: impl Fn() + Send + Sync + 'static) {
        self.collectors.lock().push(Box::new(collector));
    }

    fn run_collectors(&self) {
        // Swap the list out so a collector that (indirectly) renders cannot
        // deadlock on this mutex.
        let collectors = std::mem::take(&mut *self.collectors.lock());
        for collector in &collectors {
            collector();
        }
        let mut slot = self.collectors.lock();
        let mut restored = collectors;
        restored.append(&mut slot);
        *slot = restored;
    }

    /// Names of every registered family, in registration order.
    pub fn family_names(&self) -> Vec<String> {
        self.families.lock().iter().map(|f| f.name.clone()).collect()
    }

    /// Renders the Prometheus text exposition format (version 0.0.4).
    pub fn render(&self) -> String {
        self.run_collectors();
        let families = self.families.lock();
        let mut out = String::with_capacity(4096);
        for family in families.iter() {
            out.push_str(&format!("# HELP {} {}\n", family.name, family.help));
            out.push_str(&format!("# TYPE {} {}\n", family.name, family.kind));
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(counter) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            family.name,
                            render_labels(labels, None),
                            counter.get()
                        ));
                    }
                    Series::Gauge(gauge) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            family.name,
                            render_labels(labels, None),
                            gauge.get()
                        ));
                    }
                    Series::Histogram(histogram) => {
                        let cells = &histogram.cells;
                        let mut cumulative = 0u64;
                        for (index, bound) in cells.bounds.iter().enumerate() {
                            cumulative += cells.counts[index].load(Ordering::Relaxed);
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                family.name,
                                render_labels(labels, Some(&format_bound(*bound))),
                                cumulative
                            ));
                        }
                        cumulative += cells.counts[cells.bounds.len()].load(Ordering::Relaxed);
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            family.name,
                            render_labels(labels, Some("+Inf")),
                            cumulative
                        ));
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            family.name,
                            render_labels(labels, None),
                            histogram.sum_seconds()
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            family.name,
                            render_labels(labels, None),
                            cumulative
                        ));
                    }
                }
            }
        }
        out
    }

    /// Flattens every series to `(name_with_labels, value)` pairs — the
    /// representation the `mntr` admin word dumps, one key per line.
    /// Histograms contribute their `_count` and `_sum`. Collectors run
    /// first, exactly as for [`render`](Self::render).
    pub fn flatten(&self) -> Vec<(String, f64)> {
        self.run_collectors();
        let families = self.families.lock();
        let mut out = Vec::new();
        for family in families.iter() {
            for (labels, series) in &family.series {
                let key = format!("{}{}", family.name, render_labels(labels, None));
                match series {
                    Series::Counter(counter) => out.push((key, counter.get() as f64)),
                    Series::Gauge(gauge) => out.push((key, gauge.get() as f64)),
                    Series::Histogram(histogram) => {
                        out.push((format!("{key}_count"), histogram.count() as f64));
                        out.push((format!("{key}_sum"), histogram.sum_seconds()));
                    }
                }
            }
        }
        out
    }
}

/// Renders a label set (plus the optional `le` bucket label) as
/// `{k="v",...}`, or the empty string for no labels.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Formats a bucket bound the way Prometheus clients expect (no trailing
/// zeros beyond what `{}` prints for f64).
fn format_bound(bound: f64) -> String {
    format!("{bound}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let registry = MetricsRegistry::new();
        let requests = registry.counter("zk_requests_total", "Requests served.");
        let sessions = registry.gauge("zk_sessions_active", "Active sessions.");
        requests.inc();
        requests.add(2);
        sessions.set(7);
        let text = registry.render();
        assert!(text.contains("# TYPE zk_requests_total counter"));
        assert!(text.contains("zk_requests_total 3"));
        assert!(text.contains("# TYPE zk_sessions_active gauge"));
        assert!(text.contains("zk_sessions_active 7"));
    }

    #[test]
    fn labelled_series_share_one_family_header() {
        let registry = MetricsRegistry::new();
        registry.counter_with("zk_ops_total", &[("class", "read")], "Ops.").inc();
        registry.counter_with("zk_ops_total", &[("class", "write")], "Ops.").add(5);
        let text = registry.render();
        assert_eq!(text.matches("# TYPE zk_ops_total counter").count(), 1);
        assert!(text.contains("zk_ops_total{class=\"read\"} 1"));
        assert!(text.contains("zk_ops_total{class=\"write\"} 5"));
    }

    #[test]
    fn registration_is_idempotent() {
        let registry = MetricsRegistry::new();
        let first = registry.counter("zk_x_total", "X.");
        let second = registry.counter("zk_x_total", "X.");
        first.inc();
        second.inc();
        assert_eq!(first.get(), 2);
        assert_eq!(registry.family_names(), vec!["zk_x_total".to_string()]);
    }

    #[test]
    #[should_panic(expected = "registered as both")]
    fn kind_conflicts_panic() {
        let registry = MetricsRegistry::new();
        registry.counter("zk_conflict", "A.");
        registry.gauge("zk_conflict", "B.");
    }

    #[test]
    fn histogram_buckets_accumulate() {
        let registry = MetricsRegistry::new();
        let latency = registry.histogram("zk_latency_seconds", "Latency.", &[0.001, 0.01, 0.1]);
        latency.observe(0.0005);
        latency.observe(0.005);
        latency.observe(5.0);
        assert_eq!(latency.count(), 3);
        let text = registry.render();
        assert!(text.contains("zk_latency_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("zk_latency_seconds_bucket{le=\"0.01\"} 2"));
        assert!(text.contains("zk_latency_seconds_bucket{le=\"0.1\"} 2"));
        assert!(text.contains("zk_latency_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("zk_latency_seconds_count 3"));
    }

    #[test]
    fn raise_to_is_monotonic() {
        let registry = MetricsRegistry::new();
        let mirror = registry.counter("zk_wal_fsyncs_total", "Fsyncs.");
        mirror.raise_to(10);
        mirror.raise_to(4);
        mirror.raise_to(12);
        assert_eq!(mirror.get(), 12);
    }

    #[test]
    fn collectors_refresh_before_render_and_flatten() {
        let registry = MetricsRegistry::new();
        let gauge = registry.gauge("zk_znodes", "Znodes.");
        let source = Arc::new(AtomicU64::new(41));
        let feed = Arc::clone(&source);
        let handle = gauge.clone();
        registry.register_collector(move || handle.set(feed.load(Ordering::Relaxed) as i64));
        source.store(42, Ordering::Relaxed);
        assert!(registry.render().contains("zk_znodes 42"));
        source.store(43, Ordering::Relaxed);
        let flat = registry.flatten();
        assert!(flat.contains(&("zk_znodes".to_string(), 43.0)));
    }

    #[test]
    fn concurrent_updates_do_not_lose_increments() {
        let registry = Arc::new(MetricsRegistry::new());
        let counter = registry.counter("zk_c_total", "C.");
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let counter = counter.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        counter.inc();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(counter.get(), 80_000);
    }
}
