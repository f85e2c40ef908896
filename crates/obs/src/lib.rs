//! Zero-dependency observability primitives for the 3Sigma reproduction.
//!
//! The design goal is a recorder that is safe to leave compiled into the
//! scheduling hot path: every handle is a pre-resolved `Arc` around plain
//! atomics, updates are `Ordering::Relaxed` fetch-adds (no locks, no
//! formatting, no allocation), and a disabled [`Recorder`] hands out
//! disconnected handles whose operations are a single branch. Registration
//! takes a `Mutex`, but registration happens once at setup time — never
//! per cycle, never per option.
//!
//! Three metric kinds, mirroring the Prometheus data model:
//!
//! * [`Counter`] — monotonically increasing `u64` (events, totals);
//! * [`Gauge`] — last-write-wins `f64` (queue depth, utilization);
//! * [`Histogram`] — fixed-bucket distribution with sum and count
//!   (latencies; see [`Recorder::timer`]).
//!
//! Determinism is a first-class concern: metrics registered through
//! [`Recorder::timer`] are marked *unstable* (wall-clock dependent) and
//! excluded from [`Snapshot::to_stable_json`], so the JSON dump of a
//! fixed-seed run is byte-identical across machines and runs while the
//! Prometheus text still carries the timing detail.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Bucket upper bounds (seconds) used by [`Recorder::timer`]: 1µs to 10s,
/// decade-spaced — wide enough for a full MILP solve, fine enough for the
/// per-stage breakdown.
pub(crate) const LATENCY_BUCKETS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

/// Metric kind, mirroring the Prometheus `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Last-write-wins scalar.
    Gauge,
    /// Fixed-bucket distribution.
    Histogram,
}

impl MetricKind {
    /// Prometheus `# TYPE` token.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Shared storage for one histogram: bucket counts plus sum/count.
#[derive(Debug)]
struct HistogramCore {
    /// Inclusive upper bounds, strictly increasing; an implicit `+Inf`
    /// bucket follows the last bound.
    bounds: Vec<f64>,
    /// One slot per bound plus the `+Inf` slot.
    counts: Vec<AtomicU64>,
    /// Sum of observed values, stored as `f64` bits (CAS loop on update).
    sum_bits: AtomicU64,
    /// Number of observations.
    count: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: &[f64]) -> Self {
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds: bounds.to_vec(),
            counts,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// One registered metric: kind, help text, stability, and storage.
#[derive(Debug, Clone)]
struct Slot {
    kind: MetricKind,
    help: &'static str,
    /// `false` for wall-clock-dependent metrics (timers); those are kept
    /// out of the byte-stable JSON dump.
    stable: bool,
    scalar: Option<Arc<AtomicU64>>,
    histogram: Option<Arc<HistogramCore>>,
}

/// A handle to a monotonically increasing count.
///
/// Cloning is cheap (an `Arc` clone); a handle from a disabled recorder
/// records nothing. `Default` yields a disconnected handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n` to the counter. Lock-free; no-op when disconnected.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(a) = &self.0 {
            a.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrites the counter with an externally tracked monotonic total
    /// (mirroring a subsystem that keeps its own deterministic count).
    /// The caller is responsible for `total` being non-decreasing.
    #[inline]
    pub fn set_total(&self, total: u64) {
        if let Some(a) = &self.0 {
            a.store(total, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disconnected).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |a| a.load(Ordering::Relaxed))
    }
}

/// A handle to a last-write-wins scalar.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge. Lock-free; no-op when disconnected.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(a) = &self.0 {
            a.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when disconnected).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |a| f64::from_bits(a.load(Ordering::Relaxed)))
    }
}

/// A handle to a fixed-bucket distribution.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one observation. Lock-free; no-op when disconnected.
    #[inline]
    pub fn observe(&self, v: f64) {
        if let Some(h) = &self.0 {
            h.observe(v);
        }
    }

    /// Records a wall-clock duration in seconds.
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }
}

/// The metric registry behind an enabled [`Recorder`].
#[derive(Debug, Default)]
struct Registry {
    metrics: Mutex<BTreeMap<String, Slot>>,
}

/// The entry point: a cheaply clonable recorder that hands out metric
/// handles and produces [`Snapshot`]s.
///
/// A *disabled* recorder (the default) hands out disconnected handles, so
/// instrumented code pays one branch per update and benches stay honest.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Registry>>,
}

impl Recorder {
    /// A recorder that collects metrics into its own registry.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Registry::default())),
        }
    }

    /// A recorder whose handles record nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether this recorder collects anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn register(
        &self,
        name: &str,
        help: &'static str,
        kind: MetricKind,
        stable: bool,
        bounds: Option<&[f64]>,
    ) -> Slot {
        let detached = Slot {
            kind,
            help,
            stable,
            scalar: None,
            histogram: None,
        };
        let Some(reg) = &self.inner else {
            return detached;
        };
        let mut metrics = reg.metrics.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = metrics.get(name) {
            // Same name, same kind: share storage (idempotent registration).
            // A kind mismatch yields a detached handle rather than a panic.
            if existing.kind == kind {
                return existing.clone();
            }
            return detached;
        }
        let slot = Slot {
            kind,
            help,
            stable,
            scalar: match kind {
                MetricKind::Histogram => None,
                _ => Some(Arc::new(AtomicU64::new(match kind {
                    MetricKind::Gauge => 0f64.to_bits(),
                    _ => 0,
                }))),
            },
            histogram: match kind {
                MetricKind::Histogram => Some(Arc::new(HistogramCore::new(
                    bounds.unwrap_or(&LATENCY_BUCKETS),
                ))),
                _ => None,
            },
        };
        metrics.insert(name.to_string(), slot.clone());
        slot
    }

    /// Registers (or re-resolves) a counter.
    pub fn counter(&self, name: &str, help: &'static str) -> Counter {
        Counter(
            self.register(name, help, MetricKind::Counter, true, None)
                .scalar,
        )
    }

    /// Registers (or re-resolves) a gauge.
    pub fn gauge(&self, name: &str, help: &'static str) -> Gauge {
        Gauge(
            self.register(name, help, MetricKind::Gauge, true, None)
                .scalar,
        )
    }

    /// Registers a deterministic histogram with explicit bucket bounds.
    pub fn histogram(&self, name: &str, help: &'static str, bounds: &[f64]) -> Histogram {
        Histogram(
            self.register(name, help, MetricKind::Histogram, true, Some(bounds))
                .histogram,
        )
    }

    /// Registers a wall-clock latency histogram (`LATENCY_BUCKETS`,
    /// seconds). Timers are excluded from the byte-stable JSON dump
    /// because their values depend on the machine, not the seed.
    pub fn timer(&self, name: &str, help: &'static str) -> Histogram {
        let slot = self.register(name, help, MetricKind::Histogram, false, None);
        Histogram(slot.histogram)
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let mut metrics = Vec::new();
        if let Some(reg) = &self.inner {
            let map = reg.metrics.lock().unwrap_or_else(|e| e.into_inner());
            for (name, slot) in map.iter() {
                let value = match slot.kind {
                    MetricKind::Counter => MetricValue::Counter(
                        slot.scalar
                            .as_ref()
                            .map_or(0, |a| a.load(Ordering::Relaxed)),
                    ),
                    MetricKind::Gauge => MetricValue::Gauge(
                        slot.scalar
                            .as_ref()
                            .map_or(0.0, |a| f64::from_bits(a.load(Ordering::Relaxed))),
                    ),
                    MetricKind::Histogram => {
                        let core = slot.histogram.as_ref().expect("histogram storage");
                        MetricValue::Histogram(HistogramValue {
                            buckets: core
                                .bounds
                                .iter()
                                .zip(&core.counts)
                                .map(|(&b, c)| (b, c.load(Ordering::Relaxed)))
                                .collect(),
                            count: core.count.load(Ordering::Relaxed),
                            sum: f64::from_bits(core.sum_bits.load(Ordering::Relaxed)),
                        })
                    }
                };
                metrics.push(Metric {
                    name: name.clone(),
                    help: slot.help,
                    kind: slot.kind,
                    stable: slot.stable,
                    value,
                });
            }
        }
        Snapshot { metrics }
    }
}

/// A snapshot of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramValue {
    /// `(upper_bound, count_in_bucket)` pairs; the `+Inf` bucket is the
    /// difference between `count` and the bucket sum.
    pub buckets: Vec<(f64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

/// A snapshot of one metric's value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram value.
    Histogram(HistogramValue),
}

/// One metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (Prometheus conventions: `snake_case`, `_total` suffix
    /// for counters).
    pub name: String,
    /// One-line help text.
    pub help: &'static str,
    /// Metric kind.
    pub kind: MetricKind,
    /// Whether the value is deterministic for a fixed seed (wall-clock
    /// timers are not).
    pub stable: bool,
    /// The value.
    pub value: MetricValue,
}

/// A point-in-time copy of a recorder's metrics, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All metrics, sorted by name.
    pub metrics: Vec<Metric>,
}

impl Snapshot {
    /// Value of a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| match m.value {
                MetricValue::Counter(v) => Some(v),
                _ => None,
            })
    }

    /// Value of a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| match m.value {
                MetricValue::Gauge(v) => Some(v),
                _ => None,
            })
    }

    /// Renders the Prometheus text exposition format (all metrics,
    /// including wall-clock timers).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
            let _ = writeln!(out, "# TYPE {} {}", m.name, m.kind.as_str());
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{} {v}", m.name);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{} {}", m.name, fmt_f64(*v));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (bound, count) in &h.buckets {
                        cumulative += count;
                        let _ = writeln!(
                            out,
                            "{}_bucket{{le=\"{}\"}} {cumulative}",
                            m.name,
                            fmt_f64(*bound)
                        );
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", m.name, h.count);
                    let _ = writeln!(out, "{}_sum {}", m.name, fmt_f64(h.sum));
                    let _ = writeln!(out, "{}_count {}", m.name, h.count);
                }
            }
        }
        out
    }

    /// Renders a byte-stable JSON object of the *deterministic* metrics
    /// (counters, gauges, and explicit-bucket histograms; wall-clock
    /// timers are excluded). One metric per line, sorted by name — made
    /// for diffing two runs with `diff`.
    pub fn to_stable_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for m in self.metrics.iter().filter(|m| m.stable) {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "  \"{}\": {v}", m.name);
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "  \"{}\": {}", m.name, fmt_f64(*v));
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "  \"{}\": {{\"count\": {}, \"sum\": {}",
                        m.name,
                        h.count,
                        fmt_f64(h.sum)
                    );
                    let _ = write!(out, ", \"buckets\": [");
                    for (i, (bound, count)) in h.buckets.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "[{}, {count}]", fmt_f64(*bound));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// FNV-1a digest over the [`Self::to_stable_json`] bytes: a compact
    /// fingerprint of the deterministic metrics, made for the serve-mode
    /// restart-equivalence check (a restarted run must reproduce the
    /// uninterrupted run's digest exactly).
    pub fn stable_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut h = FNV_OFFSET;
        for b in self.to_stable_json().as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
}

/// Formats an `f64` as a valid JSON / Prometheus number: shortest
/// round-trip representation, with non-finite values mapped to the
/// Prometheus spellings (`+Inf`/`-Inf`/`NaN` — quoted contexts only).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// One sample parsed from Prometheus text: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (with any `_bucket`/`_sum`/`_count` suffix kept).
    pub name: String,
    /// Raw label block without braces (empty when unlabelled).
    pub labels: String,
    /// Sample value.
    pub value: f64,
}

/// Parses Prometheus text exposition format, validating that every
/// non-comment line is `name[{labels}] value` and that every sample is
/// preceded by `# HELP` and `# TYPE` lines for its family. Returns the
/// samples, or a description of the first malformed line.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    let mut typed: BTreeMap<String, &str> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or_default();
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {}: TYPE without kind", lineno + 1))?;
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {}: unknown metric type {kind:?}", lineno + 1));
            }
            typed.insert(name.to_string(), "");
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (head, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: expected `name value`", lineno + 1))?;
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse()
                .map_err(|_| format!("line {}: bad value {v:?}", lineno + 1))?,
        };
        let (name, labels) = match head.split_once('{') {
            Some((n, l)) => (
                n.to_string(),
                l.strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unterminated label block", lineno + 1))?
                    .to_string(),
            ),
            None => (head.to_string(), String::new()),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| typed.contains_key(*f))
            .unwrap_or(&name);
        if !typed.contains_key(family) {
            return Err(format!(
                "line {}: sample {name:?} has no preceding # TYPE",
                lineno + 1
            ));
        }
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

/// Sanitizes an arbitrary string into a metric-name segment
/// (`[a-z0-9_]`); anything else becomes `_`.
pub fn sanitize(segment: &str) -> String {
    segment
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record_and_snapshot() {
        let rec = Recorder::enabled();
        let c = rec.counter("jobs_total", "jobs seen");
        let g = rec.gauge("queue_depth", "pending jobs");
        c.add(3);
        c.inc();
        g.set(7.5);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("jobs_total"), Some(4));
        assert_eq!(snap.gauge("queue_depth"), Some(7.5));
        assert_eq!(snap.counter("queue_depth"), None);
    }

    #[test]
    fn registration_is_idempotent_and_shares_storage() {
        let rec = Recorder::enabled();
        let a = rec.counter("x_total", "x");
        let b = rec.counter("x_total", "x");
        a.add(1);
        b.add(2);
        assert_eq!(rec.snapshot().counter("x_total"), Some(3));
        // Kind mismatch: detached handle, original storage untouched.
        let g = rec.gauge("x_total", "x");
        g.set(99.0);
        assert_eq!(rec.snapshot().counter("x_total"), Some(3));
    }

    #[test]
    fn disabled_recorder_is_a_noop() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let c = rec.counter("a_total", "a");
        c.add(10);
        assert_eq!(c.get(), 0);
        assert!(rec.snapshot().metrics.is_empty());
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let rec = Recorder::enabled();
        let h = rec.histogram("sizes", "sizes", &[1.0, 10.0]);
        for v in [0.5, 5.0, 50.0, 0.2] {
            h.observe(v);
        }
        let snap = rec.snapshot();
        let MetricValue::Histogram(hv) = &snap.metrics[0].value else {
            panic!("expected histogram");
        };
        assert_eq!(hv.buckets, vec![(1.0, 2), (10.0, 1)]);
        assert_eq!(hv.count, 4);
        assert!((hv.sum - 55.7).abs() < 1e-9);
    }

    #[test]
    fn stable_json_excludes_timers_and_is_reproducible() {
        let build = || {
            let rec = Recorder::enabled();
            rec.counter("b_total", "b").add(2);
            rec.gauge("a", "a").set(0.25);
            rec.timer("t_seconds", "t").observe(0.1234);
            rec.histogram("d", "d", &[1.0]).observe(0.5);
            rec.snapshot().to_stable_json()
        };
        let json = build();
        assert_eq!(json, build());
        assert!(json.contains("\"a\": 0.25"));
        assert!(json.contains("\"b_total\": 2"));
        assert!(json.contains("\"d\": {\"count\": 1"));
        assert!(!json.contains("t_seconds"));
    }

    #[test]
    fn stable_digest_tracks_deterministic_metrics_only() {
        let build = |count: u64, wall: f64| {
            let rec = Recorder::enabled();
            rec.counter("jobs_total", "jobs").add(count);
            rec.timer("t_seconds", "t").observe(wall);
            rec.snapshot()
        };
        assert_eq!(
            build(3, 0.1).stable_digest(),
            build(3, 9.9).stable_digest(),
            "same deterministic metrics, same digest (timers ignored)"
        );
        assert_ne!(
            build(3, 0.1).stable_digest(),
            build(4, 0.1).stable_digest(),
            "a counter change moves the digest"
        );
    }

    #[test]
    fn prometheus_roundtrip_parses() {
        let rec = Recorder::enabled();
        rec.counter("jobs_total", "jobs").add(5);
        rec.gauge("util", "utilization").set(0.5);
        rec.timer("solve_seconds", "solve time").observe(0.003);
        let text = rec.snapshot().to_prometheus();
        let samples = parse_prometheus(&text).expect("parses");
        assert!(samples
            .iter()
            .any(|s| s.name == "jobs_total" && s.value == 5.0));
        assert!(samples.iter().any(|s| s.name == "util" && s.value == 0.5));
        assert!(samples
            .iter()
            .any(|s| s.name == "solve_seconds_bucket" && s.labels.starts_with("le=")));
        assert!(samples.iter().any(|s| s.name == "solve_seconds_count"));
    }

    #[test]
    fn parse_rejects_malformed_text() {
        assert!(parse_prometheus("no_type_line 1").is_err());
        assert!(parse_prometheus("# TYPE x counter\nx notanumber").is_err());
        assert!(parse_prometheus("# TYPE x counter\nx{le=\"1\" 2").is_err());
        assert!(parse_prometheus("# TYPE x widget\nx 2").is_err());
    }

    #[test]
    fn sanitize_maps_to_metric_segments() {
        assert_eq!(sanitize("Logical Name"), "logical_name");
        assert_eq!(sanitize("user-42"), "user_42");
    }

    #[test]
    fn concurrent_counter_updates_do_not_lose_increments() {
        let rec = Recorder::enabled();
        let c = rec.counter("n_total", "n");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(rec.snapshot().counter("n_total"), Some(4000));
    }
}
