//! Protocol-state telemetry registry.
//!
//! Earlier observability layers (the flight recorder in [`crate::trace`],
//! the latency profiler in [`crate::profile`]) see *packets*. This module
//! sees the *protocol's own state*: typed metrics — monotonic counters,
//! gauges with high-water marks, log-bucketed histograms — stored
//! struct-of-arrays in a single [`ObsRegistry`], snapshotted per epoch and
//! exported as deterministic, byte-stable JSON.
//!
//! Design rules:
//!
//! * **Zero-cost when disabled.** A disabled registry ([`ObsRegistry`]'s
//!   default) never allocates; every record call is a single predictable
//!   branch on [`ObsRegistry::is_enabled`]. Hot paths additionally gate on
//!   `is_enabled()` before touching metric ids, mirroring the
//!   `tracer.enabled()` idiom.
//! * **Scheme-agnostic substrate.** The registry itself knows no metric
//!   names. `network.rs`/`router.rs` record only *mechanism* metrics
//!   (circuit table, absorber — structures defined by the NoC substrate,
//!   pre-registered in [`MechMetrics`]); scheme-specific metrics are
//!   registered and recorded by the schemes through the
//!   [`crate::scheme::Scheme::observe`] hook and `pre_cycle`.
//! * **Exact under the scheduler.** Counters and event-maintained gauges
//!   piggyback on work the kernel actually executes, so the active-set
//!   scheduler cannot change a single recorded value.
//! * **Mergeable epochs.** [`ObsSnapshot::merge`] joins metrics by name and
//!   is associative and commutative (counters and histogram buckets form
//!   commutative monoids under addition; gauges join in the lattice of
//!   `(cycle, value)`-lexicographic maxima), so snapshots can be folded in
//!   any order, whatever metrics each holds. `upp-trace obs` rebuilds a
//!   run summary from an epoch stream with it.
//! * **One codec per document.** [`ObsSnapshot`] writes the epoch stream
//!   and the summary and reads both back; nothing else spells them.
//!
//! [`ObsHistogram`] is the workspace's one histogram type:
//! `upp_tracetools::Histogram` re-exports it, so obs exports and latency
//! profiles feed the same analysis toolchain without translation.

use crate::ids::Cycle;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Schema tag stamped into every obs export so stale files from older
/// layouts are detected instead of silently parsed.
pub const OBS_SCHEMA: &str = "upp-obs/v1";

/// Sub-buckets per power-of-two octave.
pub const SUB: usize = 32;

/// Values below this get exact single-value buckets.
pub const LINEAR_MAX: u64 = 32;

// ------------------------------------------------------------- histogram

/// A mergeable log-bucketed histogram of `u64` samples (latencies in
/// cycles, queue depths).
///
/// Values below [`LINEAR_MAX`] get one exact bucket each; above that, every
/// power-of-two octave is split into [`SUB`] equal sub-buckets, so the
/// bucket width at value `v` is at most `v / SUB` and the midpoint
/// representative is within a **relative error of `1 / (2 * SUB) = 1/64`**
/// of any value the bucket absorbed. The bucket array is a plain counter
/// vector, which makes merging an exact element-wise add: merged quantiles
/// are computed over the union of the recorded values' buckets, never by
/// approximating quantiles of quantiles.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ObsHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl ObsHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value: exact below [`LINEAR_MAX`], then [`SUB`]
    /// sub-buckets per octave, continuous at the boundary.
    fn index(v: u64) -> usize {
        if v < LINEAR_MAX {
            v as usize
        } else {
            let e = 63 - v.leading_zeros() as usize; // e >= 5
            let sub = ((v >> (e - 5)) & 31) as usize;
            32 + (e - 5) * SUB + sub
        }
    }

    /// Half-open value range `[lo, hi)` covered by a bucket.
    fn bounds(idx: usize) -> (u64, u64) {
        if idx < 32 {
            (idx as u64, idx as u64 + 1)
        } else {
            let e = 5 + (idx - 32) / SUB;
            let sub = ((idx - 32) % SUB) as u64;
            let w = 1u64 << (e - 5);
            let lo = (1u64 << e) + sub * w;
            (lo, lo + w)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = Self::index(v);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Adds every sample of `other` into `self` (exact element-wise count
    /// merge; associative and commutative).
    pub fn merge(&mut self, other: &ObsHistogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (s, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *s += o;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The samples recorded since `prev` was a copy of this histogram
    /// (element-wise bucket subtraction; `prev` must be an earlier state of
    /// `self`). The delta's `min`/`max` are bucket-bounded rather than
    /// exact: the true per-epoch extremes are inside the first/last
    /// non-empty delta bucket.
    pub fn delta_since(&self, prev: &ObsHistogram) -> ObsHistogram {
        let mut buckets = self.buckets.clone();
        for (b, &p) in buckets.iter_mut().zip(prev.buckets.iter()) {
            *b = b.saturating_sub(p);
        }
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        let (mut min, mut max) = (0, 0);
        if let Some(first) = buckets.iter().position(|&n| n > 0) {
            let last = buckets.iter().rposition(|&n| n > 0).expect("some bucket");
            min = Self::bounds(first).0;
            max = Self::bounds(last).1 - 1;
        }
        ObsHistogram {
            buckets,
            count: self.count.saturating_sub(prev.count),
            sum: self.sum.saturating_sub(prev.sum),
            min,
            max,
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as the midpoint of the bucket holding
    /// the rank-`ceil(q * count)` sample, clamped to the observed
    /// `[min, max]`. Deterministic and integer-valued; within the 1/64
    /// relative-error bound of the true order statistic.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if n > 0 && cum >= target {
                let (lo, hi) = Self::bounds(i);
                return ((lo + hi) / 2).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Renders as a deterministic JSON object with sparse buckets.
    pub fn to_json(&self) -> String {
        let mut pairs = String::new();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !pairs.is_empty() {
                pairs.push(',');
            }
            let _ = write!(pairs, "[{i},{n}]");
        }
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{pairs}]}}",
            self.count,
            self.sum,
            self.min(),
            self.max()
        )
    }
}

/// Reads the [`ObsHistogram::to_json`] shape; `None` when a field is
/// missing or a bucket index is beyond the one `u64::MAX` lands in (the
/// file is not ours — and must not size an allocation).
impl Deserialize for ObsHistogram {
    fn de_value(v: &Value) -> Option<Self> {
        let mut buckets = Vec::new();
        for (idx, n) in Vec::<(usize, u64)>::de_value(v.get("buckets")?)? {
            if idx > Self::index(u64::MAX) {
                return None;
            }
            if buckets.len() <= idx {
                buckets.resize(idx + 1, 0);
            }
            buckets[idx] = n;
        }
        Some(Self {
            buckets,
            count: u64::de_value(v.get("count")?)?,
            sum: u64::de_value(v.get("sum")?)?,
            min: u64::de_value(v.get("min")?)?,
            max: u64::de_value(v.get("max")?)?,
        })
    }
}

// --------------------------------------------------------------- handles

/// Handle to a registered monotonic counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered gauge (instantaneous value + high-water mark).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistId(u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Hist,
}

// -------------------------------------------------------------- snapshot

/// Marker key of the summary document ([`ObsSnapshot::summary_json`]).
const SUMMARY_MARKER: &str = "upp_obs";

/// Marker key of the epoch-stream header ([`ObsSnapshot::epochs_header`]).
const EPOCHS_MARKER: &str = "upp_obs_epochs";

/// Checks a `{marker: 1, "schema": S}` document header: `Ok(false)` when
/// `v` does not carry `marker` (it is some other document), `Ok(true)` when
/// it does and its schema is `schema`, and an error naming the schema it
/// carries otherwise. Every telemetry reader checks its header here.
pub(crate) fn check_header(v: &Value, marker: &str, schema: &str) -> Result<bool, String> {
    if v.get(marker).and_then(Value::as_u64) != Some(1) {
        return Ok(false);
    }
    match v.get("schema").and_then(Value::as_str) {
        Some(s) if s == schema => Ok(true),
        Some(s) => Err(format!(
            "stale or foreign file (schema mismatch): schema {s:?}, this tool reads {schema:?}"
        )),
        None => Err(format!("\"{marker}\" file has no schema tag")),
    }
}

/// One gauge in a snapshot: the value read at cycle `at` and the high-water
/// mark over the snapshot's span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeReading {
    /// Instantaneous value at `at`.
    pub value: u64,
    /// High-water mark over the span the snapshot covers.
    pub high: u64,
    /// Cycle `value` was read at: the cycle of the snapshot it came from.
    /// The exports do not write it; a snapshot read back has its own cycle
    /// here.
    pub at: Cycle,
}

/// A metric set keyed by name, sorted the way every export is: one epoch
/// cut by [`ObsRegistry::take_epoch`] (counter and histogram *deltas* over
/// the epoch, gauges at the epoch boundary with the within-epoch
/// high-water mark), or the cumulative run summary of
/// [`ObsRegistry::summary`].
///
/// The snapshot is the one codec of both obs documents: it writes an epoch
/// line ([`ObsSnapshot::jsonl`], after [`ObsSnapshot::epochs_header`]) and
/// the marked summary ([`ObsSnapshot::summary_json`]), and reads both back
/// ([`ObsSnapshot::from_json`], [`ObsSnapshot::read_epochs`],
/// [`ObsSnapshot::read_summary`]).
///
/// Snapshots form a commutative monoid under the by-name
/// [`ObsSnapshot::merge`], with the empty snapshot as identity, whatever
/// metrics each one holds (property-tested in `tests/obs_props.rs`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsSnapshot {
    /// Cycle the snapshot was cut at.
    pub cycle: Cycle,
    /// Counter increments over the epoch, or run totals.
    pub counters: BTreeMap<String, u64>,
    /// Gauge readings.
    pub gauges: BTreeMap<String, GaugeReading>,
    /// Histogram samples over the epoch, or over the run.
    pub histograms: BTreeMap<String, ObsHistogram>,
}

impl ObsSnapshot {
    /// Folds `other` into `self`, joining metrics by name: counters and
    /// histogram buckets add; high-water marks take the maximum; a gauge's
    /// value joins lexicographically on `(at, value)`, so the later reading
    /// wins and equal-cycle merges resolve deterministically. A metric only
    /// one side holds is taken as it is. Associative and commutative.
    pub fn merge(&mut self, other: &ObsSnapshot) {
        for (name, &n) in &other.counters {
            *self.counters.entry(name.clone()).or_default() += n;
        }
        for (name, &g) in &other.gauges {
            let mine = self.gauges.entry(name.clone()).or_insert(g);
            let high = mine.high.max(g.high);
            if (g.at, g.value) > (mine.at, mine.value) {
                *mine = g;
            }
            mine.high = high;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
        self.cycle = self.cycle.max(other.cycle);
    }

    /// The header line of an epoch stream (no trailing newline).
    pub fn epochs_header() -> String {
        format!("{{\"{EPOCHS_MARKER}\":1,\"schema\":\"{OBS_SCHEMA}\"}}")
    }

    /// The snapshot as one deterministic epoch line (no trailing newline).
    pub fn jsonl(&self) -> String {
        let mut out = format!("{{\"cycle\":{}", self.cycle);
        self.write_sets(&mut out, false);
        out + "}"
    }

    /// The snapshot as the marked summary document: every counter, every
    /// gauge as `[value, high_water]`, every histogram in the shared
    /// sparse-bucket shape, one metric per line.
    pub fn summary_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"{SUMMARY_MARKER}\": 1,\n  \"schema\": \"{OBS_SCHEMA}\",\n  \"cycle\": {}",
            self.cycle
        );
        self.write_sets(&mut out, true);
        out + "\n}\n"
    }

    /// Appends the three metric sets, compact (an epoch line) or one metric
    /// per line (the summary).
    fn write_sets(&self, out: &mut String, pretty: bool) {
        let [set_indent, item_indent, space] = match pretty {
            true => ["\n  ", "\n    ", " "],
            false => ["", "", ""],
        };
        let mut set = |key: &str, items: Vec<(&String, String)>| {
            let _ = write!(out, ",{set_indent}\"{key}\":{space}{{");
            for (i, (name, value)) in items.iter().enumerate() {
                let comma = if i > 0 { "," } else { "" };
                let _ = write!(out, "{comma}{item_indent}\"{name}\":{space}{value}");
            }
            let _ = write!(out, "{set_indent}}}");
        };
        let gauge = |g: &GaugeReading| format!("[{},{space}{}]", g.value, g.high);
        let counters = self.counters.iter().map(|(n, c)| (n, c.to_string()));
        let gauges = self.gauges.iter().map(|(n, g)| (n, gauge(g)));
        let histograms = self.histograms.iter().map(|(n, h)| (n, h.to_json()));
        set("counters", counters.collect());
        set("gauges", gauges.collect());
        set("histograms", histograms.collect());
    }

    /// Reads either shape back: an epoch line ([`ObsSnapshot::jsonl`]) or
    /// a summary ([`ObsSnapshot::summary_json`]), whose schema must be
    /// [`OBS_SCHEMA`]. Each gauge reading is dated at the snapshot's cycle.
    ///
    /// # Errors
    ///
    /// Returns a reason when the text is not JSON, a summary carries a
    /// foreign schema, or a field is missing or ill-typed.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = serde_json::from_str(text).map_err(|e| format!("not JSON: {e:?}"))?;
        Self::from_value(&v)
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        // A summary must carry this schema; an epoch line has no marker.
        check_header(v, SUMMARY_MARKER, OBS_SCHEMA)?;
        // Metric names are keys, so each set is an object.
        fn named<T: Deserialize>(v: &Value, key: &str) -> Option<BTreeMap<String, T>> {
            let pairs = v.get(key)?.as_object()?.iter();
            pairs
                .map(|(name, val)| Some((name.clone(), T::de_value(val)?)))
                .collect()
        }
        let read = || {
            let at = v.get("cycle")?.as_u64()?;
            let reading = |(value, high)| GaugeReading { value, high, at };
            let gauges = named::<(u64, u64)>(v, "gauges")?;
            Some(Self {
                cycle: at,
                counters: named(v, "counters")?,
                gauges: gauges.into_iter().map(|(n, g)| (n, reading(g))).collect(),
                histograms: named(v, "histograms")?,
            })
        };
        read().ok_or_else(|| "malformed telemetry snapshot".into())
    }

    /// Reads a summary document back: `text` itself, or the summary a
    /// `--json` run payload embeds as its `"obs"` field.
    ///
    /// # Errors
    ///
    /// As [`ObsSnapshot::from_json`], and when neither carries the summary
    /// marker.
    pub fn read_summary(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e:?}"))?;
        let doc = v.get("obs").unwrap_or(&v);
        if !check_header(doc, SUMMARY_MARKER, OBS_SCHEMA)? {
            return Err(format!(
                "no \"{SUMMARY_MARKER}\" marker (not a telemetry summary)"
            ));
        }
        Self::from_value(doc)
    }

    /// Reads an epoch stream back: `None` when the first line is not an
    /// epoch-stream header, else one snapshot per later line.
    ///
    /// # Errors
    ///
    /// Returns a reason on a foreign header or a malformed line, naming it.
    pub fn read_epochs(text: &str) -> Result<Option<Vec<Self>>, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let Some(Ok(header)) = lines.next().map(serde_json::from_str) else {
            return Ok(None);
        };
        if !check_header(&header, EPOCHS_MARKER, OBS_SCHEMA)? {
            return Ok(None);
        }
        let epoch = |(i, line)| Self::from_json(line).map_err(|e| format!("line {}: {e}", i + 2));
        lines
            .enumerate()
            .map(epoch)
            .collect::<Result<_, _>>()
            .map(Some)
    }
}

// ------------------------------------------------- mechanism metric ids

/// Pre-registered ids for the *mechanism-level* metrics recorded by the
/// substrate itself (`router.rs`): the destination-keyed circuit table and
/// the absorber are NoC structures, so counting their events here keeps
/// the router scheme-agnostic while every scheme's use of them is visible.
#[derive(Debug, Clone, Copy, Default)]
pub struct MechMetrics {
    /// Circuit-table entries recorded for the first time.
    pub circuit_inserts: CounterId,
    /// Circuit-table entries overwritten by a later recording (the table is
    /// destination-keyed, so a new popup towards the same destination
    /// evicts the stale reverse path).
    pub circuit_evictions: CounterId,
    /// Circuit lookups that found an entry (upward-flit forwarding and
    /// reverse-routed control messages).
    pub circuit_lookup_hits: CounterId,
    /// Circuit lookups that found nothing (stale protocol state).
    pub circuit_lookup_misses: CounterId,
    /// Flits absorbed into side buffers at boundary routers.
    pub absorber_flits: CounterId,
    /// Total circuit-table entries across all routers (event-maintained:
    /// +1 on insert, exact high-water even between epochs).
    pub circuit_entries: GaugeId,
}

// -------------------------------------------------------------- registry

/// The telemetry registry: struct-of-arrays metric storage plus epoch
/// bookkeeping. One lives inside every [`crate::network::Network`];
/// disabled (the default) it is a handful of empty vectors and every
/// operation returns after one branch.
#[derive(Debug, Default)]
pub struct ObsRegistry {
    enabled: bool,
    by_name: HashMap<String, (Kind, u32)>,
    counter_names: Vec<String>,
    counters: Vec<u64>,
    epoch_counters: Vec<u64>,
    gauge_names: Vec<String>,
    gauge_value: Vec<u64>,
    gauge_high: Vec<u64>,
    gauge_epoch_high: Vec<u64>,
    hist_names: Vec<String>,
    hists: Vec<ObsHistogram>,
    epoch_hists: Vec<ObsHistogram>,
    /// Ids of the substrate's own metrics; meaningful only when enabled.
    pub mech: MechMetrics,
}

impl ObsRegistry {
    /// A disabled registry (the default state of every network).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Enables recording and registers the mechanism metrics. Idempotent.
    pub fn enable(&mut self) {
        if self.enabled {
            return;
        }
        self.enabled = true;
        self.mech = MechMetrics {
            circuit_inserts: self.counter("circuit.inserts"),
            circuit_evictions: self.counter("circuit.evictions"),
            circuit_lookup_hits: self.counter("circuit.lookup_hits"),
            circuit_lookup_misses: self.counter("circuit.lookup_misses"),
            absorber_flits: self.counter("absorber.flits_absorbed"),
            circuit_entries: self.gauge("circuit.entries"),
        };
    }

    /// True when the registry records. The single branch every gated call
    /// site pays.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    // ---- registration (idempotent by name; no-ops while disabled) ----

    /// Registers (or looks up) a monotonic counter.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if !self.enabled {
            return CounterId::default();
        }
        if let Some(&(kind, ix)) = self.by_name.get(name) {
            assert_eq!(kind, Kind::Counter, "{name} registered with another kind");
            return CounterId(ix);
        }
        let ix = self.counters.len() as u32;
        self.counter_names.push(name.to_string());
        self.counters.push(0);
        self.epoch_counters.push(0);
        self.by_name.insert(name.to_string(), (Kind::Counter, ix));
        CounterId(ix)
    }

    /// Registers (or looks up) a gauge.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if !self.enabled {
            return GaugeId::default();
        }
        if let Some(&(kind, ix)) = self.by_name.get(name) {
            assert_eq!(kind, Kind::Gauge, "{name} registered with another kind");
            return GaugeId(ix);
        }
        let ix = self.gauge_value.len() as u32;
        self.gauge_names.push(name.to_string());
        self.gauge_value.push(0);
        self.gauge_high.push(0);
        self.gauge_epoch_high.push(0);
        self.by_name.insert(name.to_string(), (Kind::Gauge, ix));
        GaugeId(ix)
    }

    /// Registers (or looks up) a histogram.
    pub fn hist(&mut self, name: &str) -> HistId {
        if !self.enabled {
            return HistId::default();
        }
        if let Some(&(kind, ix)) = self.by_name.get(name) {
            assert_eq!(kind, Kind::Hist, "{name} registered with another kind");
            return HistId(ix);
        }
        let ix = self.hists.len() as u32;
        self.hist_names.push(name.to_string());
        self.hists.push(ObsHistogram::new());
        self.epoch_hists.push(ObsHistogram::new());
        self.by_name.insert(name.to_string(), (Kind::Hist, ix));
        HistId(ix)
    }

    // ---------------- recording (single branch while disabled) ----------------

    /// Increments a counter by 1.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Increments a counter by `n`.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        if !self.enabled {
            return;
        }
        self.counters[id.0 as usize] += n;
    }

    /// Overwrites a counter with an externally-accumulated running total
    /// (for adapting scheme stats structs that already count; epoch deltas
    /// still difference correctly as long as the total is monotonic).
    #[inline]
    pub fn counter_record_total(&mut self, id: CounterId, total: u64) {
        if !self.enabled {
            return;
        }
        self.counters[id.0 as usize] = total;
    }

    /// Sets a gauge to an absolute value, updating both high-water marks.
    #[inline]
    pub fn gauge_set(&mut self, id: GaugeId, v: u64) {
        if !self.enabled {
            return;
        }
        let i = id.0 as usize;
        self.gauge_value[i] = v;
        self.gauge_high[i] = self.gauge_high[i].max(v);
        self.gauge_epoch_high[i] = self.gauge_epoch_high[i].max(v);
    }

    /// Adds `n` to an event-maintained gauge.
    #[inline]
    pub fn gauge_add(&mut self, id: GaugeId, n: u64) {
        if !self.enabled {
            return;
        }
        let i = id.0 as usize;
        let v = self.gauge_value[i] + n;
        self.gauge_value[i] = v;
        self.gauge_high[i] = self.gauge_high[i].max(v);
        self.gauge_epoch_high[i] = self.gauge_epoch_high[i].max(v);
    }

    /// Subtracts `n` from an event-maintained gauge (saturating).
    #[inline]
    pub fn gauge_sub(&mut self, id: GaugeId, n: u64) {
        if !self.enabled {
            return;
        }
        let i = id.0 as usize;
        self.gauge_value[i] = self.gauge_value[i].saturating_sub(n);
    }

    /// Records a histogram sample.
    #[inline]
    pub fn record(&mut self, id: HistId, v: u64) {
        if !self.enabled {
            return;
        }
        self.hists[id.0 as usize].record(v);
    }

    // ------------------------------- reads -------------------------------

    /// Cumulative value of a counter by name (0 when unknown or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.by_name.get(name) {
            Some(&(Kind::Counter, ix)) => self.counters[ix as usize],
            _ => 0,
        }
    }

    /// `(value, high_water)` of a gauge by name.
    pub fn gauge_value(&self, name: &str) -> (u64, u64) {
        match self.by_name.get(name) {
            Some(&(Kind::Gauge, ix)) => {
                (self.gauge_value[ix as usize], self.gauge_high[ix as usize])
            }
            _ => (0, 0),
        }
    }

    /// Cumulative histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&ObsHistogram> {
        match self.by_name.get(name) {
            Some(&(Kind::Hist, ix)) => Some(&self.hists[ix as usize]),
            _ => None,
        }
    }

    /// Number of registered metrics of all kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauge_value.len() + self.hists.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ---------------------------- snapshots ----------------------------

    /// Cuts an epoch at `cycle`: returns the deltas since the previous cut
    /// and rolls the epoch baseline forward (within-epoch gauge high-water
    /// marks restart from the current values).
    pub fn take_epoch(&mut self, cycle: Cycle) -> ObsSnapshot {
        let snap = ObsSnapshot {
            cycle,
            counters: (self.counter_names.iter().cloned())
                .zip(self.counters.iter().zip(&self.epoch_counters))
                .map(|(name, (&c, &p))| (name, c - p))
                .collect(),
            gauges: self.gauges(cycle, &self.gauge_epoch_high),
            histograms: (self.hist_names.iter().cloned())
                .zip(self.hists.iter().zip(&self.epoch_hists))
                .map(|(name, (h, p))| (name, h.delta_since(p)))
                .collect(),
        };
        self.epoch_counters.copy_from_slice(&self.counters);
        self.epoch_hists.clone_from(&self.hists);
        self.gauge_epoch_high.copy_from_slice(&self.gauge_value);
        snap
    }

    /// The cumulative run summary at `cycle`: every counter total, every
    /// gauge with its run high-water mark, every histogram.
    pub fn summary(&self, cycle: Cycle) -> ObsSnapshot {
        ObsSnapshot {
            cycle,
            counters: (self.counter_names.iter().cloned())
                .zip(self.counters.iter().copied())
                .collect(),
            gauges: self.gauges(cycle, &self.gauge_high),
            histograms: (self.hist_names.iter().cloned())
                .zip(self.hists.iter().cloned())
                .collect(),
        }
    }

    /// Every gauge's current value, read at `cycle`, with `high` as its
    /// high-water mark.
    fn gauges(&self, cycle: Cycle, high: &[u64]) -> BTreeMap<String, GaugeReading> {
        (self.gauge_names.iter().cloned())
            .zip(self.gauge_value.iter().zip(high))
            .map(|(name, (&value, &high))| {
                (
                    name,
                    GaugeReading {
                        value,
                        high,
                        at: cycle,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing_and_allocates_nothing() {
        let mut r = ObsRegistry::disabled();
        let c = r.counter("a");
        let g = r.gauge("b");
        let h = r.hist("c");
        r.inc(c);
        r.gauge_set(g, 7);
        r.record(h, 9);
        assert!(!r.is_enabled());
        assert!(r.is_empty());
        assert_eq!(r.counter_value("a"), 0);
    }

    #[test]
    fn registration_is_idempotent_by_name() {
        let mut r = ObsRegistry::disabled();
        r.enable();
        let a = r.counter("x");
        let b = r.counter("x");
        assert_eq!(a, b);
        r.inc(a);
        r.inc(b);
        assert_eq!(r.counter_value("x"), 2);
    }

    #[test]
    fn gauges_track_high_water_marks() {
        let mut r = ObsRegistry::disabled();
        r.enable();
        let g = r.gauge("occ");
        r.gauge_add(g, 5);
        r.gauge_sub(g, 3);
        r.gauge_add(g, 1);
        assert_eq!(r.gauge_value("occ"), (3, 5));
        r.gauge_set(g, 9);
        assert_eq!(r.gauge_value("occ"), (9, 9));
    }

    #[test]
    fn epochs_difference_counters_and_histograms() {
        let mut r = ObsRegistry::disabled();
        r.enable();
        let c = r.counter("n");
        let g = r.gauge("g");
        let h = r.hist("h");
        r.add(c, 3);
        r.gauge_set(g, 4);
        r.record(h, 10);
        let e1 = r.take_epoch(100);
        assert_eq!(e1.counters["n"], 3);
        assert_eq!(e1.gauges["g"].high, 4);
        assert_eq!(e1.histograms["h"].count(), 1);
        r.add(c, 2);
        r.gauge_set(g, 1);
        r.record(h, 10);
        r.record(h, 50_000);
        let e2 = r.take_epoch(200);
        assert_eq!(e2.counters["n"], 2, "second epoch sees only the delta");
        assert_eq!(e2.gauges["g"].value, 1);
        assert_eq!(
            e2.gauges["g"].high, 4,
            "epoch high-water restarts from the boundary value"
        );
        assert_eq!(e2.histograms["h"].count(), 2);
        assert_eq!(e2.histograms["h"].sum(), 50_010);
    }

    #[test]
    fn snapshot_merge_combines_epochs_exactly() {
        let mut r = ObsRegistry::disabled();
        r.enable();
        let c = r.counter("n");
        let h = r.hist("h");
        r.add(c, 3);
        r.record(h, 7);
        let mut e1 = r.take_epoch(10);
        r.add(c, 4);
        r.record(h, 9);
        let e2 = r.take_epoch(20);
        e1.merge(&e2);
        assert_eq!(e1.counters["n"], 7);
        assert_eq!(e1.cycle, 20);
        assert_eq!(e1.histograms["h"].count(), 2);
        assert_eq!(e1.histograms["h"].sum(), 16);
    }

    #[test]
    fn exports_are_sorted_and_stable() {
        let mut r = ObsRegistry::disabled();
        r.enable();
        let b = r.counter("z.second");
        let a = r.counter("a.first");
        r.inc(a);
        r.add(b, 2);
        let summary = r.summary(42).summary_json();
        let ia = summary.find("a.first").unwrap();
        let ib = summary.find("z.second").unwrap();
        assert!(ia < ib, "names sorted regardless of registration order");
        assert!(summary.contains("\"upp_obs\": 1"));
        assert!(summary.contains(OBS_SCHEMA));
        let line = r.take_epoch(42).jsonl();
        assert!(!line.contains('\n'), "epoch lines are single-line JSONL");
        assert!(line.starts_with("{\"cycle\":42,"));
        assert_eq!(
            ObsSnapshot::epochs_header(),
            "{\"upp_obs_epochs\":1,\"schema\":\"upp-obs/v1\"}"
        );
    }

    #[test]
    fn headers_are_checked_in_one_place() {
        let v = |text: &str| serde_json::from_str(text).unwrap();
        let check = |text: &str| check_header(&v(text), "m", "s/v1");
        assert_eq!(check(r#"{"m":1,"schema":"s/v1"}"#), Ok(true));
        assert_eq!(check(r#"{"other":1}"#), Ok(false));
        assert_eq!(check(r#"{"m":2,"schema":"s/v1"}"#), Ok(false));
        let foreign = check(r#"{"m":1,"schema":"s/v0"}"#).unwrap_err();
        assert!(foreign.contains("schema \"s/v0\""), "{foreign}");
        assert!(check(r#"{"m":1}"#).unwrap_err().contains("no schema"));
    }

    #[test]
    fn histogram_indexing_is_continuous_and_monotonic() {
        let mut prev = 0;
        for v in 0..100_000u64 {
            let idx = ObsHistogram::index(v);
            assert!(idx >= prev, "monotonic at {v}");
            prev = idx;
            let (lo, hi) = ObsHistogram::bounds(idx);
            assert!(lo <= v && v < hi, "bounds contain {v}: [{lo},{hi})");
            if v < LINEAR_MAX {
                assert_eq!((lo, hi), (v, v + 1), "small values are exact");
            }
        }
    }

    #[test]
    fn histogram_quantiles_hit_known_ranks() {
        let mut h = ObsHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!(
            (p50 as f64 - 500.0).abs() <= 500.0 / 64.0 + 1.0,
            "p50 near 500: {p50}"
        );
        let p999 = h.quantile(0.999);
        assert!(
            (p999 as f64 - 999.0).abs() <= 999.0 / 64.0 + 1.0,
            "p999 near 999: {p999}"
        );
        assert_eq!(h.quantile(1.0), 1000, "max rank clamps to observed max");
        assert_eq!(h.quantile(0.0), 1, "min rank clamps to observed min");
    }

    #[test]
    fn histogram_json_round_trips() {
        let mut h = ObsHistogram::new();
        for v in [0, 1, 31, 32, 33, 1_000, 123_456_789] {
            h.record(v);
        }
        let json = h.to_json();
        assert!(json.starts_with("{\"count\":7,\"sum\":"));
        assert!(json.contains("\"buckets\":[[0,1],[1,1],[31,1],[32,1]"));
        let v = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(ObsHistogram::de_value(&v).expect("parses"), h);
        let hostile = r#"{"count":1,"sum":1,"min":1,"max":1,"buckets":[[4000000000,1]]}"#;
        let v = serde_json::from_str(hostile).expect("valid JSON");
        assert_eq!(ObsHistogram::de_value(&v), None, "index beyond u64 range");
    }

    #[test]
    fn histogram_delta_is_the_epoch_sample_set() {
        let mut h = ObsHistogram::new();
        h.record(5);
        h.record(100);
        let baseline = h.clone();
        h.record(5);
        h.record(200);
        let d = h.delta_since(&baseline);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 205);
        assert!(
            d.max() >= 192 && d.max() <= 207,
            "bucket-bounded max: {}",
            d.max()
        );
    }
}
