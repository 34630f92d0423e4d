//! Collected profiling reports: per-run [`ProfReport`], label-grouped
//! [`MetricsReport`], and the machine-speed calibration used to
//! normalize timings across hosts.

use crate::codec::{Reader, Writer};
use crate::hist::Histogram;
use crate::json::json_string;
use crate::profiler::{Counter, Gauge, Profiler, SizeHist, TimeHist};
use std::fmt::Write as _;
use std::time::Instant;

/// Everything one profiled run recorded: counters, gauge high-water
/// marks, and histograms, addressed by the taxonomy enums.
///
/// Reports [`merge`](ProfReport::merge) commutatively, and everything
/// except the [`TimeHist`] histograms is deterministic for a fixed
/// seed — the property checked by
/// [`eq_deterministic`](ProfReport::eq_deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfReport {
    counters: [u64; Counter::ALL.len()],
    gauges: [u64; Gauge::ALL.len()],
    time_hists: [Histogram; TimeHist::ALL.len()],
    size_hists: [Histogram; SizeHist::ALL.len()],
}

impl Default for ProfReport {
    fn default() -> Self {
        Self {
            counters: [0; Counter::ALL.len()],
            gauges: [0; Gauge::ALL.len()],
            time_hists: std::array::from_fn(|_| Histogram::new()),
            size_hists: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

impl ProfReport {
    /// Version byte leading every wire-encoded report (DESIGN.md §15).
    pub const WIRE_VERSION: u8 = 1;

    pub(crate) fn from_profiler(p: &Profiler) -> Self {
        Self {
            counters: p.counters,
            gauges: p.gauge_hwm,
            time_hists: p.time_hists.clone(),
            size_hists: p.size_hists.clone(),
        }
    }

    /// Value of a counter.
    #[must_use]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// High-water mark of a gauge.
    #[must_use]
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// A timing histogram (nanoseconds).
    #[must_use]
    pub fn time_hist(&self, h: TimeHist) -> &Histogram {
        &self.time_hists[h as usize]
    }

    /// A size histogram (bytes).
    #[must_use]
    pub fn size_hist(&self, h: SizeHist) -> &Histogram {
        &self.size_hists[h as usize]
    }

    /// Whether nothing was recorded at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.gauges.iter().all(|&g| g == 0)
            && self.time_hists.iter().all(Histogram::is_empty)
            && self.size_hists.iter().all(Histogram::is_empty)
    }

    /// Merges another report into this one: counters sum, gauge
    /// high-water marks take the max, histograms merge bucket-wise.
    /// Commutative and associative, so aggregation over a sweep's runs
    /// is independent of worker count and completion order.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.gauges.iter_mut().zip(&other.gauges) {
            *a = (*a).max(*b);
        }
        for (a, b) in self.time_hists.iter_mut().zip(&other.time_hists) {
            a.merge(b);
        }
        for (a, b) in self.size_hists.iter_mut().zip(&other.size_hists) {
            a.merge(b);
        }
    }

    /// Adds `n` to a counter directly on this report (saturating) —
    /// the recording path for threads that run no profiler, such as
    /// `bsub-net`'s socket threads recording into a
    /// [`SharedReport`](crate::SharedReport).
    pub fn add_counter(&mut self, c: Counter, n: u64) {
        let slot = &mut self.counters[c as usize];
        *slot = slot.saturating_add(n);
    }

    /// Raises a gauge's high-water mark to at least `level`.
    pub fn raise_gauge(&mut self, g: Gauge, level: u64) {
        let slot = &mut self.gauges[g as usize];
        *slot = (*slot).max(level);
    }

    /// Records one sample into a timing histogram (nanoseconds).
    pub fn record_time(&mut self, h: TimeHist, ns: u64) {
        self.time_hists[h as usize].record(ns);
    }

    /// Records one sample into a size histogram (bytes).
    pub fn record_size(&mut self, h: SizeHist, value: u64) {
        self.size_hists[h as usize].record(value);
    }

    /// Encodes the report for the wire (DESIGN.md §15): a version
    /// byte, a reserved zero byte, the four taxonomy lengths as u16
    /// LE (counters, gauges, timing histograms, size histograms),
    /// then every counter and gauge as u64 LE followed by every
    /// histogram record, all in taxonomy declaration order. Histogram
    /// records are sparse (zero buckets omitted), so an
    /// almost-empty report encodes in a few hundred bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + 8 * self.counters.len());
        w.u8(Self::WIRE_VERSION);
        w.u8(0); // reserved
        for len in [
            Counter::ALL.len(),
            Gauge::ALL.len(),
            TimeHist::ALL.len(),
            SizeHist::ALL.len(),
        ] {
            w.u16(len as u16);
        }
        for &c in &self.counters {
            w.u64(c);
        }
        for &g in &self.gauges {
            w.u64(g);
        }
        for h in self.time_hists.iter().chain(&self.size_hists) {
            h.encode_into(&mut w);
        }
        w.into_bytes()
    }

    /// Decodes a report encoded by [`ProfReport::encode`]. `None` on
    /// a version or taxonomy-length mismatch, truncation, a malformed
    /// histogram record, or trailing bytes — decoding never guesses
    /// (the same reset discipline as the frame layer: a peer built
    /// against a different taxonomy is rejected, not reinterpreted).
    #[must_use]
    pub fn decode(body: &[u8]) -> Option<Self> {
        let mut r = Reader::new(body);
        if r.u8()? != Self::WIRE_VERSION || r.u8()? != 0 {
            return None;
        }
        for expected in [
            Counter::ALL.len(),
            Gauge::ALL.len(),
            TimeHist::ALL.len(),
            SizeHist::ALL.len(),
        ] {
            if r.u16()? as usize != expected {
                return None;
            }
        }
        let mut report = Self::default();
        for slot in report.counters.iter_mut().chain(&mut report.gauges) {
            *slot = r.u64()?;
        }
        for slot in report.time_hists.iter_mut().chain(&mut report.size_hists) {
            *slot = Histogram::decode_from(&mut r)?;
        }
        r.finish()?;
        Some(report)
    }

    /// Equality over the deterministic portion only: counters, gauges,
    /// and size histograms. Wall-clock timing histograms differ from
    /// run to run on any real machine and are excluded.
    #[must_use]
    pub fn eq_deterministic(&self, other: &Self) -> bool {
        self.counters == other.counters
            && self.gauges == other.gauges
            && self.size_hists == other.size_hists
    }

    /// Renders the report as a JSON object. Zero counters, zero
    /// gauges, and empty histograms are omitted for compactness; the
    /// emission order follows the taxonomy declaration order, so equal
    /// reports serialize identically.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"counters\":{");
        push_pairs(
            &mut out,
            Counter::ALL
                .iter()
                .filter(|&&c| self.counter(c) > 0)
                .map(|&c| (c.name(), self.counter(c).to_string())),
        );
        out.push_str("},\"gauges\":{");
        push_pairs(
            &mut out,
            Gauge::ALL
                .iter()
                .filter(|&&g| self.gauge(g) > 0)
                .map(|&g| (g.name(), self.gauge(g).to_string())),
        );
        out.push_str("},\"time_ns\":{");
        push_pairs(
            &mut out,
            TimeHist::ALL
                .iter()
                .filter(|&&h| !self.time_hist(h).is_empty())
                .map(|&h| (h.name(), hist_json(self.time_hist(h)))),
        );
        out.push_str("},\"size_bytes\":{");
        push_pairs(
            &mut out,
            SizeHist::ALL
                .iter()
                .filter(|&&h| !self.size_hist(h).is_empty())
                .map(|&h| (h.name(), hist_json(self.size_hist(h)))),
        );
        out.push_str("}}");
        out
    }
}

fn push_pairs<'a>(out: &mut String, pairs: impl Iterator<Item = (&'a str, String)>) {
    let mut first = true;
    for (name, value) in pairs {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}:{}", json_string(name), value);
    }
}

fn hist_json(h: &Histogram) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
        h.count(),
        h.sum(),
        h.min(),
        h.quantile(0.5),
        h.quantile(0.9),
        h.quantile(0.99),
        h.max()
    )
}

/// Profiling reports grouped by label (one group per protocol /
/// experiment leg), as attached to a `bsub_bench::engine` sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    groups: Vec<(String, ProfReport)>,
}

impl MetricsReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges `report` into the group for `label`, creating the group
    /// if needed. Groups are kept sorted by label, so insertion order
    /// (and therefore worker scheduling) does not affect the result.
    pub fn add(&mut self, label: &str, report: &ProfReport) {
        match self.groups.binary_search_by(|(l, _)| l.as_str().cmp(label)) {
            Ok(i) => self.groups[i].1.merge(report),
            Err(i) => self.groups.insert(i, (label.to_string(), report.clone())),
        }
    }

    /// The labelled groups, sorted by label.
    #[must_use]
    pub fn groups(&self) -> &[(String, ProfReport)] {
        &self.groups
    }

    /// The group for `label`, if present.
    #[must_use]
    pub fn group(&self, label: &str) -> Option<&ProfReport> {
        self.groups
            .binary_search_by(|(l, _)| l.as_str().cmp(label))
            .ok()
            .map(|i| &self.groups[i].1)
    }

    /// Whether no group holds any data.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.groups.iter().all(|(_, r)| r.is_empty())
    }

    /// Equality over the deterministic portion of every group.
    #[must_use]
    pub fn eq_deterministic(&self, other: &Self) -> bool {
        self.groups.len() == other.groups.len()
            && self
                .groups
                .iter()
                .zip(&other.groups)
                .all(|((la, ra), (lb, rb))| la == lb && ra.eq_deterministic(rb))
    }

    /// Renders the report as a JSON object keyed by label.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        push_pairs(
            &mut out,
            self.groups
                .iter()
                .map(|(label, report)| (label.as_str(), report.to_json())),
        );
        out.push('}');
        out
    }

    /// Renders a human-readable terminal table: one section per label
    /// with non-zero counters and gauge high-water marks, then
    /// histogram summary rows (count, mean, p50/p99/max).
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (label, report) in &self.groups {
            let _ = writeln!(out, "── {label} ──");
            for &c in &Counter::ALL {
                if report.counter(c) > 0 {
                    let _ = writeln!(out, "  {:<24} {:>16}", c.name(), report.counter(c));
                }
            }
            for &g in &Gauge::ALL {
                if report.gauge(g) > 0 {
                    let _ = writeln!(out, "  {:<24} {:>16}", g.name(), report.gauge(g));
                }
            }
            let mut hist_row = |name: &str, h: &Histogram| {
                if !h.is_empty() {
                    let _ = writeln!(
                        out,
                        "  {:<24} n={:<10} mean={:<10.0} p50={:<8} p99={:<8} max={}",
                        name,
                        h.count(),
                        h.mean(),
                        h.quantile(0.5),
                        h.quantile(0.99),
                        h.max()
                    );
                }
            };
            for &h in &TimeHist::ALL {
                hist_row(h.name(), report.time_hist(h));
            }
            for &h in &SizeHist::ALL {
                hist_row(h.name(), report.size_hist(h));
            }
        }
        out
    }
}

/// Measures this machine's speed as the wall-clock nanoseconds for a
/// fixed deterministic mixing workload (SplitMix64 finalizer over 2²²
/// iterations, ~5–20 ms on current hardware).
///
/// Perf-trajectory entries store this next to their timings so the
/// regression comparator can normalize across hosts: a run that is 2×
/// slower *relative to its own machine's calibration* is a regression
/// even if the absolute numbers moved the other way.
#[must_use]
pub fn calibrate_ns() -> u64 {
    const ITERS: u64 = 1 << 22;
    let start = Instant::now();
    let mut acc: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..ITERS {
        // SplitMix64 finalizer — the same mixing the workspace's
        // deterministic RNG uses, so calibration tracks the real
        // workload's instruction mix.
        let mut z = acc ^ i;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc = z ^ (z >> 31);
    }
    // Consume `acc` so the loop cannot be optimized away.
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    if acc == 0 {
        ns | 1
    } else {
        ns.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler;

    fn report_with(c: Counter, n: u64) -> ProfReport {
        profiler::start();
        profiler::count(c, n);
        profiler::finish()
    }

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        profiler::start();
        profiler::count(Counter::Contacts, 3);
        profiler::gauge_set(Gauge::BufferMsgs, 10);
        let mut a = profiler::finish();

        profiler::start();
        profiler::count(Counter::Contacts, 4);
        profiler::gauge_set(Gauge::BufferMsgs, 7);
        let b = profiler::finish();

        a.merge(&b);
        assert_eq!(a.counter(Counter::Contacts), 7);
        assert_eq!(a.gauge(Gauge::BufferMsgs), 10);
    }

    #[test]
    fn metrics_report_grouping_is_order_invariant() {
        let r1 = report_with(Counter::DataBytes, 5);
        let r2 = report_with(Counter::DataBytes, 7);
        let r3 = report_with(Counter::ControlBytes, 2);

        let mut fwd = MetricsReport::new();
        fwd.add("push", &r1);
        fwd.add("pull", &r3);
        fwd.add("push", &r2);

        let mut rev = MetricsReport::new();
        rev.add("push", &r2);
        rev.add("push", &r1);
        rev.add("pull", &r3);

        assert_eq!(fwd, rev);
        assert_eq!(fwd.group("push").unwrap().counter(Counter::DataBytes), 12);
    }

    #[test]
    fn json_is_valid_shape_and_omits_zeros() {
        let r = report_with(Counter::TcbfInsert, 9);
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"tcbf_insert\":9"));
        assert!(!json.contains("tcbf_a_merge"));

        let mut m = MetricsReport::new();
        m.add("bsub", &r);
        assert!(m.to_json().contains("\"bsub\":{"));
    }

    #[test]
    fn render_table_mentions_recorded_metrics() {
        profiler::start();
        profiler::count(Counter::WireEncode, 2);
        profiler::observe(SizeHist::EncodedFilterBytes, 128);
        let r = profiler::finish();
        let mut m = MetricsReport::new();
        m.add("bsub", &r);
        let table = m.render_table();
        assert!(table.contains("bsub"));
        assert!(table.contains("wire_encode"));
        assert!(table.contains("encoded_filter_bytes"));
    }

    #[test]
    fn eq_deterministic_ignores_timing_histograms() {
        profiler::start();
        profiler::count(Counter::Contacts, 1);
        {
            let _s = profiler::span(TimeHist::ContactNs);
        }
        let a = profiler::finish();

        profiler::start();
        profiler::count(Counter::Contacts, 1);
        let b = profiler::finish();

        assert!(a.eq_deterministic(&b));
        assert_ne!(a, b); // full equality sees the timing sample
    }

    #[test]
    fn calibration_is_positive() {
        assert!(calibrate_ns() > 0);
    }

    fn busy_report() -> ProfReport {
        profiler::start();
        profiler::count(Counter::NetFramesSent, 12);
        profiler::count(Counter::ControlBytes, 9001);
        profiler::gauge_set(Gauge::BufferMsgs, 17);
        profiler::observe(SizeHist::NetFrameStatsBytes, 512);
        profiler::observe_ns(TimeHist::NetExchangeNs, 12_345);
        profiler::observe_ns(TimeHist::NetExchangeNs, 1 << 33);
        profiler::finish()
    }

    #[test]
    fn wire_round_trip_is_exact() {
        let report = busy_report();
        let bytes = report.encode();
        let back = ProfReport::decode(&bytes).expect("decodes");
        assert_eq!(back, report, "full equality, timing histograms included");

        let empty = ProfReport::default();
        assert_eq!(ProfReport::decode(&empty.encode()), Some(empty));
    }

    #[test]
    fn wire_header_layout_is_pinned() {
        // DESIGN.md §15: version at 0, reserved at 1, then the four
        // taxonomy lengths as u16 LE at 2, 4, 6, 8; payload at 10.
        let bytes = busy_report().encode();
        assert_eq!(bytes[0], ProfReport::WIRE_VERSION);
        assert_eq!(bytes[1], 0);
        let at = |o: usize| u16::from_le_bytes(bytes[o..o + 2].try_into().unwrap()) as usize;
        assert_eq!(at(2), Counter::ALL.len());
        assert_eq!(at(4), Gauge::ALL.len());
        assert_eq!(at(6), TimeHist::ALL.len());
        assert_eq!(at(8), SizeHist::ALL.len());
        // First counter (u64 LE) sits at offset 10.
        let first = u64::from_le_bytes(bytes[10..18].try_into().unwrap());
        assert_eq!(first, busy_report().counter(Counter::ALL[0]));
    }

    #[test]
    fn wire_decode_rejects_mismatch_and_truncation() {
        let report = busy_report();
        let bytes = report.encode();
        // Any truncation fails — a decoder never guesses.
        for cut in [0, 1, 9, 10, bytes.len() - 1] {
            assert!(ProfReport::decode(&bytes[..cut]).is_none(), "cut {cut}");
        }
        // Trailing bytes fail.
        let mut long = bytes.clone();
        long.push(0);
        assert!(ProfReport::decode(&long).is_none());
        // Version and taxonomy-length mismatches fail.
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 99;
        assert!(ProfReport::decode(&wrong_version).is_none());
        let mut wrong_len = bytes.clone();
        wrong_len[2] ^= 0x01;
        assert!(ProfReport::decode(&wrong_len).is_none());
        let mut reserved = bytes;
        reserved[1] = 1;
        assert!(ProfReport::decode(&reserved).is_none());
    }

    #[test]
    fn direct_recording_matches_profiled_recording() {
        let via_profiler = busy_report();
        let mut direct = ProfReport::default();
        direct.add_counter(Counter::NetFramesSent, 12);
        direct.add_counter(Counter::ControlBytes, 9001);
        direct.raise_gauge(Gauge::BufferMsgs, 17);
        direct.record_size(SizeHist::NetFrameStatsBytes, 512);
        direct.record_time(TimeHist::NetExchangeNs, 12_345);
        direct.record_time(TimeHist::NetExchangeNs, 1 << 33);
        assert_eq!(direct, via_profiler);
    }
}
