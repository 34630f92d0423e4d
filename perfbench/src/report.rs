//! What a workload run returns, and how it is printed: a human-readable
//! block (sample counts next to every percentile, the traced run's
//! layer accounting) followed by one JSON line with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use crate::stats::{best_quartile, peak_rss_mib, Window};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics, `(name, unit)`, reported with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Every per-layer metric, `(name, unit)`, reported by the traced run.
/// A workload that bypasses a layer reports its metrics as 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("traces.build_s", "s"),
    ("workload.build_s", "s"),
    ("sim.contacts", "count"),
    ("sim.messages", "count"),
    ("sim.runner_self_s", "s"),
    ("core.on_contact_busy_s", "s"),
    ("core.on_contact_p50_us", "us"),
    ("core.on_contact_p90_us", "us"),
    ("core.on_message_busy_s", "s"),
    ("core.forwardings", "count"),
    ("core.control_bytes", "bytes"),
    ("core.data_bytes", "bytes"),
    ("core.delivered", "count"),
    ("core.false_injections", "count"),
    ("core.delivered_per_forwarding", "ratio"),
    ("bloom.merges", "count"),
    ("bloom.merge_busy_s", "s"),
    ("bloom.decays", "count"),
    ("bloom.decay_busy_s", "s"),
    ("bloom.queries", "count"),
    ("bloom.preference_busy_s", "s"),
    ("match.events", "count"),
    ("match.tier_probes", "count"),
    ("match.tier_hits", "count"),
    ("match.candidates", "count"),
    ("match.matched", "count"),
    ("match.prune_hit_ratio", "ratio"),
    ("match.confirm_ratio", "ratio"),
    ("match.batch_busy_s", "s"),
    ("match.tiers", "count"),
    ("match.pool_filters", "count"),
    ("match.live", "count"),
    ("match.subscribe_busy_s", "s"),
    ("match.subscribe_p50_us", "us"),
    ("match.purge_busy_s", "s"),
    ("match.purge_p50_us", "us"),
    ("match.expire_busy_s", "s"),
    ("match.decay_busy_s", "s"),
    ("match.compactions", "count"),
    ("match.write_ops", "count"),
    ("net.client_send_p50_us", "us"),
    ("net.frame_publish_p50_us", "us"),
    ("net.frame_deliver_p50_us", "us"),
    ("broker.batch_p50_us", "us"),
    ("broker.batch_busy_s", "s"),
    ("broker.batch_ops_mean", "ops"),
    ("broker.batches", "count"),
    ("net.send_stalls", "count"),
    ("net.frames_sent", "count"),
    ("net.bytes_sent", "bytes"),
    ("broker.residual_p50_us", "us"),
    ("gen.late_p50_us", "us"),
    ("gen.late_p90_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (the unit `throughput_per_s` counts).
    pub attempted: u64,
    /// Attempted operations whose output was wrong or missing.
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub problems: Vec<String>,
    /// End-to-end values by name (always measured, traced or not).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The p90 that goes with `p50_us`: printed in the table, not part
    /// of the JSON result (see `perfbench/README.md`).
    pub p90_us: Option<f64>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Sets a per-layer metric. Panics on a name outside [`PER_LAYER`],
    /// so a typo cannot silently report 0.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unknown end-to-end metric {name}"
        );
        self.end_to_end.insert(name, value);
    }

    /// Sets `p50_us` to the [`best_quartile`] over `windows` of each
    /// window's median, and prints it with p90 (not an end-to-end
    /// metric: see `perfbench/README.md`) and the sample counts; a
    /// window with too few samples for p90 is a failed check.
    pub fn window_percentiles(&mut self, windows: &mut [Window], what: &str) {
        let mut p50s = Vec::new();
        let mut p90s = Vec::new();
        for (k, w) in windows.iter_mut().enumerate() {
            match (w.samples.quantile_us(0.5), w.samples.quantile_us(0.9)) {
                (Some(p50), Some(p90)) => {
                    p50s.push(p50);
                    p90s.push(p90);
                }
                _ => self.problem(format!(
                    "{what}: window {k} has too few samples for p90: {}",
                    w.samples.len()
                )),
            }
        }
        if p50s.is_empty() {
            return;
        }
        let (p50, p90) = (best_quartile(&p50s, true), best_quartile(&p90s, true));
        self.e2e("p50_us", p50);
        self.p90_us = Some(p90);
        let counts: Vec<usize> = windows.iter().map(|w| w.samples.len()).collect();
        self.line(format!(
            "  {what}: p50 {p50:.2} us, p90 {p90:.2} us, best quartile of {} windows \
             (per-window p50 {}; p90 {}; n = {counts:?})",
            p50s.len(),
            join(&p50s),
            join(&p90s)
        ));
    }

    /// Sets `throughput_per_s` to the [`best_quartile`] over `windows`
    /// of operations per busy second.
    pub fn window_throughput(&mut self, windows: &[Window], what: &str) {
        let rates: Vec<f64> = windows
            .iter()
            .filter(|w| w.ops > 0)
            .map(|w| w.ops as f64 / w.busy.as_secs_f64())
            .collect();
        if rates.is_empty() {
            self.problem(format!("{what}: no operation completed"));
            return;
        }
        let rate = best_quartile(&rates, false);
        self.e2e("throughput_per_s", rate);
        self.line(format!(
            "  {what}: {rate:.1}/s, best quartile of {} windows ({}/s)",
            rates.len(),
            join(&rates)
        ));
    }

    /// Sets `peak_rss_mib` from the process's peak resident set.
    pub fn peak_rss(&mut self) {
        match peak_rss_mib() {
            Ok(mib) => self.e2e("peak_rss_mib", mib),
            Err(e) => self.problem(e),
        }
    }

    /// Whether every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The JSON result line. With `traced` the metrics are every
    /// per-layer metric, otherwise every end-to-end metric; a metric
    /// that is missing or not finite is an error.
    ///
    /// # Errors
    ///
    /// Names the first end-to-end metric that was not measured or is
    /// not a finite number.
    pub fn json(&self, traced: bool) -> Result<String, String> {
        let mut metrics = String::new();
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = if traced {
                self.layers.get(name).copied().unwrap_or(0.0)
            } else {
                *self
                    .end_to_end
                    .get(name)
                    .ok_or_else(|| format!("end-to-end metric {name} was not measured"))?
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        ))
    }

    /// The metric table printed above the JSON line.
    #[must_use]
    pub fn table(&self, traced: bool) -> String {
        let mut out = String::new();
        for (name, unit) in END_TO_END {
            if let Some(v) = self.end_to_end.get(name) {
                let _ = writeln!(out, "  {name:<32} {v:>16.4} {unit}");
            }
        }
        if let Some(v) = self.p90_us {
            let _ = writeln!(out, "  {:<32} {v:>16.4} us (not gated)", "p90_us");
        }
        if traced {
            for (name, unit) in PER_LAYER {
                if let Some(v) = self.layers.get(name) {
                    let _ = writeln!(out, "  {name:<32} {v:>16.4} {unit}");
                }
            }
        }
        out
    }
}

/// `values` with one decimal, space-separated.
#[must_use]
pub fn join(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.1}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Share of `part` in `whole` as a percentage, 0 when `whole` is 0.
#[must_use]
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// `num / den`, 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.e2e(name, 1.5);
        }
        let json = o.json(false).expect("complete");
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(json.contains("\"p50_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
        let traced = o.json(true).expect("layers default to 0");
        assert!(traced.contains("\"trace.overhead_ratio\": {\"value\": 0.0, \"unit\": \"ratio\"}"));
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error() {
        assert!(Outcome::default().json(false).is_err());
    }
}
