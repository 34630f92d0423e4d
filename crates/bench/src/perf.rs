//! The perf trajectory and regression gate.
//!
//! Every sweep appends one [`PerfEntry`] to `results/BENCH_perf.json`
//! — a JSON array holding the repo's performance history, one entry
//! object per line so diffs stay reviewable and the file can be parsed
//! without a JSON dependency. Entries carry both wall-clock timings
//! (normalized across hosts via [`calibrate_ns`]) and the sweep's
//! deterministic work sums (bytes moved, forwardings, deliveries), so
//! the comparator can tell "the machine is slow today" from "the code
//! now does more work".
//!
//! The gate itself is [`check`]: median-of-N over the baseline entries
//! for the same experiment at the same worker count, with a noise
//! tolerance on the normalized CPU time and a tighter one on the
//! deterministic byte counters.
//! Every binary that records perf entries goes through [`record`],
//! which appends them and, under `--check`, gates them; `ci.sh` runs
//! it through `perf --smoke --check` and the other smoke stages.

use crate::engine::SweepOutcome;
use crate::output::results_dir;
use bsub_obs::calibrate_ns;
use bsub_obs::json::{json_f64, json_string};
use std::fs;
use std::path::{Path, PathBuf};

/// Default multiplier on the baseline's median normalized CPU time
/// before a run counts as a timing regression. Wide enough to absorb
/// scheduler noise on a loaded CI host, tight enough that a genuine
/// 2x slowdown fails.
pub const DEFAULT_TIME_TOLERANCE: f64 = 1.6;

/// Default multiplier on the baseline's median deterministic byte
/// count. Bytes moved are seed-deterministic, so drift here means the
/// protocol's behavior changed, not the machine.
pub const DEFAULT_BYTES_TOLERANCE: f64 = 1.25;

/// One sweep's perf summary, as persisted in `BENCH_perf.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfEntry {
    /// Experiment name ([`SweepOutcome::name`]).
    pub experiment: String,
    /// Worker threads that executed the sweep.
    pub workers: u64,
    /// Number of runs in the sweep.
    pub runs: u64,
    /// Wall-clock duration of the whole sweep, milliseconds.
    pub total_ms: f64,
    /// Sum of per-run wall clocks, milliseconds.
    pub cpu_ms: f64,
    /// `cpu_ms / total_ms` — the parallel speedup.
    pub speedup: f64,
    /// This host's [`calibrate_ns`] measurement at record time, used
    /// to normalize `cpu_ms` across machines.
    pub calib_ns: u64,
    /// Deterministic bytes moved across the sweep (control + data).
    pub bytes: u64,
    /// Deterministic forwardings across the sweep.
    pub forwardings: u64,
    /// Deterministic genuine deliveries across the sweep.
    pub delivered: u64,
}

impl PerfEntry {
    /// Summarizes a finished sweep, measuring the host calibration.
    #[must_use]
    pub fn from_outcome(outcome: &SweepOutcome) -> Self {
        let mut bytes: u64 = 0;
        let mut forwardings: u64 = 0;
        let mut delivered: u64 = 0;
        for r in &outcome.records {
            bytes = bytes.saturating_add(r.report.total_bytes());
            forwardings = forwardings.saturating_add(r.report.forwardings);
            delivered = delivered.saturating_add(r.report.delivered);
        }
        Self {
            experiment: outcome.name.clone(),
            workers: outcome.workers as u64,
            runs: outcome.records.len() as u64,
            total_ms: outcome.total_wall.as_secs_f64() * 1e3,
            cpu_ms: outcome.cpu_wall().as_secs_f64() * 1e3,
            speedup: outcome.speedup(),
            calib_ns: calibrate_ns(),
            bytes,
            forwardings,
            delivered,
        }
    }

    /// CPU milliseconds per calibration millisecond — the host-speed-
    /// normalized cost the comparator reasons about.
    #[must_use]
    pub fn normalized_cpu(&self) -> f64 {
        self.cpu_ms / (self.calib_ns.max(1) as f64 / 1e6)
    }

    /// Renders the entry as a single-line JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"experiment\":{},\"workers\":{},\"runs\":{},\"total_ms\":{},\
             \"cpu_ms\":{},\"speedup\":{},\"calib_ns\":{},\"bytes\":{},\
             \"forwardings\":{},\"delivered\":{}}}",
            json_string(&self.experiment),
            self.workers,
            self.runs,
            json_f64(round3(self.total_ms)),
            json_f64(round3(self.cpu_ms)),
            json_f64(round3(self.speedup)),
            self.calib_ns,
            self.bytes,
            self.forwardings,
            self.delivered,
        )
    }

    /// Parses one entry line written by [`Self::to_json`]. Returns `None`
    /// for lines that are not entry objects (the array brackets) or
    /// that miss a field.
    #[must_use]
    pub fn parse(line: &str) -> Option<Self> {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') || !line.ends_with('}') {
            return None;
        }
        Some(Self {
            experiment: field_str(line, "experiment")?,
            workers: field(line, "workers")?.parse().ok()?,
            runs: field(line, "runs")?.parse().ok()?,
            total_ms: field(line, "total_ms")?.parse().ok()?,
            cpu_ms: field(line, "cpu_ms")?.parse().ok()?,
            speedup: field(line, "speedup")?.parse().ok()?,
            calib_ns: field(line, "calib_ns")?.parse().ok()?,
            bytes: field(line, "bytes")?.parse().ok()?,
            forwardings: field(line, "forwardings")?.parse().ok()?,
            delivered: field(line, "delivered")?.parse().ok()?,
        })
    }
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

/// The raw text of the value following `"name":`, up to the next
/// comma or closing brace (string values keep their quotes; the file
/// format never puts `,` or `}` inside strings — experiment names are
/// identifiers).
fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn field_str(line: &str, name: &str) -> Option<String> {
    let raw = field(line, name)?;
    Some(raw.trim_matches('"').to_string())
}

/// Loads every entry from a `BENCH_perf.json` trajectory. A missing
/// file is an empty trajectory; malformed lines are skipped.
#[must_use]
pub fn load(path: &Path) -> Vec<PerfEntry> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines().filter_map(PerfEntry::parse).collect()
}

/// Appends `entries` to the trajectory at `path`, keeping the file a
/// valid JSON array with one entry object per line.
pub fn append(path: &Path, entries: &[PerfEntry]) {
    let mut all = load(path);
    all.extend_from_slice(entries);
    let body: Vec<String> = all.iter().map(PerfEntry::to_json).collect();
    let text = format!("[\n{}\n]\n", body.join(",\n"));
    fs::write(path, text).expect("write perf trajectory");
}

/// The trajectory `--check` gates against: `BSUB_PERF_BASELINE`, or
/// the repo's committed `results/BENCH_perf.json`.
fn baseline_path() -> PathBuf {
    std::env::var_os("BSUB_PERF_BASELINE").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_perf.json"),
        PathBuf::from,
    )
}

/// Appends `entries` to the results trajectory and, when `gate` is set
/// (a binary's `--check` flag), [`check`]s each one against the
/// baseline at [`Tolerance::from_env`]. Every entry is checked and
/// reported; the process exits with status 1 if any failed.
pub fn record(entries: &[PerfEntry], gate: bool) {
    let trajectory = results_dir().join("BENCH_perf.json");
    append(&trajectory, entries);
    println!("[appended {}]", trajectory.display());
    if !gate {
        return;
    }
    let path = baseline_path();
    let baseline = load(&path);
    let tolerance = Tolerance::from_env();
    let mut failures = 0usize;
    for entry in entries {
        match check(&baseline, entry, tolerance) {
            Ok(note) => println!("[perf check] {note}"),
            Err(err) => {
                eprintln!("[perf check FAILED] {err}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} perf regression(s) against {}", path.display());
        std::process::exit(1);
    }
}

/// Noise tolerances for the regression gate, as multipliers on the
/// baseline medians.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Allowed factor on the normalized CPU time.
    pub time: f64,
    /// Allowed factor on the deterministic byte count.
    pub bytes: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Self {
            time: DEFAULT_TIME_TOLERANCE,
            bytes: DEFAULT_BYTES_TOLERANCE,
        }
    }
}

impl Tolerance {
    /// Defaults, overridable via `BSUB_PERF_TOLERANCE` (the time
    /// factor) — the escape hatch for known-noisy CI hosts.
    #[must_use]
    pub fn from_env() -> Self {
        let mut t = Self::default();
        if let Some(time) = std::env::var("BSUB_PERF_TOLERANCE")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|&v| v >= 1.0)
        {
            t.time = time;
        }
        t
    }
}

/// Renders each value at `decimals` places, comma-separated — the
/// per-entry breakdown behind a failed median so the diagnostic alone
/// shows whether one outlier or the whole baseline moved.
fn join_f64(values: &[f64], decimals: usize) -> String {
    values
        .iter()
        .map(|v| format!("{v:.decimals$}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite perf values"));
    values[values.len() / 2]
}

/// Compares `current` against the baseline trajectory: median-of-N
/// over the baseline entries with the same experiment name and worker
/// count, on the host-normalized CPU time and the deterministic byte
/// count. Entries at other worker counts never count: a 4-shard run
/// sums time-sliced shard time that a 1-shard baseline does not have.
///
/// # Errors
///
/// Returns a diagnostic when either measure exceeds its tolerance, or
/// when the experiment has baseline entries but none at this worker
/// count (the diagnostic names the missing key). An experiment with no
/// baseline entries at all passes (first runs establish the baseline,
/// they cannot regress against it).
pub fn check(
    baseline: &[PerfEntry],
    current: &PerfEntry,
    tolerance: Tolerance,
) -> Result<String, String> {
    let history: Vec<&PerfEntry> = baseline
        .iter()
        .filter(|e| e.experiment == current.experiment && e.workers == current.workers)
        .collect();
    if history.is_empty() {
        if baseline.iter().any(|e| e.experiment == current.experiment) {
            return Err(format!(
                "{0}: the baseline has entries for {0}, but none for \
                 (experiment {0}, workers {1})",
                current.experiment, current.workers,
            ));
        }
        return Ok(format!(
            "{}: no baseline entries, establishing baseline",
            current.experiment
        ));
    }
    let time_entries: Vec<f64> = history.iter().map(|e| e.normalized_cpu()).collect();
    let time_median = median(time_entries.clone());
    let time_now = current.normalized_cpu();
    if time_now > time_median * tolerance.time {
        return Err(format!(
            "{}: normalized CPU regressed {:.2}x over the baseline median \
             ({time_now:.1} vs {time_median:.1} cpu-ms/calib-ms, tolerance {:.2}x; \
             host calib_ns {}, baseline entries [{}])",
            current.experiment,
            time_now / time_median,
            tolerance.time,
            current.calib_ns,
            join_f64(&time_entries, 1),
        ));
    }
    let byte_entries: Vec<f64> = history.iter().map(|e| e.bytes as f64).collect();
    let bytes_median = median(byte_entries.clone());
    let bytes_now = current.bytes as f64;
    if bytes_median > 0.0 && bytes_now > bytes_median * tolerance.bytes {
        return Err(format!(
            "{}: deterministic bytes regressed {:.2}x over the baseline median \
             ({bytes_now:.0} vs {bytes_median:.0} bytes, tolerance {:.2}x; \
             host calib_ns {}, baseline entries [{}])",
            current.experiment,
            bytes_now / bytes_median,
            tolerance.bytes,
            current.calib_ns,
            join_f64(&byte_entries, 0),
        ));
    }
    Ok(format!(
        "{}: {:.2}x median normalized CPU, {:.2}x median bytes (n={})",
        current.experiment,
        time_now / time_median,
        if bytes_median > 0.0 {
            bytes_now / bytes_median
        } else {
            1.0
        },
        history.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(experiment: &str, cpu_ms: f64, calib_ns: u64, bytes: u64) -> PerfEntry {
        PerfEntry {
            experiment: experiment.into(),
            workers: 2,
            runs: 4,
            total_ms: cpu_ms / 2.0,
            cpu_ms,
            speedup: 2.0,
            calib_ns,
            bytes,
            forwardings: 100,
            delivered: 50,
        }
    }

    #[test]
    fn json_roundtrip() {
        let e = entry("fig7", 1234.5678, 8_000_000, 42_000);
        let parsed = PerfEntry::parse(&e.to_json()).expect("parses");
        assert_eq!(parsed.experiment, "fig7");
        assert_eq!(parsed.calib_ns, 8_000_000);
        assert_eq!(parsed.bytes, 42_000);
        assert!(
            (parsed.cpu_ms - 1234.568).abs() < 1e-9,
            "3-decimal rounding"
        );
    }

    #[test]
    fn trajectory_file_stays_a_valid_array() {
        let dir = std::env::temp_dir().join("bsub-perf-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_perf.json");
        let _ = fs::remove_file(&path);
        append(&path, &[entry("a", 10.0, 1_000_000, 5)]);
        append(&path, &[entry("b", 20.0, 1_000_000, 6)]);
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n") && text.ends_with("\n]\n"));
        let loaded = load(&path);
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].experiment, "a");
        assert_eq!(loaded[1].experiment, "b");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn steady_timings_pass() {
        let baseline = vec![
            entry("smoke", 100.0, 1_000_000, 1000),
            entry("smoke", 110.0, 1_000_000, 1000),
            entry("smoke", 95.0, 1_000_000, 1000),
        ];
        let current = entry("smoke", 105.0, 1_000_000, 1000);
        assert!(check(&baseline, &current, Tolerance::default()).is_ok());
    }

    /// The acceptance criterion: an injected 2x slowdown must fail the
    /// gate at the default tolerance.
    #[test]
    fn injected_2x_slowdown_fails() {
        let baseline = vec![
            entry("smoke", 100.0, 1_000_000, 1000),
            entry("smoke", 104.0, 1_000_000, 1000),
            entry("smoke", 98.0, 1_000_000, 1000),
        ];
        let slow = entry("smoke", 200.0, 1_000_000, 1000);
        let err = check(&baseline, &slow, Tolerance::default()).expect_err("2x must fail");
        assert!(err.contains("normalized CPU regressed"), "{err}");
    }

    /// A timing failure names the host calibration and every baseline
    /// entry behind the median, so a flaky-host report is actionable
    /// without re-running the gate.
    #[test]
    fn time_failure_lists_calibration_and_baseline_entries() {
        let baseline = vec![
            entry("smoke", 100.0, 1_000_000, 1000),
            entry("smoke", 104.0, 1_000_000, 1000),
            entry("smoke", 98.0, 1_000_000, 1000),
        ];
        let slow = entry("smoke", 500.0, 2_500_000, 1000);
        let err = check(&baseline, &slow, Tolerance::default()).expect_err("fails");
        assert!(err.contains("host calib_ns 2500000"), "{err}");
        assert!(
            err.contains("baseline entries [100.0, 104.0, 98.0]"),
            "{err}"
        );
    }

    /// A byte failure carries the same per-entry breakdown.
    #[test]
    fn byte_failure_lists_baseline_entries() {
        let baseline = vec![
            entry("smoke", 100.0, 1_000_000, 1000),
            entry("smoke", 100.0, 1_000_000, 1200),
        ];
        let bloated = entry("smoke", 100.0, 1_000_000, 4000);
        let err = check(&baseline, &bloated, Tolerance::default()).expect_err("fails");
        assert!(err.contains("host calib_ns 1000000"), "{err}");
        assert!(err.contains("baseline entries [1000, 1200]"), "{err}");
    }

    /// A slower machine is not a regression: the calibration doubles
    /// alongside the CPU time, so the normalized cost is unchanged.
    #[test]
    fn slow_host_is_normalized_away() {
        let baseline = vec![
            entry("smoke", 100.0, 1_000_000, 1000),
            entry("smoke", 102.0, 1_000_000, 1000),
            entry("smoke", 99.0, 1_000_000, 1000),
        ];
        let slow_host = entry("smoke", 200.0, 2_000_000, 1000);
        assert!(check(&baseline, &slow_host, Tolerance::default()).is_ok());
    }

    #[test]
    fn byte_growth_fails_independently_of_timing() {
        let baseline = vec![entry("smoke", 100.0, 1_000_000, 1000)];
        let bloated = entry("smoke", 100.0, 1_000_000, 2000);
        let err = check(&baseline, &bloated, Tolerance::default()).expect_err("bytes gate");
        assert!(err.contains("deterministic bytes"), "{err}");
    }

    #[test]
    fn unknown_experiment_establishes_baseline() {
        let baseline = vec![entry("smoke", 100.0, 1_000_000, 1000)];
        let fresh = entry("brand-new", 9999.0, 1_000_000, 1);
        let note = check(&baseline, &fresh, Tolerance::default()).expect("vacuous pass");
        assert!(note.contains("establishing baseline"));
    }

    /// Entries are keyed on (experiment, workers): a 4-worker run is
    /// gated against the 4-worker entries alone, so a 2x slowdown
    /// fails even when slower entries at another worker count would
    /// have hidden it.
    #[test]
    fn worker_counts_are_gated_separately() {
        let at = |workers: u64, cpu_ms: f64| PerfEntry {
            workers,
            ..entry("smoke", cpu_ms, 1_000_000, 1000)
        };
        let baseline = vec![at(1, 400.0), at(1, 410.0), at(4, 100.0), at(4, 104.0)];
        assert!(check(&baseline, &at(4, 105.0), Tolerance::default()).is_ok());
        let err = check(&baseline, &at(4, 200.0), Tolerance::default()).expect_err("2x fails");
        assert!(err.contains("baseline entries [100.0, 104.0]"), "{err}");
        assert!(check(&baseline, &at(1, 405.0), Tolerance::default()).is_ok());
    }

    /// An experiment with entries, but none at this worker count, fails
    /// and names the missing key — it never passes vacuously.
    #[test]
    fn missing_worker_count_fails_naming_the_key() {
        let baseline = vec![entry("smoke", 100.0, 1_000_000, 1000)];
        let other = PerfEntry {
            workers: 4,
            ..entry("smoke", 100.0, 1_000_000, 1000)
        };
        let err = check(&baseline, &other, Tolerance::default()).expect_err("no key");
        assert!(
            err.contains("none for (experiment smoke, workers 4)"),
            "{err}"
        );
    }

    #[test]
    fn env_tolerance_overrides_time_factor() {
        std::env::set_var("BSUB_PERF_TOLERANCE", "3.5");
        let t = Tolerance::from_env();
        std::env::remove_var("BSUB_PERF_TOLERANCE");
        assert!((t.time - 3.5).abs() < 1e-12);
        assert!((t.bytes - DEFAULT_BYTES_TOLERANCE).abs() < 1e-12);
        let baseline = vec![entry("smoke", 100.0, 1_000_000, 1000)];
        let slow = entry("smoke", 300.0, 1_000_000, 1000);
        assert!(check(&baseline, &slow, t).is_ok(), "3x passes at 3.5x");
    }
}
