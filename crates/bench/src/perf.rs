//! The perf trajectory and regression gate.
//!
//! Every sweep appends one [`PerfEntry`] to `results/BENCH_perf.json`
//! — a JSON array holding the repo's performance history, one entry
//! object per line so diffs stay reviewable. Entries are written and
//! read back with `bsub_obs::json`, and a line [`load`] cannot read is
//! an error, never dropped. Entries carry both wall-clock timings
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
use bsub_obs::json::{Fields, Object};
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
        let mut o = Object::new();
        o.str("experiment", &self.experiment)
            .u64("workers", self.workers)
            .u64("runs", self.runs)
            .f64("total_ms", round3(self.total_ms))
            .f64("cpu_ms", round3(self.cpu_ms))
            .f64("speedup", round3(self.speedup))
            .u64("calib_ns", self.calib_ns)
            .u64("bytes", self.bytes)
            .u64("forwardings", self.forwardings)
            .u64("delivered", self.delivered);
        o.finish()
    }

    /// Parses one entry object written by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// When `text` is not a flat JSON object holding every field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let f = Fields::parse(text)?;
        Ok(Self {
            experiment: f.str("experiment")?,
            workers: f.num("workers")?,
            runs: f.num("runs")?,
            total_ms: f.num("total_ms")?,
            cpu_ms: f.num("cpu_ms")?,
            speedup: f.num("speedup")?,
            calib_ns: f.num("calib_ns")?,
            bytes: f.num("bytes")?,
            forwardings: f.num("forwardings")?,
            delivered: f.num("delivered")?,
        })
    }
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

/// Loads every entry of a `BENCH_perf.json` trajectory: a `[` line,
/// one entry object per line (comma-terminated but the last), and a
/// `]` line.
///
/// # Errors
///
/// Names the file, and the line when one is neither a bracket nor an
/// entry, when the file cannot be read or holds such a line.
pub fn load(path: &Path) -> Result<Vec<PerfEntry>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let lines = text.lines().map(str::trim).enumerate();
    let entries = lines.filter(|(_, line)| !matches!(*line, "[" | "]"));
    entries
        .map(|(i, line)| {
            PerfEntry::from_json(line.strip_suffix(',').unwrap_or(line))
                .map_err(|e| format!("{}: line {}: {e}", path.display(), i + 1))
        })
        .collect()
}

/// Renders a trajectory the way [`load`] reads it.
fn render_trajectory(entries: &[PerfEntry]) -> String {
    let body: Vec<String> = entries.iter().map(PerfEntry::to_json).collect();
    let end = if body.is_empty() { "]" } else { "\n]" };
    format!("[\n{}{end}\n", body.join(",\n"))
}

/// Appends `entries` to the trajectory at `path`, keeping the file a
/// valid JSON array with one entry object per line. A missing file
/// starts a new trajectory.
///
/// # Errors
///
/// When an existing file cannot be read or holds a line [`load`]
/// rejects (it is left as it was), or the write fails.
pub fn append(path: &Path, entries: &[PerfEntry]) -> Result<(), String> {
    let mut all = path
        .exists()
        .then(|| load(path))
        .transpose()?
        .unwrap_or_default();
    all.extend_from_slice(entries);
    fs::write(path, render_trajectory(&all)).map_err(|e| format!("{}: {e}", path.display()))
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
/// reported, with the host's CPU steal since `started` (the binary's
/// start) on each line, so a failure caused by a contended host can be
/// told apart from a regression. The process exits with status 1 if the
/// trajectory cannot be appended to, if the gate finds no readable
/// baseline, or if any entry failed.
pub fn record(entries: &[PerfEntry], gate: bool, started: CpuTimes) {
    let trajectory = results_dir().join("BENCH_perf.json");
    if let Err(err) = append(&trajectory, entries) {
        eprintln!("cannot append to the perf trajectory: {err}");
        std::process::exit(1);
    }
    println!("[appended {}]", trajectory.display());
    if !gate {
        return;
    }
    let steal = started.steal_since();
    let path = baseline_path();
    let baseline = load(&path).unwrap_or_else(|err| {
        eprintln!("[perf check FAILED] no usable baseline: {err}; {steal}");
        std::process::exit(1);
    });
    let tolerance = Tolerance::from_env();
    let mut failures = 0usize;
    for entry in entries {
        match check(&baseline, entry, tolerance) {
            Ok(note) => println!("[perf check] {note}; {steal}"),
            Err(err) => {
                eprintln!("[perf check FAILED] {err}; {steal}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} perf regression(s) against {}", path.display());
        std::process::exit(1);
    }
}

/// The host's cumulative CPU time from the first line of `/proc/stat`,
/// in clock ticks: the total and the part of it that was steal (time a
/// hypervisor gave this host's virtual CPUs to someone else). Holds
/// nothing where `/proc/stat` is absent or unreadable.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes(Option<(u64, u64)>);

impl CpuTimes {
    /// Reads the host's CPU times now.
    #[must_use]
    pub fn now() -> Self {
        Self(
            fs::read_to_string("/proc/stat")
                .ok()
                .and_then(|stat| parse_cpu_times(&stat)),
        )
    }

    /// The share of host CPU time since `self` that was steal, as
    /// `steal 1.2%`, or `steal n/a` when it cannot be read.
    #[must_use]
    pub fn steal_since(self) -> String {
        match (self.0, Self::now().0) {
            (Some((total0, steal0)), Some((total1, steal1))) if total1 > total0 => format!(
                "steal {:.1}%",
                100.0 * steal1.saturating_sub(steal0) as f64 / (total1 - total0) as f64
            ),
            _ => "steal n/a".into(),
        }
    }
}

/// `(total, steal)` from the aggregate `cpu` line: user, nice, system,
/// idle, iowait, irq, softirq, steal. The guest fields that may follow
/// are already counted in user and nice.
fn parse_cpu_times(stat: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
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
        let parsed = PerfEntry::from_json(&e.to_json()).expect("parses");
        assert_eq!(parsed.experiment, "fig7");
        assert_eq!(parsed.calib_ns, 8_000_000);
        assert_eq!(parsed.bytes, 42_000);
        assert!(
            (parsed.cpu_ms - 1234.568).abs() < 1e-9,
            "3-decimal rounding"
        );
    }

    /// The exact bytes of one `BENCH_perf.json` line: key order, the
    /// three-decimal rounding and the `.0` of an integral float.
    #[test]
    fn entry_line_is_pinned() {
        let e = PerfEntry {
            experiment: "fig7".into(),
            workers: 1,
            runs: 12,
            total_ms: 2500.0,
            cpu_ms: 1234.5678,
            speedup: 0.493_827,
            calib_ns: 8_000_000,
            bytes: 42_000,
            forwardings: 100,
            delivered: 50,
        };
        assert_eq!(
            e.to_json(),
            concat!(
                r#"{"experiment":"fig7","workers":1,"runs":12,"total_ms":2500.0,"#,
                r#""cpu_ms":1234.568,"speedup":0.494,"calib_ns":8000000,"bytes":42000,"#,
                r#""forwardings":100,"delivered":50}"#,
            )
        );
    }

    /// A fresh trajectory file under the system temp directory.
    fn scratch_trajectory(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bsub-perf-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = fs::remove_file(&path);
        path
    }

    /// Appending to a trajectory that does not exist yet starts one.
    #[test]
    fn trajectory_file_stays_a_valid_array() {
        let path = scratch_trajectory("BENCH_perf.json");
        append(&path, &[entry("a", 10.0, 1_000_000, 5)]).unwrap();
        append(&path, &[entry("b", 20.0, 1_000_000, 6)]).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n") && text.ends_with("\n]\n"));
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].experiment, "a");
        assert_eq!(loaded[1].experiment, "b");
        let _ = fs::remove_file(&path);
    }

    /// `--check` without a baseline file fails instead of passing every
    /// entry as a first run.
    #[test]
    fn missing_baseline_is_an_error() {
        let path = scratch_trajectory("missing.json");
        let err = load(&path).expect_err("no file");
        assert!(err.contains("missing.json"), "{err}");
    }

    /// A line that is neither a bracket nor an entry fails the load,
    /// names its line, and stops `append` from rewriting the file
    /// without it.
    #[test]
    fn malformed_line_is_an_error_and_never_dropped() {
        let path = scratch_trajectory("malformed.json");
        let good = entry("a", 10.0, 1_000_000, 5).to_json();
        let text = format!("[\n{good},\n{{\"experiment\":\"b\",\"runs\":1}},\n{good}\n]\n");
        fs::write(&path, &text).unwrap();
        let err = load(&path).expect_err("malformed");
        assert!(err.contains("line 3: missing field \"workers\""), "{err}");
        assert!(append(&path, &[entry("c", 1.0, 1_000_000, 1)]).is_err());
        assert_eq!(fs::read_to_string(&path).unwrap(), text, "left as it was");

        for bad in ["{\"experiment\":\"x\"", "not json", ""] {
            fs::write(&path, format!("[\n{bad}\n]\n")).unwrap();
            let err = load(&path).expect_err(bad);
            assert!(err.contains("malformed.json: line 2: "), "{err}");
        }
        let _ = fs::remove_file(&path);
    }

    /// Loading the committed trajectory and rendering it again gives
    /// back the file byte for byte: the reader keeps every entry and
    /// the writer reproduces every float.
    #[test]
    fn committed_trajectory_round_trips() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_perf.json");
        let text = fs::read_to_string(&path).unwrap();
        let entries = load(&path).unwrap();
        assert_eq!(entries.len() + 2, text.lines().count());
        assert_eq!(render_trajectory(&entries), text);
        assert_eq!(render_trajectory(&[]), "[\n]\n");
    }

    #[test]
    fn cpu_times_read_the_aggregate_line() {
        let stat = "cpu  100 5 20 800 10 0 5 60 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_cpu_times(stat), Some((1000, 60)));
        assert_eq!(parse_cpu_times("cpu  1 2 3\n"), None, "no steal field");
        assert_eq!(parse_cpu_times("intr 5\n"), None);
        assert_eq!(CpuTimes(None).steal_since(), "steal n/a");
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
