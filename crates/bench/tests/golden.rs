//! Golden-file regression tests: regenerate the committed figure
//! artifacts from scratch and byte-compare them against `results/`.
//!
//! This is the repository's strongest guard against silent behavioral
//! drift — any change to the filter family, the simulator, the
//! protocols, or the sweep executor that perturbs a single delivered
//! message shows up here as a CSV diff. The fault-injection layer in
//! particular is required to leave every fault-free figure
//! bit-for-bit unchanged (`FaultSpec::none()` must cost nothing and
//! change nothing).
//!
//! Everything runs inside ONE `#[test]` in its own integration binary:
//! the regeneration is redirected via the `BSUB_RESULTS_DIR`
//! environment variable, and `std::env::set_var` is only safe while no
//! other test thread can race on it.

use bsub_bench::engine::Executor;
use bsub_bench::{experiments, output, Experiment, MASTER_SEED};
use bsub_traces::SimDuration;
use std::fs;
use std::path::Path;

/// The deterministic artifacts that are committed to the repo: the
/// figures, the tables and analyses, the fault sweep and the Fig. 7
/// time series. (Timing files like `perf_*.csv` are gitignored and not
/// compared.)
const GOLDEN: [&str; 14] = [
    "fig7.csv",
    "fig8.csv",
    "fig9.csv",
    "ablation.csv",
    "table1.csv",
    "table2.csv",
    "analysis_fpr.csv",
    "analysis_memory.csv",
    "analysis_allocation.csv",
    "analysis_df.csv",
    "analysis_unique.csv",
    "degradation.csv",
    "timeseries_fig7.csv",
    "timeseries_fig6_amerge.csv",
];

/// The time series of `experiments::dynamics` (Haggle-like trace,
/// TTL 500 min, 30-minute epochs) without its ~110 MB event logs:
/// the series recorder does not depend on the event recorder.
fn dynamics_series() {
    let mut spec = experiments::dynamics_spec(
        &Experiment::haggle(MASTER_SEED),
        SimDuration::from_mins(500),
        SimDuration::from_mins(30),
    );
    for run in &mut spec.runs {
        run.record.events = false;
    }
    for record in &Executor::from_env().run(&spec).records {
        let recording = record.recording.as_ref().expect("dynamics runs record");
        output::write_timeseries(&record.point, &recording.series);
    }
}

/// First line where the two renderings diverge, for a readable diff.
fn first_divergence(fresh: &str, golden: &str) -> String {
    for (i, (f, g)) in fresh.lines().zip(golden.lines()).enumerate() {
        if f != g {
            return format!("line {}:\n  fresh : {f}\n  golden: {g}", i + 1);
        }
    }
    format!(
        "line counts differ: fresh {} vs golden {}",
        fresh.lines().count(),
        golden.lines().count()
    )
}

#[test]
fn regenerated_figures_match_committed_artifacts() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-results");
    fs::create_dir_all(&tmp).expect("create scratch results dir");
    std::env::set_var("BSUB_RESULTS_DIR", &tmp);

    experiments::fig7();
    experiments::fig8();
    experiments::fig9();
    experiments::ablation();
    experiments::table1();
    experiments::table2();
    experiments::analysis();
    experiments::degradation();
    dynamics_series();

    std::env::remove_var("BSUB_RESULTS_DIR");

    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for name in GOLDEN {
        let fresh = fs::read_to_string(tmp.join(name))
            .unwrap_or_else(|e| panic!("regenerated {name} missing: {e}"));
        let golden = fs::read_to_string(committed.join(name))
            .unwrap_or_else(|e| panic!("committed results/{name} missing: {e}"));
        assert_eq!(
            fresh,
            golden,
            "{name} drifted from the committed artifact; if the change is \
             intentional, regenerate results/ and commit the new files.\n{}",
            first_divergence(&fresh, &golden)
        );
    }
}
