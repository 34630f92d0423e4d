//! The metrics-and-profiling driver: reruns the paper sweeps with the
//! `bsub-obs` profiler attached and reports what the hot paths did —
//! per-protocol counters, buffer high-water marks, and timing/size
//! histograms — as a terminal table plus `results/metrics_<name>.json`.
//! Every sweep also appends a [`bsub_bench::perf::PerfEntry`] to the
//! `BENCH_perf.json` trajectory. See DESIGN.md §9.
//!
//! Flags (combinable):
//!
//! - `--smoke` — profile one small fig7-shaped synthetic sweep
//!   (seconds) instead of the full fig7/fig8/fig9 replay (minutes);
//! - `--check` — after measuring, compare each sweep against the
//!   committed baseline (`BSUB_PERF_BASELINE`, defaulting to the
//!   repo's `results/BENCH_perf.json`) with the median-of-N regression
//!   gate, exiting non-zero on a regression. CI runs
//!   `perf --smoke --check`.

use bsub_bench::engine::{Executor, SweepSpec};
use bsub_bench::output::{results_dir, write_run_walls};
use bsub_bench::perf::{self, PerfEntry};
use bsub_bench::{experiments, Experiment, MASTER_SEED};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let started = perf::CpuTimes::now();

    let specs: Vec<SweepSpec> = if smoke {
        vec![experiments::perf_smoke_spec()]
    } else {
        let haggle = Experiment::haggle(MASTER_SEED);
        let reality = Experiment::reality(MASTER_SEED);
        vec![
            experiments::ttl_sweep_spec("fig7", &haggle),
            experiments::ttl_sweep_spec("fig8", &reality),
            experiments::df_sweep_spec(&haggle, &reality),
        ]
    };

    let mut entries = Vec::new();
    for mut spec in specs {
        for run in &mut spec.runs {
            run.record.prof = true;
        }
        let outcome = Executor::from_env().run(&spec);

        let metrics = outcome.metrics_report();
        println!("\n== {} — hot-path metrics ==", outcome.name);
        print!("{}", metrics.render_table());
        let json_path = results_dir().join(format!("metrics_{}.json", outcome.name));
        std::fs::write(&json_path, format!("{}\n", metrics.to_json())).expect("write metrics JSON");
        println!("[written {}]", json_path.display());

        write_run_walls(&outcome);
        entries.push(PerfEntry::from_outcome(&outcome));
    }
    perf::record(&entries, check, started);
}
