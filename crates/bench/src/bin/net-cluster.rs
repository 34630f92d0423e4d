//! The loopback cluster harness: runs the smoke workload over real
//! sockets and proves the networked runtime reproduces the serial
//! simulator *exactly*.
//!
//! For each smoke protocol (PUSH, B-SUB, PULL) the coordinator:
//!
//! 1. runs the serial simulator on the shared smoke environment
//!    (ground truth),
//! 2. spawns `--workers` OS processes (re-invocations of this binary
//!    with `--worker`), each hosting a full protocol instance behind
//!    a `bsub-net` peer manager on Unix-domain sockets,
//! 3. drives the same contact schedule through the cluster and
//!    asserts the resulting [`bsub_sim::SimReport`] equals the serial
//!    one — exiting non-zero on any divergence.
//!
//! The run doubles as the live observability demo (DESIGN.md §15):
//! with a stats cadence set (the default), every worker ships `STATS`
//! deltas of its in-process profile to the coordinator, which merges
//! them into one cluster-wide [`bsub_obs::ProfReport`] served live by
//! a [`StatsServer`] for the whole run. After the last protocol the
//! harness scrapes its own endpoint once and asserts the scrape
//! equals the in-process snapshot byte for byte — the live path and
//! the offline merge cannot drift apart silently.
//!
//! Artifacts (under `results/` or `$BSUB_RESULTS_DIR`):
//!
//! - `net_smoke.csv` — the cluster's per-protocol report columns;
//! - `net_smoke_sim.csv` — the serial simulator's, same schema. CI
//!   diffs the two files byte for byte.
//! - `net_latency.csv` — wall-clock p50/p99 exchange latency plus one
//!   per-frame-kind latency row per observed kind, from the merged
//!   cluster report's `net_frame_*_ns` histograms (host-dependent;
//!   never diffed).
//! - `net_metrics.json` — the final merged cluster report, same JSON
//!   the `/metrics.json` endpoint serves (host-dependent).
//! - `BENCH_perf.json` — one appended `net_smoke` perf entry.
//!
//! Flags: `--smoke` (the only cluster size for now), `--check` (gate
//! the perf entry against the committed baseline), `--workers N`
//! (default 2), `--stats-cadence-ms N` (worker STATS delta cadence;
//! default 100, `0` disables the whole stats plane), `--stats-addr A`
//! (endpoint bind, `HOST:PORT` or `unix:PATH`; default
//! `127.0.0.1:0`). `--scrape A` is a client mode: fetch `/metrics`
//! from a running endpoint, print it, and exit. `--worker --protocol
//! P --dir D --peer N --workers W` is the internal worker-process
//! mode.

use bsub_bench::experiments::{smoke_environment, smoke_protocols};
use bsub_bench::output::{render_table, results_dir, write_csv};
use bsub_bench::perf::{self, PerfEntry};
use bsub_bench::{Experiment, MASTER_SEED};
use bsub_net::{
    frame_time_hist, render_prometheus, run_coordinator_with, run_worker, scrape, ClusterSpec,
    EndpointAddr, FrameKind, StatsServer,
};
use bsub_obs::{calibrate_ns, SharedReport};
use bsub_sim::{ProtocolFactory, SimReport};
use bsub_traces::SimDuration;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

fn spec_for(experiment: &Experiment, ttl: SimDuration, workers: u32) -> ClusterSpec {
    ClusterSpec::new(experiment.sim(ttl), MASTER_SEED, workers)
}

fn factory_for(experiment: &Experiment, ttl: SimDuration, label: &str) -> Box<dyn ProtocolFactory> {
    let kind = smoke_protocols(experiment, ttl)
        .into_iter()
        .find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("unknown protocol {label}"))
        .1;
    experiment.factory(kind, ttl)
}

/// The deterministic report columns — identical between the cluster
/// and serial CSVs when (and only when) the runs are equal.
const REPORT_HEADERS: [&str; 12] = [
    "protocol",
    "generated",
    "target_pairs",
    "delivered",
    "false_delivered",
    "delay_ms",
    "forwardings",
    "control_bytes",
    "data_bytes",
    "contacts",
    "injections",
    "false_injections",
];

fn report_row(report: &SimReport) -> Vec<String> {
    vec![
        report.protocol.clone(),
        report.generated.to_string(),
        report.target_pairs.to_string(),
        report.delivered.to_string(),
        report.false_delivered.to_string(),
        report.delay_total.as_millis().to_string(),
        report.forwardings.to_string(),
        report.control_bytes.to_string(),
        report.data_bytes.to_string(),
        report.contacts.to_string(),
        report.injections.to_string(),
        report.false_injections.to_string(),
    ]
}

fn percentile_us(sorted_ns: &[u64], pct: usize) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = (sorted_ns.len() - 1) * pct / 100;
    sorted_ns[rank] as f64 / 1e3
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// STATS delta cadence from `--stats-cadence-ms` (default 100 ms);
/// `0` switches the whole stats plane off.
fn stats_cadence(args: &[String]) -> Option<Duration> {
    let ms: u64 = match arg_value(args, "--stats-cadence-ms") {
        Some(raw) => match raw.parse() {
            Ok(ms) => ms,
            Err(_) => {
                eprintln!("--stats-cadence-ms requires a non-negative integer");
                std::process::exit(2);
            }
        },
        None => 100,
    };
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// Parses a stats endpoint address: `unix:PATH` or a TCP `HOST:PORT`.
fn parse_stats_addr(raw: &str) -> EndpointAddr {
    if let Some(path) = raw.strip_prefix("unix:") {
        return EndpointAddr::Unix(PathBuf::from(path));
    }
    match raw.parse() {
        Ok(sock) => EndpointAddr::Tcp(sock),
        Err(_) => {
            eprintln!("--stats-addr/--scrape want HOST:PORT or unix:PATH, got {raw}");
            std::process::exit(2);
        }
    }
}

fn worker_main(args: &[String]) -> ! {
    let protocol = arg_value(args, "--protocol").expect("--protocol");
    let dir = PathBuf::from(arg_value(args, "--dir").expect("--dir"));
    let peer: u32 = arg_value(args, "--peer")
        .expect("--peer")
        .parse()
        .expect("numeric --peer");
    let workers: u32 = arg_value(args, "--workers")
        .expect("--workers")
        .parse()
        .expect("numeric --workers");
    let (experiment, ttl) = smoke_environment();
    let mut spec = spec_for(&experiment, ttl, workers);
    if let Some(cadence) = stats_cadence(args) {
        spec = spec.with_stats_cadence(cadence);
    }
    let factory = factory_for(&experiment, ttl, &protocol);
    match run_worker(&spec, factory.as_ref(), &dir, peer) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("worker {peer} ({protocol}): {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--worker") {
        worker_main(&args);
    }
    if let Some(raw) = arg_value(&args, "--scrape") {
        match scrape(&parse_stats_addr(&raw), "/metrics") {
            Ok(text) => {
                print!("{text}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("net-cluster: scrape {raw} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let check = args.iter().any(|a| a == "--check");
    let workers: u32 = arg_value(&args, "--workers")
        .map(|v| v.parse().expect("numeric --workers"))
        .unwrap_or(2);
    // `--smoke` is the only cluster size today; accept and ignore it
    // so the ci.sh invocation reads like the other smoke gates.
    let cadence = stats_cadence(&args);
    let cadence_ms = cadence.map_or(0, |c| c.as_millis() as u64);

    // One sink for the whole run: the coordinator merges every
    // worker's STATS deltas into it across all three protocols, and
    // the server exposes it live while the cluster is executing.
    let stats = cadence.map(|_| Arc::new(SharedReport::new()));
    let server = stats.as_ref().map(|stats| {
        let bind = arg_value(&args, "--stats-addr").unwrap_or_else(|| "127.0.0.1:0".to_string());
        let stats = Arc::clone(stats);
        let server = StatsServer::serve(&parse_stats_addr(&bind), move || stats.snapshot())
            .expect("bind stats endpoint");
        println!(
            "[stats endpoint {} — /metrics, /metrics.json]",
            server.local_addr()
        );
        server
    });

    let (experiment, ttl) = smoke_environment();
    let dir_root = std::env::temp_dir().join(format!("bsub-net-cluster-{}", std::process::id()));
    let exe = std::env::current_exe().expect("current executable");

    let mut cluster_rows = Vec::new();
    let mut serial_rows = Vec::new();
    let mut latency_rows = Vec::new();
    let mut total_wall_ms = 0.0f64;
    let mut sum_bytes = 0u64;
    let mut sum_forwardings = 0u64;
    let mut sum_delivered = 0u64;
    let mut runs = 0u64;

    for (label, kind) in smoke_protocols(&experiment, ttl) {
        let factory = experiment.factory(kind, ttl);
        let mut spec = spec_for(&experiment, ttl, workers);
        if let Some(cadence) = cadence {
            spec = spec.with_stats_cadence(cadence);
        }
        let serial = spec.sim.run_factory(factory.as_ref(), spec.seed).0;

        let dir = dir_root.join(label);
        std::fs::create_dir_all(&dir).expect("create cluster socket dir");
        let mut children: Vec<_> = (1..=workers)
            .map(|w| {
                Command::new(&exe)
                    .args([
                        "--worker",
                        "--protocol",
                        label,
                        "--dir",
                        dir.to_str().expect("utf-8 temp dir"),
                        "--peer",
                        &w.to_string(),
                        "--workers",
                        &workers.to_string(),
                        "--stats-cadence-ms",
                        &cadence_ms.to_string(),
                    ])
                    .stdin(Stdio::null())
                    .spawn()
                    .expect("spawn worker process")
            })
            .collect();

        let outcome = match run_coordinator_with(&spec, factory.as_ref(), &dir, stats.clone()) {
            Ok(outcome) => outcome,
            Err(e) => {
                for child in &mut children {
                    let _ = child.kill();
                }
                eprintln!("net-cluster: coordinator failed for {label}: {e}");
                std::process::exit(1);
            }
        };
        for mut child in children {
            let status = child.wait().expect("wait for worker");
            assert!(status.success(), "worker process failed for {label}");
        }

        if outcome.report != serial {
            eprintln!("net-cluster: {label} cluster run DIVERGED from the serial simulator");
            eprintln!("  serial:  {serial:?}");
            eprintln!("  cluster: {:?}", outcome.report);
            std::process::exit(2);
        }

        let mut sorted = outcome.exchange_ns.clone();
        sorted.sort_unstable();
        let wall_ms = outcome.wall.as_secs_f64() * 1e3;
        let exchanges = outcome.exchange_ns.len();
        latency_rows.push(vec![
            label.to_string(),
            "exchange".to_string(),
            exchanges.to_string(),
            format!("{:.1}", percentile_us(&sorted, 50)),
            format!("{:.1}", percentile_us(&sorted, 99)),
            format!(
                "{:.1}",
                exchanges as f64 / outcome.wall.as_secs_f64().max(1e-9)
            ),
            format!("{wall_ms:.1}"),
        ]);
        total_wall_ms += wall_ms;
        sum_bytes = sum_bytes.saturating_add(outcome.report.total_bytes());
        sum_forwardings = sum_forwardings.saturating_add(outcome.report.forwardings);
        sum_delivered = sum_delivered.saturating_add(outcome.report.delivered);
        runs += 1;

        cluster_rows.push(report_row(&outcome.report));
        serial_rows.push(report_row(&serial));
    }
    let _ = std::fs::remove_dir_all(&dir_root);

    // Live-path cross-check and artifacts: the endpoint's scrape must
    // equal the in-process snapshot byte for byte (same renderer, same
    // sink — a drift here means the server thread is serving stale
    // or foreign state). The merged report then yields one latency row
    // per observed frame kind and the `net_metrics.json` artifact.
    if let (Some(stats), Some(server)) = (&stats, &server) {
        let merged = stats.snapshot();
        assert!(
            !merged.is_empty(),
            "stats cadence was on but the merged cluster report is empty"
        );
        let text = scrape(server.local_addr(), "/metrics").expect("scrape /metrics");
        assert_eq!(
            text,
            render_prometheus(&merged),
            "live /metrics scrape diverged from the in-process snapshot"
        );
        let json = scrape(server.local_addr(), "/metrics.json").expect("scrape /metrics.json");
        assert_eq!(
            json,
            merged.to_json(),
            "live /metrics.json scrape diverged from the in-process snapshot"
        );
        for kind in FrameKind::ALL {
            let hist = merged.time_hist(frame_time_hist(kind));
            if hist.count() == 0 {
                continue;
            }
            latency_rows.push(vec![
                "all".to_string(),
                format!("frame_{}", kind.name()),
                hist.count().to_string(),
                format!("{:.1}", hist.quantile(0.5) as f64 / 1e3),
                format!("{:.1}", hist.quantile(0.99) as f64 / 1e3),
                format!(
                    "{:.1}",
                    hist.count() as f64 / (total_wall_ms / 1e3).max(1e-9)
                ),
                format!("{total_wall_ms:.1}"),
            ]);
        }
        let metrics_path = results_dir().join("net_metrics.json");
        std::fs::write(&metrics_path, format!("{}\n", merged.to_json()))
            .expect("write net_metrics.json");
        println!(
            "[wrote {} — merged live cluster report, scrape-verified]",
            metrics_path.display()
        );
    }

    print!(
        "{}",
        render_table(
            "net_smoke — cluster report (== serial simulator)",
            &REPORT_HEADERS,
            &cluster_rows
        )
    );
    let latency_headers = [
        "protocol", "metric", "samples", "p50_us", "p99_us", "per_sec", "wall_ms",
    ];
    print!(
        "{}",
        render_table(
            "net_smoke — exchange & per-frame-kind latency (wall clock, not diffed)",
            &latency_headers,
            &latency_rows
        )
    );
    write_csv("net_smoke", &REPORT_HEADERS, &cluster_rows);
    write_csv("net_smoke_sim", &REPORT_HEADERS, &serial_rows);
    write_csv("net_latency", &latency_headers, &latency_rows);

    let entry = PerfEntry {
        experiment: "net_smoke".to_string(),
        workers: u64::from(workers),
        runs,
        total_ms: total_wall_ms,
        cpu_ms: total_wall_ms,
        speedup: 1.0,
        calib_ns: calibrate_ns(),
        bytes: sum_bytes,
        forwardings: sum_forwardings,
        delivered: sum_delivered,
    };
    perf::record(&[entry], check);
    println!("net-cluster: all protocols reproduced the serial simulator exactly");
}
