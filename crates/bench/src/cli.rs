//! Flag, latency and table-row helpers shared by the multi-process harness
//! binaries (`net-cluster`, `broker-bench`).

use bsub_net::{frame_time_hist, EndpointAddr, FrameKind};
use bsub_obs::ProfReport;
use std::path::PathBuf;

/// The value following `key` in `args`, when both are present.
#[must_use]
pub fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The unsigned integer following `key`, or `default` without one.
/// A value that is not one ends the process with status 2.
#[must_use]
pub fn numeric(args: &[String], key: &str, default: u64) -> u64 {
    arg_value(args, key).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{key} requires a non-negative integer, got {v}");
            std::process::exit(2);
        })
    })
}

/// The `pct`-th percentile of ascending nanosecond samples, in
/// microseconds: the sample at rank `(n - 1) · pct / 100`, rounded
/// down. Zero when there are no samples.
#[must_use]
pub fn percentile_us(sorted_ns: &[u64], pct: usize) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = (sorted_ns.len() - 1) * pct / 100;
    sorted_ns[rank] as f64 / 1e3
}

/// One latency row per frame kind `report` timed, in discriminant
/// order: `frame_<kind>`, its sample count, p50 and p99 in µs, samples
/// per second over `wall_ms`, and `wall_ms`.
#[must_use]
pub fn frame_latency_rows(report: &ProfReport, wall_ms: f64) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for kind in FrameKind::ALL {
        let hist = report.time_hist(frame_time_hist(kind));
        if hist.count() == 0 {
            continue;
        }
        rows.push(vec![
            format!("frame_{}", kind.name()),
            hist.count().to_string(),
            format!("{:.1}", hist.quantile(0.5) as f64 / 1e3),
            format!("{:.1}", hist.quantile(0.99) as f64 / 1e3),
            format!("{:.1}", hist.count() as f64 / (wall_ms / 1e3).max(1e-9)),
            format!("{wall_ms:.1}"),
        ]);
    }
    rows
}

/// Parses the stats endpoint address given to `flag`: `unix:PATH` or
/// a TCP `HOST:PORT`. Anything else ends the process with status 2.
#[must_use]
pub fn stats_addr(flag: &str, raw: &str) -> EndpointAddr {
    let addr = match raw.strip_prefix("unix:") {
        Some(path) => Some(EndpointAddr::Unix(PathBuf::from(path))),
        None => raw.parse().ok().map(EndpointAddr::Tcp),
    };
    addr.unwrap_or_else(|| {
        eprintln!("{flag} wants HOST:PORT or unix:PATH, got {raw}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_value_takes_the_next_argument() {
        let args: Vec<String> = ["bin", "--dir", "/x", "--smoke"].map(String::from).into();
        assert_eq!(arg_value(&args, "--dir").as_deref(), Some("/x"));
        assert_eq!(arg_value(&args, "--smoke"), None, "no value follows");
        assert_eq!(arg_value(&args, "--peer"), None);
    }

    #[test]
    fn percentile_rounds_the_rank_down() {
        let ns = [1_000, 2_000, 3_000, 4_000];
        assert_eq!(percentile_us(&ns, 0), 1.0);
        assert_eq!(percentile_us(&ns, 50), 2.0);
        assert_eq!(percentile_us(&ns, 99), 3.0);
        assert_eq!(percentile_us(&ns, 100), 4.0);
        assert_eq!(percentile_us(&[], 50), 0.0);
    }

    #[test]
    fn frame_rows_cover_only_the_timed_kinds() {
        let mut report = ProfReport::default();
        report.record_time(frame_time_hist(FrameKind::Publish), 2_000);
        report.record_time(frame_time_hist(FrameKind::Publish), 4_000);
        let want = ["frame_publish", "2", "2.0", "4.0", "4.0", "500.0"];
        assert_eq!(frame_latency_rows(&report, 500.0), [want.map(String::from)]);
        assert!(frame_latency_rows(&ProfReport::default(), 500.0).is_empty());
    }

    #[test]
    fn endpoints_are_unix_paths_or_socket_addresses() {
        assert_eq!(
            stats_addr("--x", "unix:/tmp/s.sock"),
            EndpointAddr::Unix(PathBuf::from("/tmp/s.sock"))
        );
        assert_eq!(
            stats_addr("--x", "127.0.0.1:9000"),
            EndpointAddr::Tcp("127.0.0.1:9000".parse().unwrap())
        );
    }
}
