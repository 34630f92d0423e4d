//! A killed worker is named at once. Three `net-cluster --worker`
//! processes serve the B-SUB smoke run to a coordinator in this test
//! process; one of them is killed with SIGKILL mid-run. The coordinator
//! must fail within a few read slices, naming that worker, and the
//! surviving workers must then exit with an error just as quickly —
//! not after the two-minute stall timeout that backs up a worker which
//! is alive but silent.

use bsub_bench::experiments::{smoke_environment, smoke_protocols};
use bsub_bench::MASTER_SEED;
use bsub_net::{run_coordinator_with, ClusterSpec};
use bsub_obs::{SharedReport, TimeHist};
use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Five of the cluster's 200 ms read slices.
const BOUND: Duration = Duration::from_millis(1_000);

/// The worker processes; any still running when the test ends is
/// killed.
struct Workers(Vec<Child>);

impl Drop for Workers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn a_killed_worker_is_named_at_once() {
    let workers = 3u32;
    let victim = 2usize;
    let dir = std::env::temp_dir().join(format!("bsub-kill-worker-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create socket dir");
    let mut children = Workers(
        (1..=workers)
            .map(|w| {
                Command::new(env!("CARGO_BIN_EXE_net-cluster"))
                    .args(["--worker", "--protocol", "bsub", "--dir"])
                    .arg(&dir)
                    .args(["--peer", &w.to_string(), "--workers", &workers.to_string()])
                    .args(["--stats-cadence-ms", "1"])
                    .stdin(Stdio::null())
                    .stderr(Stdio::piped())
                    .spawn()
                    .expect("spawn worker process")
            })
            .collect(),
    );

    let stats = Arc::new(SharedReport::new());
    let (done_tx, done_rx) = mpsc::channel();
    let coordinator = {
        let (stats, dir) = (Arc::clone(&stats), dir.clone());
        thread::spawn(move || {
            let (experiment, ttl) = smoke_environment();
            let kind = smoke_protocols(&experiment, ttl)
                .into_iter()
                .find(|(label, _)| *label == "bsub")
                .expect("bsub is a smoke protocol")
                .1;
            let factory = experiment.factory(kind, ttl);
            // A 1 ms cadence: the coordinator folds its socket metrics,
            // one exchange-latency sample per RESULT, into the sink on
            // nearly every pass through its run loop.
            let spec = ClusterSpec::new(experiment.sim(ttl), MASTER_SEED, workers)
                .with_stats_cadence(Duration::from_millis(1));
            let outcome = run_coordinator_with(&spec, factory.as_ref(), &dir, Some(stats));
            let _ = done_tx.send((outcome.map(|o| o.report), Instant::now()));
        })
    };

    // Mid-run: the first exchanges are in, hundreds are still to come.
    let deadline = Instant::now() + Duration::from_secs(60);
    while stats.snapshot().time_hist(TimeHist::NetExchangeNs).count() == 0 {
        assert!(
            Instant::now() < deadline,
            "the cluster never ran an exchange"
        );
        thread::sleep(Duration::from_millis(1));
    }
    children.0[victim - 1].kill().expect("kill the worker");
    let killed = Instant::now();

    let (outcome, failed) = done_rx
        .recv_timeout(BOUND)
        .expect("the coordinator did not fail within five read slices of the kill");
    let err = outcome.expect_err("the run cannot finish without a worker");
    assert!(
        err.to_string()
            .starts_with(&format!("worker {victim} closed its link")),
        "the error names the killed worker: {err}"
    );
    coordinator.join().expect("coordinator thread");
    eprintln!(
        "coordinator failed {:?} after the kill: {err}",
        failed - killed
    );

    for (i, child) in children.0.iter_mut().enumerate() {
        if i + 1 == victim {
            continue;
        }
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll worker") {
                break status;
            }
            assert!(
                failed.elapsed() < BOUND,
                "worker {} still running {BOUND:?} after the coordinator failed",
                i + 1
            );
            thread::sleep(Duration::from_millis(5));
        };
        let mut stderr = String::new();
        let pipe = child.stderr.as_mut().expect("piped stderr");
        pipe.read_to_string(&mut stderr).expect("read stderr");
        assert!(
            !status.success(),
            "worker {} exited cleanly: {stderr}",
            i + 1
        );
        eprintln!(
            "worker {} exited within {:?}: {}",
            i + 1,
            failed.elapsed(),
            stderr.trim()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
