//! The cross-thread metrics sink.
//!
//! The profiler is thread-local by design (one simulation, one worker
//! thread), but some components spread their work across threads that
//! never install a profiler, or must fold many threads' and processes'
//! reports into one live total: `bsub-net`'s socket threads, the
//! broker's service loop, a cluster coordinator merging worker deltas.
//! [`SharedReport`] is the one place such a [`ProfReport`] is shared: a
//! mutex-guarded report fronted by one `AtomicBool`, so a disarmed sink
//! costs a single relaxed load per call site — the same
//! zero-cost-when-inactive contract the thread-local profiler keeps.
//!
//! The sink is *delta-oriented*: [`SharedReport::take_delta`] swaps the
//! accumulated report out and leaves a fresh one behind, which is what
//! lets a cluster worker ship monotone deltas to its coordinator on a
//! cadence (DESIGN.md §15). Because [`ProfReport::merge`] is
//! commutative, a merged total is independent of arrival order.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::report::ProfReport;

/// A `Sync` [`ProfReport`] that many threads record into.
///
/// Disarmed by default; [`SharedReport::enable`] arms it. Every
/// recording path checks the flag first and returns without touching
/// the lock while the sink is off.
#[derive(Debug, Default)]
pub struct SharedReport {
    enabled: AtomicBool,
    report: Mutex<ProfReport>,
}

impl SharedReport {
    /// A disarmed, empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the sink; recording calls start accumulating.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    /// Whether the sink is armed.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Runs `f` on the accumulated report under one lock when armed;
    /// does nothing (not even run `f`) when disarmed.
    pub fn record(&self, f: impl FnOnce(&mut ProfReport)) {
        if self.is_enabled() {
            f(&mut self.report.lock().expect("metrics sink"));
        }
    }

    /// Runs `f` and returns its result. When the sink is armed, `f`
    /// runs under a fresh thread-local profiler (replacing any profiler
    /// already installed on this thread), and what it collected is
    /// recorded into the sink however `f` returns — an `Err` included.
    /// When disarmed, `f` runs with no profiler installed.
    pub fn profile<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self.is_enabled() {
            return f();
        }
        crate::start();
        let out = f();
        let report = crate::finish();
        self.record(|r| r.merge(&report));
        out
    }

    /// Clones the accumulated report without resetting it.
    #[must_use]
    pub fn snapshot(&self) -> ProfReport {
        self.report.lock().expect("metrics sink").clone()
    }

    /// Swaps the accumulated report for a fresh one and returns it.
    /// Successive deltas merge to the same total as one snapshot, so
    /// cadence shipping loses nothing.
    #[must_use]
    pub fn take_delta(&self) -> ProfReport {
        std::mem::take(&mut *self.report.lock().expect("metrics sink"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, SizeHist, TimeHist};

    fn record_frame(m: &SharedReport) {
        m.record(|r| {
            r.add_counter(Counter::NetFramesSent, 3);
            r.record_time(TimeHist::NetFrameHelloNs, 10);
            r.record_size(SizeHist::NetFrameHelloBytes, 10);
        });
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let m = SharedReport::new();
        record_frame(&m);
        assert!(!m.is_enabled());
        assert_eq!(m.snapshot(), ProfReport::default());
    }

    #[test]
    fn deltas_merge_back_to_the_snapshot_total() {
        let m = SharedReport::new();
        m.enable();
        m.record(|r| {
            r.add_counter(Counter::NetFramesSent, 2);
            r.record_time(TimeHist::NetFrameHelloNs, 40);
        });
        let first = m.take_delta();
        m.record(|r| {
            r.add_counter(Counter::NetFramesSent, 5);
            r.record_size(SizeHist::NetFrameDoneBytes, 8);
        });
        let second = m.take_delta();
        assert_eq!(m.snapshot(), ProfReport::default(), "drained");

        let mut merged = first.clone();
        merged.merge(&second);
        assert_eq!(merged.counter(Counter::NetFramesSent), 7);
        assert_eq!(merged.time_hist(TimeHist::NetFrameHelloNs).count(), 1);
        assert_eq!(merged.size_hist(SizeHist::NetFrameDoneBytes).sum(), 8);

        // Merge is commutative: arrival order cannot matter.
        let mut reversed = second;
        reversed.merge(&first);
        assert_eq!(merged, reversed);
    }

    #[test]
    fn merged_deltas_are_arrival_order_independent() {
        let deltas: Vec<ProfReport> = (1..=4u64)
            .map(|i| {
                let mut d = ProfReport::default();
                d.add_counter(Counter::NetFramesSent, i);
                d.record_time(TimeHist::NetExchangeNs, i * 100);
                d
            })
            .collect();
        let forward = SharedReport::new();
        let reverse = SharedReport::new();
        forward.enable();
        reverse.enable();
        for d in &deltas {
            forward.record(|r| r.merge(d));
        }
        for d in deltas.iter().rev() {
            reverse.record(|r| r.merge(d));
        }
        assert_eq!(forward.snapshot(), reverse.snapshot());
        assert_eq!(forward.snapshot().counter(Counter::NetFramesSent), 10);
    }

    #[test]
    fn disarmed_profile_runs_without_a_profiler() {
        let m = SharedReport::new();
        let active = m.profile(|| {
            crate::count(Counter::TcbfInsert, 1);
            crate::is_active()
        });
        assert!(!active, "no profiler while the sink is off");
        assert!(m.snapshot().is_empty());
    }

    #[test]
    fn armed_profile_records_what_f_counted() {
        let m = SharedReport::new();
        m.enable();
        let out = m.profile(|| {
            crate::count(Counter::TcbfInsert, 2);
            crate::observe(SizeHist::ContactBytes, 64);
            7
        });
        assert_eq!(out, 7);
        let report = m.snapshot();
        assert_eq!(report.counter(Counter::TcbfInsert), 2);
        assert_eq!(report.size_hist(SizeHist::ContactBytes).count(), 1);
        assert!(!crate::is_active());
    }

    #[test]
    fn profile_records_an_early_error() {
        let m = SharedReport::new();
        m.enable();
        let out: Result<(), &str> = m.profile(|| {
            crate::count(Counter::TcbfInsert, 3);
            Err("gave up")?;
            crate::count(Counter::TcbfInsert, 100);
            Ok(())
        });
        assert_eq!(out, Err("gave up"));
        assert_eq!(m.snapshot().counter(Counter::TcbfInsert), 3);
        assert!(!crate::is_active(), "no profiler left installed");
        assert!(crate::finish().is_empty());
    }
}
