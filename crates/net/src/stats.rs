//! Scrapeable stats endpoint for the live observability plane.
//!
//! A running cluster coordinator holds one continuously-merged,
//! cluster-wide [`ProfReport`] (DESIGN.md §15). This module makes that
//! report *reachable from outside the process while the run is live*:
//! a [`StatsHandle`] is the shared, thread-safe slot the coordinator
//! merges worker deltas into, and a [`StatsServer`] serves the slot's
//! current contents over the workspace's unified
//! [`Listener`] — so the endpoint works
//! identically over TCP (`curl http://…/metrics`) and Unix-domain
//! sockets, with no HTTP library.
//!
//! Two paths are served, both one-shot (`Connection: close`):
//!
//! - `/metrics` — Prometheus-style text exposition (see
//!   [`render_prometheus`]),
//! - `/metrics.json` — the same report as `ProfReport::to_json()`.
//!
//! The server only ever *reads* the handle; scraping cannot perturb
//! the run, which keeps the determinism guarantee intact.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use bsub_obs::{Counter, Gauge, Histogram, ProfReport, SizeHist, TimeHist};

use crate::transport::{EndpointAddr, Listener, Stream};

/// How long one scrape connection may take to send its request line
/// before the server gives up on it.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// A shared slot holding the live cluster-wide merged report.
///
/// Clones share the slot. `merge` folds a delta in (commutatively, so
/// out-of-order worker deltas converge to the same total); `snapshot`
/// copies the current merged state out.
#[derive(Debug, Clone, Default)]
pub struct StatsHandle {
    slot: Arc<Mutex<ProfReport>>,
}

impl StatsHandle {
    /// A fresh, empty slot.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges `delta` into the slot.
    pub fn merge(&self, delta: &ProfReport) {
        self.slot.lock().expect("stats slot").merge(delta);
    }

    /// A copy of the current merged report.
    #[must_use]
    pub fn snapshot(&self) -> ProfReport {
        self.slot.lock().expect("stats slot").clone()
    }
}

/// Appends one summary-typed series for a histogram.
fn render_summary(out: &mut String, name: &str, hist: &Histogram) {
    out.push_str(&format!("# TYPE bsub_{name} summary\n"));
    for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
        out.push_str(&format!(
            "bsub_{name}{{quantile=\"{label}\"}} {}\n",
            hist.quantile(q)
        ));
    }
    out.push_str(&format!("bsub_{name}_sum {}\n", hist.sum()));
    out.push_str(&format!("bsub_{name}_count {}\n", hist.count()));
}

/// Renders a report in Prometheus text exposition format, every metric
/// name prefixed `bsub_`. Counters and gauges come first (taxonomy
/// order), then timing and size histograms as `summary` series with
/// p50/p90/p99 upper bounds plus exact `_sum`/`_count`. Zero-valued
/// counters and gauges and empty histograms are omitted, so a scrape
/// shows exactly what has been observed — and the exposition of a
/// merged cluster report stays a few KiB.
#[must_use]
pub fn render_prometheus(report: &ProfReport) -> String {
    let mut out = String::new();
    for c in Counter::ALL {
        let v = report.counter(c);
        if v != 0 {
            out.push_str(&format!(
                "# TYPE bsub_{name} counter\nbsub_{name} {v}\n",
                name = c.name()
            ));
        }
    }
    for g in Gauge::ALL {
        let v = report.gauge(g);
        if v != 0 {
            out.push_str(&format!(
                "# TYPE bsub_{name} gauge\nbsub_{name} {v}\n",
                name = g.name()
            ));
        }
    }
    for h in TimeHist::ALL {
        let hist = report.time_hist(h);
        if !hist.is_empty() {
            render_summary(&mut out, h.name(), hist);
        }
    }
    for h in SizeHist::ALL {
        let hist = report.size_hist(h);
        if !hist.is_empty() {
            render_summary(&mut out, h.name(), hist);
        }
    }
    out
}

/// Serves one accepted scrape connection.
fn serve_connection(mut stream: Stream, handle: &StatsHandle) {
    let _ = stream.set_read_timeout(Some(REQUEST_TIMEOUT));
    let mut request = Vec::new();
    let mut buf = [0u8; 512];
    // Read until the blank line ending the request head (we ignore
    // headers, so the body — there is none for GET — never matters).
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                request.extend_from_slice(&buf[..n]);
                if request.windows(4).any(|w| w == b"\r\n\r\n") || request.len() > 8192 {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let head = String::from_utf8_lossy(&request);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            String::from("GET only\n"),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                render_prometheus(&handle.snapshot()),
            ),
            "/metrics.json" => ("200 OK", "application/json", handle.snapshot().to_json()),
            _ => (
                "404 Not Found",
                "text/plain",
                String::from("try /metrics or /metrics.json\n"),
            ),
        }
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// A background HTTP/1.0 server exposing a [`StatsHandle`].
///
/// Dropping the server (or calling [`StatsServer::shutdown`]) stops
/// the accept thread. Bind to a TCP port `0` to let the kernel pick;
/// [`StatsServer::local_addr`] reports the resolved address.
#[derive(Debug)]
pub struct StatsServer {
    addr: EndpointAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl StatsServer {
    /// Binds `addr` and starts serving `handle` in the background.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve(addr: &EndpointAddr, handle: StatsHandle) -> io::Result<Self> {
        let listener = Listener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("bsub-stats".into())
            .spawn(move || {
                let mut idle = 0u32;
                while !stop_flag.load(Ordering::Acquire) {
                    match listener.accept_pending() {
                        Ok(Some(stream)) => {
                            idle = 0;
                            serve_connection(stream, &handle);
                        }
                        Ok(None) => {
                            // Adaptive wait: spin briefly on a fresh
                            // burst, then back off to a short sleep so
                            // an idle endpoint costs ~nothing.
                            idle = idle.saturating_add(1);
                            if idle < 4 {
                                thread::yield_now();
                            } else {
                                thread::sleep(Duration::from_millis(2));
                            }
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn stats server thread");
        Ok(Self {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (TCP port 0 resolved to the real port).
    #[must_use]
    pub fn local_addr(&self) -> &EndpointAddr {
        &self.addr
    }

    /// Stops the accept thread and waits for it to exit.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for StatsServer {
    fn drop(&mut self) {
        self.shutdown();
        if let EndpointAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Scrapes `path` from a stats endpoint at `addr` and returns the
/// response body. The dependency-free client used by the `net-cluster`
/// binary's `--scrape` mode and by CI.
///
/// # Errors
///
/// I/O failures, a malformed response, or a non-200 status.
pub fn scrape(addr: &EndpointAddr, path: &str) -> io::Result<String> {
    let mut stream = Stream::connect(addr)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: bsub\r\n\r\n")?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header/body split"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.starts_with("HTTP/1.0 200") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("scrape {path}: {status}"),
        ));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ProfReport {
        let mut r = ProfReport::default();
        r.add_counter(Counter::NetFramesSent, 12);
        r.add_counter(Counter::NetStatsFrames, 2);
        r.raise_gauge(Gauge::BufferMsgs, 17);
        r.record_time(TimeHist::NetExchangeNs, 1_500);
        r.record_time(TimeHist::NetExchangeNs, 900);
        r.record_size(SizeHist::NetFrameStatsBytes, 256);
        r
    }

    #[test]
    fn exposition_is_pinned() {
        // Golden output: taxonomy order, zero series omitted, summary
        // quantiles are log2-bucket upper bounds clamped to max.
        let expected = "\
# TYPE bsub_net_frames_sent counter
bsub_net_frames_sent 12
# TYPE bsub_net_stats_frames counter
bsub_net_stats_frames 2
# TYPE bsub_buffer_msgs_hwm gauge
bsub_buffer_msgs_hwm 17
# TYPE bsub_net_exchange_ns summary
bsub_net_exchange_ns{quantile=\"0.5\"} 1023
bsub_net_exchange_ns{quantile=\"0.9\"} 1500
bsub_net_exchange_ns{quantile=\"0.99\"} 1500
bsub_net_exchange_ns_sum 2400
bsub_net_exchange_ns_count 2
# TYPE bsub_net_frame_stats_bytes summary
bsub_net_frame_stats_bytes{quantile=\"0.5\"} 256
bsub_net_frame_stats_bytes{quantile=\"0.9\"} 256
bsub_net_frame_stats_bytes{quantile=\"0.99\"} 256
bsub_net_frame_stats_bytes_sum 256
bsub_net_frame_stats_bytes_count 1
";
        assert_eq!(render_prometheus(&sample_report()), expected);
        assert_eq!(render_prometheus(&ProfReport::default()), "");
    }

    #[test]
    fn server_serves_text_json_and_404() {
        let handle = StatsHandle::new();
        handle.merge(&sample_report());
        let addr = EndpointAddr::Tcp("127.0.0.1:0".parse().unwrap());
        let server = StatsServer::serve(&addr, handle.clone()).unwrap();
        let bound = server.local_addr().clone();

        let text = scrape(&bound, "/metrics").unwrap();
        assert_eq!(text, render_prometheus(&handle.snapshot()));

        let json = scrape(&bound, "/metrics.json").unwrap();
        assert_eq!(json, handle.snapshot().to_json());

        let err = scrape(&bound, "/nope").unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");

        // The endpoint is live: a merge between scrapes is visible.
        handle.merge(&sample_report());
        let text2 = scrape(&bound, "/metrics").unwrap();
        assert!(text2.contains("bsub_net_frames_sent 24"), "{text2}");
    }

    #[test]
    fn server_works_over_unix_sockets() {
        let handle = StatsHandle::new();
        handle.merge(&sample_report());
        let path = std::env::temp_dir().join(format!("bsub-stats-{}.sock", std::process::id()));
        let server = StatsServer::serve(&EndpointAddr::Unix(path), handle.clone()).unwrap();
        let text = scrape(server.local_addr(), "/metrics").unwrap();
        assert!(text.contains("bsub_net_frames_sent 12"), "{text}");
    }

    #[test]
    fn handle_merge_is_arrival_order_independent() {
        let mut deltas = Vec::new();
        for i in 1..=4u64 {
            let mut d = ProfReport::default();
            d.add_counter(Counter::NetFramesSent, i);
            d.record_time(TimeHist::NetExchangeNs, i * 100);
            deltas.push(d);
        }
        let forward = StatsHandle::new();
        for d in &deltas {
            forward.merge(d);
        }
        let reverse = StatsHandle::new();
        for d in deltas.iter().rev() {
            reverse.merge(d);
        }
        assert_eq!(forward.snapshot(), reverse.snapshot());
        assert_eq!(forward.snapshot().counter(Counter::NetFramesSent), 10);
    }
}
