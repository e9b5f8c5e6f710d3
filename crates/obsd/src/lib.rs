//! # obsd — the live observability daemon
//!
//! A dependency-free, std-only HTTP endpoint that makes a running
//! campaign inspectable: [`serve`] binds a `TcpListener`, hands it to a
//! detached acceptor thread and immediately returns a [`LiveServer`]
//! handle. Request parsing is hand-rolled (GET-only, head capped at
//! 8 KiB) — the same offline-build discipline as the vendored deps.
//!
//! Routes:
//!
//! - `GET /metrics` — Prometheus text exposition, rendered by the
//!   campaign hub's registry at publish time and served verbatim;
//! - `GET /progress` — JSON progress payload: cells
//!   completed/retried/quarantined, the executing cell ids, an ETA from
//!   completed-cell wall times and journal flush statistics, wrapped
//!   with a small `server` section (uptime, scrape count);
//! - `GET /healthz` — liveness probe, `ok`.
//!
//! ## Scope discipline
//!
//! This crate is the *only* sanctioned home for wall-clock and network
//! code in the live plane: it consumes immutable
//! [`ObsSnapshot`](telemetry::live::ObsSnapshot)s through a
//! [`SnapshotCell`] mailbox and is never called from simulation code,
//! so smartlint's graph-derived D1/D2 scope provably excludes it (see
//! the `live_observability_plane_stays_outside_sim_scope` scope test).
//! The producer side — snapshot assembly — lives in `telemetry::live`
//! and stays fully deterministic.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use telemetry::live::{ObsSnapshot, SnapshotCell};

/// Request heads larger than this are dropped without a response.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Per-connection read timeout: a stalled scraper costs one acceptor
/// iteration, never the publisher.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Handle to a running live endpoint. The acceptor thread is detached;
/// it exits on [`LiveServer::request_shutdown`] or when the process
/// ends. Dropping the handle leaves the endpoint running.
#[derive(Debug)]
pub struct LiveServer {
    addr: SocketAddr,
    stop_flag: Arc<AtomicBool>,
    scrapes: Arc<AtomicU64>,
}

impl LiveServer {
    /// The address the listener actually bound (resolves `:0` ports).
    pub fn bound_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests acceptor shutdown: sets the stop flag and pokes the
    /// listener with a throwaway connection so a blocked `accept`
    /// observes it.
    pub fn request_shutdown(&self) {
        self.stop_flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// `/metrics` requests served so far.
    pub fn scrape_count(&self) -> u64 {
        self.scrapes.load(Ordering::SeqCst)
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and serves the snapshots published
/// into `cell` until shutdown is requested. Returns as soon as the
/// listener is bound; all request handling happens on the detached
/// acceptor thread.
pub fn serve(cell: Arc<SnapshotCell>, addr: &str) -> io::Result<LiveServer> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let stop_flag = Arc::new(AtomicBool::new(false));
    let scrapes = Arc::new(AtomicU64::new(0));
    let acceptor_stop = Arc::clone(&stop_flag);
    let acceptor_scrapes = Arc::clone(&scrapes);
    let started = Instant::now();
    std::thread::spawn(move || {
        accept_loop(listener, cell, acceptor_stop, acceptor_scrapes, started)
    });
    Ok(LiveServer {
        addr: bound,
        stop_flag,
        scrapes,
    })
}

/// Accepts connections until the stop flag is raised. Each connection
/// is handled inline: scrape traffic is light and the handler only
/// clones an `Arc` off the snapshot mailbox, so a second thread per
/// connection would buy nothing.
fn accept_loop(
    listener: TcpListener,
    cell: Arc<SnapshotCell>,
    stop_flag: Arc<AtomicBool>,
    scrapes: Arc<AtomicU64>,
    started: Instant,
) {
    for conn in listener.incoming() {
        if stop_flag.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        handle_scrape(stream, &cell, &scrapes, started);
    }
}

/// Reads one request head, routes it against the latest snapshot and
/// writes the response. All I/O errors degrade to a dropped connection.
fn handle_scrape(
    mut stream: TcpStream,
    cell: &SnapshotCell,
    scrapes: &AtomicU64,
    started: Instant,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Some((method, target)) = read_request_head(&mut stream) else {
        return;
    };
    let snapshot = cell.latest();
    let uptime_s = started.elapsed().as_secs_f64();
    let response = render_http_response(
        &method,
        &target,
        &snapshot,
        scrapes.load(Ordering::SeqCst),
        uptime_s,
    );
    if method == "GET" && route_of(&target) == "/metrics" {
        scrapes.fetch_add(1, Ordering::SeqCst);
    }
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reads the request head (up to the blank line, capped at
/// [`MAX_HEAD_BYTES`]) and returns `(method, target)` from the request
/// line. `None` on malformed input, oversized heads or read errors.
fn read_request_head(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut chunk = [0u8; 1024];
    let mut head: Vec<u8> = Vec::new();
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(_) => return None,
        };
        head.extend_from_slice(&chunk[..n]);
        if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
            break;
        }
        if head.len() > MAX_HEAD_BYTES {
            return None;
        }
    }
    let text = String::from_utf8_lossy(&head);
    let request_line = text.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?.to_string();
    Some((method, target))
}

/// The path component of a request target (query string stripped).
fn route_of(target: &str) -> &str {
    match target.find('?') {
        Some(idx) => &target[..idx],
        None => target,
    }
}

/// Routes one request to a full HTTP/1.1 response string.
fn render_http_response(
    method: &str,
    target: &str,
    snapshot: &ObsSnapshot,
    scrapes: u64,
    uptime_s: f64,
) -> String {
    if method != "GET" {
        return render_page(
            405,
            "Method Not Allowed",
            "text/plain",
            "method not allowed\n",
        );
    }
    match route_of(target) {
        "/metrics" => render_page(
            200,
            "OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &snapshot.prometheus,
        ),
        "/progress" => {
            let campaign = match serde_json::to_string(&snapshot.progress) {
                Ok(body) => body,
                Err(_) => String::from("{}"),
            };
            let body = format!(
                "{{\"campaign\":{campaign},\"server\":{{\"uptime_s\":{uptime_s:.3},\"scrapes\":{scrapes}}}}}\n"
            );
            render_page(200, "OK", "application/json", &body)
        }
        "/healthz" => render_page(200, "OK", "text/plain", "ok\n"),
        _ => render_page(404, "Not Found", "text/plain", "not found\n"),
    }
}

/// Assembles a complete `Connection: close` HTTP/1.1 response.
fn render_page(status: u16, reason: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {len}\r\nConnection: close\r\n\r\n{body}",
        len = body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::live::CampaignProgress;

    fn scrape(addr: SocketAddr, target: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let request = format!("GET {target} HTTP/1.1\r\nHost: test\r\n\r\n");
        stream
            .write_all(request.as_bytes())
            .expect("request writes");
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .expect("response reads");
        response
    }

    fn publish_sample(cell: &SnapshotCell) {
        let mut snapshot = ObsSnapshot {
            progress: CampaignProgress {
                cells_total: 6,
                cells_completed: 2,
                cells_pending: 4,
                wall_s_sum: 1.0,
                wall_cells: 2,
                ..CampaignProgress::default()
            },
            ..ObsSnapshot::default()
        };
        snapshot.progress.finalize_eta();
        snapshot.prometheus = "sb_campaign_completed_total 2\n".to_string();
        cell.publish(snapshot);
    }

    #[test]
    fn serves_metrics_progress_and_healthz() {
        let cell = Arc::new(SnapshotCell::fresh());
        publish_sample(&cell);
        let server = serve(Arc::clone(&cell), "127.0.0.1:0").expect("binds");
        let addr = server.bound_addr();

        let health = scrape(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");

        let metrics = scrape(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(
            metrics.contains("sb_campaign_completed_total 2"),
            "{metrics}"
        );

        let progress = scrape(addr, "/progress");
        assert!(progress.contains("application/json"), "{progress}");
        assert!(progress.contains("\"cells_total\":6"), "{progress}");
        assert!(progress.contains("\"eta_s\":2"), "{progress}");
        assert!(progress.contains("\"scrapes\":"), "{progress}");

        let missing = scrape(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        assert_eq!(server.scrape_count(), 1, "only /metrics counts");
        server.request_shutdown();
    }

    #[test]
    fn serves_the_latest_publication() {
        let cell = Arc::new(SnapshotCell::fresh());
        let server = serve(Arc::clone(&cell), "127.0.0.1:0").expect("binds");
        let addr = server.bound_addr();
        let before = scrape(addr, "/progress");
        assert!(before.contains("\"cells_total\":0"), "{before}");
        publish_sample(&cell);
        let after = scrape(addr, "/progress");
        assert!(after.contains("\"cells_total\":6"), "{after}");
        server.request_shutdown();
    }

    #[test]
    fn rejects_non_get_methods() {
        let cell = Arc::new(SnapshotCell::fresh());
        let server = serve(cell, "127.0.0.1:0").expect("binds");
        let mut stream = TcpStream::connect(server.bound_addr()).expect("connect");
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
            .expect("request writes");
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .expect("response reads");
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
        server.request_shutdown();
    }
}
