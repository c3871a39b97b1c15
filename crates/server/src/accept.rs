//! The accept loops: the protocol listener's, which spawns one session
//! per connection, and the optional `GET /metrics` HTTP listener's, plus
//! the loopback wake-up that stops both at shutdown.

use crate::server::{Server, Shared};
use crate::session::{session, WRITE_TIMEOUT};
use crate::verbs::evaluate_health;
use slade_obs::PROMETHEUS_CONTENT_TYPE;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Back-off after a transient `accept` failure, so an error storm (fd
/// exhaustion, say) cannot hot-spin the acceptor.
const ACCEPT_RETRY: Duration = Duration::from_millis(50);

/// Flips the shutdown flag and wakes the blocked acceptors with loopback
/// connections (std's `accept` has no cancellation of its own). The
/// metrics listener, when bound, is woken the same way as the main one.
pub(crate) fn trigger_shutdown(shared: &Shared) {
    if !shared.shutdown.swap(true, Ordering::SeqCst) {
        let _ = TcpStream::connect(shared.local_addr);
        if let Some(metrics_addr) = shared.metrics_addr {
            let _ = TcpStream::connect(metrics_addr);
        }
    }
}

impl Server {
    /// Runs the accept loop until a shutdown is requested (in-band
    /// `shutdown` verb or [`ShutdownHandle`](crate::ShutdownHandle)), then
    /// drains: stops accepting, joins every session thread, and shuts the
    /// engine down so all queued shards finish before this returns.
    pub fn run(self) -> io::Result<()> {
        let Server {
            listener,
            metrics_listener,
            shared,
        } = self;
        let metrics_thread = metrics_listener.map(|metrics_listener| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("slade-metrics-http".to_string())
                .spawn(move || metrics_http_loop(&metrics_listener, &shared))
                .expect("spawning the metrics HTTP thread")
        });
        let mut sessions: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let accepted = listener.accept();
            if shared.shutdown.load(Ordering::SeqCst) {
                break; // the wake-up connection (or a late client): drop it
            }
            let stream = match accepted {
                Ok((stream, _)) => stream,
                // Transient accept failures (a client resetting mid-
                // handshake → ECONNABORTED, fd exhaustion → EMFILE, a
                // signal → EINTR) must not kill a long-running server:
                // back off briefly and keep accepting.
                Err(_) => {
                    thread::sleep(ACCEPT_RETRY);
                    continue;
                }
            };
            let session_shared = Arc::clone(&shared);
            let spawned = thread::Builder::new()
                .name("slade-session".to_string())
                .spawn(move || session(stream, &session_shared));
            match spawned {
                Ok(handle) => sessions.push(handle),
                // Out of threads (EAGAIN) is transient too: the failed
                // spawn dropped the connection; back off as above.
                Err(e) => {
                    eprintln!("slade-server: dropped a connection: cannot spawn its session: {e}");
                    thread::sleep(ACCEPT_RETRY);
                }
            }
            sessions.retain(|handle| !handle.is_finished());
        }
        drop(listener); // refuse new connections while draining
        for handle in sessions {
            let _ = handle.join();
        }
        if let Some(handle) = metrics_thread {
            // `trigger_shutdown` poked the metrics listener too, so its
            // accept loop has observed the flag and is exiting.
            let _ = handle.join();
        }
        shared.engine.shutdown();
        Ok(())
    }
}

/// The `GET /metrics` accept loop: thread-per-connection like the main
/// server, hand-rolled HTTP/1.1, closing each connection after one
/// response. Woken at shutdown by [`trigger_shutdown`]'s loopback connect.
fn metrics_http_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the wake-up connection (or a late scraper): drop it
        }
        let stream = match accepted {
            Ok((stream, _)) => stream,
            Err(_) => {
                thread::sleep(ACCEPT_RETRY);
                continue;
            }
        };
        let conn_shared = Arc::clone(shared);
        let _ = thread::Builder::new()
            .name("slade-metrics-conn".to_string())
            .spawn(move || serve_metrics_connection(stream, &conn_shared));
    }
}

/// Serves one scrape connection: reads the request head, answers
/// `GET /metrics` with the Prometheus text exposition of the registry
/// snapshot, everything else with a 404. Read errors or malformed requests
/// just drop the connection — a scraper retries, and nothing here may
/// disturb the protocol listener.
fn serve_metrics_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    // Read until the end of the request head (CRLF CRLF). GET requests
    // carry no body, so nothing else needs draining.
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > 16 * 1024 {
            return; // not a plausible scrape request
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
        }
    }
    let request_line = match head.split(|&b| b == b'\r').next() {
        Some(line) => String::from_utf8_lossy(line).into_owned(),
        None => return,
    };
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let response = if method == "GET" && (path == "/metrics" || path.starts_with("/metrics?")) {
        let body = render_exposition(shared);
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: {PROMETHEUS_CONTENT_TYPE}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    } else {
        let body = "only GET /metrics is served here\n";
        format!(
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Renders the Prometheus text body: refresh the mirrored and derived
/// gauges (the health evaluation refreshes cache, uptime and store gauges,
/// then sets the health ones), then snapshot and render. Scrapes are a
/// reader, so each one also rotates the window rings.
fn render_exposition(shared: &Shared) -> String {
    evaluate_health(shared);
    slade_obs::render_prometheus(
        &shared.obs.registry.snapshot(),
        Some(env!("CARGO_PKG_VERSION")),
    )
}
