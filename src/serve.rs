//! Dependency-free Prometheus scrape endpoint over
//! [`std::net::TcpListener`].
//!
//! Serves `GET /metrics` from a [`ServingReport`]'s windowed snapshots,
//! replaying the schedule-clock windows in wall-clock time: snapshot `i`
//! is served until `(i + 1) * replay_interval` seconds after start, then
//! the next one — so a scraper polling the endpoint sees the counters
//! advance monotonically exactly as they did on the schedule clock, and
//! the final snapshot (the whole-run totals) is served forever after the
//! replay finishes. The full-run hardware telemetry exposition can be
//! appended to every response so one scrape carries both the serving
//! families and the `mogpu_*` gauges of [`mogpu_sim::telemetry`].
//!
//! The implementation is deliberately minimal — a polled accept loop, one
//! request per connection read under a fixed per-connection deadline
//! (split and slow requests are reassembled), HTTP/1.0-style
//! `Connection: close` — because the only client it needs to satisfy is a
//! Prometheus scraper or `curl` in CI, and the workspace vendors no async
//! runtime.

use mogpu_sim::fleet::{prometheus_fleet, FleetReport};
use mogpu_sim::serving::{prometheus_serving, ServingReport};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Default wall-clock seconds each snapshot window is served for.
pub const DEFAULT_REPLAY_INTERVAL_S: f64 = 0.5;

/// Wall-clock budget for one connection to deliver its request head
/// (and, separately, to accept the response). A slow or stalled client
/// holds the single-threaded accept loop for at most this long.
const REQUEST_DEADLINE: Duration = Duration::from_secs(3);

/// Reads from `stream` into `buf` until the blank line that ends the
/// request headers arrives or `buf` is full, returning the bytes read.
/// A request split across several writes is reassembled; a client that
/// hangs up before finishing its headers, or misses `deadline`, is an
/// error (the caller drops the connection without a response).
fn read_request_head(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
) -> std::io::Result<usize> {
    let mut len = 0;
    while len < buf.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        // Only the newly read bytes (plus three before them) can
        // complete the terminator.
        let from = len.saturating_sub(3);
        len += n;
        let head = &buf[from..len];
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            break;
        }
    }
    Ok(len)
}

/// What the endpoint replays: one device's serving report, or a whole
/// fleet report (per-device families under one exposition).
enum Source {
    Single(ServingReport),
    Fleet(FleetReport),
}

impl Source {
    /// How many replay snapshots the source carries.
    fn snapshot_count(&self) -> usize {
        match self {
            Source::Single(r) => r.snapshots.len(),
            Source::Fleet(r) => r
                .devices
                .iter()
                .map(|d| d.serving.snapshots.len())
                .max()
                .unwrap_or(0),
        }
    }
}

/// A running scrape endpoint.
pub struct MetricsServer {
    listener: TcpListener,
    addr: SocketAddr,
    source: Source,
    replay_interval: Duration,
    /// Extra exposition text appended to every `/metrics` response
    /// (e.g. the full-run hardware telemetry).
    extra: String,
    started: Instant,
}

/// A finite, positive replay interval: non-finite or non-positive
/// values (a `--replay-ms 0` that slipped past CLI validation, or NaN
/// from a corrupt config) fall back to [`DEFAULT_REPLAY_INTERVAL_S`] so
/// the snapshot index math below can never divide by zero.
fn clamp_interval(replay_interval_s: f64) -> f64 {
    if replay_interval_s.is_finite() && replay_interval_s > 0.0 {
        replay_interval_s
    } else {
        DEFAULT_REPLAY_INTERVAL_S
    }
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port)
    /// and prepares to serve `report`'s snapshots every
    /// `replay_interval` seconds (non-finite or `<= 0` values use
    /// [`DEFAULT_REPLAY_INTERVAL_S`]).
    pub fn bind(
        addr: &str,
        report: ServingReport,
        replay_interval_s: f64,
    ) -> std::io::Result<MetricsServer> {
        Self::bind_source(addr, Source::Single(report), replay_interval_s)
    }

    /// Like [`MetricsServer::bind`], but replays a fleet report: one
    /// exposition carrying every device's families plus the fleet
    /// gauges and drop counters.
    pub fn bind_fleet(
        addr: &str,
        report: FleetReport,
        replay_interval_s: f64,
    ) -> std::io::Result<MetricsServer> {
        Self::bind_source(addr, Source::Fleet(report), replay_interval_s)
    }

    fn bind_source(
        addr: &str,
        source: Source,
        replay_interval_s: f64,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(MetricsServer {
            listener,
            addr,
            source,
            replay_interval: Duration::from_secs_f64(clamp_interval(replay_interval_s)),
            extra: String::new(),
            started: Instant::now(),
        })
    }

    /// The bound address (useful when binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Appends `exposition` to every `/metrics` response.
    pub fn with_extra_exposition(mut self, exposition: String) -> Self {
        self.extra = exposition;
        self
    }

    /// Index of the snapshot the replay clock has reached.
    fn current_snapshot(&self) -> usize {
        let elapsed = self.started.elapsed().as_secs_f64();
        let per = self.replay_interval.as_secs_f64();
        // `per` is always finite and positive (clamped at bind), so the
        // quotient can only be a normal number.
        let i = (elapsed / per) as usize;
        i.min(self.source.snapshot_count().saturating_sub(1))
    }

    /// The exposition body a scrape arriving now receives.
    pub fn render(&self) -> String {
        let snapshot = self.current_snapshot();
        let mut body = match &self.source {
            Source::Single(report) => prometheus_serving(report, snapshot),
            Source::Fleet(report) => prometheus_fleet(report, snapshot),
        };
        body.push_str(&self.extra);
        body
    }

    /// Serves until `deadline` (None = forever). Returns the number of
    /// requests handled. Uses a short accept timeout so shutdown is
    /// prompt once the deadline passes.
    pub fn serve_until(&self, deadline: Option<Instant>) -> std::io::Result<u64> {
        self.listener.set_nonblocking(true)?;
        let mut handled = 0u64;
        loop {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Ok(handled);
                }
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Per-connection errors (client hung up mid-request)
                    // must not kill the endpoint.
                    if self.handle(stream).is_ok() {
                        handled += 1;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Serves for `seconds` of wall-clock time (0 = forever).
    pub fn serve_for(&self, seconds: f64) -> std::io::Result<u64> {
        let deadline = if seconds > 0.0 {
            Some(Instant::now() + Duration::from_secs_f64(seconds))
        } else {
            None
        };
        self.serve_until(deadline)
    }

    fn handle(&self, mut stream: TcpStream) -> std::io::Result<()> {
        // The listener is non-blocking; on some platforms accepted
        // sockets inherit that, which would void the read timeouts.
        stream.set_nonblocking(false)?;
        stream.set_write_timeout(Some(REQUEST_DEADLINE))?;
        let mut buf = [0u8; 4096];
        let n = read_request_head(&mut stream, &mut buf, Instant::now() + REQUEST_DEADLINE)?;
        let request = String::from_utf8_lossy(&buf[..n]);
        let line = request.lines().next().unwrap_or("");
        let mut parts = line.split_whitespace();
        let method = parts.next().unwrap_or("");
        let path = parts.next().unwrap_or("");
        let (status, content_type, body) = if method != "GET" {
            (
                "405 Method Not Allowed",
                "text/plain; charset=utf-8",
                "method not allowed\n".to_string(),
            )
        } else if path == "/metrics" || path.starts_with("/metrics?") {
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                self.render(),
            )
        } else if path == "/" {
            (
                "200 OK",
                "text/plain; charset=utf-8",
                "mogpu serving metrics — scrape /metrics\n".to_string(),
            )
        } else {
            (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found — scrape /metrics\n".to_string(),
            )
        };
        let response = format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(response.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogpu_sim::config::GpuConfig;
    use mogpu_sim::serving::{serving_report, ServingWindowConfig, SloConfig};
    use mogpu_sim::streams::{StageTimes, StreamInput, StreamScheduler};

    fn report() -> ServingReport {
        let inputs: Vec<StreamInput> = (0..2)
            .map(|_| StreamInput::offline(vec![StageTimes::uniform(1e-3, 2e-3, 1e-3); 5]))
            .collect();
        let sched = StreamScheduler::double_buffered().schedule(&inputs, &GpuConfig::tesla_c2075());
        serving_report(
            &sched,
            &[0.0, 0.0],
            "test-device",
            "level F",
            &SloConfig::default(),
            &ServingWindowConfig::default(),
            None,
        )
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read response");
        let (head, body) = out.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_and_404s_elsewhere() {
        let server = MetricsServer::bind("127.0.0.1:0", report(), 10.0).unwrap();
        let addr = server.local_addr();
        let t = std::thread::spawn(move || {
            let n = server.serve_for(2.0).unwrap();
            assert!(n >= 3, "expected at least 3 handled requests, got {n}");
        });
        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain"));
        assert!(body.contains("# TYPE mogpu_frame_latency_seconds histogram"));
        assert!(body.contains("device=\"test-device\""));
        assert!(body.contains("stream=\"1\""));
        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let (head, body) = get(addr, "/");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("/metrics"));
        t.join().unwrap();
    }

    /// Sends `chunks` as separate writes, sleeping before each one, and
    /// returns the raw response.
    fn send_in_chunks(addr: SocketAddr, chunks: &[(u64, &str)]) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        for (delay_ms, chunk) in chunks {
            std::thread::sleep(Duration::from_millis(*delay_ms));
            s.write_all(chunk.as_bytes()).unwrap();
            s.flush().unwrap();
        }
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read response");
        out
    }

    #[test]
    fn split_and_slow_requests_are_served() {
        let server = MetricsServer::bind("127.0.0.1:0", report(), 10.0).unwrap();
        let addr = server.local_addr();
        let t = std::thread::spawn(move || server.serve_for(4.0).unwrap());
        let split = send_in_chunks(
            addr,
            &[(0, "GE"), (100, "T /metrics HTTP/1.1\r\nHost: x\r\n\r\n")],
        );
        assert!(
            split.starts_with("HTTP/1.1 200"),
            "split request: {split:?}"
        );
        let slow = send_in_chunks(addr, &[(700, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")]);
        assert!(
            slow.starts_with("HTTP/1.1 200"),
            "delayed request: {slow:?}"
        );
        t.join().unwrap();
    }

    #[test]
    fn client_hanging_up_mid_request_does_not_stop_the_server() {
        let server = MetricsServer::bind("127.0.0.1:0", report(), 10.0).unwrap();
        let addr = server.local_addr();
        let t = std::thread::spawn(move || server.serve_for(3.0).unwrap());
        {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"GET /met").unwrap();
        }
        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("device=\"test-device\""));
        assert_eq!(t.join().unwrap(), 1, "only the complete request counts");
    }

    #[test]
    fn replay_advances_snapshots_monotonically() {
        // Fast replay: by the time we scrape twice, the snapshot index
        // has advanced, and the frames_completed counter never moves
        // backwards.
        let server = MetricsServer::bind("127.0.0.1:0", report(), 0.05).unwrap();
        let addr = server.local_addr();
        let t = std::thread::spawn(move || server.serve_for(1.5).unwrap());
        let count_of = |body: &str| -> f64 {
            body.lines()
                .filter(|l| l.starts_with("mogpu_frames_completed_total"))
                .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
                .sum()
        };
        let (_, first) = get(addr, "/metrics");
        std::thread::sleep(Duration::from_millis(600));
        let (_, last) = get(addr, "/metrics");
        assert!(count_of(&last) >= count_of(&first));
        // After the replay finishes, the totals equal the whole run.
        assert_eq!(count_of(&last), 10.0);
        t.join().unwrap();
    }

    #[test]
    fn zero_and_non_finite_replay_intervals_clamp_to_default() {
        // Regression: `--replay-ms 0` used to make current_snapshot
        // divide by zero and pin the replay to the last window.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let server = MetricsServer::bind("127.0.0.1:0", report(), bad).unwrap();
            assert_eq!(
                server.replay_interval,
                Duration::from_secs_f64(DEFAULT_REPLAY_INTERVAL_S),
                "interval {bad} must clamp"
            );
            // Immediately after bind the replay must be at the FIRST
            // snapshot, not pinned to the last.
            assert_eq!(server.current_snapshot(), 0);
            server.render(); // and render must not panic
        }
    }

    #[test]
    fn fleet_source_serves_device_cardinality() {
        use mogpu_sim::fleet::{fleet_report, FleetOptions, FleetSpec, FleetStream};
        let (spec, _) = FleetSpec::from_preset_keys(&["c2075", "hbm"]).unwrap();
        let streams: Vec<FleetStream> = (0..4)
            .map(|_| {
                FleetStream::uniform(
                    StreamInput::live(vec![StageTimes::uniform(1e-4, 5e-3, 1e-4); 6], 1.0 / 30.0),
                    1 << 20,
                    2,
                )
            })
            .collect();
        let fr = fleet_report(&spec, &streams, &FleetOptions::default()).unwrap();
        let server = MetricsServer::bind_fleet("127.0.0.1:0", fr, 10.0).unwrap();
        let body = server.render();
        assert!(body.contains("device=\"c2075-0\""), "{body}");
        assert!(body.contains("device=\"hbm-0\""));
        assert!(body.contains("# TYPE mogpu_frames_dropped_total counter"));
        assert!(body.contains("mogpu_fleet_devices 2"));
    }

    #[test]
    fn extra_exposition_is_appended() {
        let server = MetricsServer::bind("127.0.0.1:0", report(), 10.0)
            .unwrap()
            .with_extra_exposition(
                "# HELP extra_metric x\n# TYPE extra_metric gauge\nextra_metric 1\n".into(),
            );
        assert!(server.render().contains("extra_metric 1"));
    }
}
