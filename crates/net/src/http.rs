//! The in-kernel HTTP server extension (Figure 5's "HTTP" box; §5.4).
//!
//! "The HTTP extension implements the HyperText Transport Protocol
//! directly within the kernel, enabling a server to respond quickly to
//! HTTP requests by splicing together the protocol stack and the local
//! file system." The server controls its own object cache with the hybrid
//! policy of §5.4 and runs the file system beneath it without block
//! caching, avoiding double buffering.
//!
//! Webscale redesign: instead of an acceptor strand plus one strand per
//! connection, the server is a **single** daemon strand parked on a
//! [`NetPoller`]. The listener and every live connection are poller
//! sources; requests are parsed from accumulated bytes per session, typed
//! [`Request`]s are dispatched to typed [`Response`] routes, and slow
//! clients (slowloris) are reaped by an idle sweep driven from a rearming
//! virtual timer. Admission is gated per request by an optional PR-8
//! [`QuotaCell`]; over-budget requests get a deterministic 503.

use crate::pkt::IpAddr;
use crate::poll::{interest, NetPoller, Token};
use crate::stack::NetStack;
use crate::tcp::{TcpConn, TcpStack};
use bytes::Bytes;
use spin_check::sync::{Mutex, RwLock};
use spin_core::QuotaCell;
use spin_fs::{FileSystem, WebCache};
use spin_sal::Nanos;
use spin_sched::StrandCtx;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HttpStats {
    /// Every request ends in exactly one of `ok`, `not_found`,
    /// `bad_requests` and `shed`: this is their sum, taken when the stats
    /// are read.
    pub requests: u64,
    pub ok: u64,
    pub not_found: u64,
    pub bad_requests: u64,
    /// Requests refused by the quota cell (503).
    pub shed: u64,
    /// Connections reaped by the slow-client idle sweep.
    pub timeouts: u64,
}

/// A parsed HTTP request, as handed to typed route handlers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub path: String,
    /// Headers in wire order, names as received.
    pub headers: Vec<(String, String)>,
    pub body: Bytes,
}

impl Request {
    /// Case-insensitive single-header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A typed HTTP response; the server owns serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    /// Emitted in order, before `Content-Length`.
    pub headers: Vec<(String, String)>,
    pub body: Bytes,
}

impl Response {
    /// A 200 with the given body.
    pub fn ok(body: impl Into<Bytes>) -> Response {
        Response {
            status: 200,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A bare 404 (1995-style: status line only).
    pub fn not_found() -> Response {
        Response {
            status: 404,
            headers: Vec::new(),
            body: Bytes::new(),
        }
    }

    /// A bare 400.
    pub fn bad_request() -> Response {
        Response {
            status: 400,
            headers: Vec::new(),
            body: Bytes::new(),
        }
    }

    /// A bare 503 (quota admission refused).
    pub fn unavailable() -> Response {
        Response {
            status: 503,
            headers: Vec::new(),
            body: Bytes::new(),
        }
    }

    /// Appends a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes to the wire bytes. Error replies with empty bodies stay
    /// bare status lines (the pre-redesign byte format); 200s always
    /// carry `Content-Length`.
    fn encode(&self) -> Bytes {
        let mut head = format!("HTTP/1.0 {} {}\r\n", self.status, self.reason());
        for (k, v) in &self.headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        if self.status == 200 || !self.body.is_empty() {
            head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        Bytes::from(out)
    }
}

/// A dynamic in-kernel handler for one path.
pub type RouteHandler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// The server's routes. A reader clones the one handler it found and
/// calls it with no lock held. BTree: deterministic iteration for
/// diagnostics.
type RouteTable = BTreeMap<String, RouteHandler>;

/// Server tuning knobs.
#[derive(Clone)]
pub struct HttpConfig {
    /// Listener backlog (SYNs arriving past it are dropped; the client's
    /// SYN retransmit recovers).
    pub backlog: usize,
    /// A connection idle longer than this (virtual time) without
    /// completing a request is reaped — the slowloris defense.
    pub idle_timeout: Nanos,
    /// Idle-sweep period; armed only while sessions exist so the timer
    /// wheel drains when the storm ends.
    pub tick: Nanos,
    /// `time_bound` constraint on the server poller's `Net.Ready`
    /// delivery handler (the PR-3 containment machinery).
    pub time_bound: Option<Nanos>,
    /// Per-request admission gate (PR-8). Refusals get a 503.
    pub quota: Option<Arc<QuotaCell>>,
}

impl Default for HttpConfig {
    fn default() -> HttpConfig {
        HttpConfig {
            backlog: 64,
            idle_timeout: 2_000_000_000,
            tick: 500_000_000,
            time_bound: None,
            quota: None,
        }
    }
}

/// The poller token reserved for the listener.
const LISTENER_TOKEN: Token = 0;
/// The poller token the idle-sweep timer posts to.
const TICK_TOKEN: Token = u64::MAX;

struct Session {
    conn: Arc<TcpConn>,
    buf: Vec<u8>,
    last_activity: Nanos,
}

/// The in-kernel web server.
pub struct HttpServer {
    stats: Arc<Mutex<HttpStats>>,
    cache: Arc<WebCache>,
    routes: RwLock<RouteTable>,
    quota: Option<Arc<QuotaCell>>,
}

impl HttpServer {
    /// Starts the server on `port` with default tuning, serving files
    /// from `fs` through `cache`.
    pub fn start(
        stack: &NetStack,
        tcp: &TcpStack,
        fs: FileSystem,
        cache: Arc<WebCache>,
        port: u16,
    ) -> Arc<HttpServer> {
        Self::start_with(stack, tcp, fs, cache, port, HttpConfig::default())
    }

    /// Starts the server with explicit tuning. Spawns exactly one daemon
    /// strand regardless of connection count.
    pub fn start_with(
        stack: &NetStack,
        tcp: &TcpStack,
        fs: FileSystem,
        cache: Arc<WebCache>,
        port: u16,
        cfg: HttpConfig,
    ) -> Arc<HttpServer> {
        let server = Arc::new(HttpServer {
            stats: Arc::new(Mutex::new(HttpStats::default())),
            cache,
            routes: RwLock::default(),
            quota: cfg.quota.clone(),
        });
        stack.topology().note("TCP.PktArrived", "HTTP");
        let listener = tcp.listen_backlog(port, cfg.backlog);
        let poller = NetPoller::with_time_bound(stack, cfg.time_bound);
        poller.add(listener.as_ref(), LISTENER_TOKEN, interest::ACCEPT);
        let exec = stack.executor().clone();
        let clock = exec.clock().clone();
        let srv = server.clone();
        let exec2 = exec.clone();
        let daemon = exec.spawn("http-server", move |ctx| {
            let mut sessions: BTreeMap<Token, Session> = BTreeMap::new();
            let mut next_token: Token = 1;
            let mut tick_armed = false;
            let arm = |armed: &mut bool| {
                if !*armed {
                    *armed = true;
                    let p = poller.clone();
                    let at = clock.now() + cfg.tick;
                    exec2
                        .timers()
                        .schedule_at(at, move |_| p.post(TICK_TOKEN, interest::READABLE));
                }
            };
            loop {
                for (token, mask) in poller.wait(ctx) {
                    if token == LISTENER_TOKEN {
                        while let Some(conn) = listener.try_accept() {
                            let tok = next_token;
                            next_token += 1;
                            poller.add(conn.as_ref(), tok, interest::READABLE);
                            sessions.insert(
                                tok,
                                Session {
                                    conn,
                                    buf: Vec::new(),
                                    last_activity: clock.now(),
                                },
                            );
                            arm(&mut tick_armed);
                        }
                    } else if token == TICK_TOKEN {
                        tick_armed = false;
                        let now = clock.now();
                        let expired: Vec<Token> = sessions
                            .iter()
                            .filter(|(_, s)| {
                                // A session with undrained input is never
                                // idle: under load, one `wait` batch can
                                // run longer in virtual time than the
                                // idle timeout, and sessions accepted at
                                // the head of the batch would otherwise
                                // be reaped by the tick at its tail while
                                // their request sits queued in the ready
                                // set. Only peers that have gone silent
                                // (everything received already drained)
                                // are idle.
                                now.saturating_sub(s.last_activity) > cfg.idle_timeout
                                    && s.conn.incoming_len() == 0
                            })
                            .map(|(t, _)| *t)
                            .collect();
                        for t in expired {
                            let s = sessions.remove(&t).expect("listed above");
                            srv.stats.lock().timeouts += 1;
                            s.conn.begin_close();
                        }
                        if !sessions.is_empty() {
                            arm(&mut tick_armed);
                        }
                    } else if let Some(s) = sessions.get_mut(&token) {
                        while let Some(chunk) = s.conn.try_recv() {
                            s.buf.extend_from_slice(&chunk);
                        }
                        s.last_activity = clock.now();
                        if let Some(req) = parse_complete(&s.buf) {
                            let s = sessions.remove(&token).expect("present");
                            srv.respond(ctx, &s.conn, &req, &fs);
                        } else if mask & interest::CLOSED != 0 {
                            // Peer gave up before completing a request.
                            let s = sessions.remove(&token).expect("present");
                            s.conn.begin_close();
                        }
                    }
                }
            }
        });
        exec.set_daemon(daemon);
        server
    }

    /// Serves one parsed request and fires the close (non-blocking: the
    /// FIN handshake completes on the protocol thread).
    fn respond(&self, ctx: &StrandCtx, conn: &Arc<TcpConn>, req: &Request, fs: &FileSystem) {
        let t0 = ctx.executor().clock().now();
        let admitted = match &self.quota {
            Some(cell) => cell.admit(t0).is_ok(),
            None => true,
        };
        let resp = if !admitted {
            self.stats.lock().shed += 1;
            Response::unavailable()
        } else {
            self.serve(ctx, req, fs)
        };
        let _ = conn.send_buf(ctx, resp.encode());
        conn.begin_close();
        if admitted {
            if let Some(cell) = &self.quota {
                cell.complete(ctx.executor().clock().now() - t0);
            }
        }
    }

    /// Routes a request: dynamic routes first (any method), then GET file
    /// service through the object cache.
    fn serve(&self, ctx: &StrandCtx, req: &Request, fs: &FileSystem) -> Response {
        if !req.path.starts_with('/') {
            self.stats.lock().bad_requests += 1;
            return Response::bad_request();
        }
        let handler = self.routes.read().get(&req.path).cloned();
        if let Some(handler) = handler {
            let resp = handler(req);
            let mut st = self.stats.lock();
            match resp.status {
                200 => st.ok += 1,
                404 => st.not_found += 1,
                _ => st.bad_requests += 1,
            }
            return resp;
        }
        if req.method != "GET" {
            self.stats.lock().bad_requests += 1;
            return Response::bad_request();
        }
        // The hybrid object cache fronts the (uncached) file system.
        if fs.size_of(&req.path).is_err() {
            self.stats.lock().not_found += 1;
            return Response::not_found();
        }
        let path = req.path.clone();
        let (body, _hit) = self
            .cache
            .get_or_load(&path, || fs.read_file(ctx, &path).unwrap_or_default());
        self.stats.lock().ok += 1;
        Response::ok(Bytes::copy_from_slice(&body))
    }

    /// Installs a typed handler for `path` (replaces any previous handler
    /// on the same path).
    pub fn route(
        &self,
        path: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) {
        self.routes
            .write()
            .insert(path.to_string(), Arc::new(handler));
    }

    /// Server counters.
    pub fn stats(&self) -> HttpStats {
        let st = *self.stats.lock();
        HttpStats {
            requests: st.ok + st.not_found + st.bad_requests + st.shed,
            ..st
        }
    }

    /// The object cache (for policy inspection in benches).
    pub fn cache(&self) -> &Arc<WebCache> {
        &self.cache
    }
}

/// Parses a complete request (head terminated by `\r\n\r\n`, body per
/// `Content-Length`) from accumulated bytes. `None` while incomplete.
/// An unparseable request line yields a `Request` with an empty method,
/// which the server answers with 400.
fn parse_complete(buf: &[u8]) -> Option<Request> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut lines = head.split("\r\n");
    let mut first = lines.next().unwrap_or("").split_whitespace();
    let method = first.next().unwrap_or("").to_string();
    let path = first.next().unwrap_or("").to_string();
    let mut headers = Vec::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_string(), v.trim().to_string()));
        }
    }
    let content_length = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return None;
    }
    Some(Request {
        method,
        path,
        headers,
        body: Bytes::copy_from_slice(&buf[body_start..body_start + content_length]),
    })
}

/// A blocking HTTP GET; returns (status line, body).
pub fn http_get(
    ctx: &StrandCtx,
    tcp: &TcpStack,
    server: IpAddr,
    port: u16,
    path: &str,
) -> Option<(String, Vec<u8>)> {
    let conn = tcp.connect(ctx, server, port).ok()?;
    let request = format!("GET {path} HTTP/1.0\r\n\r\n");
    conn.send(ctx, request.as_bytes()).ok()?;
    let mut response = Vec::new();
    while let Some(chunk) = conn.recv(ctx) {
        response.extend_from_slice(&chunk);
    }
    conn.close(ctx);
    let sep = response.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8_lossy(&response[..sep]).into_owned();
    let status = head.lines().next()?.to_string();
    Some((status, response[sep + 4..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Medium;
    use crate::testrig::TwoHosts;
    use spin_fs::{BufferCache, HybridBySize, NoCachePolicy};

    fn web_rig() -> (TwoHosts, TcpStack, Arc<HttpServer>) {
        web_rig_with(HttpConfig::default())
    }

    fn web_rig_with(cfg: HttpConfig) -> (TwoHosts, TcpStack, Arc<HttpServer>) {
        let rig = TwoHosts::new();
        let tcp_a = TcpStack::install(&rig.a);
        let tcp_b = TcpStack::install(&rig.b);
        // The server's file system runs uncached under the object cache.
        let bc = BufferCache::new(
            rig.host_b.disk.clone(),
            rig.exec.clone(),
            64,
            Box::new(NoCachePolicy),
        );
        let fs = FileSystem::format(bc, 1000, 500);
        // Populate content.
        let fs2 = fs.clone();
        rig.exec.spawn("setup", move |ctx| {
            fs2.create("/index.html").unwrap();
            fs2.write_file(ctx, "/index.html", b"<html>SPIN</html>")
                .unwrap();
            fs2.create("/big.mpg").unwrap();
            fs2.write_file(ctx, "/big.mpg", &vec![7u8; 100_000])
                .unwrap();
        });
        rig.exec.run_until_idle();
        let cache = Arc::new(WebCache::new(
            1 << 20,
            Box::new(HybridBySize {
                large_threshold: 64 * 1024,
            }),
        ));
        let server = HttpServer::start_with(&rig.b, &tcp_b, fs, cache, 80, cfg);
        (rig, tcp_a, server)
    }

    #[test]
    fn get_serves_file_content() {
        let (rig, tcp_a, server) = web_rig();
        let dst = rig.b_ip(Medium::Ethernet);
        let got = Arc::new(Mutex::new(None));
        let g2 = got.clone();
        rig.exec.spawn("client", move |ctx| {
            *g2.lock() = http_get(ctx, &tcp_a, dst, 80, "/index.html");
        });
        rig.exec.run_until_idle();
        let (status, body) = got.lock().clone().expect("response");
        assert_eq!(status, "HTTP/1.0 200 OK");
        assert_eq!(body, b"<html>SPIN</html>");
        assert_eq!(server.stats().ok, 1);
    }

    #[test]
    fn missing_files_are_404() {
        let (rig, tcp_a, server) = web_rig();
        let dst = rig.b_ip(Medium::Ethernet);
        let got = Arc::new(Mutex::new(None));
        let g2 = got.clone();
        rig.exec.spawn("client", move |ctx| {
            *g2.lock() = http_get(ctx, &tcp_a, dst, 80, "/nope");
        });
        rig.exec.run_until_idle();
        let (status, _) = got.lock().clone().expect("response");
        assert!(status.contains("404"));
        assert_eq!(server.stats().not_found, 1);
    }

    #[test]
    fn small_files_cache_large_files_bypass() {
        let (rig, tcp_a, server) = web_rig();
        let dst = rig.b_ip(Medium::Ethernet);
        let tcp2 = tcp_a.clone();
        rig.exec.spawn("client", move |ctx| {
            for _ in 0..2 {
                http_get(ctx, &tcp2, dst, 80, "/index.html").expect("ok");
                http_get(ctx, &tcp2, dst, 80, "/big.mpg").expect("ok");
            }
        });
        rig.exec.run_until_idle();
        let cs = server.cache().stats();
        assert_eq!(cs.hits, 1, "second /index.html is a cache hit");
        assert_eq!(cs.bypasses, 2, "/big.mpg is never cached");
    }

    #[test]
    fn cached_requests_are_faster() {
        let (rig, tcp_a, _server) = web_rig();
        let dst = rig.b_ip(Medium::Ethernet);
        let clock = rig.exec.clock().clone();
        let times = Arc::new(Mutex::new(Vec::new()));
        let t2 = times.clone();
        rig.exec.spawn("client", move |ctx| {
            for _ in 0..2 {
                let t0 = clock.now();
                http_get(ctx, &tcp_a, dst, 80, "/index.html").expect("ok");
                t2.lock().push(clock.now() - t0);
            }
        });
        rig.exec.run_until_idle();
        let t = times.lock();
        assert!(
            t[1] < t[0],
            "cached ({}) must beat uncached ({}) — the §5.4 claim",
            t[1],
            t[0]
        );
    }

    #[test]
    fn typed_routes_see_method_headers_and_body() {
        let (rig, tcp_a, server) = web_rig();
        server.route("/echo", |req: &Request| {
            let who = req.header("x-who").unwrap_or("?").to_string();
            let body = format!("{} {} {}", req.method, who, req.body.len());
            Response::ok(body.into_bytes())
        });
        let dst = rig.b_ip(Medium::Ethernet);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = got.clone();
        rig.exec.spawn("client", move |ctx| {
            let conn = tcp_a.connect(ctx, dst, 80).unwrap();
            conn.send(
                ctx,
                b"POST /echo HTTP/1.0\r\nX-Who: spin\r\nContent-Length: 5\r\n\r\nhello",
            )
            .unwrap();
            while let Some(chunk) = conn.recv(ctx) {
                g2.lock().extend_from_slice(&chunk);
            }
            conn.close(ctx);
        });
        rig.exec.run_until_idle();
        let response = got.lock().clone();
        let text = String::from_utf8_lossy(&response).into_owned();
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"), "{text}");
        assert!(text.ends_with("POST spin 5"), "{text}");
    }

    /// Each request ends in one outcome, so the request count is their sum:
    /// here a 200, a 404, a 400 (no leading `/`), a 503 from a route and a
    /// 400 for a non-GET of a file.
    #[test]
    fn requests_are_the_sum_of_their_outcomes() {
        let (rig, tcp_a, server) = web_rig();
        server.route("/busy", |_| Response::unavailable());
        let dst = rig.b_ip(Medium::Ethernet);
        rig.exec.spawn("client", move |ctx| {
            for request in [
                "GET /index.html",
                "GET /nope",
                "GET index.html",
                "GET /busy",
                "PUT /index.html",
            ] {
                let conn = tcp_a.connect(ctx, dst, 80).unwrap();
                conn.send(ctx, format!("{request} HTTP/1.0\r\n\r\n").as_bytes())
                    .unwrap();
                while conn.recv(ctx).is_some() {}
                conn.close(ctx);
            }
        });
        rig.exec.run_until_idle();
        let st = server.stats();
        assert_eq!(
            (st.ok, st.not_found, st.bad_requests, st.shed),
            (1, 1, 3, 0)
        );
        assert_eq!(
            st.requests,
            st.ok + st.not_found + st.bad_requests + st.shed
        );
    }

    #[test]
    fn slowloris_connections_are_reaped() {
        let cfg = HttpConfig {
            idle_timeout: 50_000_000,
            tick: 10_000_000,
            ..HttpConfig::default()
        };
        let (rig, tcp_a, server) = web_rig_with(cfg);
        let dst = rig.b_ip(Medium::Ethernet);
        rig.exec.spawn("slowloris", move |ctx| {
            let conn = tcp_a.connect(ctx, dst, 80).unwrap();
            // A partial request line, then silence.
            conn.send(ctx, b"GET /index.ht").unwrap();
            // Outlive the idle timeout without completing the request.
            ctx.sleep(200_000_000);
            // The server must have FIN'd us by now.
            while conn.recv(ctx).is_some() {}
        });
        rig.exec.run_until_idle();
        let st = server.stats();
        assert_eq!(st.timeouts, 1, "the slow client was reaped");
        assert_eq!(st.requests, 0, "no request ever completed");
    }
}
