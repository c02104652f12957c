//! §5.4: the web server experiment.
//!
//! "The client-side latency of an HTTP transaction to a SPIN web server
//! running as a kernel extension is 5 milliseconds when the requested file
//! is in the server's cache. ... A comparable user-level web server on
//! DEC OSF/1 that relies on the operating system's caching file system
//! takes about 8 milliseconds per request for the same cached file."

use parking_lot::Mutex;
use spin_baseline::Osf1Model;
use spin_bench::{render_table, JsonReport, Row};
use spin_fs::{BufferCache, FileSystem, HybridBySize, NoCachePolicy, WebCache};
use spin_net::{http_get, HttpServer, Medium, TcpStack, TwoHosts};
use std::sync::Arc;

fn main() {
    let rig = TwoHosts::new();
    let tcp_a = TcpStack::install(&rig.a);
    let tcp_b = TcpStack::install(&rig.b);
    let bc = BufferCache::new(
        rig.host_b.disk.clone(),
        rig.exec.clone(),
        64,
        Box::new(NoCachePolicy),
    );
    let fs = FileSystem::format(bc, 0, 500);
    let fs2 = fs.clone();
    rig.exec.spawn("content", move |ctx| {
        fs2.create("/page.html").unwrap();
        fs2.write_file(ctx, "/page.html", &vec![b'x'; 3_000])
            .unwrap();
    });
    rig.exec.run_until_idle();
    let cache = Arc::new(WebCache::new(
        1 << 20,
        Box::new(HybridBySize {
            large_threshold: 65_536,
        }),
    ));
    let _server = HttpServer::start(&rig.b, &tcp_b, fs, cache, 80);

    let dst = rig.b.ip_on(Medium::Ethernet);
    let clock = rig.exec.clock().clone();
    let times = Arc::new(Mutex::new(Vec::new()));
    let t2 = times.clone();
    rig.exec.spawn("browser", move |ctx| {
        for _ in 0..4 {
            let t0 = clock.now();
            http_get(ctx, &tcp_a, dst, 80, "/page.html").expect("200");
            t2.lock().push(clock.now() - t0);
        }
    });
    rig.exec.run_until_idle();

    let t = times.lock();
    let uncached_ms = t[0] as f64 / 1e6;
    let cached_ms = t[1..].iter().sum::<u64>() as f64 / (t.len() - 1) as f64 / 1e6;
    let model = Osf1Model;
    let osf_ms = model.web_request((cached_ms * 1e6) as u64, 3_000) as f64 / 1e6;

    let rows = vec![
        Row::new("SPIN in-kernel server, cached file", 5.0, cached_ms),
        Row::new("DEC OSF/1 user-level server, cached", 8.0, osf_ms),
        Row::extra("SPIN, first (uncached) request", uncached_ms),
    ];
    print!(
        "{}",
        render_table("§5.4: HTTP transaction latency", "ms", &rows)
    );
    println!(
        "\nThe SPIN server controls its own hybrid cache (LRU small / no-cache large)\n\
         over an uncached file system: full policy control with no double buffering."
    );
    JsonReport::new("s3_web", "§5.4: HTTP transaction latency", "ms")
        .rows(&rows)
        .write_if_requested();
}
