//! A guard on how deep the TCP send path's stack goes below a strand's
//! entry.
//!
//! `http_storm`'s strands are OS threads, and their stacks end a few
//! dozen bytes under a 4 KB page edge (32 bytes when this test was
//! written). Static thread-locals share the top page of each of those
//! stacks. So a few more bytes of frame on the send path, or of
//! thread-local storage, makes every one of ≈ 700 strands touch one page
//! more: `rss_mb` moves by 17 % and no test says why. This test fails by
//! name instead: it pins the depth, in bytes, from a local at the client
//! strand's entry down to the lowest local seen in a clock advance hook
//! during `TcpStack::connect` and `send`.
//!
//! It is a proxy. Installing a hook makes charges observed, which walks
//! the hook chain on every charge and replays coalesced charges one by
//! one, so the frames measured here are not exactly the storm's. And a
//! debug build's frames are not a release build's, so each profile has
//! its own pin. A pin that moves by more than [`SLACK`] is a change to
//! the send path's frames: if it is meant, re-pin, and check
//! `http_storm`'s `rss_mb` against its parent.

use spin_check::sync::{Arc, Mutex};
use spin_net::{TcpStack, TwoHosts};
use std::hint::black_box;
use std::thread::{self, ThreadId};

/// Depth pinned in a debug build (`cargo test`), x86-64, rustc 1.95.
const DEBUG_DEPTH: usize = 9_088;
/// Depth pinned in a release build (`cargo test --release`), x86-64,
/// rustc 1.95.
const RELEASE_DEPTH: usize = 2_608;
/// How far the depth may move either way before the pin fails: one
/// 16-byte stack-alignment unit. The depth is the same on every run; a
/// slack of the storm's 32 bytes of headroom would let a frame growth
/// that crosses its page edge pass.
const SLACK: usize = 16;

/// The address of a local in the caller's frame.
#[inline(never)]
fn here() -> usize {
    let local = 0u8;
    black_box(&local) as *const u8 as usize
}

#[test]
fn the_send_path_stays_within_its_stack_depth() {
    let rig = TwoHosts::new();
    let tcp_a = TcpStack::install(&rig.a);
    let tcp_b = TcpStack::install(&rig.b);
    let listener = tcp_b.listen(80);
    rig.exec.spawn("server", move |ctx| {
        let conn = listener.accept(ctx).expect("a connection");
        while conn.recv(ctx).is_some() {}
        conn.close(ctx);
    });

    // The client's thread, and the lowest local address a charge made on
    // that thread reached.
    let client: Arc<Mutex<Option<ThreadId>>> = Arc::new(Mutex::new(None));
    let lowest = Arc::new(Mutex::new(usize::MAX));
    let (on, low) = (Arc::clone(&client), Arc::clone(&lowest));
    rig.board.clock.add_advance_hook(Box::new(move |_| {
        if *on.lock() == Some(thread::current().id()) {
            let mut low = low.lock();
            *low = (*low).min(here());
        }
    }));

    let dst = rig.b.ip_on(spin_net::Medium::Ethernet);
    let top = rig.exec.spawn("client", move |ctx| {
        let top = here();
        *client.lock() = Some(thread::current().id());
        let conn = tcp_a.connect(ctx, dst, 80).expect("connected");
        conn.send(ctx, &[7u8; 3000]).expect("sent");
        *client.lock() = None;
        conn.close(ctx);
        top
    });
    rig.exec.run_until_idle();

    let top = top.join().expect("the client finished cleanly");
    let lowest = *lowest.lock();
    assert!(lowest < top, "no charge was seen below the client's entry");
    let depth = top - lowest;
    let pinned = if cfg!(debug_assertions) {
        DEBUG_DEPTH
    } else {
        RELEASE_DEPTH
    };
    eprintln!("send path stack depth: {depth} bytes (pinned {pinned} ± {SLACK})");
    assert!(
        depth.abs_diff(pinned) <= SLACK,
        "the send path's stack depth is {depth} bytes, pinned at {pinned} ± {SLACK}"
    );
}
