//! Bound-2 model of the frame hand-off into a shard: two senders' bursts
//! (`Nic::send_burst` → `Wire::transmit` → `Mailbox::post_all`) race the
//! receiving shard's epoch drain. This is the hop every cross-shard frame
//! takes, so "frames sent == received + attributed drops" rests on it.
//!
//! Build with `RUSTFLAGS="--cfg spin_check"` (see `tests/checks.rs` for
//! the cfg discipline).

#![cfg(all(spin_check, not(spin_check_mutant)))]

use spin_check::model::Checker;
use spin_check::thread;
use spin_sal::{lanes, Envelope, Host, MulticoreBoard, WireEndpoint};

const BOUND: u32 = 2;

/// Under every bound-2 interleaving of two senders' bursts into one
/// receiver and a racing drain: no frame is lost or duplicated, each
/// sender's frames keep their order (per-lane seqs are gapless and drain
/// batches sorted), and `delivered + dropped == transmitted` with the one
/// undeliverable frame attributed.
#[test]
fn racing_bursts_into_a_draining_shard_close_the_frame_books() {
    let report = Checker::with_bound(BOUND).check(|| {
        let board = MulticoreBoard::new();
        let hosts: Vec<Host> = (0..3).map(|_| board.new_host(1)).collect();
        let to = hosts[2].endpoint();
        let burst = |from: &Host, frames: &[(WireEndpoint, &'static [u8])]| {
            let frames = frames.iter().map(|&(dst, p)| (dst, p.into())).collect();
            from.ethernet.send_burst(frames).expect("within the MTU");
        };
        let a = hosts[0].clone();
        let sender = thread::spawn(move || {
            burst(&a, &[(to, b"a0"), (WireEndpoint(99), b"lost"), (to, b"a1")]);
        });
        let b = hosts[1].clone();
        let other = thread::spawn(move || burst(&b, &[(to, b"b0"), (to, b"b1")]));

        let mut drained: Vec<Envelope> = hosts[2].mailbox.drain();
        sender.join().expect("sender");
        other.join().expect("other sender");
        let late = hosts[2].mailbox.drain();
        for batch in [&drained, &late] {
            let keys: Vec<_> = batch
                .iter()
                .map(|e| (e.deliver_at, e.lane, e.seq))
                .collect();
            assert!(keys.is_sorted(), "drain batch out of order: {keys:?}");
        }
        drained.extend(late);
        for sender in [0, 1] {
            let lane = lanes::ETHERNET_BASE + sender;
            let seqs: Vec<u64> = drained
                .iter()
                .filter(|e| e.lane == lane)
                .map(|e| e.seq)
                .collect();
            assert_eq!(seqs, [0, 1], "lane of sender {sender}");
        }
        for env in drained {
            (env.action)(env.deliver_at);
        }
        let mut got: Vec<Vec<u8>> = Vec::new();
        while let Some(frame) = hosts[2].ethernet.receive() {
            got.push(frame.payload.to_vec());
        }
        let order = |p: &[u8]| got.iter().position(|g| g == p).expect("frame lost");
        assert_eq!(got.len(), 4, "a frame was lost or duplicated: {got:?}");
        assert!(order(b"a0") < order(b"a1") && order(b"b0") < order(b"b1"));
        let transmitted: u64 = hosts.iter().map(|h| h.ethernet.counters().0).sum();
        let (delivered, dropped) = board.ethernet.stats();
        assert_eq!((delivered, dropped), (4, 1));
        assert_eq!(delivered + dropped, transmitted);
        assert_eq!(hosts[2].mailbox.stats(), (4, 4, 0));
    });
    eprintln!(
        "wire burst/drain: executions={} steps={}",
        report.executions, report.steps
    );
    assert!(report.failure.is_none(), "violation: {:?}", report.failure);
    assert!(report.complete, "schedule space must be exhausted");
}
