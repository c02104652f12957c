//! Integration: the §5.4 video pipeline end to end — file system, video
//! server strand, `SendPacket` multicast extension, T3 wire, client
//! decompression — and the Figure 6 utilization claim in miniature.

use spin_os::fs::{BufferCache, FileSystem, LruPolicy};
use spin_os::net::{Medium, TwoHosts, VideoClient, VideoServer};
use spin_os::sal::HostId;

fn movie_fs(rig: &TwoHosts, bytes: usize) -> FileSystem {
    let cache = BufferCache::new(
        rig.host_a.disk.clone(),
        rig.exec.clone(),
        256,
        Box::new(LruPolicy::default()),
    );
    let fs = FileSystem::format(cache, 0, 600);
    let fs2 = fs.clone();
    rig.exec.spawn("mkfs", move |ctx| {
        fs2.create("/movie").unwrap();
        let content: Vec<u8> = (0..bytes).map(|i| (i % 253) as u8).collect();
        fs2.write_file(ctx, "/movie", &content).unwrap();
    });
    rig.exec.run_until_idle();
    fs
}

#[test]
fn every_frame_byte_reaches_every_client() {
    let rig = TwoHosts::new();
    let fs = movie_fs(&rig, 500_000);
    let client = VideoClient::install(&rig.b);
    let frames = 10u64;
    let server = VideoServer::start(&rig.a, fs, "/movie", 12_500, 30, frames, 8_000);
    server.add_client(rig.b.ip_on(Medium::T3));
    server.add_client(rig.b.ip_on(Medium::T3));
    server.add_client(rig.b.ip_on(Medium::T3));
    rig.exec.run_until_idle();
    let cs = client.stats();
    assert_eq!(server.stats().frames_sent, frames);
    assert_eq!(
        cs.bytes,
        3 * frames * 12_500,
        "three full streams delivered"
    );
}

#[test]
fn server_cpu_grows_sublinearly_per_client_thanks_to_multicast() {
    // The §5.4 claim: "each outgoing packet is pushed through the protocol
    // graph only once, and not once per client stream". Per-client cost is
    // therefore only the driver fan-out, not a full stack traversal.
    let busy_for = |clients: u32| {
        let rig = TwoHosts::new();
        let fs = movie_fs(&rig, 200_000);
        let _client = VideoClient::install(&rig.b);
        let server = VideoServer::start(&rig.a, fs, "/movie", 12_500, 30, 10, 8_000);
        for _ in 0..clients {
            server.add_client(rig.b.ip_on(Medium::T3));
        }
        let before = rig.exec.host_busy(HostId(0));
        rig.exec.run_until_idle();
        rig.exec.host_busy(HostId(0)) - before
    };
    let one = busy_for(1);
    let eight = busy_for(8);
    assert!(eight > one, "more clients cost more CPU");
    assert!(
        eight < 8 * one,
        "multicast must beat 8 independent stack traversals ({eight} vs 8x{one})"
    );
}

#[test]
fn utilization_orders_spin_under_osf1_model() {
    // Mini Figure 6: at 8 clients, the measured SPIN utilization must sit
    // well under the modelled OSF/1 utilization.
    let rig = TwoHosts::new();
    let fs = movie_fs(&rig, 200_000);
    let _client = VideoClient::install(&rig.b);
    let server = VideoServer::start(&rig.a, fs, "/movie", 12_500, 30, 15, 8_000);
    for _ in 0..8 {
        server.add_client(rig.b.ip_on(Medium::T3));
    }
    let t0 = rig.exec.clock().now();
    rig.exec.run_until_idle();
    let elapsed = rig.exec.clock().now() - t0;
    let spin_util = rig.exec.host_busy(HostId(0)) as f64 / elapsed as f64;

    let model = spin_os::baseline::Osf1Model::new(std::sync::Arc::new(
        spin_os::sal::MachineProfile::alpha_axp_3000_400(),
    ));
    let t3 = spin_os::sal::NicModel::t3_dma().driver_ns;
    let osf_per_second =
        30 * model.video_read_cpu(12_500) + 30 * 8 * 2 * model.video_send_cpu(8_000, t3);
    let osf_util = osf_per_second as f64 / 1e9;
    assert!(
        spin_util < osf_util,
        "SPIN ({spin_util:.3}) must consume less CPU than OSF/1 ({osf_util:.3})"
    );
    assert!(osf_util / spin_util > 1.5, "by a material factor");
}
