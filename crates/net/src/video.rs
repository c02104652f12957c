//! The networked video system (§1.2, §5.4, Figure 6).
//!
//! "The server is structured as three kernel extensions, one that uses the
//! local file system to read video frames from the disk, another that
//! sends the video out over the network, and a third that registers itself
//! as a handler on the SendPacket event, transforming the single send into
//! a multicast to a list of clients. ... On the client, an extension
//! awaits incoming video packets, decompresses and writes them directly to
//! the frame buffer."
//!
//! "Because each outgoing packet is pushed through the protocol graph only
//! once, and not once per client stream, SPIN's server can support a
//! larger number of clients" — reproduced here: the per-frame protocol
//! work happens once, and the multicast handler fans out at the driver
//! boundary.

use crate::pkt::{proto, IpAddr, UdpHeader};
use crate::stack::{NetStack, SendRequest, SendVerdict};
use spin_check::sync::Mutex;
use spin_core::Identity;
use spin_fs::FileSystem;
use spin_sal::{Cost, Nanos};
use std::sync::Arc;

/// The UDP port video streams use.
const VIDEO_PORT: u16 = 4000;

/// The sentinel "multicast group" address the server sends to.
const MULTICAST_GROUP: IpAddr = IpAddr::new(239, 0, 0, 1);

/// Per-byte CPU cost of software decompression on the client.
const DECOMPRESS_NS_PER_BYTE_X100: u64 = 300; // 3 ns/byte

/// Server statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VideoServerStats {
    pub frames_sent: u64,
    pub packets_multicast: u64,
    pub bytes_read: u64,
}

/// The video server extension bundle.
pub struct VideoServer {
    clients: Arc<Mutex<Vec<IpAddr>>>,
    stats: Arc<Mutex<VideoServerStats>>,
}

impl VideoServer {
    /// Starts the server: streams `path` at `fps` frames of `frame_size`
    /// bytes for `frames` frames, multicasting to the registered clients.
    /// Packets ride the medium that routes to each client's address.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        stack: &NetStack,
        fs: FileSystem,
        path: &str,
        frame_size: usize,
        fps: u64,
        frames: u64,
        packet_size: usize,
    ) -> Arc<VideoServer> {
        let clients: Arc<Mutex<Vec<IpAddr>>> = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(Mutex::new(VideoServerStats::default()));

        // Extension 3: the SendPacket multicast handler. It claims video
        // packets addressed to the group and fans them out at the driver
        // boundary, so the protocol graph above runs once per packet.
        let c2 = clients.clone();
        let stack2 = stack.clone();
        let st2 = stats.clone();
        stack
            .events()
            .send_packet
            .install_guarded(
                Identity::extension("VideoMulticast"),
                |req: &SendRequest| req.dst == MULTICAST_GROUP && req.protocol == proto::UDP,
                move |req: &SendRequest| {
                    let targets = c2.lock().clone();
                    for dst in targets {
                        let _ = stack2.transmit(dst, proto::UDP, req.payload.clone());
                        st2.lock().packets_multicast += 1;
                    }
                    SendVerdict::Suppressed
                },
            )
            .expect("install multicast handler");
        stack.topology().note("SendPacket", "Video multicast");

        // Extensions 1+2: the reader/sender strand.
        let exec = stack.executor().clone();
        let stack3 = stack.clone();
        let st3 = stats.clone();
        let path = path.to_string();
        let frame_interval: Nanos = 1_000_000_000 / fps.max(1);
        exec.spawn("video-server", move |ctx| {
            let file_size = fs_size(&fs, &path);
            for frame in 0..frames {
                let offset = (frame * frame_size as u64) % file_size.max(1);
                let data = fs
                    .read_at(ctx, &path, offset, frame_size)
                    .unwrap_or_else(|_| vec![0u8; frame_size]);
                st3.lock().bytes_read += data.len() as u64;
                // Chunk the frame into packets and push each through the
                // graph once.
                for chunk in data.chunks(packet_size) {
                    let datagram = UdpHeader::encode(VIDEO_PORT, VIDEO_PORT, chunk);
                    let _ = stack3.send_ip(MULTICAST_GROUP, proto::UDP, datagram);
                }
                st3.lock().frames_sent += 1;
                ctx.sleep(frame_interval);
            }
        });

        Arc::new(VideoServer { clients, stats })
    }

    /// Subscribes a client address to the stream.
    pub fn add_client(&self, addr: IpAddr) {
        self.clients.lock().push(addr);
    }

    /// Server counters.
    pub fn stats(&self) -> VideoServerStats {
        *self.stats.lock()
    }
}

fn fs_size(fs: &FileSystem, path: &str) -> u64 {
    fs.size_of(path).unwrap_or(0)
}

/// Client statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VideoClientStats {
    pub packets: u64,
    pub bytes: u64,
}

/// The video client extension: decompress and blit to the framebuffer.
pub struct VideoClient {
    stats: Arc<Mutex<VideoClientStats>>,
}

impl VideoClient {
    /// Installs the client on `stack`, consuming the video port.
    pub fn install(stack: &NetStack) -> Arc<VideoClient> {
        let stats = Arc::new(Mutex::new(VideoClientStats::default()));
        let st2 = stats.clone();
        let clock = stack.executor().clock().clone();
        crate::socket::UdpSocket::bind_with(stack, VIDEO_PORT, "Video", move |p| {
            // Decompress...
            let len = p.payload.len() as u64;
            clock.charge(Cost::Work, len * DECOMPRESS_NS_PER_BYTE_X100 / 100);
            // ...and write to the frame buffer.
            clock.charge(Cost::CopyByte, len);
            let mut s = st2.lock();
            s.packets += 1;
            s.bytes += p.payload.len() as u64;
        })
        .expect("bind video port");
        Arc::new(VideoClient { stats })
    }

    /// Client counters.
    pub fn stats(&self) -> VideoClientStats {
        *self.stats.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Medium;
    use crate::testrig::TwoHosts;
    use spin_fs::{BufferCache, LruPolicy};

    fn movie(rig: &TwoHosts, bytes: usize) -> FileSystem {
        let bc = BufferCache::new(
            rig.host_a.disk.clone(),
            rig.exec.clone(),
            128,
            Box::new(LruPolicy::default()),
        );
        let fs = FileSystem::format(bc, 0, 1000);
        let fs2 = fs.clone();
        rig.exec.spawn("setup", move |ctx| {
            fs2.create("/movie").unwrap();
            fs2.write_file(ctx, "/movie", &vec![42u8; bytes]).unwrap();
        });
        rig.exec.run_until_idle();
        fs
    }

    #[test]
    fn frames_stream_to_a_client() {
        let rig = TwoHosts::new();
        let fs = movie(&rig, 100_000);
        let client = VideoClient::install(&rig.b);
        let server = VideoServer::start(&rig.a, fs, "/movie", 8_000, 30, 5, 1400);
        server.add_client(rig.b_ip(Medium::Ethernet));
        rig.exec.run_until_idle();
        let ss = server.stats();
        let cs = client.stats();
        assert_eq!(ss.frames_sent, 5);
        assert_eq!(cs.bytes, 5 * 8_000, "every frame byte must arrive");
        // 8000 bytes at 1400/packet = 6 packets per frame.
        assert_eq!(cs.packets, 5 * 6);
    }

    #[test]
    fn multicast_fans_out_once_per_client_at_the_driver() {
        let rig = TwoHosts::new();
        let fs = movie(&rig, 100_000);
        let client = VideoClient::install(&rig.b);
        let server = VideoServer::start(&rig.a, fs, "/movie", 2_800, 30, 3, 1400);
        // Two subscriptions to the same client host (distinct streams in
        // spirit; same sink here).
        server.add_client(rig.b_ip(Medium::Ethernet));
        server.add_client(rig.b_ip(Medium::Ethernet));
        rig.exec.run_until_idle();
        let ss = server.stats();
        // 3 frames x 2 packets x 2 clients at the driver boundary.
        assert_eq!(ss.packets_multicast, 12);
        assert_eq!(client.stats().packets, 12);
    }

    #[test]
    fn no_clients_means_no_transmissions() {
        let rig = TwoHosts::new();
        let fs = movie(&rig, 50_000);
        let server = VideoServer::start(&rig.a, fs, "/movie", 1_000, 30, 2, 1400);
        rig.exec.run_until_idle();
        assert_eq!(server.stats().frames_sent, 2);
        assert_eq!(server.stats().packets_multicast, 0);
    }
}
