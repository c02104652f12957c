//! Packet headers: Ethernet, IPv4, UDP, TCP, ICMP.
//!
//! Real wire formats with real encode/decode and the Internet checksum, so
//! the protocol graph of Figure 5 pushes genuine byte frames between
//! layers and hosts.
//!
//! A header encodes to a fixed array on the caller's stack
//! (`header_bytes`): nothing on the way down allocates for a header. The
//! send path puts those arrays in front of a shared payload
//! (`encode_chain`, into a [`BufChain`]'s inline room) and the stack writes
//! them straight into the frame; `encode(payload)` is for callers that want
//! one contiguous packet and builds exactly one buffer, copying the payload
//! once.

use bytes::{Bytes, BytesMut};
use spin_sal::BufChain;

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IpAddr(pub u32);

impl IpAddr {
    /// Builds an address from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> IpAddr {
        IpAddr(u32::from_be_bytes([a, b, c, d]))
    }
}

impl std::fmt::Display for IpAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c, d] = self.0.to_be_bytes();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// IP protocol numbers used in the stack.
pub mod proto {
    pub const ICMP: u8 = 1;
    pub const TCP: u8 = 6;
    pub const UDP: u8 = 17;
}

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;

/// The Internet checksum (RFC 1071) over `data`.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// `header` followed by `payload` as one buffer: one allocation, each byte
/// copied once.
fn packet(header: &[u8], payload: &[u8]) -> Bytes {
    let mut b = BytesMut::zeroed(header.len() + payload.len());
    let (head, body) = b.split_at_mut(header.len());
    head.copy_from_slice(header);
    body.copy_from_slice(payload);
    b.freeze()
}

/// `header` in front of a shared `payload`: no allocation, no payload copy.
fn chain(header: &[u8], payload: Bytes) -> BufChain {
    let mut c = BufChain::from_bytes(payload);
    c.push_header(header);
    c
}

/// A 14-byte Ethernet header (addresses abbreviated to the simulation's
/// wire endpoints, padded to MAC width on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EtherHeader {
    pub src: u32,
    pub dst: u32,
    pub ethertype: u16,
}

impl EtherHeader {
    pub const LEN: usize = 14;

    /// Serializes the header followed by `payload`.
    pub fn encode(&self, payload: &[u8]) -> Bytes {
        packet(&self.header_bytes(), payload)
    }

    /// The 14 header bytes (each MAC is the endpoint padded to 6 bytes).
    pub fn header_bytes(&self) -> [u8; Self::LEN] {
        let mut h = [0u8; Self::LEN];
        h[2..6].copy_from_slice(&self.dst.to_be_bytes());
        h[8..12].copy_from_slice(&self.src.to_be_bytes());
        h[12..14].copy_from_slice(&self.ethertype.to_be_bytes());
        h
    }

    /// Parses a frame into (header, payload).
    pub fn decode(frame: &Bytes) -> Option<(EtherHeader, Bytes)> {
        if frame.len() < Self::LEN {
            return None;
        }
        let dst = u32::from_be_bytes(frame[2..6].try_into().ok()?);
        let src = u32::from_be_bytes(frame[8..12].try_into().ok()?);
        let ethertype = u16::from_be_bytes(frame[12..14].try_into().ok()?);
        Some((
            EtherHeader {
                src,
                dst,
                ethertype,
            },
            frame.slice(Self::LEN..),
        ))
    }
}

/// A 20-byte IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    pub src: IpAddr,
    pub dst: IpAddr,
    pub protocol: u8,
    pub ttl: u8,
    pub total_len: u16,
}

impl Ipv4Header {
    pub const LEN: usize = 20;

    /// Serializes the header (checksum computed) followed by `payload`.
    pub fn encode(src: IpAddr, dst: IpAddr, protocol: u8, ttl: u8, payload: &[u8]) -> Bytes {
        let header = Self::header_bytes(src, dst, protocol, ttl, payload.len());
        packet(&header, payload)
    }

    /// The 20 header bytes (checksum computed) for a payload of
    /// `payload_len` bytes.
    pub fn header_bytes(
        src: IpAddr,
        dst: IpAddr,
        protocol: u8,
        ttl: u8,
        payload_len: usize,
    ) -> [u8; Self::LEN] {
        let total_len = (Self::LEN + payload_len) as u16;
        let mut h = [0u8; Self::LEN];
        h[0] = 0x45; // v4, IHL 5
        h[2..4].copy_from_slice(&total_len.to_be_bytes());
        h[8] = ttl;
        h[9] = protocol;
        h[12..16].copy_from_slice(&src.0.to_be_bytes());
        h[16..20].copy_from_slice(&dst.0.to_be_bytes());
        let csum = internet_checksum(&h);
        h[10..12].copy_from_slice(&csum.to_be_bytes());
        h
    }

    /// Parses and checksum-verifies a packet into (header, payload).
    pub fn decode(packet: &Bytes) -> Option<(Ipv4Header, Bytes)> {
        if packet.len() < Self::LEN || packet[0] != 0x45 {
            return None;
        }
        if internet_checksum(&packet[..Self::LEN]) != 0 {
            return None;
        }
        let total_len = u16::from_be_bytes(packet[2..4].try_into().ok()?);
        if (total_len as usize) > packet.len() {
            return None;
        }
        let header = Ipv4Header {
            ttl: packet[8],
            protocol: packet[9],
            src: IpAddr(u32::from_be_bytes(packet[12..16].try_into().ok()?)),
            dst: IpAddr(u32::from_be_bytes(packet[16..20].try_into().ok()?)),
            total_len,
        };
        Some((header, packet.slice(Self::LEN..total_len as usize)))
    }
}

/// An 8-byte UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    pub len: u16,
}

impl UdpHeader {
    pub const LEN: usize = 8;

    /// Serializes header + payload.
    pub fn encode(src_port: u16, dst_port: u16, payload: &[u8]) -> Bytes {
        packet(
            &Self::header_bytes(src_port, dst_port, payload.len()),
            payload,
        )
    }

    /// The 8 header bytes for a payload of `payload_len` bytes (the
    /// checksum, optional over the simulated wire, stays zero).
    pub fn header_bytes(src_port: u16, dst_port: u16, payload_len: usize) -> [u8; Self::LEN] {
        let len = (Self::LEN + payload_len) as u16;
        let mut h = [0u8; Self::LEN];
        h[0..2].copy_from_slice(&src_port.to_be_bytes());
        h[2..4].copy_from_slice(&dst_port.to_be_bytes());
        h[4..6].copy_from_slice(&len.to_be_bytes());
        h
    }

    /// Builds the datagram as header + shared payload, byte-identical to
    /// [`UdpHeader::encode`]: what a forwarder hands down for a payload it
    /// received.
    pub fn encode_chain(src_port: u16, dst_port: u16, payload: Bytes) -> BufChain {
        let header = Self::header_bytes(src_port, dst_port, payload.len());
        chain(&header, payload)
    }

    /// Parses a datagram into (header, payload).
    pub fn decode(datagram: &Bytes) -> Option<(UdpHeader, Bytes)> {
        if datagram.len() < Self::LEN {
            return None;
        }
        let header = UdpHeader {
            src_port: u16::from_be_bytes(datagram[0..2].try_into().ok()?),
            dst_port: u16::from_be_bytes(datagram[2..4].try_into().ok()?),
            len: u16::from_be_bytes(datagram[4..6].try_into().ok()?),
        };
        if (header.len as usize) < Self::LEN || (header.len as usize) > datagram.len() {
            return None;
        }
        Some((header, datagram.slice(Self::LEN..header.len as usize)))
    }
}

/// TCP flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    pub syn: bool,
    pub ack: bool,
    pub fin: bool,
    pub rst: bool,
}

impl TcpFlags {
    fn to_byte(self) -> u8 {
        (self.fin as u8) | (self.syn as u8) << 1 | (self.rst as u8) << 2 | (self.ack as u8) << 4
    }
    pub(crate) fn from_byte(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// A 20-byte TCP header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: TcpFlags,
    pub window: u16,
}

impl TcpHeader {
    pub const LEN: usize = 20;

    /// Serializes header + payload.
    pub fn encode(&self, payload: &[u8]) -> Bytes {
        packet(&self.header_bytes(), payload)
    }

    /// The 20 header bytes (checksum and urgent pointer stay zero).
    pub fn header_bytes(&self) -> [u8; Self::LEN] {
        let mut h = [0u8; Self::LEN];
        h[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        h[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        h[4..8].copy_from_slice(&self.seq.to_be_bytes());
        h[8..12].copy_from_slice(&self.ack.to_be_bytes());
        h[12] = 0x50; // data offset 5
        h[13] = self.flags.to_byte();
        h[14..16].copy_from_slice(&self.window.to_be_bytes());
        h
    }

    /// Builds the wire segment as header + shared payload, byte-identical
    /// to [`TcpHeader::encode`].
    pub fn encode_chain(&self, payload: Bytes) -> BufChain {
        chain(&self.header_bytes(), payload)
    }

    /// Parses a segment into (header, payload).
    pub fn decode(segment: &Bytes) -> Option<(TcpHeader, Bytes)> {
        if segment.len() < Self::LEN {
            return None;
        }
        Some((
            TcpHeader {
                src_port: u16::from_be_bytes(segment[0..2].try_into().ok()?),
                dst_port: u16::from_be_bytes(segment[2..4].try_into().ok()?),
                seq: u32::from_be_bytes(segment[4..8].try_into().ok()?),
                ack: u32::from_be_bytes(segment[8..12].try_into().ok()?),
                flags: TcpFlags::from_byte(segment[13]),
                window: u16::from_be_bytes(segment[14..16].try_into().ok()?),
            },
            segment.slice(Self::LEN..),
        ))
    }
}

/// ICMP message types used by ping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcmpKind {
    EchoRequest,
    EchoReply,
}

/// An 8-byte ICMP echo header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpHeader {
    pub kind: IcmpKind,
    pub ident: u16,
    pub seq: u16,
}

impl IcmpHeader {
    pub const LEN: usize = 8;

    /// Serializes header + payload.
    pub fn encode(&self, payload: &[u8]) -> Bytes {
        packet(&self.header_bytes(), payload)
    }

    /// The 8 header bytes (code and checksum stay zero).
    pub fn header_bytes(&self) -> [u8; Self::LEN] {
        let mut h = [0u8; Self::LEN];
        h[0] = match self.kind {
            IcmpKind::EchoRequest => 8,
            IcmpKind::EchoReply => 0,
        };
        h[4..6].copy_from_slice(&self.ident.to_be_bytes());
        h[6..8].copy_from_slice(&self.seq.to_be_bytes());
        h
    }

    /// Parses a message into (header, payload).
    pub fn decode(msg: &Bytes) -> Option<(IcmpHeader, Bytes)> {
        if msg.len() < Self::LEN {
            return None;
        }
        let kind = match msg[0] {
            8 => IcmpKind::EchoRequest,
            0 => IcmpKind::EchoReply,
            _ => return None,
        };
        Some((
            IcmpHeader {
                kind,
                ident: u16::from_be_bytes(msg[4..6].try_into().ok()?),
                seq: u16::from_be_bytes(msg[6..8].try_into().ok()?),
            },
            msg.slice(Self::LEN..),
        ))
    }
}

/// The `Bytes`-returning header encoders this module had before headers
/// became stack arrays, verbatim: the reference the wire-format proptests
/// (here and in `stack.rs`) compare against.
#[cfg(test)]
pub(crate) mod retired {
    use super::*;

    pub fn ether_header(h: &EtherHeader) -> Bytes {
        let mut b = BytesMut::with_capacity(EtherHeader::LEN);
        b.extend_from_slice(&[0, 0]); // dst MAC padding to 6 bytes
        b.extend_from_slice(&h.dst.to_be_bytes());
        b.extend_from_slice(&[0, 0]); // src MAC padding to 6 bytes
        b.extend_from_slice(&h.src.to_be_bytes());
        b.extend_from_slice(&h.ethertype.to_be_bytes());
        b.freeze()
    }

    pub fn ipv4_header(
        src: IpAddr,
        dst: IpAddr,
        protocol: u8,
        ttl: u8,
        payload_len: usize,
    ) -> Bytes {
        let total_len = (Ipv4Header::LEN + payload_len) as u16;
        let mut h = [0u8; Ipv4Header::LEN];
        h[0] = 0x45; // v4, IHL 5
        h[2..4].copy_from_slice(&total_len.to_be_bytes());
        h[8] = ttl;
        h[9] = protocol;
        h[12..16].copy_from_slice(&src.0.to_be_bytes());
        h[16..20].copy_from_slice(&dst.0.to_be_bytes());
        let csum = internet_checksum(&h);
        h[10..12].copy_from_slice(&csum.to_be_bytes());
        Bytes::copy_from_slice(&h)
    }

    pub fn udp_header(src_port: u16, dst_port: u16, payload_len: usize) -> Bytes {
        let len = (UdpHeader::LEN + payload_len) as u16;
        let mut b = BytesMut::with_capacity(UdpHeader::LEN);
        b.extend_from_slice(&src_port.to_be_bytes());
        b.extend_from_slice(&dst_port.to_be_bytes());
        b.extend_from_slice(&len.to_be_bytes());
        b.extend_from_slice(&[0, 0]); // checksum optional over simulated wire
        b.freeze()
    }

    pub fn tcp_header(h: &TcpHeader) -> Bytes {
        let mut b = BytesMut::with_capacity(TcpHeader::LEN);
        b.extend_from_slice(&h.src_port.to_be_bytes());
        b.extend_from_slice(&h.dst_port.to_be_bytes());
        b.extend_from_slice(&h.seq.to_be_bytes());
        b.extend_from_slice(&h.ack.to_be_bytes());
        b.extend_from_slice(&[0x50, h.flags.to_byte()]); // offset 5, flags
        b.extend_from_slice(&h.window.to_be_bytes());
        b.extend_from_slice(&[0, 0, 0, 0]); // checksum + urgent
        b.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ip_addr_display() {
        assert_eq!(IpAddr::new(10, 0, 0, 1).to_string(), "10.0.0.1");
    }

    #[test]
    fn checksum_verifies_to_zero() {
        let data = [
            0x45u8, 0x00, 0x00, 0x1c, 0, 0, 0, 0, 64, 17, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2,
        ];
        let csum = internet_checksum(&data);
        let mut with = data;
        with[10..12].copy_from_slice(&csum.to_be_bytes());
        assert_eq!(internet_checksum(&with), 0);
    }

    #[test]
    fn checksum_handles_odd_lengths() {
        assert_ne!(internet_checksum(&[1, 2, 3]), internet_checksum(&[1, 2]));
    }

    #[test]
    fn ether_round_trip() {
        let h = EtherHeader {
            src: 1,
            dst: 2,
            ethertype: ETHERTYPE_IPV4,
        };
        let frame = h.encode(b"payload");
        let (h2, p) = EtherHeader::decode(&frame).unwrap();
        assert_eq!(h, h2);
        assert_eq!(&p[..], b"payload");
    }

    #[test]
    fn ipv4_round_trip_and_checksum_rejection() {
        let src = IpAddr::new(10, 0, 0, 1);
        let dst = IpAddr::new(10, 0, 0, 2);
        let pkt = Ipv4Header::encode(src, dst, proto::UDP, 64, b"data");
        let (h, p) = Ipv4Header::decode(&pkt).unwrap();
        assert_eq!(h.src, src);
        assert_eq!(h.dst, dst);
        assert_eq!(h.protocol, proto::UDP);
        assert_eq!(&p[..], b"data");
        // Corrupt a byte: checksum must reject.
        let mut bad = pkt.to_vec();
        bad[13] ^= 0xFF;
        assert!(Ipv4Header::decode(&Bytes::from(bad)).is_none());
    }

    #[test]
    fn udp_round_trip_and_length_check() {
        let d = UdpHeader::encode(1000, 2000, b"ping");
        let (h, p) = UdpHeader::decode(&d).unwrap();
        assert_eq!((h.src_port, h.dst_port), (1000, 2000));
        assert_eq!(&p[..], b"ping");
        assert!(UdpHeader::decode(&Bytes::from_static(b"tiny")).is_none());
    }

    #[test]
    fn tcp_round_trip_with_flags() {
        let h = TcpHeader {
            src_port: 80,
            dst_port: 1234,
            seq: 0xDEAD_BEEF,
            ack: 0x1234_5678,
            flags: TcpFlags {
                syn: true,
                ack: true,
                ..Default::default()
            },
            window: 8192,
        };
        let seg = h.encode(b"x");
        let (h2, p) = TcpHeader::decode(&seg).unwrap();
        assert_eq!(h, h2);
        assert_eq!(&p[..], b"x");
    }

    #[test]
    fn chain_encoders_match_copy_encoders_byte_for_byte() {
        let tcp = TcpHeader {
            src_port: 80,
            dst_port: 1234,
            seq: 7,
            ack: 9,
            flags: TcpFlags {
                ack: true,
                ..Default::default()
            },
            window: 4096,
        };
        let seg = Bytes::from_static(b"seg");
        let chained = tcp.encode_chain(seg.clone());
        assert_eq!(chained.to_bytes(), tcp.encode(b"seg"));
        assert_eq!(chained.len(), TcpHeader::LEN + 3);

        let ping = Bytes::from_static(b"ping");
        assert_eq!(
            UdpHeader::encode_chain(1000, 2000, ping.clone()).to_bytes(),
            UdpHeader::encode(1000, 2000, b"ping")
        );
    }

    proptest! {
        /// The array encoders against the retired `Bytes`-returning ones,
        /// byte for byte, for arbitrary field values; and `encode` is the
        /// header followed by the payload.
        #[test]
        fn header_arrays_equal_the_retired_encoders(
            words in (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>()),
            bytes in (any::<u8>(), any::<u8>(), any::<u8>()),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let ((a, b, c, d), (proto, ttl, flags)) = (words, bytes);
            let eth = EtherHeader { src: a, dst: b, ethertype: c };
            prop_assert_eq!(&eth.header_bytes()[..], &retired::ether_header(&eth)[..]);
            prop_assert_eq!(
                &eth.encode(&payload)[..],
                &[&eth.header_bytes()[..], &payload[..]].concat()[..]
            );

            let ip = Ipv4Header::header_bytes(IpAddr(a), IpAddr(b), proto, ttl, payload.len());
            let old = retired::ipv4_header(IpAddr(a), IpAddr(b), proto, ttl, payload.len());
            prop_assert_eq!(&ip[..], &old[..]);

            let udp = UdpHeader::header_bytes(c, d, payload.len());
            prop_assert_eq!(&udp[..], &retired::udp_header(c, d, payload.len())[..]);

            let tcp = TcpHeader {
                src_port: c,
                dst_port: d,
                seq: a,
                ack: b,
                flags: TcpFlags::from_byte(flags),
                window: d ^ c,
            };
            prop_assert_eq!(&tcp.header_bytes()[..], &retired::tcp_header(&tcp)[..]);
            let (back, rest) = TcpHeader::decode(&tcp.encode(&payload)).unwrap();
            prop_assert_eq!(back, tcp);
            prop_assert_eq!(&rest[..], &payload[..]);
        }
    }

    #[test]
    fn icmp_round_trip() {
        let h = IcmpHeader {
            kind: IcmpKind::EchoRequest,
            ident: 7,
            seq: 3,
        };
        let m = h.encode(b"abcdefgh");
        let (h2, p) = IcmpHeader::decode(&m).unwrap();
        assert_eq!(h, h2);
        assert_eq!(p.len(), 8);
    }
}
