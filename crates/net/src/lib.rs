//! `spin-net` — the extensible protocol stack of the SPIN reproduction.
//!
//! This crate implements §5.3's networking architecture: an x-kernel-like
//! protocol graph in which "each incoming packet is 'pushed' through the
//! protocol graph by events and 'pulled' by handlers", with user code
//! dynamically placeable anywhere in the stack. The Figure 5 boxes:
//!
//! * the link layers and the [`NetStack`] core (events, protocol thread,
//!   IP with per-protocol guards, UDP with per-port guards, ICMP/ping),
//! * [`TcpStack`] — TCP as a native extension,
//! * [`Forwarder`] — transparent UDP/TCP port forwarding (Table 6),
//! * [`ActiveMessages`] and [`Rpc`] — the A.M. and RPC transports,
//! * [`HttpServer`] — HTTP directly in the kernel (§5.4),
//! * [`VideoServer`]/[`VideoClient`] — the video system with the
//!   `SendPacket` multicast extension (Figure 6),
//! * [`udp_round_trip`] and [`reliable_bandwidth`] — the Table 5
//!   latency/bandwidth harnesses.

#![forbid(unsafe_code)]

mod am;
mod forward;
mod http;
mod measure;
mod metrics;
mod pkt;
mod poll;
mod rpc;
mod socket;
mod stack;
mod tcp;
mod testrig;
mod video;

pub use am::ActiveMessages;
pub use bytes::Bytes;
pub use forward::{FlowSnapshot, ForwardStats, Forwarder};
pub use http::{http_get, HttpConfig, HttpServer, HttpStats};
pub use http::{Request, Response};
pub use measure::{reliable_bandwidth, udp_round_trip};
pub use metrics::install_metrics;
pub use pkt::{internet_checksum, proto, IpAddr, Ipv4Header, TcpFlags, TcpHeader, UdpHeader};
pub use poll::{interest, NetPoller, Pollable, ReadyBatch, Registration, Token};
pub use rpc::{Rpc, RpcError};
pub use socket::UdpSocket;
pub use stack::{
    AddressMap, IcmpPacket, IpPacket, LinkFrame, Medium, NetError, NetEvents, NetStack, NetStats,
    SendRequest, SendVerdict, TcpSegment, Topology, UdpPacket,
};
pub use tcp::{TcpConn, TcpError, TcpListenerSocket, TcpStack};
pub use testrig::{RigShard, ShardRig, ThreeHosts, TwoHosts};
pub use video::{VideoClient, VideoServer};
