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
//! * [`measure`] — the Table 5 latency/bandwidth harnesses.

#![forbid(unsafe_code)]

pub mod am;
pub mod debugger;
pub mod forward;
pub mod http;
pub mod measure;
pub mod metrics;
pub mod netfs;
pub mod pkt;
pub mod poll;
pub mod rpc;
pub mod socket;
pub mod stack;
pub mod tcp;
pub mod testrig;
pub mod video;

pub use am::{ActiveMessages, AM_PORT};
pub use bytes::Bytes;
pub use debugger::{DebugClient, NetDebugger, DEBUG_PORT};
pub use forward::{FlowSnapshot, ForwardStats, Forwarder};
pub use http::{http_get, HttpConfig, HttpServer, HttpStats};
pub use http::{Request, Response};
pub use measure::{reliable_bandwidth, udp_round_trip};
pub use metrics::install_metrics;
pub use netfs::{NetFsClient, NetFsError, NetFsServer};
pub use pkt::{proto, IpAddr};
pub use poll::{interest, NetPoller, Pollable, ReadyBatch, Registration, Token};
pub use rpc::{Rpc, RpcError, RPC_PORT};
pub use socket::UdpSocket;
pub use stack::{
    AddressMap, IcmpPacket, IpPacket, LinkFrame, Medium, NetError, NetEvents, NetStack, NetStats,
    SendRequest, SendVerdict, TcpSegment, Topology, UdpPacket,
};
pub use tcp::{TcpConn, TcpError, TcpListenerSocket, TcpStack, TcpState};
pub use testrig::{RigShard, ShardRig, ThreeHosts, TwoHosts};
pub use video::{VideoClient, VideoServer, MULTICAST_GROUP, VIDEO_PORT};
