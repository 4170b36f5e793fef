//! `seuss-net` — the simulated network substrate.
//!
//! Three networks matter to the SEUSS evaluation:
//!
//! * **The UC network** (§6 "Networking"): every UC is configured with an
//!   identical IP and MAC address, so a per-core [`proxy::NetProxy`]
//!   masquerades traffic and uses the TCP destination port as the unique
//!   key mapping packets to the UC they belong to. Only outgoing TCP
//!   connections initiated inside the unikernel are supported — exactly
//!   the restriction the prototype documents.
//! * **The Linux bridge** (§7 "Linux Container Limit"): container
//!   deployments attach veth endpoints to a bridge where every broadcast
//!   packet is processed N times (once per endpoint). Past ~1024
//!   endpoints the bridge drops packets and container TCP connections
//!   time out — this is the mechanism that caps the Linux container cache
//!   and produces the failures in Figures 6–8. [`bridge::Bridge`] models
//!   that cost law.
//! * **The external endpoint** (§7 burst experiment): a remote HTTP
//!   server that blocks 250 ms before replying, used by IO-bound
//!   functions. [`external::ExternalServer`] models it.
//!
//! [`tcp::TcpCostModel`] provides the latency arithmetic (handshake,
//! per-byte transfer) shared by all of the above.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bridge;
pub mod external;
pub mod packet;
pub mod proxy;
pub mod tcp;

pub use bridge::{Bridge, BridgeError};
pub use external::ExternalServer;
pub use packet::{Packet, PacketKind, Payload};
pub use proxy::{NetProxy, ProxyError, UcEndpoint};
pub use tcp::TcpCostModel;
