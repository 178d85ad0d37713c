//! # dps-net — network substrate for the DPS cluster simulator
//!
//! Models the communication hardware and OS stack of the paper's testbed: a
//! Gigabit-Ethernet switched cluster of PCs whose *measured* point-to-point
//! TCP throughput tops out around 35 MB/s under Windows 2000 (Fig. 6 of the
//! paper), plus DPS-specific costs — control structures piggy-backed on each
//! data object and lazily-opened TCP connections.
//!
//! * [`NetConfig`] — all tunable constants (bandwidth, per-message overhead,
//!   propagation latency, connect latency, DPS header bytes), with a
//!   `Default` calibrated to the paper's testbed.
//! * [`NetworkModel`] — full-duplex per-node NIC timelines + a TCP
//!   connection cache; [`NetworkModel::transfer`] turns (src, dst, bytes)
//!   into a deterministic `(sender done, delivered)` pair of instants.
//! * [`NameServer`] — the paper's "simple name server" by which kernels
//!   locate each other (the alternative UDP-broadcast discovery is modelled
//!   as an instantaneous registry scan). This is not only simulation
//!   machinery: the multi-process `dps-netengine` resolves its worker
//!   kernels (`kernel1`, `kernel2`, …) to cluster nodes through the same
//!   registry.
//!
//! The model is *reservation-based*: each NIC direction is a
//! [`Timeline`](dps_des::Timeline), so simultaneous send+receive (the ring
//! experiment of Fig. 6) proceeds at full duplex, while two messages leaving
//! the same node serialize on its transmit lane — exactly the first-order
//! behaviour that shaped the paper's measurements.
//!
//! Kernel naming is independent of host naming, so several kernels can
//! share a node (the paper's one-machine debugging setup) and a restart
//! simply re-registers:
//!
//! ```
//! use dps_net::{NameServer, NodeId};
//!
//! let mut ns = NameServer::new();
//! assert_eq!(ns.register("kernel1", NodeId(1)), None);
//! assert_eq!(ns.register("kernel2", NodeId(1)), None); // same host is fine
//! assert_eq!(ns.lookup("kernel2"), Some(NodeId(1)));
//! // A kernel restart on another node wins and reports the old placement.
//! assert_eq!(ns.register("kernel2", NodeId(2)), Some(NodeId(1)));
//! // Discovery (the modelled UDP broadcast) enumerates deterministically.
//! let found: Vec<_> = ns.discover().map(|(name, _)| name.to_string()).collect();
//! assert_eq!(found, ["kernel1", "kernel2"]);
//! ```

mod config;
mod fault;
mod model;
mod nameserver;

pub use config::NetConfig;
pub use fault::{FaultConfig, FaultDecision, FaultInjector};
pub use model::{NetworkModel, NodeId, Traffic, TransferPlan};
pub use nameserver::NameServer;
