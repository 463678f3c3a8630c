//! # netsim — a deterministic dumbbell network simulator
//!
//! This crate is the substrate for the Rust reproduction of *TCP ex
//! Machina: Computer-Generated Congestion Control* (Winstein &
//! Balakrishnan, SIGCOMM 2013). The paper evaluates congestion-control
//! schemes in ns-2 on dumbbell topologies (Fig. 2): `n` senders share one
//! bottleneck queue and link, with per-flow propagation delays and an
//! uncongested ACK return path. `netsim` implements exactly that world as
//! a deterministic discrete-event simulation:
//!
//! * [`sim::Simulator`] — the event loop;
//! * [`queue`] — DropTail, DCTCP-style ECN marking, CoDel, and sfqCoDel;
//! * [`link`] — fixed-rate and trace-driven (cellular) bottleneck links;
//! * [`traffic`] — the paper's on/off workload models (by time, by bytes,
//!   and the empirical Fig. 3 heavy-tailed flow lengths);
//! * [`transport`] — a reliable sender (dup-ACK fast retransmit, NewReno
//!   partial-ACK handling, RTO with go-back-N) that hosts any
//!   [`cc::CongestionControl`] implementation;
//! * [`metrics`] / [`stats`] — the paper's measurement definitions
//!   (throughput `Σsᵢ/Σtᵢ`, queueing delay, medians and 1-σ ellipses);
//! * [`topology`] — multi-hop topologies (parking-lot chains, incast
//!   fan-in, congested ACK paths) routed through the same event loop;
//! * [`graph`] — first-class network graphs: named routers, weighted
//!   links, deterministic shortest-path routing, link-failure events,
//!   and the generated fat-tree k=4;
//! * [`router`] — the hook XCP uses to run code at the bottleneck;
//! * [`rng`] — deterministic, forkable randomness (common random numbers
//!   are load-bearing for Remy's optimizer), and [`rng::cases`], the
//!   seeded driver of the workspace's randomized property tests;
//! * [`par`] — the `--jobs` worker pool: an order-preserving parallel
//!   map over a slice, on `std::thread::scope`;
//! * [`slab`] — the generational slab behind the packet arena and the
//!   flow table.
//!
//! ## Quick example
//!
//! ```
//! use netsim::prelude::*;
//!
//! // Two fixed-window senders share a 10 Mbps, 100 ms dumbbell.
//! let scenario = Scenario::dumbbell(
//!     LinkSpec::constant(10.0),
//!     QueueSpec::DropTail { capacity: 1000 },
//!     2,
//!     Ns::from_millis(100),
//!     TrafficSpec::saturating(),
//!     Ns::from_secs(10),
//!     7,
//! );
//! let results = run_scenario(&scenario, &|_| Box::new(FixedWindow::new(50.0)));
//! assert!(results.utilization(&scenario.link, scenario.mss) > 0.9);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cc;
pub mod flow;
pub mod graph;
pub mod json;
pub mod link;
pub mod metrics;
pub mod packet;
pub mod par;
pub mod queue;
pub mod rng;
pub mod router;
pub mod scenario;
pub mod sched;
pub mod sim;
pub mod slab;
pub mod stats;
pub mod time;
pub mod topology;
pub mod traffic;
pub mod transport;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::cc::{AckInfo, CongestionControl, FixedWindow, LossEvent};
    pub use crate::flow::{FlowCold, FlowHot, FlowId, FlowTable};
    pub use crate::graph::{
        FailoverPolicy, LinkEvent, LinkId, NetGraph, Network, NetworkBuilder, RouterId,
    };
    pub use crate::link::{DeliverySchedule, LinkSpec};
    pub use crate::metrics::{FlowSummary, PopulationSummary, SimResults};
    pub use crate::packet::{Ack, Packet, PacketArena, PacketId};
    pub use crate::queue::QueueSpec;
    pub use crate::rng::SimRng;
    pub use crate::router::RouterHook;
    pub use crate::scenario::{ChurnSpec, Scenario, SenderConfig};
    pub use crate::sched::SchedulerKind;
    pub use crate::sim::{run_scenario, Simulator};
    pub use crate::time::Ns;
    pub use crate::topology::{FlowPath, HopSpec, Topology};
    pub use crate::traffic::{OnSpec, TrafficSpec};
    pub use crate::transport::Transport;
}
