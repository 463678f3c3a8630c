//! # remy — computer-generated congestion control
//!
//! A from-scratch Rust implementation of the system described in *TCP ex
//! Machina: Computer-Generated Congestion Control* (Winstein &
//! Balakrishnan, SIGCOMM 2013): an offline optimizer ("Remy") that, given
//! prior assumptions about the network and an explicit objective, designs
//! the congestion-control algorithm ("RemyCC") that endpoints should run.
//!
//! * [`memory`] — the three-signal sender state (ack EWMA, send EWMA,
//!   RTT ratio);
//! * [`action`] — (window multiple, window increment, intersend pacing)
//!   triples and the optimizer's candidate neighbourhood;
//! * [`whisker`] — the octree rule table mapping memory regions to
//!   actions, stored as the flat arrays the per-ACK lookup walks, plus
//!   usage statistics;
//! * [`remycc`] — the runtime that executes a rule table inside a TCP-like
//!   sender (implements `netsim::cc::CongestionControl`);
//! * [`objective`] — alpha-fairness scoring, `U_α(tput) − δ·U_β(delay)`;
//! * [`model`] — design-range network models (the designer's prior);
//! * [`evaluator`] — common-random-number evaluation of candidate tables;
//! * [`optimizer`] — the greedy improve/subdivide design loop;
//! * [`designs`] — the registry of shipped RemyCCs: each one's prior,
//!   objective, training budget, label and pre-trained rule table.
//!
//! ## Designing a RemyCC
//!
//! ```no_run
//! // The shipped δ = 1 design: 10–20 Mbps, 100–200 ms, n ≤ 16 under
//! // log tput − 1·log delay, for five minutes of wall clock.
//! let design = remy::designs::by_name("delta1").expect("registered");
//! let remy = design.remy(300.0, usize::MAX);
//! let table = remy.design(|event| println!("{event:?}"));
//! std::fs::write("my_remycc.json", table.to_json()).unwrap();
//! ```
//!
//! ## Running one
//!
//! ```
//! use remy::prelude::*;
//! use netsim::prelude::*;
//! use std::sync::Arc;
//!
//! let tree = Arc::new(WhiskerTree::single_rule());
//! let scenario = Scenario::dumbbell(
//!     LinkSpec::constant(15.0),
//!     QueueSpec::DropTail { capacity: 1000 },
//!     2,
//!     Ns::from_millis(150),
//!     TrafficSpec::saturating(),
//!     Ns::from_secs(5),
//!     1,
//! );
//! let results = run_scenario(&scenario, &|_| Box::new(RemyCc::new(Arc::clone(&tree))));
//! assert!(results.flows[0].bytes > 0);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod action;
pub mod designs;
pub mod evaluator;
pub mod inspect;
pub mod memory;
pub mod model;
pub mod objective;
pub mod optimizer;
pub mod remycc;
pub mod whisker;

pub use netsim::json;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::action::Action;
    pub use crate::evaluator::{set_jobs, EvalConfig, Evaluator};
    pub use crate::memory::{Memory, MemoryTracker};
    pub use crate::model::NetworkModel;
    pub use crate::objective::Objective;
    pub use crate::optimizer::{Remy, TrainConfig, TrainEvent};
    pub use crate::remycc::RemyCc;
    pub use crate::whisker::{Usage, Whisker, WhiskerTree};
}
