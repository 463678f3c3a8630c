//! # remy-sim — one-stop API for the TCP ex Machina reproduction
//!
//! Re-exports the simulator substrate (`netsim`), the baseline schemes
//! (`congestion`) and Remy itself (`remy`), plus the declarative
//! experiment layer the CLI, every example, and every integration test in
//! this repository run on:
//!
//! * [`spec`] — serializable [`spec::ExperimentSpec`] descriptions
//!   (workload, contenders by name, sweep grids, budget);
//! * [`experiment`] — the [`experiment::Experiment`] runner that expands
//!   a spec through the deterministic parallel engine;
//! * [`experiments`] — the named registry of every figure/table
//!   reproduction (`experiments::by_name("fig4")`);
//! * [`harness`] — contenders (one scenario simulated under one scheme)
//!   and pooled outcomes;
//! * [`report`] — tables and CSV output;
//! * [`traces`] — the synthetic Verizon/AT&T-like LTE delivery schedules
//!   that named trace links replay.
//!
//! ```
//! use remy_sim::prelude::*;
//!
//! // Compare NewReno with a shipped RemyCC on Fig. 4's dumbbell
//! // workload, 2 runs of 10 seconds each — as a declarative spec.
//! let spec = ExperimentSpec::new(
//!     "demo",
//!     "Fig. 4 demo",
//!     WorkloadSpec::uniform(
//!         LinkRef::constant(15.0),
//!         1000,
//!         4,
//!         Ns::from_millis(150),
//!         TrafficSpec::fig4(),
//!     ),
//!     vec![ContenderSpec::new("newreno"), ContenderSpec::new("remy:delta1")],
//!     Budget { runs: 2, sim_secs: 10 },
//!     1,
//! );
//! assert_eq!(spec, ExperimentSpec::from_json(&spec.to_json()).unwrap());
//! let results = Experiment::new(spec).run().unwrap();
//! assert!(results.cell(0, "NewReno").unwrap().outcome.median_throughput_mbps > 0.0);
//! ```

#![warn(missing_docs)]

pub use congestion;
pub use netsim;
pub use remy;

pub mod experiment;
pub mod experiments;
pub mod harness;
pub mod report;
pub mod spec;
pub mod traces;

/// The most commonly used items across `netsim`, `congestion`, `remy` and
/// this crate.
pub mod prelude {
    pub use crate::experiment::{CellResult, Experiment, ExperimentCell, ExperimentResults};
    pub use crate::harness::{Contender, Outcome};
    pub use crate::report::{write_rows_csv, ExperimentReport};
    pub use crate::spec::{
        Budget, ContenderSpec, ExperimentSpec, GraphGenerator, GraphLinkRef, GraphSpec, HopRef,
        LinkEventSpec, LinkRef, SweepAxis, SweepPoint, TopologySpec, WorkloadSpec,
    };
    pub use crate::traces::{att_schedule, verizon_schedule, LteModel};
    pub use congestion::{Compound, Cubic, Dctcp, NewReno, Scheme, Vegas, Xcp, XcpRouter};
    pub use netsim::prelude::*;
    pub use remy::prelude::*;
}
