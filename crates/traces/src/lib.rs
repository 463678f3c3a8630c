//! # traces — synthetic cellular link traces
//!
//! The paper's §5.3 replays saturator recordings of Verizon and AT&T LTE
//! downlinks through a trace-driven ns-2 link. Those recordings are
//! proprietary, so this crate synthesizes delivery schedules with the same
//! relevant statistics: a mean-reverting log-rate random walk with Poisson
//! outages, exposed as `netsim::link::DeliverySchedule` values that plug
//! straight into `LinkSpec::trace`.
//!
//! * [`lte::LteModel::verizon_like`] / [`lte::verizon_schedule`] — the
//!   0–50 Mbps, high-variance downlink of Figs. 7–8;
//! * [`lte::LteModel::att_like`] / [`lte::att_schedule`] — the slower
//!   AT&T-like downlink of Fig. 9.

#![warn(missing_docs)]

pub mod lte;

pub use lte::{att_schedule, verizon_schedule, LteModel};
