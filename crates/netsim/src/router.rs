//! Router participation hooks.
//!
//! Most of the paper's schemes are end-to-end, but XCP requires the
//! bottleneck router to rewrite a feedback field in every packet and run a
//! periodic control loop. The simulator exposes that capability through
//! [`RouterHook`]; the XCP controller in the `congestion` crate implements
//! it, and the AQM-style schemes (CoDel/sfqCoDel/ECN) instead live inside
//! the queue disciplines themselves.

use crate::packet::Packet;
use crate::time::Ns;

/// Observes and may rewrite packets at the bottleneck.
pub trait RouterHook: Send {
    /// A packet arrived at the bottleneck (before the queue admits or
    /// drops it). `queue_pkts` is the occupancy it found.
    fn on_arrival(&mut self, now: Ns, p: &mut Packet, queue_pkts: usize);

    /// A packet is departing onto the link (after dequeue).
    fn on_departure(&mut self, now: Ns, p: &mut Packet, queue_pkts: usize);

    /// If `Some`, the engine invokes [`RouterHook::on_tick`] with this
    /// period (XCP's control interval).
    fn tick_interval(&self) -> Option<Ns> {
        None
    }

    /// Periodic control computation.
    fn on_tick(&mut self, _now: Ns, _queue_pkts: usize) {}
}
