//! Packets, acknowledgments, and the packet arena.
//!
//! Every data segment in the simulator is one [`Packet`] of `mss` bytes
//! ([`MSS`], matching the paper's ns-2 setup). Receivers acknowledge
//! every delivered packet with an [`Ack`] carrying a cumulative
//! acknowledgment, the echoed sender timestamp (the signal behind a
//! RemyCC's `send_ewma`), an ECN echo for DCTCP, and the XCP feedback field
//! for XCP senders.
//!
//! In-flight packets live in a [`PacketArena`], the generational
//! [`crate::slab::Slab`] over packets, addressed by [`PacketId`] handles.
//! The hot path (queues, the event loop) moves 8-byte ids instead of
//! ~140-byte packet structs, and a stale handle can never silently alias
//! the packet that later reuses its slot.

use crate::slab::{Handle, Slab};
use crate::time::Ns;

pub use crate::flow::FlowId;

/// The fields an XCP-capable sender stamps into each packet and an XCP
/// router rewrites in flight (§2, Katabi et al. 2002).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct XcpHeader {
    /// Sender's current congestion window, in packets.
    pub cwnd_pkts: f64,
    /// Sender's current RTT estimate.
    pub rtt: Ns,
    /// Router-computed per-packet window feedback, in packets (signed).
    /// Initialized by the sender to its desired increase ("demand").
    pub feedback: f64,
}

/// One data segment traversing the dumbbell.
///
/// Laid out `repr(C)` with the queue-hot fields (`flow`, `seq`, `size`,
/// timestamps) first, so the enqueue/dequeue path of an arena slot touches
/// one cache line; the cold tail (`xcp`, `ack`) is only read at routers
/// and endpoints.
#[derive(Clone, Debug)]
#[repr(C)]
pub struct Packet {
    /// Owning flow.
    pub flow: FlowId,
    /// Sequence number, counted in whole packets (not bytes).
    pub seq: u64,
    /// Sender clock when this copy of the segment was transmitted. Echoed
    /// back by the receiver; drives RTT samples and `send_ewma`.
    pub sent_at: Ns,
    /// Stamped by the bottleneck queue on arrival; used to measure
    /// per-packet queueing delay.
    pub enqueued_at: Ns,
    /// Total time this packet has waited in queues so far, accumulated
    /// hop by hop; the flow's queueing-delay metric records the sum once,
    /// at the final data hop (end-to-end queueing, not a per-hop average).
    pub queue_wait: Ns,
    /// Position along the owning flow's path (index into
    /// [`crate::topology::FlowPath::fwd`], or `ack` for ACK packets).
    /// Maintained by the engine; always 0 on the dumbbell.
    pub path_pos: usize,
    /// Routing epoch this packet was last routed under (graph
    /// topologies only; the engine bumps its epoch on every link
    /// event). A packet whose epoch lags the engine's is re-resolved at
    /// the router it currently occupies instead of following its stale
    /// path. Always 0 outside graph topologies.
    pub route_epoch: u32,
    /// The hop this packet is currently traveling toward, stamped when
    /// the packet leaves the previous hop. Read on hop arrival so that
    /// a mid-flight path rewrite cannot retarget an already-launched
    /// packet. Meaningless until first forwarded.
    pub next_hop: u32,
    /// Size on the wire, in bytes.
    pub size: u32,
    /// True if the sender is ECN-capable (DCTCP).
    pub ecn_capable: bool,
    /// Set by an ECN-marking queue instead of dropping.
    pub ecn_marked: bool,
    /// XCP congestion header, when the sender runs XCP.
    pub xcp: Option<XcpHeader>,
    /// When `Some`, this packet is an acknowledgment in flight on a queued
    /// ACK path (multi-hop topologies only; see [`crate::topology`]). Like
    /// any packet it can be queued, delayed, or dropped — ACK loss is
    /// recovered by later cumulative ACKs or the RTO.
    pub ack: Option<Ack>,
}

/// Wire size of an acknowledgment, bytes (TCP/IP header without payload).
pub const ACK_BYTES: u32 = 40;

/// Wire size of a data segment, bytes: the paper's ns-2 setup uses
/// 1500-byte MTUs, and every scenario, design range and trace here does.
pub const MSS: u32 = 1500;

impl Packet {
    /// A fresh data segment with no router state attached.
    pub fn data(flow: FlowId, seq: u64, size: u32, sent_at: Ns) -> Packet {
        Packet {
            flow,
            seq,
            size,
            sent_at,
            ecn_capable: false,
            ecn_marked: false,
            xcp: None,
            enqueued_at: Ns::ZERO,
            ack: None,
            path_pos: 0,
            route_epoch: 0,
            next_hop: 0,
            queue_wait: Ns::ZERO,
        }
    }

    /// An acknowledgment wrapped as a queueable packet for topologies with
    /// a congested ACK return path.
    pub fn carrying_ack(ack: Ack, sent_at: Ns) -> Packet {
        Packet {
            flow: ack.flow,
            seq: ack.seq,
            size: ACK_BYTES,
            sent_at,
            ecn_capable: false,
            ecn_marked: false,
            xcp: None,
            enqueued_at: Ns::ZERO,
            ack: Some(ack),
            path_pos: 0,
            route_epoch: 0,
            next_hop: 0,
            queue_wait: Ns::ZERO,
        }
    }
}

/// An acknowledgment traveling back to the sender.
///
/// The simulator models a pure ACK path: acknowledgments are never dropped
/// or queued (the paper's dumbbell has an uncongested reverse path), they
/// are only delayed by the flow's return propagation time.
#[derive(Clone, Debug)]
pub struct Ack {
    /// Owning flow.
    pub flow: FlowId,
    /// Cumulative acknowledgment: the next sequence number the receiver
    /// expects (all packets below this have been delivered).
    pub cum_ack: u64,
    /// Sequence number of the specific packet that triggered this ACK.
    pub seq: u64,
    /// The `sent_at` timestamp of that packet, echoed back.
    pub echo_ts: Ns,
    /// Receiver clock when the packet arrived (one-way delay accounting).
    pub received_at: Ns,
    /// True if the delivered packet carried an ECN CE mark.
    pub ecn_echo: bool,
    /// XCP feedback copied from the delivered packet's congestion header.
    pub xcp_feedback: Option<f64>,
    /// True if the packet carried data the receiver had not seen before.
    pub new_data: bool,
}

/// Generational handle to a packet in the [`PacketArena`] (see
/// [`crate::slab`]): 8 bytes where the packet struct is ~140.
pub type PacketId = Handle<Packet>;

/// The slab of in-flight packets.
pub type PacketArena = Slab<Packet>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_constructor_defaults() {
        let p = Packet::data(FlowId::first(3), 17, 1500, Ns::from_millis(5));
        assert_eq!(p.flow, FlowId::first(3));
        assert_eq!(p.seq, 17);
        assert_eq!(p.size, 1500);
        assert_eq!(p.sent_at, Ns::from_millis(5));
        assert!(!p.ecn_capable && !p.ecn_marked);
        assert!(p.xcp.is_none());
        assert!(p.ack.is_none());
        assert_eq!(p.path_pos, 0);
    }

    #[test]
    fn ack_packet_wraps_the_acknowledgment() {
        let ack = Ack {
            flow: FlowId::first(2),
            cum_ack: 9,
            seq: 8,
            echo_ts: Ns::from_millis(1),
            received_at: Ns::from_millis(3),
            ecn_echo: false,
            xcp_feedback: None,
            new_data: true,
        };
        let p = Packet::carrying_ack(ack, Ns::from_millis(3));
        assert_eq!(p.flow, FlowId::first(2));
        assert_eq!(p.seq, 8);
        assert_eq!(p.size, ACK_BYTES);
        assert_eq!(p.ack.as_ref().map(|a| a.cum_ack), Some(9));
    }

    #[test]
    fn arena_alloc_free_reuses_slots_with_new_generations() {
        let mut a = PacketArena::new();
        let id0 = a.alloc(Packet::data(FlowId::first(0), 0, 1500, Ns::ZERO));
        let id1 = a.alloc(Packet::data(FlowId::first(1), 1, 1500, Ns::ZERO));
        assert_eq!((id0, id1), (PacketId::first(0), PacketId::first(1)));
        assert_eq!(a.live(), 2);
        assert_eq!(a[id0].seq, 0);
        assert_eq!(a[id1].flow, FlowId::first(1));
        a.free(id1);
        assert_eq!(a.live(), 1);
        assert_eq!(a.index_of(id1), None);
        // The freed slot is reused, but under a fresh generation: the old
        // handle stays dead.
        let id2 = a.alloc(Packet::data(FlowId::first(2), 7, 1500, Ns::ZERO));
        assert_eq!(id2.index(), id1.index(), "LIFO slot reuse");
        assert_eq!(id2.generation(), id1.generation() + 2);
        assert_eq!((a.index_of(id2), a.index_of(id1)), (Some(1), None));
        assert_eq!(a[id2].seq, 7);
        assert_eq!(a.capacity(), 2);
        assert!(a.audit_accounting());
    }

    /// LCG-driven alloc/free churn. With `--features strict-invariants`
    /// every alloc and free along the way is audited for generation
    /// parity and live/free accounting; in the default lane the test
    /// still exercises the same interleavings and checks the external
    /// counters, so both CI lanes compile and run it.
    #[test]
    fn arena_strict_invariants_hold_under_churn() {
        let mut a = PacketArena::new();
        let mut live: Vec<PacketId> = Vec::new();
        let mut rng: u64 = 0x2545_f491_4f6c_dd1d;
        for round in 0..500u64 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if live.is_empty() || !rng.is_multiple_of(3) {
                let id = a.alloc(Packet::data(FlowId::first(0), round, 1500, Ns::ZERO));
                assert_eq!(id.generation() % 2, 1, "live handles have odd generations");
                live.push(id);
            } else {
                let pick = (rng >> 33) as usize % live.len();
                let id = live.swap_remove(pick);
                assert!(a.index_of(id).is_some());
                a.free(id);
                assert_eq!(a.index_of(id), None);
            }
            assert_eq!(a.live(), live.len());
            assert!(a.capacity() >= a.live());
            assert!(a.audit_accounting());
        }
        for id in live.drain(..) {
            a.free(id);
        }
        assert_eq!(a.live(), 0);
        assert!(a.audit_accounting());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn arena_rejects_double_free() {
        let mut a = PacketArena::new();
        let id = a.alloc(Packet::data(FlowId::first(0), 0, 1500, Ns::ZERO));
        a.free(id);
        a.free(id);
    }
}
