//! Multi-hop network topologies.
//!
//! The paper evaluates congestion control only on single-bottleneck
//! dumbbells and cellular traces; a [`Topology`] generalizes the simulator
//! to a small directed graph of [`HopSpec`]s (each hop is one link plus the
//! queue feeding it) with an explicit per-flow [`FlowPath`]. That unlocks
//! the multi-bottleneck scenarios the paper leaves open:
//!
//! * **parking lot** — long flows traverse a chain of hops while
//!   cross-traffic loads each hop individually;
//! * **incast** — N senders fan in through per-sender access hops onto one
//!   shared aggregation hop;
//! * **reverse-path congestion** — the two directions of a link are two
//!   hops, and one flow's ACKs queue behind another flow's data.
//!
//! The paper's dumbbell is the 1-hop topology
//! ([`Topology::single_bottleneck`]): every flow's data crosses the one
//! hop, ACKs return on a pure-delay path. A scenario that names no
//! topology is built as exactly that from
//! [`crate::scenario::Scenario::link`]/`queue`, so spelling it out changes
//! no event and no byte (the equivalence suite in `tests/` pins this).
//!
//! A topology is a resolved value, not a document: the one serialized
//! description of a world is the experiment spec (`remy_sim::spec`).

use crate::graph::NetGraph;
use crate::json::{self, Value};
use crate::link::LinkSpec;
use crate::queue::QueueSpec;
use crate::time::Ns;

/// One directed hop: a queue draining into a link. Packets entering the
/// hop are enqueued; the link serves the queue head (constant-rate) or
/// releases packets at trace instants (trace-driven).
#[derive(Clone, Debug)]
pub struct HopSpec {
    /// The link serving this hop's queue.
    pub link: LinkSpec,
    /// The queue discipline feeding the link.
    pub queue: QueueSpec,
    /// Propagation delay from this hop to the *next* hop on a path.
    /// (The delay after a path's final hop is the flow's own half-RTT.)
    pub prop_delay_out: Ns,
}

impl HopSpec {
    /// A hop with no outbound propagation delay.
    pub fn new(link: LinkSpec, queue: QueueSpec) -> HopSpec {
        HopSpec {
            link,
            queue,
            prop_delay_out: Ns::ZERO,
        }
    }

    /// Builder-style: set the outbound propagation delay.
    pub fn with_prop_delay(mut self, delay: Ns) -> HopSpec {
        self.prop_delay_out = delay;
        self
    }
}

/// The hops one flow's packets traverse, in order.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FlowPath {
    /// Hops the flow's data packets cross, sender → receiver. Must be
    /// non-empty.
    pub fwd: Vec<usize>,
    /// Hops the flow's ACKs cross, receiver → sender. Empty means the
    /// dumbbell's pure-delay return path (ACKs are never queued or dropped).
    pub ack: Vec<usize>,
}

impl FlowPath {
    /// A data path through the given hops with a pure-delay ACK return.
    pub fn through(fwd: Vec<usize>) -> FlowPath {
        FlowPath {
            fwd,
            ack: Vec::new(),
        }
    }

    /// A data path plus a queued ACK return path.
    pub fn with_ack_path(mut self, ack: Vec<usize>) -> FlowPath {
        self.ack = ack;
        self
    }

    /// Serialize to a JSON value.
    pub fn to_json_value(&self) -> Value {
        let hops = |p: &[usize]| Value::Arr(p.iter().map(|&h| json::u64_value(h as u64)).collect());
        Value::obj(vec![("fwd", hops(&self.fwd)), ("ack", hops(&self.ack))])
    }

    /// Deserialize a value written by [`FlowPath::to_json_value`].
    pub fn from_json_value(v: &Value) -> Result<FlowPath, String> {
        v.only_keys("flow path", &["fwd", "ack"])?;
        let hops = |v: &Value| -> Result<Vec<usize>, String> {
            v.as_arr()?.iter().map(Value::as_usize).collect()
        };
        Ok(FlowPath {
            fwd: hops(v.field("fwd")?)?,
            ack: hops(v.field("ack")?)?,
        })
    }
}

/// A complete multi-hop topology: the hop set plus one [`FlowPath`] per
/// sender (index-aligned with [`crate::scenario::Scenario::senders`]).
///
/// There are three ways to get one, and no fourth: hand-list it with
/// [`Topology::from_flow_hops`] or [`Topology::single_bottleneck`], or —
/// for a routed network — derive it with
/// [`crate::graph::Network::into_topology`], the only source of a
/// topology that carries a routing graph. The graph is a private field,
/// so a struct literal outside this crate does not build:
///
/// ```compile_fail
/// use netsim::topology::Topology;
/// let t = Topology { hops: vec![], paths: vec![], graph: None };
/// ```
#[derive(Clone, Debug)]
pub struct Topology {
    /// Every hop in the network, indexed by position.
    pub hops: Vec<HopSpec>,
    /// `paths[i]` is sender `i`'s route.
    pub paths: Vec<FlowPath>,
    /// The routing graph this topology was derived from (link failure
    /// events and the failover policy ride in it); `None` when the hops
    /// were hand-listed.
    pub(crate) graph: Option<NetGraph>,
}

impl Topology {
    /// A hand-listed topology: an explicit hop set plus one path per
    /// flow. It carries no routing graph, so it is static for the whole
    /// run.
    pub fn from_flow_hops(hops: Vec<HopSpec>, paths: Vec<FlowPath>) -> Topology {
        Topology {
            hops,
            paths,
            graph: None,
        }
    }

    /// The paper's dumbbell as a 1-hop topology: every one of `n` flows
    /// forwards through the single hop, ACKs return un-queued.
    pub fn single_bottleneck(link: LinkSpec, queue: QueueSpec, n: usize) -> Topology {
        Topology::from_flow_hops(
            vec![HopSpec::new(link, queue)],
            (0..n).map(|_| FlowPath::through(vec![0])).collect(),
        )
    }

    /// Number of hops.
    pub fn n_hops(&self) -> usize {
        self.hops.len()
    }

    /// The routing graph, when the topology was derived from one.
    pub fn graph(&self) -> Option<&NetGraph> {
        self.graph.as_ref()
    }

    /// Check structural invariants against a sender count: at least one
    /// hop, every hop's queue able to hold a packet, one path per sender,
    /// non-empty forward paths, in-range hop indices, and no hop repeated
    /// within a single path (loops would make a packet's position on its
    /// path ambiguous).
    pub fn validate(&self, n_flows: usize) -> Result<(), String> {
        if self.hops.is_empty() {
            return Err("topology has no hops".to_string());
        }
        for (h, hop) in self.hops.iter().enumerate() {
            hop.queue.validate().map_err(|e| format!("hop {h}: {e}"))?;
        }
        if self.paths.len() != n_flows {
            return Err(format!(
                "topology has {} paths but the scenario has {} senders",
                self.paths.len(),
                n_flows
            ));
        }
        let mut seen = vec![false; self.hops.len()];
        for (i, p) in self.paths.iter().enumerate() {
            if p.fwd.is_empty() {
                return Err(format!("flow {i} has an empty forward path"));
            }
            for (what, path) in [("fwd", &p.fwd), ("ack", &p.ack)] {
                seen.fill(false);
                for &h in path {
                    if h >= self.hops.len() {
                        return Err(format!(
                            "flow {i} {what} path references hop {h}, but only {} exist",
                            self.hops.len()
                        ));
                    }
                    if seen[h] {
                        return Err(format!("flow {i} {what} path visits hop {h} twice"));
                    }
                    seen[h] = true;
                }
            }
        }
        if let Some(g) = &self.graph {
            if g.links.len() != self.hops.len() {
                return Err(format!(
                    "topology graph has {} links but {} hops",
                    g.links.len(),
                    self.hops.len()
                ));
            }
            if g.flows.len() != self.paths.len() {
                return Err(format!(
                    "topology graph has {} flows but {} paths",
                    g.flows.len(),
                    self.paths.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_hop_chain() -> Topology {
        Topology::from_flow_hops(
            (0..3)
                .map(|_| {
                    HopSpec::new(
                        LinkSpec::constant(10.0),
                        QueueSpec::DropTail { capacity: 100 },
                    )
                    .with_prop_delay(Ns::from_millis(10))
                })
                .collect(),
            vec![
                FlowPath::through(vec![0, 1, 2]),
                FlowPath::through(vec![0]),
                FlowPath::through(vec![1]),
                FlowPath::through(vec![2]),
            ],
        )
    }

    #[test]
    fn single_bottleneck_matches_legacy_shape() {
        let t = Topology::single_bottleneck(
            LinkSpec::constant(15.0),
            QueueSpec::DropTail { capacity: 1000 },
            4,
        );
        assert_eq!(t.n_hops(), 1);
        assert_eq!(t.paths.len(), 4);
        assert!(t.paths.iter().all(|p| p.fwd == vec![0] && p.ack.is_empty()));
        assert!(t.validate(4).is_ok());
        assert!(t.validate(3).is_err());
    }

    #[test]
    fn validation_rejects_bad_paths() {
        let mut t = three_hop_chain();
        assert!(t.validate(4).is_ok());
        t.paths[0].fwd = vec![0, 7];
        assert!(t.validate(4).unwrap_err().contains("hop 7"));
        t.paths[0].fwd = vec![];
        assert!(t.validate(4).unwrap_err().contains("empty forward path"));
        t.paths[0].fwd = vec![1, 1];
        assert!(t.validate(4).unwrap_err().contains("twice"));
        t.paths[0].fwd = vec![0];
        t.paths[0].ack = vec![2, 2];
        assert!(t.validate(4).unwrap_err().contains("ack path"));
        t.paths[0].ack = vec![];
        t.hops.clear();
        assert!(t.validate(4).unwrap_err().contains("no hops"));
    }

    #[test]
    fn a_hop_that_holds_no_packet_is_rejected_by_key() {
        let mut t = three_hop_chain();
        t.hops[1].queue = QueueSpec::SfqCodel {
            capacity: 0,
            buckets: 16,
        };
        let err = t.validate(4).unwrap_err();
        assert!(
            err.contains("hop 1") && err.contains("queue_capacity"),
            "{err}"
        );
        // Unlimited has no capacity to get wrong.
        t.hops[1].queue = QueueSpec::Unlimited;
        assert!(t.validate(4).is_ok());
    }

    #[test]
    fn a_graph_that_disagrees_with_the_hop_list_is_rejected() {
        assert!(three_hop_chain().graph().is_none(), "hand-listed: no graph");
        use crate::graph::{FailoverPolicy, LinkEvent, NetworkBuilder};
        let mut b = NetworkBuilder::new();
        let a = b.add_router("a");
        let c = b.add_router("c");
        b.add_duplex_link(
            a,
            c,
            LinkSpec::constant(10.0),
            QueueSpec::DropTail { capacity: 100 },
            Ns::from_millis(5),
        );
        let topo = b
            .build()
            .unwrap()
            .into_topology(
                &[(a, c)],
                vec![LinkEvent {
                    at: Ns::from_secs(2),
                    link: 0,
                    up: false,
                }],
                FailoverPolicy::Reroute,
            )
            .unwrap();
        assert_eq!(topo.graph().map(|g| g.links.len()), Some(2));
        topo.validate(1).expect("derived topologies validate");
        // Links are 1:1 with hops and graph flows with paths.
        let mut bad = topo.clone();
        bad.hops.push(bad.hops[0].clone());
        assert!(bad.validate(1).unwrap_err().contains("links but"));
        let mut bad = topo;
        bad.paths.push(bad.paths[0].clone());
        assert!(bad.validate(2).unwrap_err().contains("flows but"));
    }
}
