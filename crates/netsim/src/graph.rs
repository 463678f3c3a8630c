//! First-class network graphs: routers, links, and deterministic routing.
//!
//! The per-flow hop lists in [`crate::topology`] describe *paths*; this
//! module describes the *network* they are cut from. A [`NetworkBuilder`]
//! accumulates named routers and directed links (each carrying a
//! [`LinkSpec`], a [`QueueSpec`], a propagation delay, and a routing
//! weight), and [`NetworkBuilder::build`] freezes it into a [`Network`]
//! whose shortest-path routes are computed — not hand-listed — by
//! Dijkstra's algorithm with a stable `(cost, RouterId, LinkId)`
//! tie-break, so equal-cost choices never depend on iteration order.
//!
//! Routing walks adjacency lists: a [`NetGraph`] groups its links by
//! source and by destination router once, when it is built, so one
//! Dijkstra pass toward a destination relaxes only the links into each
//! popped router, and a router's next hop is chosen among its own
//! outgoing links — not by scanning every link for every router. The
//! tables are sparse: [`NetGraph::forwarding_to`] fills the rows toward
//! the destinations asked for and leaves the others empty, and
//! [`NetGraph::forwarding`] is its all-destinations case.
//!
//! A built network derives a [`crate::topology::Topology`] for the
//! simulator: every link becomes one hop, and every flow's forward and
//! ACK [`FlowPath`]s are read out of the forwarding tables toward the
//! flows' endpoints. The graph itself rides along as a [`NetGraph`]
//! inside the topology, shared behind an `Arc` by every clone of it and
//! every simulator built from it, which is what lets the engine
//! recompute routes — toward those same endpoints only — when a
//! [`LinkEvent`] takes a link down (or brings it back) mid-run.
//!
//! The fat-tree *k*=4 generator lives here too, so spec files can name
//! that topology class instead of enumerating its 64 links.

use crate::link::LinkSpec;
use crate::queue::QueueSpec;
use crate::time::Ns;
use crate::topology::{FlowPath, HopSpec, Topology};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// Handle to a router added to a [`NetworkBuilder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RouterId(u32);

impl RouterId {
    /// Index of this router in the network's router list.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a directed link added to a [`NetworkBuilder`].
///
/// Link ids double as hop indices: link `i` of a built network is hop
/// `i` of the derived [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LinkId(u32);

impl LinkId {
    /// Index of this link in the network's link list (== hop index).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Sentinel in a forwarding table: no route to the destination (or the
/// router *is* the destination).
pub const NO_ROUTE: u32 = u32::MAX;

/// One directed link under construction: endpoints, routing weight, and
/// the wire it materializes into.
#[derive(Clone, Debug)]
struct LinkDef {
    src: u32,
    dst: u32,
    weight: u64,
    link: LinkSpec,
    queue: QueueSpec,
    prop_delay: Ns,
}

/// Incrementally builds a routed network.
///
/// This is the one public construction path for graph topologies:
///
/// ```
/// use netsim::graph::NetworkBuilder;
/// use netsim::link::LinkSpec;
/// use netsim::queue::QueueSpec;
/// use netsim::time::Ns;
///
/// let mut b = NetworkBuilder::new();
/// let a = b.add_router("a");
/// let c = b.add_router("c");
/// b.add_duplex_link(
///     a,
///     c,
///     LinkSpec::constant(10.0),
///     QueueSpec::DropTail { capacity: 100 },
///     Ns::from_millis(5),
/// );
/// let net = b.build().expect("valid network");
/// assert_eq!(net.graph().route(a.index() as u32, c.index() as u32, &[]).unwrap(), vec![0]);
/// ```
#[derive(Default, Debug)]
pub struct NetworkBuilder {
    routers: Vec<String>,
    links: Vec<LinkDef>,
}

impl NetworkBuilder {
    /// An empty network.
    pub fn new() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// Add a named router. Names must be unique (checked by
    /// [`NetworkBuilder::build`]).
    pub fn add_router(&mut self, name: &str) -> RouterId {
        self.routers.push(name.to_string());
        RouterId(self.routers.len() as u32 - 1)
    }

    /// Add a directed link `a → b` with routing weight 1.
    pub fn add_link(
        &mut self,
        a: RouterId,
        b: RouterId,
        link: LinkSpec,
        queue: QueueSpec,
        prop_delay: Ns,
    ) -> LinkId {
        self.add_weighted_link(a, b, link, queue, prop_delay, 1)
    }

    /// Add a directed link `a → b` with an explicit routing weight.
    pub fn add_weighted_link(
        &mut self,
        a: RouterId,
        b: RouterId,
        link: LinkSpec,
        queue: QueueSpec,
        prop_delay: Ns,
        weight: u64,
    ) -> LinkId {
        self.links.push(LinkDef {
            src: a.0,
            dst: b.0,
            weight,
            link,
            queue,
            prop_delay,
        });
        LinkId(self.links.len() as u32 - 1)
    }

    /// Add a pair of directed links `a → b` and `b → a` with routing
    /// weight 1, sharing one wire model.
    pub fn add_duplex_link(
        &mut self,
        a: RouterId,
        b: RouterId,
        link: LinkSpec,
        queue: QueueSpec,
        prop_delay: Ns,
    ) -> (LinkId, LinkId) {
        self.add_weighted_duplex_link(a, b, link, queue, prop_delay, 1)
    }

    /// Add a weighted duplex pair `a → b` / `b → a`.
    pub fn add_weighted_duplex_link(
        &mut self,
        a: RouterId,
        b: RouterId,
        link: LinkSpec,
        queue: QueueSpec,
        prop_delay: Ns,
        weight: u64,
    ) -> (LinkId, LinkId) {
        let fwd = self.add_weighted_link(a, b, link.clone(), queue.clone(), prop_delay, weight);
        let back = self.add_weighted_link(b, a, link, queue, prop_delay, weight);
        (fwd, back)
    }

    /// Three-tier fat-tree with *k*=4: 4 core routers, 4 pods of 2
    /// aggregation + 2 edge routers each (20 routers, 64 directed
    /// links). Routers are named `core{i}`, `pod{p}_agg{j}`, and
    /// `pod{p}_edge{j}`; all links have weight 1.
    pub fn fat_tree_k4(link: &LinkSpec, queue: &QueueSpec, prop_delay: Ns) -> NetworkBuilder {
        let mut b = NetworkBuilder::new();
        let cores: Vec<RouterId> = (0..4).map(|i| b.add_router(&format!("core{i}"))).collect();
        for p in 0..4 {
            let aggs: Vec<RouterId> = (0..2)
                .map(|j| b.add_router(&format!("pod{p}_agg{j}")))
                .collect();
            let edges: Vec<RouterId> = (0..2)
                .map(|j| b.add_router(&format!("pod{p}_edge{j}")))
                .collect();
            for &agg in &aggs {
                for &edge in &edges {
                    b.add_duplex_link(edge, agg, link.clone(), queue.clone(), prop_delay);
                }
            }
            for (&agg, pair) in aggs.iter().zip(cores.chunks(2)) {
                for &core in pair {
                    b.add_duplex_link(agg, core, link.clone(), queue.clone(), prop_delay);
                }
            }
        }
        b
    }

    /// Freeze the builder into a routed [`Network`]. Fails on an empty
    /// router set, duplicate router names, or out-of-range endpoints.
    pub fn build(self) -> Result<Network, String> {
        if self.routers.is_empty() {
            return Err("network has no routers".to_string());
        }
        for (i, name) in self.routers.iter().enumerate() {
            if self.routers[..i].iter().any(|r| r == name) {
                return Err(format!("duplicate router name '{name}'"));
            }
        }
        let n = self.routers.len() as u32;
        for l in &self.links {
            if l.src >= n || l.dst >= n {
                return Err("link endpoint out of range".to_string());
            }
            if l.src == l.dst {
                return Err(format!(
                    "self-loop link on router '{}'",
                    self.routers[l.src as usize]
                ));
            }
        }
        let links = self
            .links
            .iter()
            .map(|l| GraphLink {
                src: l.src,
                dst: l.dst,
                weight: l.weight,
            })
            .collect();
        let graph = NetGraph::new(self.routers, links);
        let hops = self
            .links
            .into_iter()
            .map(|l| HopSpec::new(l.link, l.queue).with_prop_delay(l.prop_delay))
            .collect();
        Ok(Network { graph, hops })
    }
}

/// A built, immutable network: the routing graph plus the wire model
/// (link, queue, propagation delay) behind each directed link.
#[derive(Clone, Debug)]
pub struct Network {
    graph: NetGraph,
    hops: Vec<HopSpec>,
}

impl Network {
    /// The routing graph (routers, links, weights).
    pub fn graph(&self) -> &NetGraph {
        &self.graph
    }

    /// The wire model of each link, indexed like the graph's links.
    pub fn hops(&self) -> &[HopSpec] {
        &self.hops
    }

    /// Look up a router by name.
    pub fn router(&self, name: &str) -> Option<RouterId> {
        self.graph.router_index(name).map(RouterId)
    }

    /// Every router's id by name: one map for resolving many names.
    pub fn router_ids(&self) -> BTreeMap<&str, RouterId> {
        (0..)
            .zip(&self.graph.routers)
            .map(|(i, name)| (name.as_str(), RouterId(i)))
            .collect()
    }

    /// First link `a → b`, if one exists.
    pub fn link_between(&self, a: RouterId, b: RouterId) -> Option<LinkId> {
        self.graph.link_between(a.0, b.0).map(LinkId)
    }

    /// Derive the simulator topology for `flows` (per-flow source and
    /// destination routers, in sender order): each flow's forward path
    /// is the shortest route `src → dst`, its ACK path the shortest
    /// route `dst → src`, both read from the all-links-up forwarding
    /// tables toward the flows' endpoints. The graph — with `events` and
    /// the failover `policy` — rides along inside the topology, shared
    /// behind an [`Arc`], so the engine can recompute routes when links
    /// fail.
    pub fn into_topology(
        mut self,
        flows: &[(RouterId, RouterId)],
        events: Vec<LinkEvent>,
        policy: FailoverPolicy,
    ) -> Result<Topology, String> {
        self.graph.flows = flows.iter().map(|&(s, d)| (s.0, d.0)).collect();
        let tables = self.graph.forwarding_to(&self.graph.flow_endpoints(), &[]);
        let mut paths = Vec::with_capacity(flows.len());
        for &(s, d) in flows {
            if s == d {
                return Err(format!(
                    "flow source and destination are both router '{}'",
                    self.graph.routers[s.0 as usize]
                ));
            }
            let fwd = self.graph.route_via(&tables, s.0, d.0)?;
            let ack = self.graph.route_via(&tables, d.0, s.0)?;
            paths.push(FlowPath::through(fwd).with_ack_path(ack));
        }
        for ev in &events {
            if ev.link as usize >= self.graph.links.len() {
                return Err(format!("link event references unknown link {}", ev.link));
            }
        }
        self.graph.events = events;
        self.graph.policy = policy;
        Ok(Topology {
            hops: self.hops,
            paths,
            graph: Some(Arc::new(self.graph)),
        })
    }
}

/// One directed edge of a [`NetGraph`]: endpoints and routing weight.
/// Edge `i` corresponds to hop `i` of the owning topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphLink {
    /// Source router index.
    pub src: u32,
    /// Destination router index.
    pub dst: u32,
    /// Additive routing cost (≥ 1 in practice; 0 is allowed).
    pub weight: u64,
}

/// A scheduled link state change, applied through the event wheel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkEvent {
    /// Simulation time the change takes effect.
    pub at: Ns,
    /// Affected link (index into [`NetGraph::links`] == hop index).
    pub link: u32,
    /// `true` brings the link up, `false` takes it down.
    pub up: bool,
}

/// What happens to packets caught on a failed link's queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FailoverPolicy {
    /// Queued packets re-enter the network along the recomputed route
    /// (dropped only if no route remains).
    #[default]
    Reroute,
}

impl FailoverPolicy {
    /// Stable wire name (`"reroute"`).
    pub fn name(self) -> &'static str {
        match self {
            FailoverPolicy::Reroute => "reroute",
        }
    }

    /// Parse a wire name written by [`FailoverPolicy::name`].
    pub fn from_name(s: &str) -> Result<FailoverPolicy, String> {
        match s {
            "reroute" => Ok(FailoverPolicy::Reroute),
            other => Err(format!("unknown failover policy '{other}'")),
        }
    }
}

/// A policy is written by its [`FailoverPolicy::name`].
impl crate::json::Wire for FailoverPolicy {
    fn to_json_value(&self) -> crate::json::Value {
        crate::json::Value::str(self.name())
    }

    fn from_json_value(v: &crate::json::Value) -> Result<Self, crate::json::WireError> {
        Ok(FailoverPolicy::from_name(v.as_str()?)?)
    }
}

/// The routing view of a built network, embedded in a
/// [`crate::topology::Topology`] so the engine can recompute routes at
/// runtime. Links are 1:1 with the topology's hops.
#[derive(Clone, Debug, PartialEq)]
pub struct NetGraph {
    /// Router names, indexed by router id.
    pub routers: Vec<String>,
    /// Directed links; index `i` is hop `i` of the owning topology.
    pub links: Vec<GraphLink>,
    /// Per-flow `(source, destination)` router indices, in sender order.
    pub flows: Vec<(u32, u32)>,
    /// Scheduled link failures/recoveries.
    pub events: Vec<LinkEvent>,
    /// Policy for packets caught on a failed link.
    pub policy: FailoverPolicy,
    /// Each router's outgoing links, in link-id order.
    out_links: Vec<Vec<u32>>,
    /// Each router's incoming links, in link-id order.
    in_links: Vec<Vec<u32>>,
}

/// Each router's links grouped by `end(link)`, in link-id order.
fn link_lists(n: usize, links: &[GraphLink], end: impl Fn(&GraphLink) -> u32) -> Vec<Vec<u32>> {
    let mut lists = vec![Vec::new(); n];
    for (i, l) in links.iter().enumerate() {
        lists[end(l) as usize].push(i as u32);
    }
    lists
}

/// The buffers one routing pass reuses from destination to destination.
#[derive(Default)]
struct Dijkstra {
    dist: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

fn is_down(down: &[bool], link: u32) -> bool {
    down.get(link as usize).copied().unwrap_or(false)
}

impl NetGraph {
    /// A graph over `routers` and `links` with no flows and no events.
    fn new(routers: Vec<String>, links: Vec<GraphLink>) -> NetGraph {
        let n = routers.len();
        NetGraph {
            out_links: link_lists(n, &links, |l| l.src),
            in_links: link_lists(n, &links, |l| l.dst),
            routers,
            links,
            flows: Vec::new(),
            events: Vec::new(),
            policy: FailoverPolicy::default(),
        }
    }

    /// Router index for `name`, if present.
    pub fn router_index(&self, name: &str) -> Option<u32> {
        self.routers
            .iter()
            .position(|r| r == name)
            .map(|i| i as u32)
    }

    /// First link `a → b` (smallest id), if one exists.
    pub(crate) fn link_between(&self, a: u32, b: u32) -> Option<u32> {
        self.out_links[a as usize]
            .iter()
            .copied()
            .find(|&i| self.links[i as usize].dst == b)
    }

    /// Every router some flow starts or ends at, ascending: the
    /// destinations [`NetGraph::forwarding_to`] needs tables toward to
    /// route every flow both ways.
    pub(crate) fn flow_endpoints(&self) -> Vec<u32> {
        let mut ends: Vec<u32> = self.flows.iter().flat_map(|&(s, d)| [s, d]).collect();
        ends.sort_unstable();
        ends.dedup();
        ends
    }

    /// Fill `scratch.dist` with the shortest distance from every router
    /// *to* destination `d`, skipping links marked in `down`.
    /// Unreachable routers get `u64::MAX`.
    fn dist_to(&self, d: usize, down: &[bool], scratch: &mut Dijkstra) {
        let Dijkstra { dist, heap } = scratch;
        dist.clear();
        dist.resize(self.routers.len(), u64::MAX);
        dist[d] = 0;
        heap.clear();
        heap.push(Reverse((0, d as u32)));
        while let Some(Reverse((du, u))) = heap.pop() {
            if du > dist[u as usize] {
                continue;
            }
            for &i in &self.in_links[u as usize] {
                if is_down(down, i) {
                    continue;
                }
                let l = &self.links[i as usize];
                let nd = du.saturating_add(l.weight);
                if nd < dist[l.src as usize] {
                    dist[l.src as usize] = nd;
                    heap.push(Reverse((nd, l.src)));
                }
            }
        }
    }

    /// The forwarding table toward destination `d`: entry `r` is the
    /// link router `r` forwards on, or [`NO_ROUTE`].
    fn table_to(&self, d: usize, down: &[bool], scratch: &mut Dijkstra) -> Vec<u32> {
        self.dist_to(d, down, scratch);
        let dist = &scratch.dist;
        let mut next = vec![NO_ROUTE; self.routers.len()];
        for (r, slot) in next.iter_mut().enumerate() {
            if r == d || dist[r] == u64::MAX {
                continue;
            }
            let mut best: Option<(u64, u32, u32)> = None;
            for &i in &self.out_links[r] {
                let l = &self.links[i as usize];
                let to = dist[l.dst as usize];
                if to == u64::MAX || is_down(down, i) {
                    continue;
                }
                let key = (l.weight.saturating_add(to), l.dst, i);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            if let Some((_, _, link)) = best {
                *slot = link;
            }
        }
        next
    }

    /// Forwarding tables toward the routers in `dests` only, with the
    /// links in `down` removed (an empty slice means all up):
    /// `tables[d][r]` is the link index router `r` forwards on toward
    /// `d`, or [`NO_ROUTE`]; the row of a router not in `dests` is
    /// empty. Each filled row equals the same row of
    /// [`NetGraph::forwarding`].
    pub fn forwarding_to(&self, dests: &[u32], down: &[bool]) -> Vec<Vec<u32>> {
        let mut tables = vec![Vec::new(); self.routers.len()];
        let mut scratch = Dijkstra::default();
        for &d in dests {
            let d = d as usize;
            if tables[d].is_empty() {
                tables[d] = self.table_to(d, down, &mut scratch);
            }
        }
        tables
    }

    /// Compute full forwarding tables with the links in `down` removed:
    /// `tables[d][r]` is the link index router `r` forwards on toward
    /// destination `d`, or [`NO_ROUTE`]. Equal-cost choices are broken
    /// by the smallest `(cost, neighbor router, link id)` triple, so
    /// the result is independent of Dijkstra's visit order and — for
    /// links between distinct router pairs — of link insertion order.
    pub fn forwarding(&self, down: &[bool]) -> Vec<Vec<u32>> {
        let all: Vec<u32> = (0..self.routers.len() as u32).collect();
        self.forwarding_to(&all, down)
    }

    /// Read the route `src → dst` (a hop-index list) out of forwarding
    /// tables produced by [`NetGraph::forwarding`] (or by
    /// [`NetGraph::forwarding_to`] with `dst` among its destinations).
    /// Fails with a named-router diagnostic if `dst` is unreachable.
    pub fn route_via(&self, tables: &[Vec<u32>], src: u32, dst: u32) -> Result<Vec<usize>, String> {
        let mut hops = Vec::new();
        let mut at = src;
        while at != dst {
            let link = tables[dst as usize][at as usize];
            if link == NO_ROUTE || hops.len() >= self.routers.len() {
                return Err(format!(
                    "no route from router '{}' to router '{}'",
                    self.routers[src as usize], self.routers[dst as usize]
                ));
            }
            hops.push(link as usize);
            at = self.links[link as usize].dst;
        }
        Ok(hops)
    }

    /// Convenience: compute the table toward `dst` and read one route.
    pub fn route(&self, src: u32, dst: u32, down: &[bool]) -> Result<Vec<usize>, String> {
        self.route_via(&self.forwarding_to(&[dst], down), src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire() -> (LinkSpec, QueueSpec) {
        (
            LinkSpec::constant(10.0),
            QueueSpec::DropTail { capacity: 100 },
        )
    }

    /// The failover testbed: a 3-hop chain a-b-c-d plus a heavier
    /// backup path a-e-d.
    fn chain_with_backup() -> Network {
        let (l, q) = wire();
        let mut b = NetworkBuilder::new();
        let a = b.add_router("a");
        let bb = b.add_router("b");
        let c = b.add_router("c");
        let d = b.add_router("d");
        let e = b.add_router("e");
        b.add_duplex_link(a, bb, l.clone(), q.clone(), Ns::from_millis(5));
        b.add_duplex_link(bb, c, l.clone(), q.clone(), Ns::from_millis(5));
        b.add_duplex_link(c, d, l.clone(), q.clone(), Ns::from_millis(5));
        b.add_weighted_duplex_link(a, e, l.clone(), q.clone(), Ns::from_millis(20), 2);
        b.add_weighted_duplex_link(e, d, l, q, Ns::from_millis(20), 2);
        b.build().expect("valid network")
    }

    /// The O(routers × links) kernel the adjacency lists replaced: a scan
    /// of every link for each popped router and each next-hop choice,
    /// toward every destination. The reference `forwarding` must equal.
    fn forwarding_reference(g: &NetGraph, down: &[bool]) -> Vec<Vec<u32>> {
        const INF: u64 = u64::MAX;
        let n = g.routers.len();
        let is_down = |i: usize| down.get(i).copied().unwrap_or(false);
        let mut tables = Vec::with_capacity(n);
        for d in 0..n {
            let mut dist = vec![INF; n];
            dist[d] = 0;
            let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
            heap.push(Reverse((0, d as u32)));
            while let Some(Reverse((du, u))) = heap.pop() {
                if du > dist[u as usize] {
                    continue;
                }
                for (i, l) in g.links.iter().enumerate() {
                    if l.dst != u || is_down(i) {
                        continue;
                    }
                    let nd = du.saturating_add(l.weight);
                    if nd < dist[l.src as usize] {
                        dist[l.src as usize] = nd;
                        heap.push(Reverse((nd, l.src)));
                    }
                }
            }
            let mut next = vec![NO_ROUTE; n];
            for (r, slot) in next.iter_mut().enumerate() {
                if r == d || dist[r] == INF {
                    continue;
                }
                let mut best: Option<(u64, u32, u32)> = None;
                for (i, l) in g.links.iter().enumerate() {
                    if l.src != r as u32 || is_down(i) || dist[l.dst as usize] == INF {
                        continue;
                    }
                    let key = (
                        l.weight.saturating_add(dist[l.dst as usize]),
                        l.dst,
                        i as u32,
                    );
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
                if let Some((_, _, link)) = best {
                    *slot = link;
                }
            }
            tables.push(next);
        }
        tables
    }

    fn fat_tree() -> Network {
        let (l, q) = wire();
        NetworkBuilder::fat_tree_k4(&l, &q, Ns::from_micros(100))
            .build()
            .expect("valid network")
    }

    #[test]
    fn adjacency_kernel_matches_the_reference_for_every_single_link_failure() {
        let net = fat_tree();
        let g = net.graph();
        assert_eq!(g.forwarding(&[]), forwarding_reference(g, &[]));
        for link in 0..g.links.len() {
            let mut down = vec![false; g.links.len()];
            down[link] = true;
            assert_eq!(
                g.forwarding(&down),
                forwarding_reference(g, &down),
                "link {link} down"
            );
        }
    }

    #[test]
    fn adjacency_kernel_matches_the_reference_for_random_failure_sets() {
        let net = fat_tree();
        let g = net.graph();
        let mut cut_off = 0;
        crate::rng::cases(
            "adjacency_kernel_matches_the_reference_for_random_failure_sets",
            |rng| {
                let p = rng.range_f64(0.02, 0.7);
                let down: Vec<bool> = (0..g.links.len()).map(|_| rng.chance(p)).collect();
                let tables = g.forwarding(&down);
                assert_eq!(tables, forwarding_reference(g, &down), "down = {down:?}");
                let unreachable = tables.iter().enumerate().any(|(d, row)| {
                    row.iter()
                        .enumerate()
                        .any(|(r, &l)| r != d && l == NO_ROUTE)
                });
                cut_off += usize::from(unreachable);
            },
        );
        assert!(
            cut_off > 0 && cut_off < crate::rng::CASES as usize,
            "the cases mix connected and partitioned graphs: {cut_off} partitioned"
        );
    }

    #[test]
    fn adjacency_kernel_matches_the_reference_on_the_tie_break_testbed() {
        let net = chain_with_backup();
        let g = net.graph();
        let mut down = vec![false; g.links.len()];
        assert_eq!(g.forwarding(&down), forwarding_reference(g, &down));
        down[2] = true;
        down[3] = true;
        assert_eq!(g.forwarding(&down), forwarding_reference(g, &down));
        // Reweighted so the chain (1 + 1 + 1) and the backup (2 + 1) tie
        // at a: the smaller neighbour id (b = 1 against e = 4) wins.
        let (l, q) = wire();
        let mut b = NetworkBuilder::new();
        let ids: Vec<RouterId> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|n| b.add_router(n))
            .collect();
        for (x, y, w) in [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 4, 2), (4, 3, 1)] {
            b.add_weighted_duplex_link(ids[x], ids[y], l.clone(), q.clone(), Ns::ZERO, w);
        }
        let tied = b.build().expect("valid network");
        let g = tied.graph();
        assert_eq!(g.forwarding(&[]), forwarding_reference(g, &[]));
        assert_eq!(g.route(0, 3, &[]).unwrap(), vec![0, 2, 4]);
    }

    #[test]
    fn each_row_toward_a_chosen_destination_equals_the_full_tables_row() {
        let net = fat_tree();
        let g = net.graph();
        let mut down = vec![false; g.links.len()];
        down[17] = true;
        down[40] = true;
        let full = g.forwarding(&down);
        let edges: Vec<u32> = (0..g.routers.len() as u32)
            .filter(|&r| g.routers[r as usize].contains("edge"))
            .collect();
        for dests in [vec![], vec![3], vec![19, 0, 19], edges] {
            let sparse = g.forwarding_to(&dests, &down);
            assert_eq!(sparse.len(), full.len());
            for (d, row) in sparse.iter().enumerate() {
                if dests.contains(&(d as u32)) {
                    assert_eq!(row, &full[d], "row {d}");
                } else {
                    assert!(row.is_empty(), "row {d} was not asked for");
                }
            }
        }
    }

    #[test]
    fn names_and_link_pairs_resolve_through_the_adjacency_lists() {
        let net = fat_tree();
        let ids = net.router_ids();
        assert_eq!(ids.len(), 20);
        for (name, id) in &ids {
            assert_eq!(net.router(name), Some(*id));
        }
        let g = net.graph();
        for a in 0..20 {
            for b in 0..20 {
                let scan = g.links.iter().position(|l| l.src == a && l.dst == b);
                assert_eq!(g.link_between(a, b), scan.map(|i| i as u32), "{a} → {b}");
            }
        }
    }

    #[test]
    fn shortest_paths_prefer_the_light_chain() {
        let net = chain_with_backup();
        let g = net.graph();
        // a→d rides the chain (links 0, 2, 4: a→b, b→c, c→d).
        assert_eq!(g.route(0, 3, &[]).unwrap(), vec![0, 2, 4]);
        // d→a rides it backwards (links 5, 3, 1).
        assert_eq!(g.route(3, 0, &[]).unwrap(), vec![5, 3, 1]);
    }

    #[test]
    fn failed_links_shift_routes_to_the_backup_path() {
        let net = chain_with_backup();
        let g = net.graph();
        let mut down = vec![false; g.links.len()];
        down[2] = true; // b→c
        down[3] = true; // c→b
                        // a→d now rides a→e→d (links 6, 8).
        assert_eq!(g.route(0, 3, &down).unwrap(), vec![6, 8]);
        // …and recovery restores the original tables exactly.
        let up = vec![false; g.links.len()];
        assert_eq!(
            g.forwarding(&up),
            chain_with_backup().graph().forwarding(&[])
        );
    }

    #[test]
    fn equal_cost_ties_break_on_router_id_not_insertion_order() {
        // Diamond: s reaches t through m1 or m2 at equal cost; the
        // route must pick the smaller router id however links were
        // inserted.
        let (l, q) = wire();
        let routes: Vec<Vec<(u32, u32)>> = [false, true]
            .iter()
            .map(|&flip| {
                let mut b = NetworkBuilder::new();
                let s = b.add_router("s");
                let m1 = b.add_router("m1");
                let m2 = b.add_router("m2");
                let t = b.add_router("t");
                let legs: Vec<(RouterId, RouterId)> = if flip {
                    vec![(s, m2), (m2, t), (s, m1), (m1, t)]
                } else {
                    vec![(s, m1), (m1, t), (s, m2), (m2, t)]
                };
                for (x, y) in legs {
                    b.add_duplex_link(x, y, l.clone(), q.clone(), Ns::from_millis(1));
                }
                let net = b.build().expect("valid network");
                let g = net.graph();
                g.route(s.0, t.0, &[])
                    .unwrap()
                    .iter()
                    .map(|&h| (g.links[h].src, g.links[h].dst))
                    .collect()
            })
            .collect();
        assert_eq!(routes[0], routes[1]);
        // Both traverse m1 (router id 1).
        assert_eq!(routes[0][0], (0, 1));
    }

    #[test]
    fn unreachable_pairs_name_both_routers() {
        let (l, q) = wire();
        let mut b = NetworkBuilder::new();
        let x = b.add_router("left");
        let y = b.add_router("right");
        let z = b.add_router("island");
        b.add_duplex_link(x, y, l, q, Ns::from_millis(1));
        let net = b.build().expect("valid network");
        let err = net.graph().route(x.0, z.0, &[]).unwrap_err();
        assert!(
            err.contains("'left'") && err.contains("'island'"),
            "diagnostic names both endpoints: {err}"
        );
    }

    #[test]
    fn builder_rejects_duplicates_and_self_loops() {
        let (l, q) = wire();
        let mut b = NetworkBuilder::new();
        b.add_router("a");
        b.add_router("a");
        assert!(b.build().unwrap_err().contains("duplicate router name 'a'"));
        let mut b = NetworkBuilder::new();
        let a = b.add_router("a");
        b.add_link(a, a, l, q, Ns::ZERO);
        assert!(b.build().unwrap_err().contains("self-loop"));
        assert!(NetworkBuilder::new().build().is_err());
    }

    #[test]
    fn fat_tree_k4_has_the_canonical_shape() {
        let (l, q) = wire();
        let net = NetworkBuilder::fat_tree_k4(&l, &q, Ns::from_micros(100))
            .build()
            .expect("valid network");
        let g = net.graph();
        assert_eq!(g.routers.len(), 20);
        // 16 edge–agg + 16 agg–core duplex pairs = 64 directed links.
        assert_eq!(g.links.len(), 64);
        // Every edge router reaches every other edge router.
        let tables = g.forwarding(&vec![false; g.links.len()]);
        let edges: Vec<u32> = (0..20)
            .filter(|&i| g.routers[i as usize].contains("edge"))
            .collect();
        assert_eq!(edges.len(), 8);
        for &a in &edges {
            for &b in &edges {
                if a != b {
                    let r = g.route_via(&tables, a, b).expect("reachable");
                    // Intra-pod: 2 hops via the pod agg; cross-pod: 4
                    // hops via a core.
                    assert!(r.len() == 2 || r.len() == 4, "route {a}->{b}: {r:?}");
                }
            }
        }
    }

    #[test]
    fn disconnected_routers_surface_a_named_diagnostic() {
        // Two routers and no links: the pair is unreachable.
        let mut b = NetworkBuilder::new();
        let west = b.add_router("west");
        let east = b.add_router("east");
        let net = b.build().expect("builds even when disconnected");
        let err = net
            .into_topology(&[(west, east)], Vec::new(), FailoverPolicy::Reroute)
            .unwrap_err();
        assert!(err.contains("'west'") && err.contains("'east'"), "{err}");
    }

    #[test]
    fn into_topology_derives_paths_and_embeds_the_graph() {
        let net = chain_with_backup();
        let flows = vec![(RouterId(0), RouterId(3)), (RouterId(0), RouterId(3))];
        let events = vec![
            LinkEvent {
                at: Ns::from_secs(5),
                link: 2,
                up: false,
            },
            LinkEvent {
                at: Ns::from_secs(5),
                link: 3,
                up: false,
            },
        ];
        let topo = net
            .into_topology(&flows, events.clone(), FailoverPolicy::Reroute)
            .expect("routable");
        assert_eq!(topo.hops.len(), 10);
        assert_eq!(topo.paths[0].fwd, vec![0, 2, 4]);
        assert_eq!(topo.paths[0].ack, vec![5, 3, 1]);
        let g = topo.graph().expect("graph embedded");
        assert_eq!(g.flows, vec![(0, 3), (0, 3)]);
        assert_eq!(g.events, events);
        topo.validate(2).expect("valid topology");
    }
}
