//! Declarative, serializable experiment specifications.
//!
//! An [`ExperimentSpec`] is plain data: a workload (bottleneck link, queue
//! capacity, senders with RTTs and traffic processes), a contender list by
//! name (`newreno`, `cubic`, `remy:delta1`, `remy:<path.json>`, …), sweep
//! axes that are Cartesian-expanded into runs, and a budget. Specs
//! round-trip through `remy::json` losslessly, so every figure, table, and
//! user-authored workload is a value you can enumerate, diff, check in,
//! and hand to [`crate::experiment::Experiment`] or `remy-cli run`.
//!
//! Seeds: run `k` of sweep point `p` simulates with
//! `split_seed(split_seed(spec.seed, p), k)` (see
//! [`netsim::rng::SimRng::split_seed`]) — per-run streams are forked, not
//! `seed + k`, so experiments with nearby base seeds never share traffic
//! randomness, and the same point seed is reused across contenders
//! (common random numbers, as in the paper's methodology).

use crate::harness::Contender;
use congestion::Scheme;
use netsim::json::{self, Codec, Plain, Reader, Record, Value, Wire, WireError};
use netsim::link::LinkSpec;
use netsim::queue::QueueSpec;
use netsim::rng::SimRng;
use netsim::scenario::{ChurnSpec, Scenario, SenderConfig};
use netsim::time::Ns;
use netsim::topology::{FlowPath, Topology};
use netsim::traffic::TrafficSpec;
use remy::designs::Design;
use remy::whisker::WhiskerTree;
use std::borrow::Cow;
use std::sync::Arc;

/// Experiment budget: how many seeded runs, how long each simulates.
/// The paper uses ≥128 runs of 100 s; the budgets in `specs/*.json`
/// complete the full suite in minutes on one core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Independent seeded runs per (sweep point, contender).
    pub runs: usize,
    /// Simulated seconds per run.
    pub sim_secs: u64,
}

impl Budget {
    /// Per-run simulated duration.
    pub fn duration(&self) -> Ns {
        Ns::from_secs(self.sim_secs)
    }
}

// A zero in either field is rejected: the experiment would simulate
// nothing and still report numbers.
netsim::record! { Budget { runs: "runs" as Positive, sim_secs: "sim_secs" as Positive } }

/// A count that must be positive.
struct Positive;

impl<T: Wire + Default + PartialEq> Codec<T> for Positive {
    fn read(v: &Value) -> Result<T, WireError> {
        let x = T::from_json_value(v)?;
        if x == T::default() {
            return Err(WireError::new("must be positive"));
        }
        Ok(x)
    }
}

/// A bottleneck link, by value or by name.
///
/// Unlike [`LinkSpec`], whose trace variant inlines a full delivery
/// schedule, a spec references the repository's synthetic cellular traces
/// by name — experiment JSON stays small and the schedule is regenerated
/// deterministically by [`crate::traces`].
#[derive(Clone, Debug, PartialEq)]
pub enum LinkRef {
    /// Fixed-rate link.
    Constant {
        /// Rate in megabits per second.
        rate_mbps: f64,
    },
    /// A named trace: `verizon-like` (Figs. 7–8) or `att-like` (Fig. 9).
    NamedTrace {
        /// Trace name.
        name: String,
    },
}

impl LinkRef {
    /// A fixed-rate link reference.
    pub fn constant(rate_mbps: f64) -> LinkRef {
        LinkRef::Constant { rate_mbps }
    }

    /// Materialize the link model.
    pub fn resolve(&self) -> Result<LinkSpec, String> {
        match self {
            LinkRef::Constant { rate_mbps } => {
                if !rate_mbps.is_finite() || *rate_mbps <= 0.0 {
                    return Err(format!("link rate must be positive, got {rate_mbps}"));
                }
                Ok(LinkSpec::Constant {
                    rate_mbps: *rate_mbps,
                })
            }
            LinkRef::NamedTrace { name } => {
                let schedule = match name.as_str() {
                    "verizon-like" => crate::traces::verizon_schedule(),
                    "att-like" => crate::traces::att_schedule(),
                    other => {
                        return Err(format!(
                            "unknown trace '{other}' (known: verizon-like, att-like)"
                        ))
                    }
                };
                Ok(LinkSpec::Trace {
                    schedule: Arc::new(schedule),
                    name: name.clone(),
                })
            }
        }
    }
}

netsim::tagged! {
    LinkRef {
        "constant" => Constant { rate_mbps: "rate_mbps" },
        "named_trace" => NamedTrace { name: "name" },
    }
}

/// The `queue_capacity` key of a workload, hop or link. Zero is refused
/// here, at the key, because each discipline would read it its own way
/// ([`QueueSpec::validate`]).
struct Capacity;

impl Codec<usize> for Capacity {
    fn read(v: &Value) -> Result<usize, WireError> {
        let capacity = usize::from_json_value(v)?;
        QueueSpec::DropTail { capacity }.validate()?;
        Ok(capacity)
    }
}

/// One hop of a [`TopologySpec`]: a link reference plus the hop's queue
/// depth and outbound propagation delay. As with the single-bottleneck
/// workload, the queue *discipline* is not part of the workload — each
/// contender's discipline is applied to every hop at that hop's capacity.
#[derive(Clone, Debug, PartialEq)]
pub struct HopRef {
    /// The hop's link.
    pub link: LinkRef,
    /// Queue depth in packets (the discipline comes from the scheme).
    pub queue_capacity: usize,
    /// Propagation delay toward the next hop on a path.
    pub prop_delay: Ns,
}

netsim::record! {
    HopRef {
        link: "link", queue_capacity: "queue_capacity" as Capacity, prop_delay: "prop_delay_ns",
    }
}

/// One directed link of an explicit [`GraphGenerator`]: named endpoints
/// plus the wire it materializes into and its routing weight.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphLinkRef {
    /// Source router name.
    pub from: String,
    /// Destination router name.
    pub to: String,
    /// The link's wire.
    pub link: LinkRef,
    /// Queue depth in packets (the discipline comes from the scheme).
    pub queue_capacity: usize,
    /// Propagation delay across this link.
    pub prop_delay: Ns,
    /// Dijkstra routing weight.
    pub weight: u64,
}

netsim::record! {
    GraphLinkRef {
        from: "from", to: "to", link: "link", queue_capacity: "queue_capacity" as Capacity,
        prop_delay: "prop_delay_ns", weight: "weight",
    }
}

/// How a graph topology's routers and links come to exist: listed
/// explicitly, or built by the fat-tree generator.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphGenerator {
    /// Hand-listed routers and directed links.
    Explicit {
        /// Router names, in id order.
        routers: Vec<String>,
        /// Directed links (list both directions for duplex wiring).
        links: Vec<GraphLinkRef>,
    },
    /// The three-tier fat-tree with k=4 (20 routers, 64 directed links).
    FatTreeK4 {
        /// Every link's wire.
        link: LinkRef,
        /// Every link's queue depth.
        queue_capacity: usize,
        /// Every link's propagation delay.
        prop_delay: Ns,
    },
}

impl GraphGenerator {
    /// Build the network's wiring. Every link's queue is left
    /// [`QueueSpec::Unlimited`]: the discipline is each contender's, and
    /// [`RoutedTopology::with_discipline`] applies it at the capacities
    /// [`GraphGenerator::capacities`] lists.
    fn builder(&self) -> Result<netsim::graph::NetworkBuilder, String> {
        use netsim::graph::NetworkBuilder;
        match self {
            GraphGenerator::Explicit { routers, links } => {
                let mut b = NetworkBuilder::new();
                let ids: Vec<netsim::graph::RouterId> =
                    routers.iter().map(|name| b.add_router(name)).collect();
                let index = |name: &str| {
                    routers
                        .iter()
                        .position(|r| r == name)
                        .ok_or_else(|| format!("unknown router '{name}' in link list"))
                };
                for l in links {
                    b.add_weighted_link(
                        ids[index(&l.from)?],
                        ids[index(&l.to)?],
                        l.link.resolve()?,
                        QueueSpec::Unlimited,
                        l.prop_delay,
                        l.weight,
                    );
                }
                Ok(b)
            }
            GraphGenerator::FatTreeK4 {
                link, prop_delay, ..
            } => Ok(NetworkBuilder::fat_tree_k4(
                &link.resolve()?,
                &QueueSpec::Unlimited,
                *prop_delay,
            )),
        }
    }

    /// Each of the built network's `n_links` links' queue depth.
    fn capacities(&self, n_links: usize) -> Vec<usize> {
        match self {
            GraphGenerator::Explicit { links, .. } => {
                links.iter().map(|l| l.queue_capacity).collect()
            }
            GraphGenerator::FatTreeK4 { queue_capacity, .. } => vec![*queue_capacity; n_links],
        }
    }
}

netsim::tagged! {
    GraphGenerator {
        "explicit" => Explicit { routers: "routers", links: "links" },
        "fat_tree_k4" => FatTreeK4 {
            link: "link", queue_capacity: "queue_capacity" as Capacity, prop_delay: "prop_delay_ns",
        },
    }
}

/// One scheduled link failure or recovery, by named endpoints.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkEventSpec {
    /// When the event fires.
    pub at: Ns,
    /// Source router of the affected directed link.
    pub from: String,
    /// Destination router of the affected directed link.
    pub to: String,
    /// `true` brings the link up, `false` takes it down.
    pub up: bool,
}

netsim::record! { LinkEventSpec { at: "at_ns", from: "from", to: "to", up: "up" } }

/// A graph-form topology: a generator for routers and links, per-flow
/// (source, destination) router names in sender order, scheduled link
/// events, and the failover policy for packets caught by a failure.
/// Flow paths are *derived* by deterministic shortest-path routing, not
/// hand-listed.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphSpec {
    /// Routers and links.
    pub generator: GraphGenerator,
    /// `flows[i]` is sender `i`'s (source, destination) router names.
    pub flows: Vec<(String, String)>,
    /// Scheduled link failures and recoveries.
    pub events: Vec<LinkEventSpec>,
    /// What happens to packets caught at a failed link.
    pub policy: netsim::graph::FailoverPolicy,
}

// Written inside a topology object after its `"kind": "graph"`.
netsim::record! {
    fields GraphSpec {
        generator: "generator", flows: "flows", #[omit] events: "events", policy: "policy",
    }
}

/// A serializable multi-hop topology. `None` on a workload means the
/// legacy single-bottleneck dumbbell — every existing spec document is a
/// valid topology-era spec unchanged.
///
/// Two forms exist: the original hand-listed hop/path form, and the
/// graph form whose flow paths are derived by shortest-path routing over
/// a [`GraphSpec`]. The hop-list form serializes exactly as it always
/// did (no `kind` key), so pre-graph golden specs stay byte-identical.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// Hand-listed hops plus one [`FlowPath`] per sender.
    FlowHops {
        /// Every hop, indexed by position.
        hops: Vec<HopRef>,
        /// `paths[i]` routes sender `i` (index-aligned with the
        /// workload's sender list).
        paths: Vec<FlowPath>,
    },
    /// A first-class network graph with derived routes.
    Graph(GraphSpec),
}

/// Per-hop seed fork for stochastic-loss disciplines. Hop 0 keeps the
/// caller's stream (a 1-hop topology stays byte-identical to the plain
/// dumbbell); every later hop forks its own — otherwise all hops would
/// replay the identical drop stream and the "independent" loss
/// processes would be perfectly correlated.
fn fork_lossy_hop_seeds(hops: &mut [netsim::topology::HopSpec]) {
    for (i, h) in hops.iter_mut().enumerate().skip(1) {
        if let QueueSpec::LossyDropTail { seed, .. } = &mut h.queue {
            *seed = SimRng::split_seed(*seed, i as u64);
        }
    }
}

impl TopologySpec {
    /// Number of hops of a hand-listed topology; `None` for graph form
    /// (its hop count is the built graph's link count).
    pub fn n_flow_hops(&self) -> Option<usize> {
        match self {
            TopologySpec::FlowHops { hops, .. } => Some(hops.len()),
            TopologySpec::Graph(_) => None,
        }
    }

    /// Short topology-class label for listings: `hops(n)` or
    /// `graph:<generator>`.
    pub fn class(&self) -> String {
        match self {
            TopologySpec::FlowHops { hops, .. } => format!("hops({})", hops.len()),
            TopologySpec::Graph(g) => format!("graph:{}", g.generator.kind()),
        }
    }

    /// Materialize a runnable [`Topology`], applying `discipline` (a
    /// contender's queue spec) to every hop at that hop's capacity. Graph
    /// topologies resolve their named flows and events against the built
    /// network and derive every path by shortest-path routing.
    pub fn resolve(&self, discipline: &QueueSpec) -> Result<Topology, String> {
        Ok(self.route()?.with_discipline(discipline))
    }

    /// Resolve everything but the queue discipline: every hop's link and,
    /// for the graph form, the built network, its named flows and events
    /// (looked up through one name → id map) and every flow's
    /// shortest-path route.
    fn route(&self) -> Result<RoutedTopology, String> {
        match self {
            TopologySpec::FlowHops { hops, paths } => {
                let resolved = hops
                    .iter()
                    .map(|h| {
                        Ok(
                            netsim::topology::HopSpec::new(h.link.resolve()?, QueueSpec::Unlimited)
                                .with_prop_delay(h.prop_delay),
                        )
                    })
                    .collect::<Result<Vec<netsim::topology::HopSpec>, String>>()?;
                Ok(RoutedTopology {
                    topology: Topology::from_flow_hops(resolved, paths.clone()),
                    capacities: hops.iter().map(|h| h.queue_capacity).collect(),
                })
            }
            TopologySpec::Graph(g) => {
                let net = g.generator.builder()?.build()?;
                let capacities = g.generator.capacities(net.hops().len());
                let ids = net.router_ids();
                let router = |name: &str, list: &str| {
                    ids.get(name)
                        .copied()
                        .ok_or_else(|| format!("unknown router '{name}' in {list} list"))
                };
                let flows = g
                    .flows
                    .iter()
                    .map(|(s, d)| Ok((router(s, "flow")?, router(d, "flow")?)))
                    .collect::<Result<Vec<_>, String>>()?;
                let events = g
                    .events
                    .iter()
                    .map(|e| {
                        let (from, to) = (router(&e.from, "event")?, router(&e.to, "event")?);
                        let link = net.link_between(from, to).ok_or_else(|| {
                            format!("no link '{}' → '{}' for a scheduled event", e.from, e.to)
                        })?;
                        Ok(netsim::graph::LinkEvent {
                            at: e.at,
                            link: link.index() as u32,
                            up: e.up,
                        })
                    })
                    .collect::<Result<Vec<netsim::graph::LinkEvent>, String>>()?;
                Ok(RoutedTopology {
                    topology: net.into_topology(&flows, events, g.policy)?,
                    capacities,
                })
            }
        }
    }
}

/// A [`TopologySpec`] resolved up to the queue discipline, which each
/// contender brings: what every contender and run at one sweep point
/// share. The routing graph inside is shared by every topology
/// [`RoutedTopology::with_discipline`] makes.
struct RoutedTopology {
    /// The topology, every hop's queue left [`QueueSpec::Unlimited`].
    topology: Topology,
    /// `capacities[i]` is hop `i`'s queue depth.
    capacities: Vec<usize>,
}

impl RoutedTopology {
    /// The runnable topology under `discipline`, applied to every hop at
    /// that hop's capacity. A stochastic-loss discipline gets a
    /// fork-derived seed per hop — otherwise every hop would replay the
    /// identical drop stream and the "independent" loss processes would
    /// be perfectly correlated.
    fn with_discipline(&self, discipline: &QueueSpec) -> Topology {
        let mut topo = self.topology.clone();
        for (hop, &capacity) in topo.hops.iter_mut().zip(&self.capacities) {
            hop.queue = discipline.clone().with_capacity(capacity);
        }
        fork_lossy_hop_seeds(&mut topo.hops);
        topo
    }
}

/// The hop-list form's keys (it predates graphs, so it carries no `kind`).
const HOPS: &str = "hops";
const PATHS: &str = "paths";
/// The graph form's `kind`.
const GRAPH: &str = "graph";

impl Wire for TopologySpec {
    fn to_json_value(&self) -> Value {
        match self {
            TopologySpec::FlowHops { hops, paths } => Value::obj(vec![
                (HOPS, hops.to_json_value()),
                (PATHS, paths.to_json_value()),
            ]),
            TopologySpec::Graph(g) => {
                let mut out = vec![(json::TAG.to_string(), Value::str(GRAPH))];
                g.write_fields(&mut out);
                Value::Obj(out)
            }
        }
    }

    fn from_json_value(v: &Value) -> Result<TopologySpec, WireError> {
        if v.get(json::TAG).is_none() {
            let r = Reader::new(v, &[HOPS, PATHS])?;
            return Ok(TopologySpec::FlowHops {
                hops: r.req::<_, Plain>(HOPS)?,
                paths: r.req::<_, Plain>(PATHS)?,
            });
        }
        match Reader::kind(v)? {
            GRAPH => Ok(TopologySpec::Graph(GraphSpec::read_fields(
                &Reader::tagged(v, GraphSpec::KEYS)?,
            )?)),
            other => Err(json::unknown_kind(other, &[GRAPH])),
        }
    }
}

/// The dumbbell everyone contends on: link, queue capacity, and per-sender
/// configuration. The queue *discipline* is not part of the workload —
/// each contender brings its own (`Cubic/sfqCoDel` runs over sfqCoDel,
/// everything else over DropTail of this capacity), exactly as in the
/// paper's router configurations.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Bottleneck link (ignored when `topology` is set; hop 0 then plays
    /// that role in reports).
    pub link: LinkRef,
    /// Queue capacity in packets (the discipline comes from the scheme).
    pub queue_capacity: usize,
    /// Per-sender configuration; the length is the degree of multiplexing.
    pub senders: Vec<SenderConfig>,
    /// Record every delivery (sequence plots, Fig. 6).
    pub record_deliveries: bool,
    /// Multi-hop topology; `None` is the legacy single-bottleneck
    /// dumbbell.
    pub topology: Option<TopologySpec>,
    /// Dynamic flow churn (Poisson arrivals of finite transfers) layered
    /// over the persistent senders; `None` is the classic fixed
    /// population.
    pub churn: Option<ChurnSpec>,
}

impl WorkloadSpec {
    /// A dumbbell with `n` identical senders.
    pub fn uniform(
        link: LinkRef,
        queue_capacity: usize,
        n: usize,
        rtt: Ns,
        traffic: TrafficSpec,
    ) -> WorkloadSpec {
        WorkloadSpec {
            link,
            queue_capacity,
            senders: vec![SenderConfig { rtt, traffic }; n],
            record_deliveries: false,
            topology: None,
            churn: None,
        }
    }

    /// Builder-style: route the senders through a multi-hop topology.
    pub fn with_topology(mut self, topology: TopologySpec) -> WorkloadSpec {
        self.topology = Some(topology);
        self
    }

    /// Builder-style: layer a dynamic flow-arrival process over the
    /// persistent senders.
    pub fn with_churn(mut self, churn: ChurnSpec) -> WorkloadSpec {
        // lint:allow(p1-sim-unwrap): construction-time validation in a
        // code-side builder; a parsed spec goes through `from_json`'s
        // typed errors instead.
        churn.validate().expect("valid churn spec");
        assert!(
            self.topology.is_none(),
            "churn is not supported on a topology workload"
        );
        self.churn = Some(churn);
        self
    }

    /// Number of senders.
    pub fn n(&self) -> usize {
        self.senders.len()
    }

    /// Materialize the scenario for one run under a given queue spec (the
    /// contender's discipline at the workload's capacity; topology
    /// workloads re-apply the discipline per hop at each hop's own
    /// capacity).
    pub fn scenario(&self, queue: QueueSpec, duration: Ns, seed: u64) -> Result<Scenario, String> {
        let routed = self.route()?;
        self.scenario_on(routed.as_ref(), queue, duration, seed)
    }

    /// The checks and the routing every scenario of this workload shares:
    /// a non-empty, valid sender list, and the topology (if any) routed.
    fn route(&self) -> Result<Option<RoutedTopology>, String> {
        if self.senders.is_empty() {
            return Err("workload has no senders".to_string());
        }
        // A sweep may have rewritten `off_mean` since the spec was parsed.
        for s in &self.senders {
            s.traffic.validate()?;
        }
        self.topology.as_ref().map(TopologySpec::route).transpose()
    }

    /// [`WorkloadSpec::scenario`] over the topology [`WorkloadSpec::route`]
    /// returned.
    fn scenario_on(
        &self,
        routed: Option<&RoutedTopology>,
        queue: QueueSpec,
        duration: Ns,
        seed: u64,
    ) -> Result<Scenario, String> {
        let (link, queue, topology) = match routed {
            None => {
                queue.validate()?;
                (self.link.resolve()?, queue, None)
            }
            Some(t) => {
                let topo = t.with_discipline(&queue);
                topo.validate(self.senders.len())?;
                // link/queue mirror hop 0 (single-hop inspection code and
                // XCP's rate configuration read them).
                (
                    topo.hops[0].link.clone(),
                    topo.hops[0].queue.clone(),
                    Some(topo),
                )
            }
        };
        Ok(Scenario {
            link,
            queue,
            senders: self.senders.clone(),
            mss: 1500,
            duration,
            seed,
            record_deliveries: self.record_deliveries,
            topology,
            churn: self.churn.clone(),
        })
    }

    /// The checks that span keys: churn rides the dumbbell only.
    fn check_parsed(&self) -> Result<(), String> {
        if self.churn.is_some() && self.topology.is_some() {
            return Err("churn is not supported on a topology workload".to_string());
        }
        Ok(())
    }
}

// `topology` and `churn` are left out when unset, so specs that predate
// them serialize exactly as they always did.
netsim::record! {
    WorkloadSpec {
        link: "link",
        queue_capacity: "queue_capacity" as Capacity,
        senders: "senders" as Senders,
        record_deliveries: "record_deliveries",
        #[omit] topology: "topology",
        #[omit] churn: "churn",
    }
    check WorkloadSpec::check_parsed
}

/// The `senders` key: identical senders compress to one [`UniformSenders`]
/// object; heterogeneous ones (the RTT-fairness grid, Fig. 6's departing
/// competitor) are listed. Both forms parse back; an empty population is
/// refused.
struct Senders;

/// The most senders a uniform `senders` object may ask for: one per flow
/// id (`FlowId` indexes its slot with a `u32`).
const MAX_SENDERS: usize = 1 << 32;

/// `n` identical senders.
struct UniformSenders {
    n: usize,
    rtt: Ns,
    traffic: TrafficSpec,
}

netsim::record! { UniformSenders { n: "n", rtt: "rtt_ns", traffic: "traffic" } }

impl Codec<Vec<SenderConfig>> for Senders {
    fn write(senders: &Vec<SenderConfig>) -> Value {
        match senders.first() {
            Some(first) if senders.iter().all(|s| s == first) => UniformSenders {
                n: senders.len(),
                rtt: first.rtt,
                traffic: first.traffic.clone(),
            }
            .to_json_value(),
            _ => senders.to_json_value(),
        }
    }

    fn read(v: &Value) -> Result<Vec<SenderConfig>, WireError> {
        let senders = match v {
            Value::Obj(_) => {
                let UniformSenders { n, rtt, traffic } = UniformSenders::from_json_value(v)?;
                // Checked before `vec!` allocates `n` senders.
                if n > MAX_SENDERS {
                    let reason =
                        format!("{n} senders exceed the {MAX_SENDERS} flow ids a simulation has");
                    return Err(WireError::new(reason).within("n"));
                }
                vec![SenderConfig { rtt, traffic }; n]
            }
            _ => Vec::<SenderConfig>::from_json_value(v)?,
        };
        if senders.is_empty() {
            return Err(WireError::new("at least one sender is required"));
        }
        Ok(senders)
    }
}

/// One contender, by name, with an optional display-label override.
///
/// Recognized names: `newreno`, `vegas`, `cubic`, `compound`,
/// `cubic+sfqcodel`, `xcp`, `dctcp` / `dctcp:<K>` (ECN mark threshold in
/// packets), and `remy:<table>` where `<table>` is a registered design
/// (`remy-cli list` prints them) or a path to a rule-table JSON file. A
/// registered design is labelled by its registry entry, a file by its
/// stem (`RemyCC <stem>`). A RemyCC name may
/// carry a `:mask=XYZ` suffix (three `0`/`1` digits for ack_ewma,
/// send_ewma, rtt_ratio) to blind the controller to signals — the
/// ablation studies in spec form.
#[derive(Clone, Debug, PartialEq)]
pub struct ContenderSpec {
    /// Scheme name, as above.
    pub scheme: String,
    /// Display-label override (RemyCC contenders only).
    pub label: Option<String>,
}

impl ContenderSpec {
    /// A contender by name with the default label.
    pub fn new(scheme: impl Into<String>) -> ContenderSpec {
        ContenderSpec {
            scheme: scheme.into(),
            label: None,
        }
    }

    /// A contender by name with an explicit display label.
    pub fn labeled(scheme: impl Into<String>, label: impl Into<String>) -> ContenderSpec {
        ContenderSpec {
            scheme: scheme.into(),
            label: Some(label.into()),
        }
    }

    /// Build the runnable contender.
    pub fn build(&self) -> Result<Contender, String> {
        let baseline = |s: Scheme| -> Result<Contender, String> {
            if self.label.is_some() {
                return Err(format!(
                    "baseline '{}' uses its scheme label; remove the override",
                    self.scheme
                ));
            }
            Ok(Contender::baseline(s))
        };
        match self.scheme.as_str() {
            "newreno" => baseline(Scheme::NewReno),
            "vegas" => baseline(Scheme::Vegas),
            "cubic" => baseline(Scheme::Cubic),
            "compound" => baseline(Scheme::Compound),
            "cubic+sfqcodel" | "cubic/sfqcodel" => baseline(Scheme::CubicSfqCodel),
            "xcp" => baseline(Scheme::Xcp),
            "dctcp" => baseline(Scheme::Dctcp { mark_threshold: 20 }),
            s if s.starts_with("dctcp:") => {
                let k = s["dctcp:".len()..]
                    .parse::<usize>()
                    .map_err(|_| format!("bad DCTCP threshold in '{s}'"))?;
                baseline(Scheme::Dctcp { mark_threshold: k })
            }
            s if s.starts_with("remy:") => {
                let rest = &s["remy:".len()..];
                let (table_name, mask) = match rest.split_once(":mask=") {
                    Some((t, m)) => (t, Some(parse_mask(m)?)),
                    None => (rest, None),
                };
                let (table, design) = load_table(table_name)?;
                let label = self.label.clone().unwrap_or_else(|| match design {
                    Some(d) => d.label.to_string(),
                    None => default_remy_label(table_name),
                });
                Ok(match mask {
                    Some(m) => Contender::remy_masked(label, table, m),
                    None => Contender::remy(label, table),
                })
            }
            other => Err(format!("unknown contender '{other}'")),
        }
    }
}

// The object form; a contender without a label override is written as
// its bare scheme name.
netsim::record! { fields ContenderSpec { scheme: "scheme", #[default] label: "label" } }

impl Wire for ContenderSpec {
    fn to_json_value(&self) -> Value {
        match &self.label {
            None => self.scheme.to_json_value(),
            Some(_) => self.record_value(),
        }
    }

    fn from_json_value(v: &Value) -> Result<ContenderSpec, WireError> {
        match v {
            Value::Str(scheme) => Ok(ContenderSpec::new(scheme.clone())),
            other => ContenderSpec::from_record(other),
        }
    }
}

fn parse_mask(m: &str) -> Result<[bool; 3], String> {
    let bits: Vec<bool> = m
        .chars()
        .map(|c| match c {
            '1' => Ok(true),
            '0' => Ok(false),
            other => Err(format!("mask digit must be 0 or 1, found '{other}'")),
        })
        .collect::<Result<Vec<bool>, String>>()?;
    bits.try_into()
        .map_err(|_| format!("mask needs exactly 3 digits, found '{m}'"))
}

/// Load a rule table: a registered design by name (returned with its
/// [`remy::designs`] entry), else a JSON file by path. Errors name the path
/// that could not be read or parsed and the names that would have worked.
pub fn load_table(name: &str) -> Result<(Arc<WhiskerTree>, Option<&'static Design>), String> {
    if let Some(design) = remy::designs::by_name(name) {
        return Ok((design.table(), Some(design)));
    }
    let text = std::fs::read_to_string(name).map_err(|e| {
        format!(
            "'{name}' is neither a registered design ({}) nor a readable rule table: {e}",
            remy::designs::names()
        )
    })?;
    WhiskerTree::from_json(&text)
        .map(|t| (Arc::new(t), None))
        .map_err(|e| format!("cannot parse rule table '{name}': {e}"))
}

/// The label of a RemyCC loaded from a file: `RemyCC <file stem>`.
fn default_remy_label(path: &str) -> String {
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path);
    format!("RemyCC {stem}")
}

/// One sweep axis: a grid of values for one workload parameter. Multiple
/// axes Cartesian-expand into sweep points, in declaration order with the
/// last axis varying fastest.
#[derive(Clone, Debug, PartialEq)]
pub enum SweepAxis {
    /// Bottleneck link speeds, Mbps (replaces the workload link).
    LinkMbps(Vec<f64>),
    /// Mean off-periods, milliseconds (duty-cycle sweep, every sender).
    OffMeanMs(Vec<u64>),
    /// Stochastic non-congestive loss rates: every contender runs over a
    /// lossy DropTail queue with this drop probability.
    LossRate(Vec<f64>),
}

impl SweepAxis {
    /// The axis key used in sweep-point coordinates and JSON.
    pub fn key(&self) -> &'static str {
        match self {
            SweepAxis::LinkMbps(_) => "link_mbps",
            SweepAxis::OffMeanMs(_) => "off_mean_ms",
            SweepAxis::LossRate(_) => "loss_rate",
        }
    }

    /// Number of grid values.
    pub fn len(&self) -> usize {
        match self {
            SweepAxis::LinkMbps(v) => v.len(),
            SweepAxis::OffMeanMs(v) => v.len(),
            SweepAxis::LossRate(v) => v.len(),
        }
    }

    /// True when the axis has no values (an empty axis expands to zero
    /// sweep points, i.e. an empty experiment).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn value(&self, i: usize) -> f64 {
        match self {
            SweepAxis::LinkMbps(v) => v[i],
            SweepAxis::OffMeanMs(v) => v[i] as f64,
            SweepAxis::LossRate(v) => v[i],
        }
    }
}

/// A sweep axis's keys: which axis, then its grid, typed by the axis.
const AXIS: &str = "axis";
const VALUES: &str = "values";

impl Wire for SweepAxis {
    fn to_json_value(&self) -> Value {
        let values = match self {
            SweepAxis::LinkMbps(v) | SweepAxis::LossRate(v) => v.to_json_value(),
            SweepAxis::OffMeanMs(v) => v.to_json_value(),
        };
        Value::obj(vec![(AXIS, Value::str(self.key())), (VALUES, values)])
    }

    fn from_json_value(v: &Value) -> Result<SweepAxis, WireError> {
        let r = Reader::new(v, &[AXIS, VALUES])?;
        match r.req::<String, Plain>(AXIS)?.as_str() {
            "link_mbps" => Ok(SweepAxis::LinkMbps(r.req::<_, Plain>(VALUES)?)),
            "off_mean_ms" => Ok(SweepAxis::OffMeanMs(r.req::<_, Plain>(VALUES)?)),
            "loss_rate" => Ok(SweepAxis::LossRate(r.req::<_, Plain>(VALUES)?)),
            other => Err(WireError::new(format!("unknown axis '{other}'")).within(AXIS)),
        }
    }
}

/// One point of the Cartesian sweep grid: `(axis key, value)` coordinates
/// in axis order. Experiments without sweeps have a single point with no
/// coordinates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepPoint {
    /// `(axis key, value)` pairs.
    pub coords: Vec<(String, f64)>,
}

impl SweepPoint {
    /// Coordinate lookup by axis key.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.coords.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// A short "key=value, key=value" label; empty for the trivial point.
    pub fn label(&self) -> String {
        self.coords
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// One sweep point resolved for every contender that runs at it: the
/// workload there, its loss rate and seed, and its topology routed once.
pub(crate) struct PointSetup<'a> {
    budget: Budget,
    workload: Cow<'a, WorkloadSpec>,
    loss: Option<f64>,
    seed: u64,
    topology: Option<RoutedTopology>,
}

impl PointSetup<'_> {
    /// See [`ExperimentSpec::scenarios_at`].
    pub(crate) fn scenarios(&self, contender: &Contender) -> Result<Vec<Scenario>, String> {
        let wl = &*self.workload;
        let duration = self.budget.duration();
        (0..self.budget.runs)
            .map(|k| {
                let run_seed = SimRng::split_seed(self.seed, k as u64);
                let queue = match self.loss {
                    Some(p) => QueueSpec::LossyDropTail {
                        capacity: wl.queue_capacity,
                        drop_probability: p,
                        // An independent stream for the loss process.
                        seed: SimRng::split_seed(run_seed, u64::from(u32::MAX)),
                    },
                    None => contender.queue_spec(wl.queue_capacity),
                };
                wl.scenario_on(self.topology.as_ref(), queue, duration, run_seed)
            })
            .collect()
    }
}

/// A complete, serializable experiment description. See the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentSpec {
    /// Machine name (registry key, CSV file stem).
    pub name: String,
    /// Human title printed above result tables.
    pub title: String,
    /// The dumbbell workload.
    pub workload: WorkloadSpec,
    /// Who contends (each runs the full grid).
    pub contenders: Vec<ContenderSpec>,
    /// Sweep axes, Cartesian-expanded.
    pub sweeps: Vec<SweepAxis>,
    /// Runs × seconds.
    pub budget: Budget,
    /// Base seed; see the module docs for the derivation.
    pub seed: u64,
    /// When set, the report appends the §1-style "median speedup / median
    /// delay reduction" table of this contender label over each
    /// human-designed scheme.
    pub speedup_reference: Option<String>,
}

impl ExperimentSpec {
    /// A spec with no sweeps and no speedup table (the common case).
    pub fn new(
        name: impl Into<String>,
        title: impl Into<String>,
        workload: WorkloadSpec,
        contenders: Vec<ContenderSpec>,
        budget: Budget,
        seed: u64,
    ) -> ExperimentSpec {
        ExperimentSpec {
            name: name.into(),
            title: title.into(),
            workload,
            contenders,
            sweeps: Vec::new(),
            budget,
            seed,
            speedup_reference: None,
        }
    }

    /// The Cartesian sweep grid, in axis order (last axis fastest).
    /// Always at least one point when there are no sweep axes.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut points = vec![SweepPoint::default()];
        for axis in &self.sweeps {
            let mut next = Vec::with_capacity(points.len() * axis.len());
            for p in &points {
                for i in 0..axis.len() {
                    let mut q = p.clone();
                    q.coords.push((axis.key().to_string(), axis.value(i)));
                    next.push(q);
                }
            }
            points = next;
        }
        points
    }

    /// The workload at one sweep point (borrowed when the point has no
    /// coordinates to apply), plus the loss rate to inject (if the grid
    /// has a `loss_rate` axis).
    pub fn workload_at(
        &self,
        point: &SweepPoint,
    ) -> Result<(Cow<'_, WorkloadSpec>, Option<f64>), String> {
        let mut wl = Cow::Borrowed(&self.workload);
        let mut loss = None;
        for (key, value) in &point.coords {
            // The single bottleneck has no meaning on an explicit
            // topology, whose links carry their own rates.
            if wl.topology.is_some() && key == "link_mbps" {
                return Err(format!(
                    "sweep axis '{key}' is not supported on a topology workload"
                ));
            }
            match key.as_str() {
                "link_mbps" => wl.to_mut().link = LinkRef::constant(*value),
                "off_mean_ms" => {
                    let off = Ns::from_millis(*value as u64);
                    for s in &mut wl.to_mut().senders {
                        s.traffic.off_mean = off;
                    }
                }
                "loss_rate" => loss = Some(*value),
                other => return Err(format!("unknown sweep coordinate '{other}'")),
            }
        }
        Ok((wl, loss))
    }

    /// The common-random-numbers seed of sweep point `point_index`
    /// (shared by every contender at that point).
    pub fn point_seed(&self, point_index: usize) -> u64 {
        SimRng::split_seed(self.seed, point_index as u64)
    }

    /// Resolve sweep point `point_index` once for every contender: its
    /// workload, loss rate and seed, and its topology routed.
    pub(crate) fn point_setup(
        &self,
        point_index: usize,
        point: &SweepPoint,
    ) -> Result<PointSetup<'_>, String> {
        let (workload, loss) = self.workload_at(point)?;
        let topology = workload.route()?;
        Ok(PointSetup {
            budget: self.budget,
            workload,
            loss,
            seed: self.point_seed(point_index),
            topology,
        })
    }

    /// The scenarios one contender runs at one sweep point: `budget.runs`
    /// fork-derived seeds over the contender's own queue discipline (or
    /// the lossy queue when the point carries a loss rate).
    pub fn scenarios_at(
        &self,
        point_index: usize,
        point: &SweepPoint,
        contender: &Contender,
    ) -> Result<Vec<Scenario>, String> {
        self.point_setup(point_index, point)?.scenarios(contender)
    }

    /// Serialize to pretty-printed JSON text (trailing newline included,
    /// so specs diff cleanly as checked-in files).
    pub fn to_json(&self) -> String {
        let mut s = self.to_json_value().pretty();
        s.push('\n');
        s
    }

    /// Parse a spec from JSON text.
    pub fn from_json(text: &str) -> Result<ExperimentSpec, WireError> {
        ExperimentSpec::from_json_value(&json::parse(text)?)
    }
}

// `sweeps` and `speedup_reference` may be omitted in hand-written specs;
// an unset reference is written as `null`.
netsim::record! {
    ExperimentSpec {
        name: "name", title: "title", seed: "seed", budget: "budget", workload: "workload",
        contenders: "contenders", #[default] sweeps: "sweeps",
        #[default] speedup_reference: "speedup_reference",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `fig4ish_spec` swept over `axes`.
    fn swept(axes: Vec<SweepAxis>) -> ExperimentSpec {
        ExperimentSpec {
            sweeps: axes,
            ..fig4ish_spec()
        }
    }

    /// A hop of the hand-listed topology form.
    fn hop(rate_mbps: f64, queue_capacity: usize, prop_delay: Ns) -> HopRef {
        HopRef {
            link: LinkRef::constant(rate_mbps),
            queue_capacity,
            prop_delay,
        }
    }

    fn fig4ish_spec() -> ExperimentSpec {
        ExperimentSpec::new(
            "test4",
            "test dumbbell",
            WorkloadSpec::uniform(
                LinkRef::constant(15.0),
                1000,
                8,
                Ns::from_millis(150),
                TrafficSpec::fig4(),
            ),
            vec![
                ContenderSpec::new("remy:delta1"),
                ContenderSpec::new("newreno"),
            ],
            Budget {
                runs: 4,
                sim_secs: 10,
            },
            4001,
        )
    }

    #[test]
    fn spec_round_trips_losslessly() {
        let mut spec = swept(vec![
            SweepAxis::LinkMbps(vec![4.7, 15.0, 47.0]),
            SweepAxis::OffMeanMs(vec![50, 150]),
        ]);
        spec.speedup_reference = Some("RemyCC d=1".to_string());
        spec.seed = u64::MAX - 17; // full-range seeds survive
        let text = spec.to_json();
        let back = ExperimentSpec::from_json(&text).expect("parse");
        assert_eq!(spec, back);
        assert_eq!(back.to_json(), text, "serialization is stable");
    }

    #[test]
    fn heterogeneous_senders_round_trip_as_array() {
        let mut spec = fig4ish_spec();
        spec.workload.senders[3].rtt = Ns::from_millis(50);
        let back = ExperimentSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
        assert_eq!(back.workload.senders[3].rtt, Ns::from_millis(50));
    }

    #[test]
    fn churn_workload_round_trips_inside_a_spec() {
        use netsim::traffic::OnSpec;
        let mut spec = fig4ish_spec();
        spec.workload = spec.workload.clone().with_churn(ChurnSpec {
            arrivals_per_sec: 2000.0,
            size: OnSpec::BoundedPareto {
                xm: 4500.0,
                alpha: 1.2,
                cap_bytes: 1_500_000.0,
            },
            rtt: Ns::from_millis(20),
        });
        let text = spec.to_json();
        assert!(text.contains("\"churn\""));
        let back = ExperimentSpec::from_json(&text).expect("parse");
        assert_eq!(spec, back);
        assert_eq!(back.to_json(), text, "serialization is stable");
        // The materialized scenario carries the churn spec through.
        let sc = back
            .workload
            .scenario(
                netsim::queue::QueueSpec::DropTail { capacity: 1000 },
                Ns::from_secs(5),
                1,
            )
            .expect("scenario");
        assert_eq!(sc.churn, spec.workload.churn);
        // Churn-free specs keep serializing without the key (golden specs
        // stay byte-identical).
        assert!(!fig4ish_spec().to_json().contains("churn"));
    }

    #[test]
    fn churn_plus_topology_is_rejected_on_parse() {
        let text = r#"{
            "name": "mini", "title": "mini", "seed": 1,
            "budget": {"runs": 2, "sim_secs": 3},
            "workload": {
                "link": {"kind": "constant", "rate_mbps": 10},
                "queue_capacity": 100,
                "senders": {"n": 1, "rtt_ns": 150000000,
                            "traffic": {"on": {"kind": "by_bytes", "mean_bytes": 1e5},
                                        "off_mean_ns": 500000000, "start_on": false}},
                "record_deliveries": false,
                "topology": {
                    "hops": [{"link": {"kind": "constant", "rate_mbps": 10},
                              "queue_capacity": 100, "prop_delay_ns": 0}],
                    "paths": [{"fwd": [0], "ack": []}]
                },
                "churn": {
                    "arrivals_per_sec": 100,
                    "size": {"kind": "bounded_pareto", "xm": 3000, "alpha": 1.2,
                             "cap_bytes": 100000},
                    "rtt_ns": 20000000
                }
            },
            "contenders": ["newreno"]
        }"#;
        let err = ExperimentSpec::from_json(text).expect_err("must reject");
        assert_eq!(
            err.to_string(),
            "workload: churn is not supported on a topology workload"
        );
    }

    #[test]
    fn omitted_optional_fields_default() {
        let text = r#"{
            "name": "mini", "title": "mini", "seed": 1,
            "budget": {"runs": 2, "sim_secs": 3},
            "workload": {
                "link": {"kind": "constant", "rate_mbps": 10},
                "queue_capacity": 100,
                "senders": {"n": 2, "rtt_ns": 150000000,
                            "traffic": {"on": {"kind": "by_bytes", "mean_bytes": 1e5},
                                        "off_mean_ns": 500000000, "start_on": false}},
                "record_deliveries": false
            },
            "contenders": ["newreno"]
        }"#;
        let spec = ExperimentSpec::from_json(text).expect("parse");
        assert!(spec.sweeps.is_empty());
        assert!(spec.speedup_reference.is_none());
        assert_eq!(spec.points().len(), 1);
    }

    #[test]
    fn empty_sender_lists_are_rejected_at_parse_and_at_resolve() {
        // An empty population simulates nothing; nothing may report on it.
        let text = fig4ish_spec().to_json().replacen("\"n\": 8", "\"n\": 0", 1);
        let err = ExperimentSpec::from_json(&text).unwrap_err();
        assert_eq!(
            err.to_string(),
            "workload.senders: at least one sender is required"
        );
        let mut wl = fig4ish_spec().workload;
        wl.senders.clear();
        let err = wl.scenario(QueueSpec::Unlimited, Ns::SECOND, 1);
        assert_eq!(err.unwrap_err(), "workload has no senders");
    }

    #[test]
    fn cartesian_expansion_orders_last_axis_fastest() {
        let spec = swept(vec![
            SweepAxis::LinkMbps(vec![10.0, 20.0]),
            SweepAxis::OffMeanMs(vec![2, 4, 8]),
        ]);
        let points = spec.points();
        assert_eq!(points.len(), 6);
        assert_eq!(points[0].get("link_mbps"), Some(10.0));
        assert_eq!(points[0].get("off_mean_ms"), Some(2.0));
        assert_eq!(points[1].get("off_mean_ms"), Some(4.0));
        assert_eq!(points[3].get("link_mbps"), Some(20.0));
        assert_eq!(points[5].label(), "link_mbps=20, off_mean_ms=8");
    }

    #[test]
    fn sweep_coordinates_reshape_the_workload() {
        let spec = swept(vec![
            SweepAxis::LinkMbps(vec![47.0]),
            SweepAxis::OffMeanMs(vec![10]),
            SweepAxis::LossRate(vec![0.01]),
        ]);
        let points = spec.points();
        let (wl, loss) = spec.workload_at(&points[0]).unwrap();
        assert_eq!(wl.link, LinkRef::constant(47.0));
        assert_eq!(wl.n(), 8, "the sender list is unchanged");
        assert!(wl
            .senders
            .iter()
            .all(|s| s.traffic.off_mean == Ns::from_millis(10)));
        assert_eq!(loss, Some(0.01));
    }

    #[test]
    fn scenarios_use_forked_seeds_and_common_random_numbers() {
        let spec = fig4ish_spec();
        let point = &spec.points()[0];
        let remy = spec.contenders[0].build().unwrap();
        let reno = spec.contenders[1].build().unwrap();
        let a = spec.scenarios_at(0, point, &remy).unwrap();
        let b = spec.scenarios_at(0, point, &reno).unwrap();
        assert_eq!(a.len(), spec.budget.runs);
        // Common random numbers: same seeds across contenders.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
        }
        // Forked derivation: never base + k.
        for (k, sc) in a.iter().enumerate() {
            assert_ne!(sc.seed, spec.seed + k as u64);
        }
        // A nearby base seed shares no stream.
        let mut shifted = spec.clone();
        shifted.seed += 1;
        let c = shifted.scenarios_at(0, point, &reno).unwrap();
        for x in &a {
            for y in &c {
                assert_ne!(x.seed, y.seed, "adjacent base seeds must not collide");
            }
        }
    }

    #[test]
    fn contender_names_build() {
        for name in [
            "newreno",
            "vegas",
            "cubic",
            "compound",
            "cubic+sfqcodel",
            "xcp",
            "dctcp",
            "dctcp:65",
            "remy:delta01",
            "remy:delta1:mask=011",
        ] {
            let c = ContenderSpec::new(name).build();
            assert!(c.is_ok(), "{name}: {c:?}");
        }
        assert_eq!(
            ContenderSpec::new("remy:delta01").build().unwrap().label(),
            "RemyCC d=0.1"
        );
        assert_eq!(
            ContenderSpec::labeled("remy:datacenter", "RemyCC (DropTail)")
                .build()
                .unwrap()
                .label(),
            "RemyCC (DropTail)"
        );
        assert!(ContenderSpec::new("bbr").build().is_err());
        // Neither a design nor a file: the error offers the names that exist.
        let err = ContenderSpec::new("remy:no_such_table_or_file")
            .build()
            .unwrap_err();
        assert!(err.contains("'no_such_table_or_file'"), "{err}");
        assert!(err.contains(&remy::designs::names()), "{err}");
        assert!(ContenderSpec::new("remy:delta1:mask=01").build().is_err());
        assert!(ContenderSpec::labeled("cubic", "nope").build().is_err());
    }

    #[test]
    fn named_traces_resolve() {
        let trace = |name: &str| LinkRef::NamedTrace {
            name: name.to_string(),
        };
        assert!(trace("verizon-like").resolve().is_ok());
        assert!(trace("att-like").resolve().is_ok());
        assert!(trace("tmobile").resolve().is_err());
        assert!(LinkRef::constant(0.0).resolve().is_err());
    }

    /// Golden document for the topology-spec JSON format: field names and
    /// shapes here are a compatibility contract (checked-in experiment
    /// specs embed them).
    const TOPOLOGY_GOLDEN: &str = r#"{
        "hops": [
            {"link": {"kind": "constant", "rate_mbps": 10}, "queue_capacity": 1000,
             "prop_delay_ns": 10000000},
            {"link": {"kind": "constant", "rate_mbps": 5}, "queue_capacity": 64,
             "prop_delay_ns": 0}
        ],
        "paths": [
            {"fwd": [0, 1], "ack": []},
            {"fwd": [1], "ack": [0]}
        ]
    }"#;

    fn two_hop_topology() -> TopologySpec {
        TopologySpec::FlowHops {
            hops: vec![hop(10.0, 1000, Ns::from_millis(10)), hop(5.0, 64, Ns::ZERO)],
            paths: vec![
                FlowPath::through(vec![0, 1]),
                FlowPath::through(vec![1]).with_ack_path(vec![0]),
            ],
        }
    }

    #[test]
    fn graph_spec_resolve_names_unreachable_routers() {
        // The hop-less diagnostic, extended to graph specs: a flow
        // between disconnected routers must fail with both names, not
        // panic deep in the engine.
        let wire = |from: &str, to: &str| GraphLinkRef {
            from: from.to_string(),
            to: to.to_string(),
            link: LinkRef::constant(10.0),
            queue_capacity: 50,
            prop_delay: Ns::from_millis(1),
            weight: 1,
        };
        let spec = TopologySpec::Graph(GraphSpec {
            generator: GraphGenerator::Explicit {
                routers: vec!["left".into(), "right".into(), "island".into()],
                links: vec![wire("left", "right"), wire("right", "left")],
            },
            flows: vec![("left".into(), "island".into())],
            events: vec![],
            policy: netsim::graph::FailoverPolicy::Reroute,
        });
        let err = spec
            .resolve(&QueueSpec::DropTail { capacity: 100 })
            .unwrap_err();
        assert!(
            err.contains("'left'") && err.contains("'island'"),
            "diagnostic names both endpoints: {err}"
        );

        // Unknown router names in the flow list are caught before routing.
        let spec = TopologySpec::Graph(GraphSpec {
            generator: GraphGenerator::Explicit {
                routers: vec!["left".into(), "right".into()],
                links: vec![wire("left", "right"), wire("right", "left")],
            },
            flows: vec![("left".into(), "nowhere".into())],
            events: vec![],
            policy: netsim::graph::FailoverPolicy::Reroute,
        });
        let err = spec
            .resolve(&QueueSpec::DropTail { capacity: 100 })
            .unwrap_err();
        assert!(err.contains("'nowhere'"), "{err}");
    }

    #[test]
    fn topology_spec_parses_the_golden_document() {
        let v = json::parse(TOPOLOGY_GOLDEN).expect("golden parses");
        let t = TopologySpec::from_json_value(&v).expect("golden deserializes");
        assert_eq!(t, two_hop_topology());
        // And the writer reproduces a parseable, identical document.
        let back =
            TopologySpec::from_json_value(&json::parse(&t.to_json_value().pretty()).unwrap())
                .unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn a_zero_queue_capacity_is_refused_by_key() {
        // The committed Fig. 4 spec with its workload capacity zeroed.
        let fig4 = include_str!("../../../specs/fig4.json");
        let edited = fig4.replacen("\"queue_capacity\": 1000", "\"queue_capacity\": 0", 1);
        assert_ne!(edited, fig4);
        let err = ExperimentSpec::from_json(&edited).unwrap_err();
        assert_eq!(err.path, "workload.queue_capacity", "{err}");
        // A topology hop, in the document and in code.
        let mut spec = fig4ish_spec();
        spec.workload.senders.truncate(2);
        let TopologySpec::FlowHops { mut hops, paths } = two_hop_topology() else {
            unreachable!("two_hop_topology lists hops");
        };
        hops[1].queue_capacity = 0;
        spec.workload = spec
            .workload
            .clone()
            .with_topology(TopologySpec::FlowHops { hops, paths });
        let err = ExperimentSpec::from_json(&spec.to_json()).unwrap_err();
        assert_eq!(err.path, "workload.topology.hops[1].queue_capacity");
        let queue = QueueSpec::DropTail { capacity: 1000 };
        let err = spec.workload.scenario(queue, Ns::SECOND, 1).unwrap_err();
        assert!(
            err.contains("hop 1") && err.contains("queue_capacity"),
            "{err}"
        );
        // The dumbbell's discipline, when a caller builds it at zero.
        let err = fig4ish_spec()
            .workload
            .scenario(QueueSpec::Codel { capacity: 0 }, Ns::SECOND, 1)
            .unwrap_err();
        assert!(err.contains("queue_capacity"), "{err}");
        // Unlimited has no capacity and stays legal.
        assert!(fig4ish_spec()
            .workload
            .scenario(QueueSpec::Unlimited, Ns::SECOND, 1)
            .is_ok());
    }

    #[test]
    fn topology_workload_round_trips_inside_a_spec() {
        let mut spec = fig4ish_spec();
        spec.workload.senders.truncate(2);
        spec.workload = spec.workload.clone().with_topology(two_hop_topology());
        let text = spec.to_json();
        assert!(text.contains("\"topology\""));
        let back = ExperimentSpec::from_json(&text).expect("parse");
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), text, "stable serialization");
        // Legacy specs keep serializing without the key.
        assert!(!fig4ish_spec().to_json().contains("topology"));
    }

    #[test]
    fn topology_resolves_with_the_contender_discipline_per_hop() {
        let topo = two_hop_topology();
        let resolved = topo
            .resolve(&QueueSpec::SfqCodel {
                capacity: 1000,
                buckets: 64,
            })
            .expect("resolve");
        assert_eq!(resolved.hops.len(), 2);
        assert_eq!(
            resolved.hops[0].queue,
            QueueSpec::SfqCodel {
                capacity: 1000,
                buckets: 64
            }
        );
        assert_eq!(
            resolved.hops[1].queue,
            QueueSpec::SfqCodel {
                capacity: 64,
                buckets: 64
            },
            "discipline applied at the hop's own capacity"
        );
        assert_eq!(
            resolved.paths,
            vec![
                FlowPath::through(vec![0, 1]),
                FlowPath::through(vec![1]).with_ack_path(vec![0]),
            ]
        );
    }

    #[test]
    fn lossy_disciplines_get_independent_streams_per_hop() {
        let topo = TopologySpec::FlowHops {
            hops: vec![
                hop(10.0, 1000, Ns::from_millis(10)),
                hop(5.0, 64, Ns::ZERO),
                hop(5.0, 64, Ns::ZERO),
            ],
            paths: vec![
                FlowPath::through(vec![0, 1, 2]),
                FlowPath::through(vec![1]).with_ack_path(vec![0]),
            ],
        };
        let resolved = topo
            .resolve(&QueueSpec::LossyDropTail {
                capacity: 1000,
                drop_probability: 0.01,
                seed: 77,
            })
            .expect("resolve");
        let seeds: Vec<u64> = resolved
            .hops
            .iter()
            .map(|h| match h.queue {
                QueueSpec::LossyDropTail { seed, .. } => seed,
                ref other => panic!("expected lossy queue, got {other:?}"),
            })
            .collect();
        assert_eq!(seeds[0], 77, "hop 0 keeps the caller's stream");
        assert_ne!(seeds[1], seeds[0], "hops must not replay one stream");
        assert_ne!(seeds[2], seeds[0]);
        assert_ne!(seeds[2], seeds[1]);
    }

    #[test]
    fn topology_workload_materializes_scenarios() {
        let mut wl = WorkloadSpec::uniform(
            LinkRef::constant(10.0),
            1000,
            2,
            Ns::from_millis(100),
            TrafficSpec::fig4(),
        );
        wl = wl.with_topology(two_hop_topology());
        let sc = wl
            .scenario(QueueSpec::DropTail { capacity: 1000 }, Ns::from_secs(5), 9)
            .expect("scenario");
        let topo = sc.topology.as_ref().expect("topology attached");
        assert_eq!(topo.n_hops(), 2);
        // Scenario link/queue mirror hop 0.
        assert_eq!(sc.queue, QueueSpec::DropTail { capacity: 1000 });
        assert!(
            matches!(sc.link, netsim::link::LinkSpec::Constant { rate_mbps } if rate_mbps == 10.0)
        );
        // Mismatched path count fails cleanly, not with a panic.
        let mut bad = wl.clone();
        bad.senders.push(bad.senders[0].clone());
        assert!(bad
            .scenario(QueueSpec::DropTail { capacity: 1000 }, Ns::from_secs(5), 9)
            .is_err());
    }

    #[test]
    fn topology_workloads_reject_structural_sweeps() {
        let mut spec = fig4ish_spec();
        spec.workload.senders.truncate(2);
        spec.workload = spec.workload.clone().with_topology(two_hop_topology());
        spec.sweeps = vec![SweepAxis::LinkMbps(vec![5.0])];
        let err = spec.workload_at(&spec.points()[0]).unwrap_err();
        assert!(err.contains("'link_mbps' is not supported"), "{err}");
        // Per-sender axes remain legal.
        spec.sweeps = vec![SweepAxis::OffMeanMs(vec![50])];
        let (wl, _) = spec.workload_at(&spec.points()[0]).expect("off sweep ok");
        assert!(wl
            .senders
            .iter()
            .all(|s| s.traffic.off_mean == Ns::from_millis(50)));
    }
}
