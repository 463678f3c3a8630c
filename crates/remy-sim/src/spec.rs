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
use netsim::json::{self, Value};
use netsim::link::LinkSpec;
use netsim::queue::QueueSpec;
use netsim::rng::SimRng;
use netsim::scenario::{ChurnSpec, Scenario, SenderConfig};
use netsim::time::Ns;
use netsim::topology::{FlowPath, Topology};
use netsim::traffic::TrafficSpec;
use remy::designs::Design;
use remy::whisker::WhiskerTree;
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

    /// Serialize to a JSON value.
    pub fn to_json_value(&self) -> Value {
        Value::obj(vec![
            ("runs", json::u64_value(self.runs as u64)),
            ("sim_secs", json::u64_value(self.sim_secs)),
        ])
    }

    /// Deserialize a value written by [`Budget::to_json_value`]. A zero
    /// in either field is rejected: the experiment would simulate nothing
    /// and still report numbers.
    pub fn from_json_value(v: &Value) -> Result<Budget, String> {
        v.only_keys("budget", &["runs", "sim_secs"])?;
        let budget = Budget {
            runs: v.field("runs")?.as_usize()?,
            sim_secs: v.field("sim_secs")?.as_u64()?,
        };
        if budget.runs == 0 {
            return Err("budget runs must be positive".to_string());
        }
        if budget.sim_secs == 0 {
            return Err("budget sim_secs must be positive".to_string());
        }
        Ok(budget)
    }
}

/// A bottleneck link, by value or by name.
///
/// Unlike [`LinkSpec`], whose trace variant inlines a full delivery
/// schedule, a spec references the repository's synthetic cellular traces
/// by name — experiment JSON stays small and the schedule is regenerated
/// deterministically by the `traces` crate.
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
                    "verizon-like" => traces::verizon_schedule(),
                    "att-like" => traces::att_schedule(),
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

    /// Serialize to a JSON value.
    pub fn to_json_value(&self) -> Value {
        match self {
            LinkRef::Constant { rate_mbps } => Value::obj(vec![
                ("kind", Value::str("constant")),
                ("rate_mbps", Value::num(*rate_mbps)),
            ]),
            LinkRef::NamedTrace { name } => Value::obj(vec![
                ("kind", Value::str("named_trace")),
                ("name", Value::str(name.clone())),
            ]),
        }
    }

    /// Deserialize a value written by [`LinkRef::to_json_value`].
    pub fn from_json_value(v: &Value) -> Result<LinkRef, String> {
        match v.field("kind")?.as_str()? {
            "constant" => {
                v.only_keys("constant link", &["kind", "rate_mbps"])?;
                Ok(LinkRef::Constant {
                    rate_mbps: v.field("rate_mbps")?.as_f64()?,
                })
            }
            "named_trace" => {
                v.only_keys("named_trace link", &["kind", "name"])?;
                Ok(LinkRef::NamedTrace {
                    name: v.field("name")?.as_str()?.to_string(),
                })
            }
            other => Err(format!("unknown link kind '{other}'")),
        }
    }
}

/// The `queue_capacity` key of a workload, hop or link. Zero is refused
/// here, naming the key, because each discipline would read it its own
/// way ([`QueueSpec::validate`]).
fn queue_capacity(v: &Value) -> Result<usize, String> {
    let capacity = v.field("queue_capacity")?.as_usize()?;
    QueueSpec::DropTail { capacity }.validate()?;
    Ok(capacity)
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

impl HopRef {
    /// Serialize to a JSON value.
    pub fn to_json_value(&self) -> Value {
        Value::obj(vec![
            ("link", self.link.to_json_value()),
            (
                "queue_capacity",
                json::u64_value(self.queue_capacity as u64),
            ),
            ("prop_delay_ns", json::ns_value(self.prop_delay)),
        ])
    }

    /// Deserialize a value written by [`HopRef::to_json_value`].
    pub fn from_json_value(v: &Value) -> Result<HopRef, String> {
        v.only_keys("topology hop", &["link", "queue_capacity", "prop_delay_ns"])?;
        Ok(HopRef {
            link: LinkRef::from_json_value(v.field("link")?)?,
            queue_capacity: queue_capacity(v)?,
            prop_delay: json::ns_from(v.field("prop_delay_ns")?)?,
        })
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

impl GraphLinkRef {
    fn to_json_value(&self) -> Value {
        Value::obj(vec![
            ("from", Value::str(self.from.clone())),
            ("to", Value::str(self.to.clone())),
            ("link", self.link.to_json_value()),
            (
                "queue_capacity",
                json::u64_value(self.queue_capacity as u64),
            ),
            ("prop_delay_ns", json::ns_value(self.prop_delay)),
            ("weight", json::u64_value(self.weight)),
        ])
    }

    fn from_json_value(v: &Value) -> Result<GraphLinkRef, String> {
        v.only_keys(
            "graph link",
            &[
                "from",
                "to",
                "link",
                "queue_capacity",
                "prop_delay_ns",
                "weight",
            ],
        )?;
        Ok(GraphLinkRef {
            from: v.field("from")?.as_str()?.to_string(),
            to: v.field("to")?.as_str()?.to_string(),
            link: LinkRef::from_json_value(v.field("link")?)?,
            queue_capacity: queue_capacity(v)?,
            prop_delay: json::ns_from(v.field("prop_delay_ns")?)?,
            weight: v.field("weight")?.as_u64()?,
        })
    }
}

/// How a graph topology's routers and links come to exist: listed
/// explicitly, or drawn by a named generator.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphGenerator {
    /// Hand-listed routers and directed links.
    Explicit {
        /// Router names, in id order.
        routers: Vec<String>,
        /// Directed links (list both directions for duplex wiring).
        links: Vec<GraphLinkRef>,
    },
    /// A duplex linear chain `r0 — r1 — … — rN` of `n_links` segments.
    Chain {
        /// Number of chain segments (routers = `n_links + 1`).
        n_links: usize,
        /// Every link's wire.
        link: LinkRef,
        /// Every link's queue depth.
        queue_capacity: usize,
        /// Every link's propagation delay.
        prop_delay: Ns,
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
    /// A seeded Waxman random graph over `n` routers on the unit square.
    Waxman {
        /// Number of routers.
        n: usize,
        /// Edge-probability scale.
        alpha: f64,
        /// Distance-decay scale.
        beta: f64,
        /// Draw seed (independent of the experiment's run seeds).
        seed: u64,
        /// Every link's wire.
        link: LinkRef,
        /// Every link's queue depth.
        queue_capacity: usize,
        /// Every link's propagation delay.
        prop_delay: Ns,
    },
}

impl GraphGenerator {
    /// Short class name for listings (`explicit`, `chain`, …).
    pub fn name(&self) -> &'static str {
        match self {
            GraphGenerator::Explicit { .. } => "explicit",
            GraphGenerator::Chain { .. } => "chain",
            GraphGenerator::FatTreeK4 { .. } => "fat_tree_k4",
            GraphGenerator::Waxman { .. } => "waxman",
        }
    }

    /// Build the network's wiring, applying `discipline` at each link's
    /// capacity (the same rule as [`TopologySpec::resolve`] for hop
    /// lists).
    fn builder(&self, discipline: &QueueSpec) -> Result<netsim::graph::NetworkBuilder, String> {
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
                    let queue = discipline.clone().with_capacity(l.queue_capacity);
                    b.add_weighted_link(
                        ids[index(&l.from)?],
                        ids[index(&l.to)?],
                        l.link.resolve()?,
                        queue,
                        l.prop_delay,
                        l.weight,
                    );
                }
                Ok(b)
            }
            GraphGenerator::Chain {
                n_links,
                link,
                queue_capacity,
                prop_delay,
            } => Ok(NetworkBuilder::chain(
                *n_links,
                &link.resolve()?,
                &discipline.clone().with_capacity(*queue_capacity),
                *prop_delay,
            )),
            GraphGenerator::FatTreeK4 {
                link,
                queue_capacity,
                prop_delay,
            } => Ok(NetworkBuilder::fat_tree_k4(
                &link.resolve()?,
                &discipline.clone().with_capacity(*queue_capacity),
                *prop_delay,
            )),
            GraphGenerator::Waxman {
                n,
                alpha,
                beta,
                seed,
                link,
                queue_capacity,
                prop_delay,
            } => Ok(NetworkBuilder::waxman(
                *n,
                *alpha,
                *beta,
                *seed,
                &link.resolve()?,
                &discipline.clone().with_capacity(*queue_capacity),
                *prop_delay,
            )),
        }
    }

    fn to_json_value(&self) -> Value {
        match self {
            GraphGenerator::Explicit { routers, links } => Value::obj(vec![
                ("kind", Value::str("explicit")),
                (
                    "routers",
                    Value::Arr(routers.iter().map(Value::str).collect()),
                ),
                (
                    "links",
                    Value::Arr(links.iter().map(GraphLinkRef::to_json_value).collect()),
                ),
            ]),
            GraphGenerator::Chain {
                n_links,
                link,
                queue_capacity,
                prop_delay,
            } => Value::obj(vec![
                ("kind", Value::str("chain")),
                ("n_links", json::u64_value(*n_links as u64)),
                ("link", link.to_json_value()),
                ("queue_capacity", json::u64_value(*queue_capacity as u64)),
                ("prop_delay_ns", json::ns_value(*prop_delay)),
            ]),
            GraphGenerator::FatTreeK4 {
                link,
                queue_capacity,
                prop_delay,
            } => Value::obj(vec![
                ("kind", Value::str("fat_tree_k4")),
                ("link", link.to_json_value()),
                ("queue_capacity", json::u64_value(*queue_capacity as u64)),
                ("prop_delay_ns", json::ns_value(*prop_delay)),
            ]),
            GraphGenerator::Waxman {
                n,
                alpha,
                beta,
                seed,
                link,
                queue_capacity,
                prop_delay,
            } => Value::obj(vec![
                ("kind", Value::str("waxman")),
                ("n", json::u64_value(*n as u64)),
                ("alpha", Value::num(*alpha)),
                ("beta", Value::num(*beta)),
                ("seed", json::u64_value(*seed)),
                ("link", link.to_json_value()),
                ("queue_capacity", json::u64_value(*queue_capacity as u64)),
                ("prop_delay_ns", json::ns_value(*prop_delay)),
            ]),
        }
    }

    fn from_json_value(v: &Value) -> Result<GraphGenerator, String> {
        // Every generated shape wires identical links.
        const WIRE: [&str; 4] = ["kind", "link", "queue_capacity", "prop_delay_ns"];
        let only = |extra: &[&str]| v.only_keys("graph generator", &[&WIRE[..], extra].concat());
        let wire = || -> Result<(LinkRef, usize, Ns), String> {
            Ok((
                LinkRef::from_json_value(v.field("link")?)?,
                queue_capacity(v)?,
                json::ns_from(v.field("prop_delay_ns")?)?,
            ))
        };
        match v.field("kind")?.as_str()? {
            "explicit" => {
                v.only_keys("explicit graph generator", &["kind", "routers", "links"])?;
                Ok(GraphGenerator::Explicit {
                    routers: v
                        .field("routers")?
                        .as_arr()?
                        .iter()
                        .map(|r| r.as_str().map(str::to_string))
                        .collect::<Result<Vec<String>, String>>()?,
                    links: v
                        .field("links")?
                        .as_arr()?
                        .iter()
                        .map(GraphLinkRef::from_json_value)
                        .collect::<Result<Vec<GraphLinkRef>, String>>()?,
                })
            }
            "chain" => {
                only(&["n_links"])?;
                let (link, queue_capacity, prop_delay) = wire()?;
                Ok(GraphGenerator::Chain {
                    n_links: v.field("n_links")?.as_usize()?,
                    link,
                    queue_capacity,
                    prop_delay,
                })
            }
            "fat_tree_k4" => {
                only(&[])?;
                let (link, queue_capacity, prop_delay) = wire()?;
                Ok(GraphGenerator::FatTreeK4 {
                    link,
                    queue_capacity,
                    prop_delay,
                })
            }
            "waxman" => {
                only(&["n", "alpha", "beta", "seed"])?;
                let (link, queue_capacity, prop_delay) = wire()?;
                Ok(GraphGenerator::Waxman {
                    n: v.field("n")?.as_usize()?,
                    alpha: v.field("alpha")?.as_f64()?,
                    beta: v.field("beta")?.as_f64()?,
                    seed: v.field("seed")?.as_u64()?,
                    link,
                    queue_capacity,
                    prop_delay,
                })
            }
            other => Err(format!("unknown graph generator '{other}'")),
        }
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

impl LinkEventSpec {
    fn to_json_value(&self) -> Value {
        Value::obj(vec![
            ("at_ns", json::ns_value(self.at)),
            ("from", Value::str(self.from.clone())),
            ("to", Value::str(self.to.clone())),
            ("up", Value::Bool(self.up)),
        ])
    }

    fn from_json_value(v: &Value) -> Result<LinkEventSpec, String> {
        v.only_keys("link event", &["at_ns", "from", "to", "up"])?;
        Ok(LinkEventSpec {
            at: json::ns_from(v.field("at_ns")?)?,
            from: v.field("from")?.as_str()?.to_string(),
            to: v.field("to")?.as_str()?.to_string(),
            up: v.field("up")?.as_bool()?,
        })
    }
}

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

impl GraphSpec {
    fn to_json_value(&self) -> Value {
        let mut fields = vec![
            ("kind", Value::str("graph")),
            ("generator", self.generator.to_json_value()),
            (
                "flows",
                Value::Arr(
                    self.flows
                        .iter()
                        .map(|(s, d)| {
                            Value::Arr(vec![Value::str(s.clone()), Value::str(d.clone())])
                        })
                        .collect(),
                ),
            ),
        ];
        if !self.events.is_empty() {
            fields.push((
                "events",
                Value::Arr(
                    self.events
                        .iter()
                        .map(LinkEventSpec::to_json_value)
                        .collect(),
                ),
            ));
        }
        fields.push(("policy", Value::str(self.policy.name())));
        Value::obj(fields)
    }

    fn from_json_value(v: &Value) -> Result<GraphSpec, String> {
        v.only_keys(
            "graph topology",
            &["kind", "generator", "flows", "events", "policy"],
        )?;
        let flows = v
            .field("flows")?
            .as_arr()?
            .iter()
            .map(|f| {
                let pair = f.as_arr()?;
                if pair.len() != 2 {
                    return Err("a flow is a [src, dst] router-name pair".to_string());
                }
                Ok((pair[0].as_str()?.to_string(), pair[1].as_str()?.to_string()))
            })
            .collect::<Result<Vec<(String, String)>, String>>()?;
        let events = match v.field("events") {
            Ok(e) => e
                .as_arr()?
                .iter()
                .map(LinkEventSpec::from_json_value)
                .collect::<Result<Vec<LinkEventSpec>, String>>()?,
            Err(_) => Vec::new(),
        };
        Ok(GraphSpec {
            generator: GraphGenerator::from_json_value(v.field("generator")?)?,
            flows,
            events,
            policy: netsim::graph::FailoverPolicy::from_name(v.field("policy")?.as_str()?)?,
        })
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
            TopologySpec::Graph(g) => format!("graph:{}", g.generator.name()),
        }
    }

    /// Materialize a runnable [`Topology`], applying `discipline` (a
    /// contender's queue spec) to every hop at that hop's capacity. A
    /// stochastic-loss discipline gets a fork-derived seed per hop —
    /// otherwise every hop would replay the identical drop stream and the
    /// "independent" loss processes would be perfectly correlated. Graph
    /// topologies resolve their named flows and events against the built
    /// network and derive every path by shortest-path routing.
    pub fn resolve(&self, discipline: &QueueSpec) -> Result<Topology, String> {
        match self {
            TopologySpec::FlowHops { hops, paths } => {
                let mut resolved = hops
                    .iter()
                    .map(|h| {
                        Ok(netsim::topology::HopSpec {
                            link: h.link.resolve()?,
                            queue: discipline.clone().with_capacity(h.queue_capacity),
                            prop_delay_out: h.prop_delay,
                        })
                    })
                    .collect::<Result<Vec<netsim::topology::HopSpec>, String>>()?;
                fork_lossy_hop_seeds(&mut resolved);
                Ok(Topology::from_flow_hops(resolved, paths.clone()))
            }
            TopologySpec::Graph(g) => {
                let net = g.generator.builder(discipline)?.build()?;
                let flows = g
                    .flows
                    .iter()
                    .map(|(s, d)| {
                        let src = net
                            .router(s)
                            .ok_or_else(|| format!("unknown router '{s}' in flow list"))?;
                        let dst = net
                            .router(d)
                            .ok_or_else(|| format!("unknown router '{d}' in flow list"))?;
                        Ok((src, dst))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let events = g
                    .events
                    .iter()
                    .map(|e| {
                        let from = net
                            .router(&e.from)
                            .ok_or_else(|| format!("unknown router '{}' in event list", e.from))?;
                        let to = net
                            .router(&e.to)
                            .ok_or_else(|| format!("unknown router '{}' in event list", e.to))?;
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
                let mut topo = net.into_topology(&flows, events, g.policy)?;
                fork_lossy_hop_seeds(&mut topo.hops);
                Ok(topo)
            }
        }
    }

    /// Serialize to a JSON value.
    pub fn to_json_value(&self) -> Value {
        match self {
            TopologySpec::FlowHops { hops, paths } => Value::obj(vec![
                (
                    "hops",
                    Value::Arr(hops.iter().map(HopRef::to_json_value).collect()),
                ),
                (
                    "paths",
                    Value::Arr(paths.iter().map(FlowPath::to_json_value).collect()),
                ),
            ]),
            TopologySpec::Graph(g) => g.to_json_value(),
        }
    }

    /// Deserialize a value written by [`TopologySpec::to_json_value`].
    pub fn from_json_value(v: &Value) -> Result<TopologySpec, String> {
        if let Ok(kind) = v.field("kind") {
            return match kind.as_str()? {
                "graph" => Ok(TopologySpec::Graph(GraphSpec::from_json_value(v)?)),
                other => Err(format!("unknown topology kind '{other}'")),
            };
        }
        v.only_keys("topology", &["hops", "paths"])?;
        Ok(TopologySpec::FlowHops {
            hops: v
                .field("hops")?
                .as_arr()?
                .iter()
                .map(HopRef::from_json_value)
                .collect::<Result<Vec<HopRef>, String>>()?,
            paths: v
                .field("paths")?
                .as_arr()?
                .iter()
                .map(FlowPath::from_json_value)
                .collect::<Result<Vec<FlowPath>, String>>()?,
        })
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
            senders: (0..n)
                .map(|_| SenderConfig {
                    rtt,
                    traffic: traffic.clone(),
                })
                .collect(),
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
        if self.senders.is_empty() {
            return Err("workload has no senders".to_string());
        }
        // A sweep may have rewritten `off_mean` since the spec was parsed.
        for s in &self.senders {
            s.traffic.validate()?;
        }
        let (link, queue, topology) = match &self.topology {
            None => {
                queue.validate()?;
                (self.link.resolve()?, queue, None)
            }
            Some(t) => {
                let topo = t.resolve(&queue)?;
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

    fn senders_uniform(&self) -> bool {
        self.senders
            .windows(2)
            .all(|w| w[0].rtt == w[1].rtt && w[0].traffic == w[1].traffic)
    }

    /// Serialize to a JSON value. Identical senders compress to a
    /// `{"n", "rtt_ns", "traffic"}` object; heterogeneous ones (the
    /// RTT-fairness grid, Fig. 6's departing competitor) serialize as an
    /// array. Both forms parse back.
    pub fn to_json_value(&self) -> Value {
        let senders = if !self.senders.is_empty() && self.senders_uniform() {
            Value::obj(vec![
                ("n", json::u64_value(self.senders.len() as u64)),
                ("rtt_ns", json::ns_value(self.senders[0].rtt)),
                ("traffic", self.senders[0].traffic.to_json_value()),
            ])
        } else {
            Value::Arr(
                self.senders
                    .iter()
                    .map(SenderConfig::to_json_value)
                    .collect(),
            )
        };
        let mut fields = vec![
            ("link", self.link.to_json_value()),
            (
                "queue_capacity",
                json::u64_value(self.queue_capacity as u64),
            ),
            ("senders", senders),
            ("record_deliveries", Value::Bool(self.record_deliveries)),
        ];
        // Omitted for the legacy dumbbell so pre-topology golden specs
        // stay byte-identical.
        if let Some(t) = &self.topology {
            fields.push(("topology", t.to_json_value()));
        }
        // Same omission rule: churn-free specs serialize exactly as they
        // did before churn existed.
        if let Some(c) = &self.churn {
            fields.push(("churn", c.to_json_value()));
        }
        Value::obj(fields)
    }

    /// Deserialize a value written by [`WorkloadSpec::to_json_value`].
    pub fn from_json_value(v: &Value) -> Result<WorkloadSpec, String> {
        v.only_keys(
            "workload",
            &[
                "link",
                "queue_capacity",
                "senders",
                "record_deliveries",
                "topology",
                "churn",
            ],
        )?;
        let senders_v = v.field("senders")?;
        let senders = match senders_v {
            Value::Arr(items) => items
                .iter()
                .map(SenderConfig::from_json_value)
                .collect::<Result<Vec<SenderConfig>, String>>()?,
            obj @ Value::Obj(_) => {
                obj.only_keys("uniform senders", &["n", "rtt_ns", "traffic"])?;
                let n = obj.field("n")?.as_usize()?;
                let rtt = json::ns_from(obj.field("rtt_ns")?)?;
                let traffic = TrafficSpec::from_json_value(obj.field("traffic")?)?;
                (0..n)
                    .map(|_| SenderConfig {
                        rtt,
                        traffic: traffic.clone(),
                    })
                    .collect()
            }
            other => {
                return Err(format!(
                    "senders must be an array or a uniform object, found {}",
                    other.pretty()
                ))
            }
        };
        if senders.is_empty() {
            return Err("workload needs at least one sender".to_string());
        }
        let topology = match v.get("topology") {
            None | Some(Value::Null) => None,
            Some(t) => Some(TopologySpec::from_json_value(t)?),
        };
        let churn = match v.get("churn") {
            None | Some(Value::Null) => None,
            Some(c) => Some(ChurnSpec::from_json_value(c)?),
        };
        if churn.is_some() && topology.is_some() {
            return Err("churn is not supported on a topology workload".to_string());
        }
        Ok(WorkloadSpec {
            link: LinkRef::from_json_value(v.field("link")?)?,
            queue_capacity: queue_capacity(v)?,
            senders,
            record_deliveries: v.field("record_deliveries")?.as_bool()?,
            topology,
            churn,
        })
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

    /// Serialize to a JSON value: a plain string when no label override.
    pub fn to_json_value(&self) -> Value {
        match &self.label {
            None => Value::str(self.scheme.clone()),
            Some(l) => Value::obj(vec![
                ("scheme", Value::str(self.scheme.clone())),
                ("label", Value::str(l.clone())),
            ]),
        }
    }

    /// Deserialize a value written by [`ContenderSpec::to_json_value`].
    pub fn from_json_value(v: &Value) -> Result<ContenderSpec, String> {
        match v {
            Value::Str(s) => Ok(ContenderSpec::new(s.clone())),
            obj @ Value::Obj(_) => {
                obj.only_keys("contender", &["scheme", "label"])?;
                Ok(ContenderSpec {
                    scheme: obj.field("scheme")?.as_str()?.to_string(),
                    label: match obj.get("label") {
                        None | Some(Value::Null) => None,
                        Some(l) => Some(l.as_str()?.to_string()),
                    },
                })
            }
            other => Err(format!(
                "contender must be a string or object: {}",
                other.pretty()
            )),
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
    /// Shared propagation RTTs, milliseconds (applied to every sender).
    RttMs(Vec<u64>),
    /// Degrees of multiplexing (senders resized by cloning the first).
    Senders(Vec<usize>),
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
            SweepAxis::RttMs(_) => "rtt_ms",
            SweepAxis::Senders(_) => "n_senders",
            SweepAxis::OffMeanMs(_) => "off_mean_ms",
            SweepAxis::LossRate(_) => "loss_rate",
        }
    }

    /// Number of grid values.
    pub fn len(&self) -> usize {
        match self {
            SweepAxis::LinkMbps(v) => v.len(),
            SweepAxis::RttMs(v) => v.len(),
            SweepAxis::Senders(v) => v.len(),
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
            SweepAxis::RttMs(v) => v[i] as f64,
            SweepAxis::Senders(v) => v[i] as f64,
            SweepAxis::OffMeanMs(v) => v[i] as f64,
            SweepAxis::LossRate(v) => v[i],
        }
    }

    /// Serialize to a JSON value.
    pub fn to_json_value(&self) -> Value {
        let values = match self {
            SweepAxis::LinkMbps(v) | SweepAxis::LossRate(v) => {
                Value::Arr(v.iter().map(|&x| Value::num(x)).collect())
            }
            SweepAxis::RttMs(v) | SweepAxis::OffMeanMs(v) => {
                Value::Arr(v.iter().map(|&x| json::u64_value(x)).collect())
            }
            SweepAxis::Senders(v) => {
                Value::Arr(v.iter().map(|&x| json::u64_value(x as u64)).collect())
            }
        };
        Value::obj(vec![("axis", Value::str(self.key())), ("values", values)])
    }

    /// Deserialize a value written by [`SweepAxis::to_json_value`].
    pub fn from_json_value(v: &Value) -> Result<SweepAxis, String> {
        v.only_keys("sweep axis", &["axis", "values"])?;
        let values = v.field("values")?.as_arr()?;
        let f64s = || -> Result<Vec<f64>, String> { values.iter().map(Value::as_f64).collect() };
        let u64s = || -> Result<Vec<u64>, String> { values.iter().map(Value::as_u64).collect() };
        match v.field("axis")?.as_str()? {
            "link_mbps" => Ok(SweepAxis::LinkMbps(f64s()?)),
            "rtt_ms" => Ok(SweepAxis::RttMs(u64s()?)),
            "n_senders" => Ok(SweepAxis::Senders(
                u64s()?.into_iter().map(|x| x as usize).collect(),
            )),
            "off_mean_ms" => Ok(SweepAxis::OffMeanMs(u64s()?)),
            "loss_rate" => Ok(SweepAxis::LossRate(f64s()?)),
            other => Err(format!("unknown sweep axis '{other}'")),
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

    /// The workload at one sweep point, plus the loss rate to inject (if
    /// the grid has a `loss_rate` axis).
    pub fn workload_at(&self, point: &SweepPoint) -> Result<(WorkloadSpec, Option<f64>), String> {
        let mut wl = self.workload.clone();
        let mut loss = None;
        for (key, value) in &point.coords {
            // Axes that reshape the single bottleneck or the sender count
            // have no meaning on an explicit topology (paths are
            // index-aligned with senders).
            if wl.topology.is_some() && matches!(key.as_str(), "link_mbps" | "n_senders") {
                return Err(format!(
                    "sweep axis '{key}' is not supported on a topology workload"
                ));
            }
            match key.as_str() {
                "link_mbps" => wl.link = LinkRef::constant(*value),
                "rtt_ms" => {
                    let rtt = Ns::from_millis_f64(*value);
                    for s in &mut wl.senders {
                        s.rtt = rtt;
                    }
                }
                "n_senders" => {
                    let n = *value as usize;
                    if n == 0 {
                        return Err("n_senders sweep value must be positive".to_string());
                    }
                    let template = wl
                        .senders
                        .first()
                        .ok_or("workload needs at least one sender to resize")?
                        .clone();
                    wl.senders.resize(n, template);
                }
                "off_mean_ms" => {
                    let off = Ns::from_millis(*value as u64);
                    for s in &mut wl.senders {
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

    /// The scenarios one contender runs at one sweep point: `budget.runs`
    /// fork-derived seeds over the contender's own queue discipline (or
    /// the lossy queue when the point carries a loss rate).
    pub fn scenarios_at(
        &self,
        point_index: usize,
        point: &SweepPoint,
        contender: &Contender,
    ) -> Result<Vec<Scenario>, String> {
        let (wl, loss) = self.workload_at(point)?;
        let point_seed = self.point_seed(point_index);
        (0..self.budget.runs)
            .map(|k| {
                let run_seed = SimRng::split_seed(point_seed, k as u64);
                let queue = match loss {
                    Some(p) => QueueSpec::LossyDropTail {
                        capacity: wl.queue_capacity,
                        drop_probability: p,
                        // An independent stream for the loss process.
                        seed: SimRng::split_seed(run_seed, u64::from(u32::MAX)),
                    },
                    None => contender.queue_spec(wl.queue_capacity),
                };
                wl.scenario(queue, self.budget.duration(), run_seed)
            })
            .collect()
    }

    /// Serialize to a JSON value.
    pub fn to_json_value(&self) -> Value {
        Value::obj(vec![
            ("name", Value::str(self.name.clone())),
            ("title", Value::str(self.title.clone())),
            ("seed", json::u64_value(self.seed)),
            ("budget", self.budget.to_json_value()),
            ("workload", self.workload.to_json_value()),
            (
                "contenders",
                Value::Arr(
                    self.contenders
                        .iter()
                        .map(ContenderSpec::to_json_value)
                        .collect(),
                ),
            ),
            (
                "sweeps",
                Value::Arr(self.sweeps.iter().map(SweepAxis::to_json_value).collect()),
            ),
            (
                "speedup_reference",
                match &self.speedup_reference {
                    Some(l) => Value::str(l.clone()),
                    None => Value::Null,
                },
            ),
        ])
    }

    /// Deserialize a value written by [`ExperimentSpec::to_json_value`].
    /// `sweeps` and `speedup_reference` may be omitted in hand-written
    /// specs.
    pub fn from_json_value(v: &Value) -> Result<ExperimentSpec, String> {
        v.only_keys(
            "experiment spec",
            &[
                "name",
                "title",
                "seed",
                "budget",
                "workload",
                "contenders",
                "sweeps",
                "speedup_reference",
            ],
        )?;
        let sweeps = match v.get("sweeps") {
            None | Some(Value::Null) => Vec::new(),
            Some(s) => s
                .as_arr()?
                .iter()
                .map(SweepAxis::from_json_value)
                .collect::<Result<Vec<SweepAxis>, String>>()?,
        };
        let speedup_reference = match v.get("speedup_reference") {
            None | Some(Value::Null) => None,
            Some(l) => Some(l.as_str()?.to_string()),
        };
        Ok(ExperimentSpec {
            name: v.field("name")?.as_str()?.to_string(),
            title: v.field("title")?.as_str()?.to_string(),
            workload: WorkloadSpec::from_json_value(v.field("workload")?)?,
            contenders: v
                .field("contenders")?
                .as_arr()?
                .iter()
                .map(ContenderSpec::from_json_value)
                .collect::<Result<Vec<ContenderSpec>, String>>()?,
            sweeps,
            budget: Budget::from_json_value(v.field("budget")?)?,
            seed: v.field("seed")?.as_u64()?,
            speedup_reference,
        })
    }

    /// Serialize to pretty-printed JSON text (trailing newline included,
    /// so specs diff cleanly as checked-in files).
    pub fn to_json(&self) -> String {
        let mut s = self.to_json_value().pretty();
        s.push('\n');
        s
    }

    /// Parse a spec from JSON text.
    pub fn from_json(text: &str) -> Result<ExperimentSpec, String> {
        ExperimentSpec::from_json_value(&json::parse(text)?)
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
            SweepAxis::RttMs(vec![50, 150]),
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
        assert!(err.contains("churn"), "{err}");
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
        assert_eq!(err, "workload needs at least one sender");
        let mut wl = fig4ish_spec().workload;
        wl.senders.clear();
        let err = wl.scenario(QueueSpec::Unlimited, Ns::SECOND, 1);
        assert_eq!(err.unwrap_err(), "workload has no senders");
    }

    #[test]
    fn cartesian_expansion_orders_last_axis_fastest() {
        let spec = swept(vec![
            SweepAxis::LinkMbps(vec![10.0, 20.0]),
            SweepAxis::Senders(vec![2, 4, 8]),
        ]);
        let points = spec.points();
        assert_eq!(points.len(), 6);
        assert_eq!(points[0].get("link_mbps"), Some(10.0));
        assert_eq!(points[0].get("n_senders"), Some(2.0));
        assert_eq!(points[1].get("n_senders"), Some(4.0));
        assert_eq!(points[3].get("link_mbps"), Some(20.0));
        assert_eq!(points[5].label(), "link_mbps=20, n_senders=8");
    }

    #[test]
    fn sweep_coordinates_reshape_the_workload() {
        let spec = swept(vec![
            SweepAxis::Senders(vec![12]),
            SweepAxis::RttMs(vec![50]),
            SweepAxis::OffMeanMs(vec![10]),
            SweepAxis::LossRate(vec![0.01]),
        ]);
        let points = spec.points();
        let (wl, loss) = spec.workload_at(&points[0]).unwrap();
        assert_eq!(wl.n(), 12);
        assert!(wl.senders.iter().all(|s| s.rtt == Ns::from_millis(50)));
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

        // A disconnected Waxman draw (alpha = 0 draws no links at all)
        // fails the same way.
        let spec = TopologySpec::Graph(GraphSpec {
            generator: GraphGenerator::Waxman {
                n: 4,
                alpha: 0.0,
                beta: 0.5,
                seed: 7,
                link: LinkRef::constant(10.0),
                queue_capacity: 50,
                prop_delay: Ns::from_millis(1),
            },
            flows: vec![("w0".into(), "w3".into())],
            events: vec![],
            policy: netsim::graph::FailoverPolicy::Reroute,
        });
        let err = spec
            .resolve(&QueueSpec::DropTail { capacity: 100 })
            .unwrap_err();
        assert!(err.contains("'w0'") && err.contains("'w3'"), "{err}");

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
    fn generated_graph_shapes_reject_stray_keys() {
        // The two generators no golden spec uses (the goldens cover every
        // other object of the format, see `tests/experiment_spec.rs`).
        for (kind, own) in [
            ("chain", r#""n_links": 3"#),
            ("waxman", r#""n": 8, "alpha": 0.9, "beta": 0.5, "seed": 7"#),
        ] {
            let parse = |stray: &str| {
                let wire = r#""link": {"kind": "constant", "rate_mbps": 10}, "queue_capacity": 9"#;
                let text =
                    format!(r#"{{"kind": "{kind}", {own}, {wire}, "prop_delay_ns": 5{stray}}}"#);
                GraphGenerator::from_json_value(&json::parse(&text).expect("JSON"))
            };
            assert_eq!(parse("").expect("parses").name(), kind);
            let err = parse(r#", "zz": 1"#).unwrap_err();
            assert_eq!(err, "unknown key 'zz' in graph generator");
        }
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
        assert!(err.contains("queue_capacity"), "{err}");
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
        assert!(err.contains("queue_capacity"), "{err}");
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
        for axis in [SweepAxis::LinkMbps(vec![5.0]), SweepAxis::Senders(vec![4])] {
            spec.sweeps = vec![axis];
            let err = spec.workload_at(&spec.points()[0]).unwrap_err();
            assert!(err.contains("not supported"), "{err}");
        }
        // Per-sender axes remain legal.
        spec.sweeps = vec![SweepAxis::RttMs(vec![50])];
        let (wl, _) = spec.workload_at(&spec.points()[0]).expect("rtt sweep ok");
        assert!(wl.senders.iter().all(|s| s.rtt == Ns::from_millis(50)));
    }
}
