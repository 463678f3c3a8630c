//! The discrete-event simulation engine.
//!
//! One [`Simulator`] runs one scenario, and every scenario is a list of
//! hops plus one [`crate::topology::FlowPath`] per sender. Each packet
//! walks its flow's path hop by hop (queue → link service → propagation
//! to the next hop), then reaches its receiver after the flow's forward
//! propagation delay; receivers acknowledge every packet, and ACKs return
//! after the reverse propagation delay — uncongested, unless the path
//! declares ACK hops, which queue them too. Parking-lot chains, incast
//! fan-in, reverse-path congestion and routed graphs all run through this
//! one event loop.
//!
//! The paper's dumbbell is the 1-hop topology: `n` senders forward
//! through one queue and link, ACKs ride the pure-delay return path. A
//! scenario that names no topology is built as exactly that
//! ([`crate::topology::Topology::single_bottleneck`] over its `link` and
//! `queue`), so there is one construction path and one event order.
//!
//! ## Hot-path layout
//!
//! The engine allocates nothing per packet on the steady-state path:
//! packets live in a [`PacketArena`] slab and flow through queues and
//! events as 8-byte generational [`PacketId`] handles (a delivered data
//! packet's slot is even reused in place for its returning ACK). Pending
//! events go through a [`crate::sched::EventQueue`] — a hierarchical
//! timing wheel with FIFO lanes by default, the original binary heap on
//! request. A packet's own events (`LinkReady`, `HopArrive`, `Deliver`,
//! `AckArrive`) fire a per-hop or per-flow constant delay after they are
//! scheduled, so `Simulator::schedule` hands them to the lanes keyed by
//! that delay, where they stay sorted without being filed into the wheel.
//! Over 10 alternating runs on a shared 2-vCPU box this took the
//! benchmark's `fig4_dumbbell` median wall time from 3.56 s to 2.92 s
//! (CHANGES.md has every workload's rows). `Pacer` rides the lanes too: a
//! pacer is armed right after a send, so its delay is the pacing gap of
//! the rule the last ACK hit, and a RemyCC schedules 0.95 per forwarded
//! packet (`fig4_dumbbell`'s Remy cells). Counting every pacer push of
//! the benchmark's workloads found no lane fallback on `fig4_dumbbell`,
//! `train_step` and `fattree_flap` (257 160 pushes per pass), and 3 of
//! 318 731 per pass on `churn_100k`'s Remy cell; a fallback costs a
//! wheel push, never order. Timers with varying delays (`Rto`, `Toggle`,
//! `Spawn`, `TraceSlot`, `RouterTick`, `LinkEvent`) stay in the wheel.
//! Per-hop transmit durations for the two wire sizes (MSS data, 40-byte
//! ACKs) are precomputed at construction instead of being re-derived
//! from the link rate per packet. Both schedulers obey
//! one ordering contract (time, then insertion id), so results are
//! bit-for-bit identical under either; the equivalence suite in `tests/`
//! pins this.
//!
//! The engine is strictly deterministic: all randomness flows from the
//! scenario seed, and simultaneous events tie-break on insertion order.

use crate::cc::CongestionControl;
use crate::flow::{FlowCold, FlowHot, FlowId, FlowTable, Receiver};
use crate::link::LinkSpec;
use crate::metrics::{DeliveryRecord, FlowMetrics, PopulationSummary, SimResults};
use crate::packet::{Ack, Packet, PacketArena, PacketId, ACK_BYTES};
use crate::queue::{Enqueue, Queue};
use crate::rng::SimRng;
use crate::router::RouterHook;
use crate::scenario::{ChurnSpec, Scenario};
use crate::sched::{EventQueue, SchedulerKind};
use crate::stats::{Reservoir, StreamingSummary};
use crate::time::{service_time, Ns};
use crate::topology::Topology;
use crate::traffic::TrafficProcess;
use crate::transport::{SendPoll, Transport};
use std::borrow::Cow;
use std::sync::Arc;

/// Events the engine processes. Packet-carrying events hold arena handles,
/// not packets, and flow-timer events hold generational [`FlowId`]s, so
/// every variant stays pointer-sized and a timer that outlives its flow
/// resolves to "stale" instead of firing on the slot's next occupant.
enum Ev {
    /// A traffic-process timer (off→on or timed on→off) for a flow.
    Toggle(FlowId),
    /// A pacing timer expired for a flow.
    Pacer(FlowId),
    /// A hop's constant-rate link finished serving a packet.
    LinkReady(usize),
    /// A trace-driven delivery opportunity at a hop.
    TraceSlot(usize),
    /// A packet propagates to the next hop on its path (`path_pos`
    /// already advanced).
    HopArrive(PacketId),
    /// A packet reaches its receiver.
    Deliver(PacketId),
    /// An ACK (riding in its packet's recycled slot) reaches its sender.
    AckArrive(PacketId),
    /// The flow's retransmission timer. Lazily managed: at most one
    /// tracked event per flow; a fire before the live deadline re-arms
    /// itself instead of the engine scheduling one event per re-arm.
    Rto(FlowId),
    /// Periodic router control computation (XCP) at a hop.
    RouterTick(usize),
    /// The next Poisson flow arrival (churn scenarios only).
    Spawn,
    /// A scheduled link failure or recovery (index into the topology
    /// graph's event list). Graph topologies only.
    LinkEvent(usize),
}

/// Capacity of the flow-completion-time reservoir kept for churn runs:
/// enough for stable tail quantiles, fixed regardless of population size.
const FCT_RESERVOIR_CAP: usize = 4096;

/// Hard cap on the opt-in per-delivery log. Under 100k-flow churn an
/// uncapped log would dominate memory; past the cap the engine counts
/// drops ([`SimResults::deliveries_dropped`]) instead of growing.
const DELIVERY_LOG_CAP: usize = 1 << 20;

/// Builds a congestion controller for the `k`-th arriving churn flow
/// (1-based arrival sequence number). See [`Simulator::with_churn_cc`].
pub type ChurnCcFactory = Box<dyn Fn(u64) -> Box<dyn CongestionControl>>;

/// Engine-side state of a churn scenario's arrival process and streaming
/// population statistics.
struct ChurnState {
    spec: ChurnSpec,
    /// Arrival gaps and flow sizes (one stream keeps the draw sequence
    /// independent of completion order).
    arrivals: SimRng,
    /// Drives reservoir replacement decisions.
    reservoir_rng: SimRng,
    /// Builds a congestion controller for the `k`-th arriving flow when no
    /// freed slot is available to respawn into.
    factory: Option<ChurnCcFactory>,
    spawned: u64,
    completed: u64,
    fct_secs: StreamingSummary,
    flow_bytes: StreamingSummary,
    fct_reservoir: Reservoir,
}

/// Runtime state of one hop: the queue feeding a link, plus an optional
/// router hook running at that hop.
struct Hop {
    queue: Box<dyn Queue>,
    link: LinkSpec,
    busy: bool,
    router: Option<Box<dyn RouterHook>>,
    /// Propagation toward the next hop on a path.
    prop_delay_out: Ns,
    /// Precomputed transmit duration of an MSS-sized data packet on a
    /// constant-rate link (unused for trace links).
    svc_data: Ns,
    /// Precomputed transmit duration of a 40-byte ACK packet.
    svc_ack: Ns,
    /// Sequential-query cache for trace-driven links.
    trace_cursor: crate::link::TraceCursor,
    /// The link is administratively down (graph topologies with scheduled
    /// [`crate::graph::LinkEvent`]s). A down link refuses new service;
    /// its queue either drains by policy at failure time or waits for
    /// recovery.
    down: bool,
}

impl Hop {
    fn new(
        link: LinkSpec,
        queue: Box<dyn Queue>,
        router: Option<Box<dyn RouterHook>>,
        prop_delay_out: Ns,
        mss: u32,
    ) -> Hop {
        let (svc_data, svc_ack) = match &link {
            LinkSpec::Constant { rate_mbps } => (
                service_time(mss, *rate_mbps),
                service_time(ACK_BYTES, *rate_mbps),
            ),
            LinkSpec::Trace { .. } => (Ns::ZERO, Ns::ZERO),
        };
        Hop {
            queue,
            link,
            busy: false,
            router,
            prop_delay_out,
            svc_data,
            svc_ack,
            trace_cursor: crate::link::TraceCursor::default(),
            down: false,
        }
    }
}

/// Engine-side state of a graph topology's failure dynamics: the routing
/// epoch packets are stamped with and the failover counters surfaced in
/// [`SimResults`]. Which links are down is [`Hop::down`] (link = hop).
struct NetState {
    graph: Arc<crate::graph::NetGraph>,
    /// The routers flows start or end at: the only destinations a link
    /// event recomputes tables toward.
    dests: Vec<u32>,
    /// Bumped on every link event; packets stamped with an older epoch
    /// re-resolve their route at the router they currently occupy.
    epoch: u32,
    link_events: u64,
    failover_drops: u64,
    reroutes: u64,
}

/// The network simulator (dumbbell by default, multi-hop with a
/// [`crate::topology::Topology`]).
///
/// Per-flow state lives in a struct-of-arrays [`FlowTable`]: the
/// scenario's persistent senders occupy slots `0..n` for the whole run,
/// and churn scenarios spawn/tear down dynamic flows in the slots above —
/// allocation-free in steady state, since teardown recycles slots (and
/// their cold state's heap blocks) for the next arrival.
pub struct Simulator {
    now: Ns,
    end: Ns,
    events: EventQueue<Ev>,
    arena: PacketArena,
    hops: Vec<Hop>,
    flows: FlowTable,
    /// Scenario senders (slots `0..n_persistent`, never torn down).
    n_persistent: usize,
    churn: Option<ChurnState>,
    /// Graph-topology failure dynamics (None for hand-listed topologies
    /// and the dumbbell — zero overhead on those paths).
    net: Option<NetState>,
    mss: u32,
    packets_forwarded: u64,
    deliveries: Vec<DeliveryRecord>,
    deliveries_dropped: u64,
    record_deliveries: bool,
}

impl Simulator {
    /// Build a simulator: one congestion-control instance per sender
    /// (must match `scenario.n()`), plus an optional router hook (XCP)
    /// attached to hop 0 — the dumbbell's bottleneck. The event scheduler
    /// is the timing wheel.
    pub fn new(
        scenario: &Scenario,
        ccs: Vec<Box<dyn CongestionControl>>,
        router: Option<Box<dyn RouterHook>>,
    ) -> Simulator {
        Simulator::with_scheduler(scenario, ccs, router, SchedulerKind::Wheel)
    }

    /// [`Simulator::new`] with an explicit event scheduler. (The
    /// equivalence suite runs every scenario under both scheduler kinds
    /// and asserts bit-for-bit identical results.)
    pub fn with_scheduler(
        scenario: &Scenario,
        ccs: Vec<Box<dyn CongestionControl>>,
        mut router: Option<Box<dyn RouterHook>>,
        scheduler: SchedulerKind,
    ) -> Simulator {
        let n = scenario.n();
        assert_eq!(
            ccs.len(),
            n,
            "need exactly one congestion controller per sender"
        );
        // Resolve the world once: the explicit topology, or the dumbbell
        // as the 1-hop topology over the scenario's link and queue.
        let dumbbell =
            || Topology::single_bottleneck(scenario.link.clone(), scenario.queue.clone(), n);
        let world = scenario
            .topology
            .as_ref()
            .map_or_else(|| Cow::Owned(dumbbell()), Cow::Borrowed);
        // lint:allow(p1-sim-unwrap): construction-time validation — a
        // malformed scenario must abort setup before any event runs.
        world.validate(n).expect("topology matches scenario");
        let mut root = SimRng::new(scenario.seed);
        let mut flows = FlowTable::with_capacity(n);
        for (i, (cfg, cc)) in scenario.senders.iter().zip(ccs).enumerate() {
            let traffic_ok = cfg.traffic.validate();
            assert!(traffic_ok.is_ok(), "sender {i}: {traffic_ok:?}");
            let path = &world.paths[i];
            let rng = root.fork(i as u64 + 1);
            let half = Ns(cfg.rtt.0 / 2);
            let hot = FlowHot {
                fwd_delay: half,
                back_delay: cfg.rtt - half,
                entry_hop: path.fwd[0] as u32,
                fwd_len: path.fwd.len() as u32,
                ack_len: path.ack.len() as u32,
                ..FlowHot::default()
            };
            flows.insert(
                hot,
                FlowCold {
                    transport: Transport::new(cc),
                    traffic: TrafficProcess::new(cfg.traffic.clone(), scenario.mss, rng),
                    receiver: Receiver::default(),
                    metrics: FlowMetrics::default(),
                    fwd_hops: path.fwd.clone(),
                    ack_hops: path.ack.clone(),
                },
            );
        }
        // Churn streams fork *after* every per-sender stream, and only
        // when churn is configured — churn-free scenarios draw exactly
        // the same sequences they always did.
        let churn = scenario.churn.as_ref().map(|spec| {
            // lint:allow(p1-sim-unwrap): construction-time validation — a
            // malformed churn spec must abort setup before any event runs.
            spec.validate().expect("valid churn spec");
            // An arrival has no path description (`on_spawn` enters every
            // churn flow at hop 0), so churn runs on the dumbbell only.
            assert!(
                scenario.topology.is_none(),
                "churn is not supported on a topology scenario"
            );
            ChurnState {
                spec: spec.clone(),
                arrivals: root.fork(n as u64 + 1),
                reservoir_rng: root.fork(n as u64 + 2),
                factory: None,
                spawned: 0,
                completed: 0,
                fct_secs: StreamingSummary::new(),
                flow_bytes: StreamingSummary::new(),
                fct_reservoir: Reservoir::new(FCT_RESERVOIR_CAP),
            }
        });
        // The first hop takes the router hook; the rest get none.
        let hops: Vec<Hop> = world
            .hops
            .iter()
            .map(|h| {
                Hop::new(
                    h.link.clone(),
                    h.queue.build(),
                    router.take(),
                    h.prop_delay_out,
                    scenario.mss,
                )
            })
            .collect();
        let net = world.graph.as_ref().map(|g| NetState {
            epoch: 0,
            link_events: 0,
            failover_drops: 0,
            reroutes: 0,
            dests: g.flow_endpoints(),
            graph: Arc::clone(g),
        });
        let n_persistent = flows.live();
        let mut sim = Simulator {
            now: Ns::ZERO,
            end: scenario.duration,
            events: EventQueue::new(scheduler),
            arena: PacketArena::with_capacity(256),
            hops,
            flows,
            n_persistent,
            churn,
            net,
            mss: scenario.mss,
            packets_forwarded: 0,
            deliveries: Vec::new(),
            deliveries_dropped: 0,
            record_deliveries: scenario.record_deliveries,
        };
        // Seed initial events: each flow's first traffic toggle…
        for i in 0..sim.n_persistent {
            if let Some(at) = sim.flows.cold(i).traffic.next_wakeup() {
                let id = sim.flows.id_at(i);
                sim.schedule(at, Ev::Toggle(id));
            }
        }
        // …the first trace slot of every trace-driven hop…
        for h in 0..sim.hops.len() {
            let hop = &mut sim.hops[h];
            if let LinkSpec::Trace { schedule, .. } = &hop.link {
                let first = schedule.next_after_cached(&mut hop.trace_cursor, Ns::ZERO);
                sim.schedule(first, Ev::TraceSlot(h));
            }
        }
        // …and each hop router's control clock.
        for h in 0..sim.hops.len() {
            if let Some(r) = &sim.hops[h].router {
                if let Some(period) = r.tick_interval() {
                    sim.schedule(period, Ev::RouterTick(h));
                }
            }
        }
        // …and, for churn scenarios, the first Poisson arrival…
        if let Some(c) = sim.churn.as_mut() {
            let gap = c.arrivals.exponential(1.0 / c.spec.arrivals_per_sec);
            let at = Ns::from_secs_f64(gap);
            sim.schedule(at, Ev::Spawn);
        }
        // …and every scheduled link failure/recovery of a graph topology.
        if let Some(net) = &sim.net {
            let schedule: Vec<(Ns, usize)> = net
                .graph
                .events
                .iter()
                .enumerate()
                .map(|(idx, ev)| (ev.at, idx))
                .collect();
            for (at, idx) in schedule {
                sim.schedule(at, Ev::LinkEvent(idx));
            }
        }
        sim
    }

    /// Builder-style: attach the congestion-control factory churn flows
    /// are built with (`k` is the arrival's 1-based sequence number).
    /// Required before running a scenario whose `churn` is `Some`; the
    /// factory is only invoked when the live churn population outgrows
    /// every previously freed slot — steady-state arrivals reuse the CC
    /// box already sitting in a recycled slot.
    pub fn with_churn_cc(mut self, factory: ChurnCcFactory) -> Simulator {
        let churn = self
            .churn
            .as_mut()
            // lint:allow(p1-sim-unwrap): builder-time misuse — calling this
            // on a churn-less scenario is a setup bug, caught before run().
            .expect("with_churn_cc needs a scenario with churn");
        churn.factory = Some(factory);
        self
    }

    /// Queue `ev` at `at`. Link completions, hop arrivals, deliveries and
    /// ACK arrivals are "now + a per-hop or per-flow constant", and a pacer
    /// is armed right after a send, so its delay is the current rule's
    /// pacing gap; they all ride the scheduler's FIFO lanes, keyed by that
    /// delay.
    fn schedule(&mut self, at: Ns, ev: Ev) {
        match ev {
            Ev::LinkReady(_)
            | Ev::HopArrive(_)
            | Ev::Deliver(_)
            | Ev::AckArrive(_)
            | Ev::Pacer(_) => self.events.push_lane((at - self.now).0, at, ev),
            _ => self.events.push(at, ev),
        }
    }

    /// The event scheduler this simulator runs on.
    pub fn scheduler(&self) -> SchedulerKind {
        self.events.kind()
    }

    /// Run to completion and summarize.
    pub fn run(mut self) -> SimResults {
        self.drive();
        self.finish().0
    }

    /// Run to completion, returning results *and* the congestion-control
    /// objects (Remy's evaluator downcasts them to read its recording
    /// RemyCCs' rule usage).
    pub fn run_returning_ccs(mut self) -> (SimResults, Vec<Box<dyn CongestionControl>>) {
        self.drive();
        self.finish()
    }

    fn drive(&mut self) {
        if let Some(c) = &self.churn {
            assert!(
                c.factory.is_some(),
                "churn scenario needs Simulator::with_churn_cc"
            );
        }
        while let Some((at, _id, ev)) = self.events.pop() {
            if at > self.end {
                break;
            }
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            match ev {
                Ev::Toggle(f) => self.on_toggle(f),
                Ev::Pacer(f) => {
                    let Some(i) = self.flows.index_of(f) else {
                        continue; // the flow tore down before its pacer fired
                    };
                    self.flows.hot_mut(i).pacer_scheduled = None;
                    self.try_send(i);
                }
                Ev::LinkReady(h) => {
                    self.hops[h].busy = false;
                    self.start_service_if_possible(h);
                }
                Ev::TraceSlot(h) => self.on_trace_slot(h),
                Ev::HopArrive(p) => self.on_hop_arrive(p),
                Ev::Deliver(p) => self.on_deliver(p),
                Ev::AckArrive(p) => self.on_ack_arrive(p),
                Ev::Rto(f) => self.on_rto(f),
                Ev::RouterTick(h) => self.on_router_tick(h),
                Ev::Spawn => self.on_spawn(),
                Ev::LinkEvent(idx) => self.on_link_event(idx),
            }
        }
        self.now = self.end;
        // Close any open on-intervals at the simulation horizon.
        let end = self.end;
        let live: Vec<usize> = self.flows.live_indices().collect();
        for i in live {
            let cold = self.flows.cold_mut(i);
            if cold.traffic.is_on() {
                cold.metrics.end_interval(end);
            }
        }
        #[cfg(feature = "strict-invariants")]
        assert!(
            self.flows.audit_accounting(),
            "strict-invariants: flow table live/free accounting diverged at the horizon"
        );
    }

    fn finish(self) -> (SimResults, Vec<Box<dyn CongestionControl>>) {
        let end = self.end;
        let n = self.n_persistent;
        let queue_drops = self.hops.iter().map(|h| h.queue.drops()).sum();
        let live_at_end = (self.flows.live() - n) as u64;
        let population = self.churn.map(|c| PopulationSummary {
            spawned: c.spawned,
            completed: c.completed,
            live_at_end,
            fct_secs: c.fct_secs,
            flow_bytes: c.flow_bytes,
            fct_sample_secs: c.fct_reservoir.samples().to_vec(),
        });
        let (link_events, failover_drops, reroutes) = self
            .net
            .as_ref()
            .map_or((0, 0, 0), |n| (n.link_events, n.failover_drops, n.reroutes));
        // Only the persistent senders get positional per-flow summaries;
        // churn flows streamed into `population` as they completed.
        let mut flows = Vec::with_capacity(n);
        let mut ccs = Vec::with_capacity(n);
        for f in self.flows.into_cold().into_iter().take(n) {
            flows.push(f.metrics.summarize(end));
            ccs.push(f.transport.into_cc());
        }
        (
            SimResults {
                flows,
                queue_drops,
                packets_forwarded: self.packets_forwarded,
                duration: end,
                deliveries: self.deliveries,
                deliveries_dropped: self.deliveries_dropped,
                population,
                link_events,
                failover_drops,
                reroutes,
            },
            ccs,
        )
    }

    // --- event handlers -------------------------------------------------

    fn on_toggle(&mut self, f: FlowId) {
        let Some(i) = self.flows.index_of(f) else {
            return; // the flow tore down before its timer fired
        };
        let now = self.now;
        let traffic = &mut self.flows.cold_mut(i).traffic;
        let was_on = traffic.is_on();
        let changed = traffic.on_wakeup(now);
        if changed {
            let cold = self.flows.cold_mut(i);
            let is_on = cold.traffic.is_on();
            if is_on && !was_on {
                // New connection begins.
                cold.transport.start_connection(now);
                cold.metrics.start_interval(now);
                self.cover_rto_deadline(i);
                self.try_send(i);
            } else if !is_on && was_on {
                // Timed on-period expired.
                cold.metrics.end_interval(now);
            }
        }
        // Chain the next timer for this flow, if any.
        if let Some(at) = self.flows.cold(i).traffic.next_wakeup() {
            if at >= now {
                self.schedule(at, Ev::Toggle(f));
            }
        }
    }

    fn try_send(&mut self, i: usize) {
        let f = self.flows.id_at(i);
        loop {
            let now = self.now;
            let cold = self.flows.cold_mut(i);
            let may_new = cold.traffic.may_send_new(now);
            match cold.transport.poll_send(now, may_new) {
                SendPoll::Send { seq, retransmit } => {
                    let mut p = Packet::data(f, seq, self.mss, now);
                    {
                        let cc = cold.transport.cc();
                        p.ecn_capable = cc.ecn_capable();
                        p.xcp = cc.xcp_header();
                    }
                    let entry_hop = self.flows.hot(i).entry_hop as usize;
                    let id = self.arena.alloc(p);
                    if let Some(net) = &self.net {
                        self.arena[id].route_epoch = net.epoch;
                    }
                    let admitted = {
                        let hop = &mut self.hops[entry_hop];
                        let queue_pkts = hop.queue.len();
                        if let Some(r) = hop.router.as_mut() {
                            r.on_arrival(now, &mut self.arena[id], queue_pkts);
                        }
                        hop.queue.enqueue(now, id, &mut self.arena) == Enqueue::Queued
                    };
                    let cold = self.flows.cold_mut(i);
                    cold.transport.on_sent(now, seq, retransmit);
                    if !retransmit {
                        cold.traffic.consume_packet();
                    }
                    self.cover_rto_deadline(i);
                    if admitted {
                        self.start_service_if_possible(entry_hop);
                    }
                }
                SendPoll::Paced { until } => {
                    let hot = self.flows.hot_mut(i);
                    let need = match hot.pacer_scheduled {
                        Some(at) => at > until,
                        None => true,
                    };
                    if need {
                        hot.pacer_scheduled = Some(until);
                        self.schedule(until, Ev::Pacer(f));
                    }
                    break;
                }
                SendPoll::Idle => break,
            }
        }
    }

    /// The precomputed transmit duration of the packet behind `id` on hop
    /// `h`'s constant-rate link (data and ACK sizes are cached; any other
    /// size falls back to the exact same arithmetic).
    fn service_for(&self, h: usize, size: u32) -> Ns {
        let hop = &self.hops[h];
        if size == self.mss {
            hop.svc_data
        } else if size == ACK_BYTES {
            hop.svc_ack
        } else if let LinkSpec::Constant { rate_mbps } = hop.link {
            service_time(size, rate_mbps)
        } else {
            Ns::ZERO
        }
    }

    /// For constant-rate links: begin serving hop `h`'s head packet if its
    /// link is idle. Trace links ignore this (deliveries happen on trace
    /// slots).
    fn start_service_if_possible(&mut self, h: usize) {
        let LinkSpec::Constant { .. } = self.hops[h].link else {
            return;
        };
        if self.hops[h].busy || self.hops[h].down {
            return;
        }
        let now = self.now;
        let Some(id) = self.hops[h].queue.dequeue(now, &mut self.arena) else {
            return;
        };
        self.hops[h].busy = true;
        let service = self.service_for(h, self.arena[id].size);
        self.account_departure(h, id, now);
        self.schedule(now + service, Ev::LinkReady(h));
        self.forward(h, id, now + service);
    }

    fn on_trace_slot(&mut self, h: usize) {
        let now = self.now;
        // Chain the next opportunity first. Queries here are sequential
        // (each slot asks for the one after itself), so the cursor makes
        // this O(1) instead of a binary search over the whole trace.
        let hop = &mut self.hops[h];
        if let LinkSpec::Trace { schedule, .. } = &hop.link {
            let next = schedule.next_after_cached(&mut hop.trace_cursor, now);
            self.schedule(next, Ev::TraceSlot(h));
        }
        if self.hops[h].down {
            return; // a down trace link still chains slots, delivers nothing
        }
        let Some(id) = self.hops[h].queue.dequeue(now, &mut self.arena) else {
            return;
        };
        self.account_departure(h, id, now);
        self.forward(h, id, now);
    }

    /// Shared metrics/router bookkeeping when a packet leaves a hop's
    /// queue: accumulate its queueing wait (data packets record the
    /// end-to-end sum once, at the final hop of their forward path — on
    /// the dumbbell that is the only hop, so the sample is exactly
    /// the bottleneck wait), run the router's departure hook, and count
    /// it as forwarded when it is data completing its queue path. ACKs on
    /// a queued return path are not data: their waits surface in the RTT
    /// the sender measures, not in the flow's queueing-delay metric.
    fn account_departure(&mut self, h: usize, id: PacketId, now: Ns) {
        let (flow, is_data, path_pos, queue_wait) = {
            let p = &mut self.arena[id];
            let wait = now.saturating_sub(p.enqueued_at);
            p.queue_wait += wait;
            (p.flow, p.ack.is_none(), p.path_pos, p.queue_wait)
        };
        // A packet whose flow tore down mid-flight (churn) still occupies
        // the queue and must run the router hook, but credits no metrics.
        if is_data {
            if let Some(fi) = self.flows.index_of(flow) {
                if path_pos + 1 == self.flows.hot(fi).fwd_len as usize {
                    self.flows
                        .cold_mut(fi)
                        .metrics
                        .record_queue_delay(queue_wait);
                    self.packets_forwarded += 1;
                }
            }
        }
        let hop = &mut self.hops[h];
        let queue_pkts = hop.queue.len();
        if let Some(r) = hop.router.as_mut() {
            r.on_departure(now, &mut self.arena[id], queue_pkts);
        }
    }

    /// Route a packet leaving hop `h` at time `depart`: to the next hop on
    /// its path, or — past the final hop — to its receiver (data) or
    /// sender (ACK) after the flow's propagation delay. On a graph
    /// topology, a packet stamped with a stale routing epoch (its flow's
    /// path was rewritten while it was on the wire) re-resolves at the
    /// router it is arriving at instead of blindly walking the old path.
    fn forward(&mut self, h: usize, id: PacketId, depart: Ns) {
        let (flow, is_ack, path_pos) = {
            let p = &self.arena[id];
            (p.flow, p.ack.is_some(), p.path_pos)
        };
        let Some(fi) = self.flows.index_of(flow) else {
            // Connection closed while the packet was in flight: drop it.
            self.arena.free(id);
            return;
        };
        if let Some(net) = &self.net {
            if self.arena[id].route_epoch != net.epoch {
                // The packet has already been launched across hop `h`'s
                // wire: it lands at `h`'s downstream router, then rejoins
                // its flow's *current* path from there.
                let r = net.graph.links[h].dst;
                let prop_out = self.hops[h].prop_delay_out;
                self.reroute_at(id, fi, is_ack, r, depart, prop_out);
                return;
            }
        }
        let hot = self.flows.hot(fi);
        let path_len = if is_ack {
            hot.ack_len as usize
        } else {
            hot.fwd_len as usize
        };
        if path_pos + 1 < path_len {
            let next = {
                let cold = self.flows.cold(fi);
                let pos = path_pos + 1;
                if is_ack {
                    cold.ack_hops[pos]
                } else {
                    cold.fwd_hops[pos]
                }
            };
            {
                let p = &mut self.arena[id];
                p.path_pos += 1;
                p.next_hop = next as u32;
            }
            let at = depart + self.hops[h].prop_delay_out;
            self.schedule(at, Ev::HopArrive(id));
        } else if is_ack {
            let at = depart + hot.back_delay;
            self.schedule(at, Ev::AckArrive(id));
        } else {
            let at = depart + hot.fwd_delay;
            self.schedule(at, Ev::Deliver(id));
        }
    }

    /// A packet arrives at the hop stamped into it at forward time: run
    /// the hop's router hook, enqueue, and start service if the link is
    /// idle. The hop index was resolved when the packet departed the
    /// previous hop, so a path rewrite mid-propagation cannot retarget a
    /// packet already on the wire (it re-resolves at its next router
    /// instead, via the epoch check in [`Simulator::forward`]).
    fn on_hop_arrive(&mut self, id: PacketId) {
        let flow = self.arena[id].flow;
        if self.flows.index_of(flow).is_none() {
            self.arena.free(id);
            return;
        }
        let h = self.arena[id].next_hop as usize;
        self.admit(h, id);
    }

    fn admit(&mut self, h: usize, id: PacketId) {
        if self.hops[h].down {
            // The packet arrived at a failed link: re-resolve from the
            // link's source router under the failover policy.
            let (flow, is_ack) = {
                let p = &self.arena[id];
                (p.flow, p.ack.is_some())
            };
            let Some(fi) = self.flows.index_of(flow) else {
                self.arena.free(id);
                return;
            };
            let Some(net) = &self.net else {
                // A hop can only be down with a graph topology; tolerate
                // by dropping the packet.
                debug_assert!(false, "down hop without graph state");
                self.arena.free(id);
                return;
            };
            let r = net.graph.links[h].src;
            let now = self.now;
            self.reroute_at(id, fi, is_ack, r, now, Ns::ZERO);
            return;
        }
        let now = self.now;
        let admitted = {
            let hop = &mut self.hops[h];
            let queue_pkts = hop.queue.len();
            if let Some(r) = hop.router.as_mut() {
                r.on_arrival(now, &mut self.arena[id], queue_pkts);
            }
            hop.queue.enqueue(now, id, &mut self.arena) == Enqueue::Queued
        };
        if admitted {
            self.start_service_if_possible(h);
        }
    }

    /// Re-join packet `id` (of flow `fi`) to its flow's current path from
    /// router `r`: if `r` is the packet's terminal router it completes
    /// (delivery or ACK arrival) after the flow's edge delay; if the
    /// current path passes through `r` on an alive link, the
    /// packet adopts that position and the current epoch; otherwise it is
    /// stranded (no alive on-path link leaves `r`) and is dropped — the
    /// transport recovers by RTO exactly as it does from a queue drop.
    fn reroute_at(
        &mut self,
        id: PacketId,
        fi: usize,
        is_ack: bool,
        r: u32,
        depart: Ns,
        prop_out: Ns,
    ) {
        let Some(net) = &self.net else {
            debug_assert!(false, "reroute without graph state");
            self.arena.free(id);
            return;
        };
        let hot = self.flows.hot(fi);
        let cold = self.flows.cold(fi);
        // Terminal router of this packet's direction of travel (churn
        // flows never run on graph topologies, so a missing pair just
        // strands the packet below).
        let terminal = match net.graph.flows.get(fi).copied() {
            Some((s, d)) => {
                if is_ack {
                    s
                } else {
                    d
                }
            }
            None => u32::MAX,
        };
        if r == terminal {
            // Mirror normal final-hop semantics: the flow's edge delay
            // substitutes for the last wire's propagation.
            if is_ack {
                let at = depart + hot.back_delay;
                self.schedule(at, Ev::AckArrive(id));
            } else {
                let at = depart + hot.fwd_delay;
                self.schedule(at, Ev::Deliver(id));
            }
            return;
        }
        let path = if is_ack {
            &cold.ack_hops
        } else {
            &cold.fwd_hops
        };
        let rejoin = path
            .iter()
            .position(|&l| net.graph.links[l].src == r && !self.hops[l].down);
        match rejoin {
            Some(j) => {
                let epoch = net.epoch;
                let next = path[j];
                let p = &mut self.arena[id];
                p.path_pos = j;
                p.route_epoch = epoch;
                p.next_hop = next as u32;
                let at = depart + prop_out;
                self.schedule(at, Ev::HopArrive(id));
            }
            None => {
                // Stranded: no alive on-path link leaves this router.
                self.arena.free(id);
                if let Some(net) = self.net.as_mut() {
                    net.failover_drops += 1;
                }
            }
        }
    }

    /// A scheduled link failure or recovery fires: flip the link's state,
    /// bump the routing epoch, recompute the forwarding tables toward the
    /// flows' endpoints only (not every router) over the surviving graph,
    /// re-read every flow's shortest path from them, and reroute the
    /// failed link's queued packets
    /// (a packet with no surviving route drops). Flows that become unreachable
    /// keep their old paths (their packets strand at the failure and drop;
    /// the transport backs off by RTO until recovery).
    fn on_link_event(&mut self, idx: usize) {
        let now = self.now;
        let Some(net) = self.net.as_mut() else {
            debug_assert!(false, "link event without graph state");
            return;
        };
        let ev = net.graph.events[idx];
        let h = ev.link as usize;
        net.link_events += 1;
        net.epoch = net.epoch.wrapping_add(1);
        self.hops[h].down = !ev.up;
        // Recompute all routes over the surviving topology, then apply:
        // the borrow of `net` must end before we touch flows.
        let down: Vec<bool> = self.hops.iter().map(|hop| hop.down).collect();
        let tables = net.graph.forwarding_to(&net.dests, &down);
        let src = net.graph.links[h].src;
        let mut new_paths: Vec<(usize, Vec<usize>, Vec<usize>)> = Vec::new();
        for fi in 0..net.graph.flows.len() {
            let (s, d) = net.graph.flows[fi];
            let fwd = net.graph.route_via(&tables, s, d);
            let ack = net.graph.route_via(&tables, d, s);
            if let (Ok(fwd), Ok(ack)) = (fwd, ack) {
                new_paths.push((fi, fwd, ack));
            }
            // Unreachable flows keep their old paths: their packets
            // strand at the failed link and the transport waits out the
            // outage on its RTO clock.
        }
        for (fi, fwd, ack) in new_paths {
            if fi >= self.n_persistent {
                continue;
            }
            let (hot, cold) = self.flows.pair_mut(fi);
            if cold.fwd_hops == fwd && cold.ack_hops == ack {
                continue;
            }
            cold.fwd_hops = fwd;
            cold.ack_hops = ack;
            hot.entry_hop = cold.fwd_hops[0] as u32;
            hot.fwd_len = cold.fwd_hops.len() as u32;
            hot.ack_len = cold.ack_hops.len() as u32;
            if let Some(net) = self.net.as_mut() {
                net.reroutes += 1;
            }
        }
        if ev.up {
            // Recovery: the link may have queued packets that waited out
            // the outage (entry-hop sends buffer against a down link).
            self.start_service_if_possible(h);
        } else {
            // Failure: the dead link's queue re-enters the network along
            // the recomputed routes.
            let mut stranded = Vec::new();
            while let Some(id) = self.hops[h].queue.dequeue(now, &mut self.arena) {
                stranded.push(id);
            }
            for id in stranded {
                let (flow, is_ack) = {
                    let p = &mut self.arena[id];
                    let wait = now.saturating_sub(p.enqueued_at);
                    p.queue_wait += wait;
                    (p.flow, p.ack.is_some())
                };
                let Some(fi) = self.flows.index_of(flow) else {
                    self.arena.free(id);
                    continue;
                };
                self.reroute_at(id, fi, is_ack, src, now, Ns::ZERO);
            }
        }
    }

    fn on_deliver(&mut self, id: PacketId) {
        let now = self.now;
        let (flow, seq, size, sent_at, ecn_marked, xcp_feedback) = {
            let p = &self.arena[id];
            (
                p.flow,
                p.seq,
                p.size,
                p.sent_at,
                p.ecn_marked,
                p.xcp.map(|h| h.feedback),
            )
        };
        let Some(i) = self.flows.index_of(flow) else {
            self.arena.free(id);
            return;
        };
        let (hot, cold) = self.flows.pair_mut(i);
        let new_data = cold.receiver.on_packet(seq);
        if new_data {
            cold.metrics.packets_delivered += 1;
            cold.metrics.credit_bytes(size as u64);
            if self.record_deliveries {
                if self.deliveries.len() < DELIVERY_LOG_CAP {
                    self.deliveries.push(DeliveryRecord {
                        at: now,
                        flow: i,
                        seq,
                    });
                } else {
                    self.deliveries_dropped += 1;
                }
            }
        } else {
            cold.metrics.duplicate_deliveries += 1;
        }
        let ack = Ack {
            flow,
            cum_ack: cold.receiver.expected,
            seq,
            echo_ts: sent_at,
            received_at: now,
            ecn_echo: ecn_marked,
            xcp_feedback,
            new_data,
        };
        if hot.ack_len == 0 {
            // Legacy pure-delay return path: never queued, never dropped.
            // The delivered packet's slot is recycled in place to carry
            // the ACK home — no allocation on the ACK path.
            let at = now + hot.back_delay;
            self.arena[id].ack = Some(ack);
            self.schedule(at, Ev::AckArrive(id));
        } else {
            // Queued return path: the ACK becomes a 40-byte packet (in the
            // same slot) and takes its chances in the reverse-direction
            // hops.
            let entry_hop = cold.ack_hops[0];
            self.arena[id] = Packet::carrying_ack(ack, now);
            if let Some(net) = &self.net {
                self.arena[id].route_epoch = net.epoch;
            }
            self.admit(entry_hop, id);
        }
    }

    fn on_ack_arrive(&mut self, id: PacketId) {
        let Some(ack) = self.arena[id].ack.take() else {
            // Tolerate like a stale handle: free the slot, drop the event.
            debug_assert!(false, "AckArrive without an ack payload");
            self.arena.free(id);
            return;
        };
        self.arena.free(id);
        let now = self.now;
        let Some(i) = self.flows.index_of(ack.flow) else {
            return; // ACK for a connection that already closed
        };
        let cold = self.flows.cold_mut(i);
        let outcome = cold.transport.on_ack(now, &ack);
        cold.metrics.record_rtt(outcome.rtt_sample);
        self.cover_rto_deadline(i);
        // Transfer completion: fixed-size flow fully delivered.
        let cold = self.flows.cold_mut(i);
        if cold.traffic.draining() && cold.transport.all_acked() {
            if self.flows.hot(i).churn {
                // A churn flow is one transfer: record its completion time
                // in the population stats and retire the slot. Packets
                // still in flight (none for data — all acked — but a
                // duplicate ACK may straggle) resolve to a stale FlowId
                // and are dropped on arrival.
                let spawned_at = self.flows.hot(i).spawned_at;
                let fct = now.saturating_sub(spawned_at).as_secs_f64();
                let cold = self.flows.cold_mut(i);
                let bytes = cold.metrics.bytes() as f64;
                cold.metrics.end_interval(now);
                let Some(c) = self.churn.as_mut() else {
                    // Invariant: churn flows only exist with churn state.
                    // Tolerate: retire the flow, skip the stats update.
                    debug_assert!(false, "churn flow without churn state");
                    self.flows.free(ack.flow);
                    return;
                };
                c.completed += 1;
                c.fct_secs.observe(fct);
                c.flow_bytes.observe(bytes);
                c.fct_reservoir.observe(fct, &mut c.reservoir_rng);
                self.flows.free(ack.flow);
                return;
            }
            let cold = self.flows.cold_mut(i);
            cold.traffic.on_transfer_complete(now);
            cold.metrics.end_interval(now);
            if let Some(at) = cold.traffic.next_wakeup() {
                self.schedule(at.max(now), Ev::Toggle(ack.flow));
            }
        }
        self.try_send(i);
    }

    fn on_rto(&mut self, f: FlowId) {
        let now = self.now;
        let Some(i) = self.flows.index_of(f) else {
            return; // the flow tore down; its pending timer is moot
        };
        // Release the dedup guard only if *this* is the tracked timer; a
        // stale leftover (scheduled before the tracked one superseded it)
        // must not clear the guard, or cover_rto_deadline would re-enqueue
        // a duplicate for an event that is already pending.
        let hot = self.flows.hot_mut(i);
        if hot.rto_event_at == Some(now) {
            hot.rto_event_at = None;
        }
        // The transport takes the timeout only at its live deadline; if
        // ACK progress pushed the deadline out since this timer was
        // scheduled, chain a timer there instead (nothing when disarmed).
        if self.flows.cold_mut(i).transport.on_rto_fire(now) {
            self.try_send(i);
        }
        self.cover_rto_deadline(i);
    }

    fn on_router_tick(&mut self, h: usize) {
        let now = self.now;
        let next = {
            let hop = &mut self.hops[h];
            let queue_pkts = hop.queue.len();
            match hop.router.as_mut() {
                Some(r) => {
                    r.on_tick(now, queue_pkts);
                    r.tick_interval()
                }
                None => None,
            }
        };
        if let Some(period) = next {
            self.schedule(now + period, Ev::RouterTick(h));
        }
    }

    /// Make sure one `Rto` event covers flow `i`'s live RTO deadline: one
    /// no later than the deadline must be pending. A timer that fires
    /// before the live deadline re-arms itself in [`Simulator::on_rto`],
    /// so ACK progress (which re-arms the transport on every advance)
    /// does not enqueue an event per re-arm. Called after every transport
    /// step, so the strict lane checks the hot path cache here too.
    fn cover_rto_deadline(&mut self, i: usize) {
        let id = self.flows.id_at(i);
        let (hot, cold) = self.flows.pair_mut(i);
        #[cfg(feature = "strict-invariants")]
        {
            assert_eq!(
                hot.fwd_len as usize,
                cold.fwd_hops.len(),
                "strict-invariants: hot fwd path length diverged from cold"
            );
            assert_eq!(
                hot.ack_len as usize,
                cold.ack_hops.len(),
                "strict-invariants: hot ack path length diverged from cold"
            );
            assert_eq!(
                hot.entry_hop as usize, cold.fwd_hops[0],
                "strict-invariants: hot entry hop diverged from cold"
            );
        }
        let Some(deadline) = cold.transport.rto_deadline() else {
            return; // disarmed: nothing outstanding
        };
        if hot.rto_event_at.is_none_or(|at| at > deadline) {
            hot.rto_event_at = Some(deadline);
            self.schedule(deadline, Ev::Rto(id));
        }
    }

    /// A churn arrival: draw the next inter-arrival gap, then stand up a
    /// flow for this one — recycling a free table slot (and its cold-side
    /// heap blocks) when one exists, growing the table only while the live
    /// population is at its high-water mark.
    fn on_spawn(&mut self) {
        let now = self.now;
        let (gap, bytes, rtt, spawn_seq) = {
            let Some(c) = self.churn.as_mut() else {
                // Tolerate a stray Spawn event: drop it (churn stops).
                debug_assert!(false, "Spawn event without churn state");
                return;
            };
            let gap = c.arrivals.exponential(1.0 / c.spec.arrivals_per_sec);
            let Some(bytes) = c.spec.size.sample_bytes(&mut c.arrivals) else {
                // ChurnSpec::validate rejects non-byte size models at
                // construction; tolerate here by dropping the arrival.
                debug_assert!(false, "churn sizes are byte-based");
                return;
            };
            c.spawned += 1;
            (gap, bytes, c.spec.rtt, c.spawned)
        };
        self.schedule(now + Ns::from_secs_f64(gap), Ev::Spawn);
        let half = Ns(rtt.0 / 2);
        let hot = FlowHot {
            fwd_delay: half,
            back_delay: rtt.saturating_sub(half),
            entry_hop: 0,
            fwd_len: 1,
            ack_len: 0,
            spawned_at: now,
            churn: true,
            ..FlowHot::default()
        };
        let id = match self.flows.respawn(|h, cold| {
            // Freed slots are always churn slots (persistent flows never
            // tear down), so the path vectors are already `[0]` / `[]`.
            cold.transport.start_connection(now);
            cold.receiver.reset(cold.transport.next_seq());
            cold.metrics.reset();
            cold.metrics.start_interval(now);
            cold.traffic.reset_one_shot(bytes, now);
            *h = hot;
        }) {
            Some(id) => id,
            None => {
                let factory = self.churn.as_ref().and_then(|c| c.factory.as_ref());
                let Some(factory) = factory else {
                    // with_churn_cc was never called: drop the arrival
                    // rather than panic mid-run (setup bug, not corruption).
                    debug_assert!(false, "churn scenario needs Simulator::with_churn_cc");
                    return;
                };
                let cc = factory(spawn_seq);
                let mut cold = FlowCold {
                    transport: Transport::new(cc),
                    traffic: TrafficProcess::one_shot(bytes, self.mss, now),
                    receiver: Receiver::default(),
                    metrics: FlowMetrics::default(),
                    fwd_hops: vec![0],
                    ack_hops: Vec::new(),
                };
                cold.transport.start_connection(now);
                cold.metrics.start_interval(now);
                self.flows.insert(hot, cold)
            }
        };
        let Some(i) = self.flows.index_of(id) else {
            debug_assert!(false, "freshly spawned flow has a live handle");
            return;
        };
        self.cover_rto_deadline(i);
        self.try_send(i);
    }

    /// Current simulated time (tests).
    pub fn now(&self) -> Ns {
        self.now
    }
}

/// Convenience: run `scenario` with one factory-built controller per
/// sender and no router hook.
pub fn run_scenario(
    scenario: &Scenario,
    factory: &dyn Fn(usize) -> Box<dyn CongestionControl>,
) -> SimResults {
    let ccs = (0..scenario.n()).map(factory).collect();
    Simulator::new(scenario, ccs, None).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FixedWindow;
    use crate::link::{DeliverySchedule, LinkSpec};
    use crate::queue::QueueSpec;
    use crate::traffic::TrafficSpec;

    fn saturating_scenario(n: usize, rate_mbps: f64, rtt_ms: u64) -> Scenario {
        Scenario::dumbbell(
            LinkSpec::constant(rate_mbps),
            QueueSpec::DropTail { capacity: 1000 },
            n,
            Ns::from_millis(rtt_ms),
            TrafficSpec::saturating(),
            Ns::from_secs(20),
            1,
        )
    }

    #[test]
    fn single_saturating_flow_fills_the_link() {
        // Window large enough to cover the BDP: 10 Mbps × 100 ms ≈ 83 pkts.
        let s = saturating_scenario(1, 10.0, 100);
        let r = run_scenario(&s, &|_| Box::new(FixedWindow::new(200.0)));
        let util = r.utilization(10.0);
        assert!(
            util > 0.95,
            "expected near-full utilization, got {util} ({:?})",
            r.flows[0]
        );
    }

    #[test]
    fn tiny_window_is_latency_limited() {
        // One packet per RTT: throughput ≈ mss*8/rtt = 1500*8/0.1 s = 120 kbps.
        let s = saturating_scenario(1, 10.0, 100);
        let r = run_scenario(&s, &|_| Box::new(FixedWindow::new(1.0)));
        let got = r.flows[0].throughput_mbps;
        assert!((got - 0.12).abs() < 0.012, "expected ~0.12 Mbps, got {got}");
        // And the queue never builds.
        assert!(r.flows[0].mean_queue_delay_ms < 1.5);
    }

    #[test]
    fn two_equal_flows_split_capacity() {
        let s = saturating_scenario(2, 10.0, 100);
        let r = run_scenario(&s, &|_| Box::new(FixedWindow::new(100.0)));
        let t0 = r.flows[0].throughput_mbps;
        let t1 = r.flows[1].throughput_mbps;
        assert!(t0 + t1 > 9.5, "link filled: {t0} + {t1}");
        assert!(
            (t0 - t1).abs() / (t0 + t1) < 0.1,
            "even split expected: {t0} vs {t1}"
        );
    }

    #[test]
    fn oversized_windows_build_queueing_delay() {
        // 2 flows × 400-pkt windows over a 83-pkt BDP: the DropTail queue
        // should hold a large standing backlog.
        let s = saturating_scenario(2, 10.0, 100);
        let r = run_scenario(&s, &|_| Box::new(FixedWindow::new(400.0)));
        assert!(
            r.flows[0].mean_queue_delay_ms > 100.0,
            "expected bloated queue, got {} ms",
            r.flows[0].mean_queue_delay_ms
        );
    }

    #[test]
    fn drops_happen_only_when_queue_overflows() {
        let small = Scenario {
            queue: QueueSpec::DropTail { capacity: 10 },
            ..saturating_scenario(1, 10.0, 100)
        };
        let r = run_scenario(&small, &|_| Box::new(FixedWindow::new(500.0)));
        assert!(r.queue_drops > 0, "tiny buffer must overflow");
        let big = saturating_scenario(1, 10.0, 100);
        let r2 = run_scenario(&big, &|_| Box::new(FixedWindow::new(500.0)));
        assert_eq!(r2.queue_drops, 0, "1000-pkt buffer holds a 500-pkt window");
    }

    #[test]
    fn pacing_limits_rate_below_window() {
        // 10 ms pacing → at most 100 pkts/s → 1.2 Mbps regardless of window.
        let s = saturating_scenario(1, 10.0, 100);
        let r = run_scenario(&s, &|_| {
            Box::new(FixedWindow::new(1000.0).with_pacing(Ns::from_millis(10)))
        });
        let got = r.flows[0].throughput_mbps;
        assert!((got - 1.2).abs() < 0.1, "expected ~1.2 Mbps, got {got}");
    }

    #[test]
    fn trace_link_delivers_at_trace_rate() {
        // 1 delivery per ms = 1000 pkt/s = 12 Mbps with 1500 B packets.
        let instants: Vec<Ns> = (1..=1000).map(Ns::from_millis).collect();
        let schedule = DeliverySchedule::new(instants, Ns::from_millis(1));
        let s = Scenario::dumbbell(
            LinkSpec::trace("synthetic", schedule),
            QueueSpec::DropTail { capacity: 1000 },
            1,
            Ns::from_millis(50),
            TrafficSpec::saturating(),
            Ns::from_secs(10),
            1,
        );
        let r = run_scenario(&s, &|_| Box::new(FixedWindow::new(400.0)));
        let got = r.flows[0].throughput_mbps;
        assert!((got - 12.0).abs() < 0.5, "expected ~12 Mbps, got {got}");
    }

    #[test]
    fn deterministic_across_runs() {
        let s = Scenario::dumbbell(
            LinkSpec::constant(15.0),
            QueueSpec::DropTail { capacity: 1000 },
            4,
            Ns::from_millis(150),
            TrafficSpec::fig4(),
            Ns::from_secs(30),
            42,
        );
        let a = run_scenario(&s, &|_| Box::new(FixedWindow::new(50.0)));
        let b = run_scenario(&s, &|_| Box::new(FixedWindow::new(50.0)));
        for (fa, fb) in a.flows.iter().zip(&b.flows) {
            assert_eq!(fa.bytes, fb.bytes);
            assert_eq!(fa.packets_delivered, fb.packets_delivered);
            assert_eq!(fa.throughput_mbps, fb.throughput_mbps);
        }
        assert_eq!(a.queue_drops, b.queue_drops);
    }

    #[test]
    fn heap_and_wheel_schedulers_agree_bit_for_bit() {
        // The tentpole contract in miniature: the same scenario under both
        // event schedulers yields identical results — including the
        // delivery log, i.e. identical event times.
        let mut s = Scenario::dumbbell(
            LinkSpec::constant(15.0),
            QueueSpec::DropTail { capacity: 40 },
            4,
            Ns::from_millis(150),
            TrafficSpec::fig4(),
            Ns::from_secs(20),
            42,
        );
        s.record_deliveries = true;
        let run = |kind: SchedulerKind| {
            let ccs: Vec<Box<dyn CongestionControl>> = (0..s.n())
                .map(|_| Box::new(FixedWindow::new(60.0)) as _)
                .collect();
            let sim = Simulator::with_scheduler(&s, ccs, None, kind);
            assert_eq!(sim.scheduler(), kind);
            sim.run()
        };
        let a = run(SchedulerKind::Heap);
        let b = run(SchedulerKind::Wheel);
        assert_eq!(a.queue_drops, b.queue_drops);
        assert_eq!(a.packets_forwarded, b.packets_forwarded);
        assert_eq!(a.deliveries.len(), b.deliveries.len());
        for (da, db) in a.deliveries.iter().zip(&b.deliveries) {
            assert_eq!((da.at, da.flow, da.seq), (db.at, db.flow, db.seq));
        }
        for (fa, fb) in a.flows.iter().zip(&b.flows) {
            assert_eq!(fa.bytes, fb.bytes);
            assert_eq!(fa.throughput_mbps.to_bits(), fb.throughput_mbps.to_bits());
            assert_eq!(
                fa.mean_queue_delay_ms.to_bits(),
                fb.mean_queue_delay_ms.to_bits()
            );
            assert_eq!(fa.mean_rtt_ms.to_bits(), fb.mean_rtt_ms.to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let s = Scenario::dumbbell(
            LinkSpec::constant(15.0),
            QueueSpec::DropTail { capacity: 1000 },
            4,
            Ns::from_millis(150),
            TrafficSpec::fig4(),
            Ns::from_secs(30),
            1,
        );
        let a = run_scenario(&s, &|_| Box::new(FixedWindow::new(50.0)));
        let b = run_scenario(&s.clone().with_seed(2), &|_| {
            Box::new(FixedWindow::new(50.0))
        });
        let ba: u64 = a.flows.iter().map(|f| f.bytes).sum();
        let bb: u64 = b.flows.iter().map(|f| f.bytes).sum();
        assert_ne!(ba, bb, "different seeds should change traffic draws");
    }

    #[test]
    fn on_off_flow_records_intervals() {
        let s = Scenario::dumbbell(
            LinkSpec::constant(15.0),
            QueueSpec::DropTail { capacity: 1000 },
            1,
            Ns::from_millis(150),
            TrafficSpec::fig4(),
            Ns::from_secs(60),
            3,
        );
        let r = run_scenario(&s, &|_| Box::new(FixedWindow::new(20.0)));
        let f = &r.flows[0];
        assert!(f.was_active());
        assert!(f.n_intervals > 1, "60 s of ~100 kB flows: several bursts");
        assert!(f.bytes > 0);
        // Conservation: the receiver cannot get more than was forwarded.
        assert!(f.packets_delivered <= r.packets_forwarded);
    }

    #[test]
    fn a_zero_off_time_keeps_a_timed_sender_cycling() {
        // `off_mean` 0 draws `Off { until: now }`: the wakeup that ends
        // the off-period is due at the instant that began it.
        let s = Scenario::dumbbell(
            LinkSpec::constant(15.0),
            QueueSpec::DropTail { capacity: 1000 },
            2,
            Ns::from_millis(150),
            TrafficSpec {
                on: OnSpec::ByTime {
                    mean: Ns::from_secs(1),
                },
                off_mean: Ns::ZERO,
                start_on: true,
            },
            Ns::from_secs(30),
            7,
        );
        let r = run_scenario(&s, &|_| Box::new(FixedWindow::new(20.0)));
        for f in &r.flows {
            assert!(f.n_intervals > 10, "{} on-intervals", f.n_intervals);
            assert!(f.on_secs > 25.0, "on for {} of 30 s", f.on_secs);
        }
    }

    #[test]
    #[should_panic(expected = "needs a nonzero off_mean_ns")]
    fn a_sender_that_would_spin_at_one_timestamp_panics_at_construction() {
        let mut s = saturating_scenario(1, 10.0, 100);
        s.senders[0].traffic.on = OnSpec::ByTimeFixed { duration: Ns::ZERO };
        let _ = Simulator::new(&s, vec![Box::new(FixedWindow::new(1.0))], None);
    }

    #[test]
    #[should_panic(expected = "queue_capacity must be at least 1")]
    fn a_dumbbell_queue_that_holds_no_packet_panics_at_construction() {
        let mut s = saturating_scenario(1, 10.0, 100);
        s.queue = QueueSpec::Codel { capacity: 0 };
        let _ = Simulator::new(&s, vec![Box::new(FixedWindow::new(1.0))], None);
    }

    #[test]
    fn delivery_log_is_monotonic_when_enabled() {
        let s = saturating_scenario(1, 5.0, 50).with_delivery_log();
        let mut s = s;
        s.duration = Ns::from_secs(2);
        let r = run_scenario(&s, &|_| Box::new(FixedWindow::new(20.0)));
        assert!(!r.deliveries.is_empty());
        for w in r.deliveries.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // In-order link and no drops: sequence numbers are increasing.
        for w in r.deliveries.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn arena_slots_are_recycled_not_grown() {
        // A long saturating run keeps a bounded in-flight population:
        // the arena must stabilize at that population, not grow with the
        // total packet count.
        let s = saturating_scenario(1, 10.0, 100);
        let ccs: Vec<Box<dyn CongestionControl>> = vec![Box::new(FixedWindow::new(200.0))];
        let mut sim = Simulator::new(&s, ccs, None);
        sim.drive();
        let live = sim.arena.live();
        let capacity = sim.arena.capacity();
        let (r, _) = sim.finish();
        assert!(r.packets_forwarded > 10_000, "a real run completed");
        assert!(
            capacity < 1000,
            "arena capacity {capacity} must track the in-flight window, \
             not the {} packets forwarded",
            r.packets_forwarded
        );
        // Whatever was in flight at the horizon is still live; it is
        // bounded by the window plus queued packets.
        assert!(live <= capacity);
    }

    // --- flow churn ----------------------------------------------------

    use crate::scenario::ChurnSpec;
    use crate::traffic::OnSpec;

    /// Two persistent saturating senders plus Poisson arrivals of
    /// bounded-Pareto transfers on the same bottleneck.
    fn churn_scenario(arrivals_per_sec: f64, secs: u64, seed: u64) -> Scenario {
        Scenario::dumbbell(
            LinkSpec::constant(50.0),
            QueueSpec::DropTail { capacity: 1000 },
            2,
            Ns::from_millis(100),
            TrafficSpec::saturating(),
            Ns::from_secs(secs),
            seed,
        )
        .with_churn(ChurnSpec {
            arrivals_per_sec,
            size: OnSpec::BoundedPareto {
                xm: 3000.0,
                alpha: 1.2,
                cap_bytes: 150_000.0,
            },
            rtt: Ns::from_millis(20),
        })
    }

    fn churn_sim(s: &Scenario, kind: SchedulerKind) -> Simulator {
        let ccs: Vec<Box<dyn CongestionControl>> = (0..s.n())
            .map(|_| Box::new(FixedWindow::new(60.0)) as _)
            .collect();
        Simulator::with_scheduler(s, ccs, None, kind)
            .with_churn_cc(Box::new(|_| Box::new(FixedWindow::new(10.0))))
    }

    #[test]
    fn churn_flows_complete_and_stream_population_stats() {
        let s = churn_scenario(200.0, 10, 7);
        let r = churn_sim(&s, SchedulerKind::Wheel).run();
        // Positional summaries cover the persistent senders only.
        assert_eq!(r.flows.len(), 2);
        let p = r.population.expect("churn run has population stats");
        assert!(
            p.spawned > 1500,
            "λ=200/s over 10 s: expected ~2000 arrivals, got {}",
            p.spawned
        );
        assert!(
            p.completed + p.live_at_end == p.spawned,
            "every arrival either completed or was live at the horizon: \
             {} + {} != {}",
            p.completed,
            p.live_at_end,
            p.spawned
        );
        assert!(
            p.completed as f64 > 0.9 * p.spawned as f64,
            "short transfers on a fast link mostly complete: {}/{}",
            p.completed,
            p.spawned
        );
        assert_eq!(p.fct_secs.count(), p.completed);
        assert!(p.fct_secs.min() > 0.0, "a transfer takes at least one RTT");
        assert!(p.fct_secs.mean() >= p.fct_secs.min());
        assert!(p.fct_secs.mean() <= p.fct_secs.max());
        // Sizes come from BoundedPareto[3000, 150000); metrics credit
        // whole MSS packets, so completed-flow byte counts can round up
        // to the next packet.
        assert!(p.flow_bytes.min() >= 3000.0);
        assert!(p.flow_bytes.max() < 152_000.0);
        assert!(!p.fct_sample_secs.is_empty());
        assert!(p.fct_sample_secs.len() as u64 <= p.completed);
    }

    #[test]
    fn flow_slots_are_recycled_not_grown() {
        // The churn analogue of `arena_slots_are_recycled_not_grown`: the
        // flow table must stabilize at the peak *concurrent* population,
        // not grow with the total number of arrivals.
        let s = churn_scenario(500.0, 10, 11);
        let mut sim = churn_sim(&s, SchedulerKind::Wheel);
        sim.drive();
        let capacity = sim.flows.capacity();
        let live = sim.flows.live();
        let (r, _) = sim.finish();
        let p = r.population.expect("population stats");
        assert!(p.spawned > 4000, "a real churn run: {} spawned", p.spawned);
        assert!(
            capacity < 500,
            "flow-table capacity {capacity} must track peak concurrency, \
             not the {} flows spawned",
            p.spawned
        );
        assert!(live <= capacity);
    }

    #[test]
    fn wheel_slots_track_concurrency_not_arrivals() {
        // The scheduler analogue of `flow_slots_are_recycled_not_grown`,
        // at the benchmark's arrival rate. A 50 Mbps link cannot carry
        // 10 000 transfers/s, so concurrency climbs all run; the slot
        // buffers must follow it, not keep every level-2 slot's fill
        // from each cascade it went through.
        let s = churn_scenario(10_000.0, 2, 17);
        let mut sim = churn_sim(&s, SchedulerKind::Wheel);
        sim.drive();
        let slot_capacity = sim.events.slot_capacity();
        let peak_flows = sim.flows.capacity();
        let (r, _) = sim.finish();
        let p = r.population.expect("population stats");
        assert!(
            p.spawned > 19_000,
            "a real churn run: {} spawned",
            p.spawned
        );
        assert!(
            slot_capacity < 2 * peak_flows,
            "wheel slot capacity {slot_capacity} must track the {peak_flows} \
             concurrent flows"
        );
    }

    #[test]
    fn churn_runs_agree_across_schedulers_bit_for_bit() {
        churn_runs_agree(churn_scenario(300.0, 5, 13));
    }

    #[test]
    fn churn_runs_agree_across_schedulers_bit_for_bit_at_10k_arrivals_per_sec() {
        // Level-2 slots fill with thousands of entries before they
        // cascade, so this covers the wheel's large-buffer cascade path.
        churn_runs_agree(churn_scenario(10_000.0, 2, 13));
    }

    fn churn_runs_agree(s: Scenario) {
        let a = churn_sim(&s, SchedulerKind::Heap).run();
        let b = churn_sim(&s, SchedulerKind::Wheel).run();
        assert_eq!(a.queue_drops, b.queue_drops);
        assert_eq!(a.packets_forwarded, b.packets_forwarded);
        let (pa, pb) = (a.population.unwrap(), b.population.unwrap());
        assert_eq!(pa.spawned, pb.spawned);
        assert_eq!(pa.completed, pb.completed);
        assert_eq!(pa.live_at_end, pb.live_at_end);
        assert_eq!(pa.fct_secs.sum().to_bits(), pb.fct_secs.sum().to_bits());
        assert_eq!(pa.fct_secs.max().to_bits(), pb.fct_secs.max().to_bits());
        assert_eq!(pa.flow_bytes.sum().to_bits(), pb.flow_bytes.sum().to_bits());
        assert_eq!(pa.fct_sample_secs, pb.fct_sample_secs);
        for (fa, fb) in a.flows.iter().zip(&b.flows) {
            assert_eq!(fa.bytes, fb.bytes);
            assert_eq!(fa.throughput_mbps.to_bits(), fb.throughput_mbps.to_bits());
        }
    }

    #[test]
    fn churn_free_scenarios_are_unchanged_by_the_churn_engine() {
        // Guard the golden contract: adding the churn machinery must not
        // perturb a single draw of a legacy scenario. fig4 traffic
        // exercises the per-flow rng streams whose fork order churn
        // extends.
        let s = Scenario::dumbbell(
            LinkSpec::constant(15.0),
            QueueSpec::DropTail { capacity: 40 },
            4,
            Ns::from_millis(150),
            TrafficSpec::fig4(),
            Ns::from_secs(20),
            42,
        );
        let r = run_scenario(&s, &|_| Box::new(FixedWindow::new(60.0)));
        assert!(r.population.is_none(), "no churn, no population stats");
        assert_eq!(r.deliveries_dropped, 0);
    }

    #[test]
    #[should_panic(expected = "needs Simulator::with_churn_cc")]
    fn churn_without_factory_panics() {
        let s = churn_scenario(100.0, 2, 1);
        let ccs: Vec<Box<dyn CongestionControl>> = (0..s.n())
            .map(|_| Box::new(FixedWindow::new(60.0)) as _)
            .collect();
        let _ = Simulator::new(&s, ccs, None).run();
    }

    #[test]
    #[should_panic(expected = "one congestion controller per sender")]
    fn wrong_cc_count_panics() {
        let s = saturating_scenario(2, 10.0, 100);
        let _ = Simulator::new(&s, vec![Box::new(FixedWindow::new(1.0))], None);
    }

    #[test]
    #[should_panic(expected = "no hops")]
    fn hopless_topology_panics_with_a_diagnostic() {
        let mut s = saturating_scenario(1, 10.0, 100);
        s.topology = Some(Topology::from_flow_hops(vec![], vec![]));
        let _ = Simulator::new(&s, vec![Box::new(FixedWindow::new(1.0))], None);
    }

    // --- multi-hop topologies ------------------------------------------

    use crate::topology::{FlowPath, HopSpec};

    fn droptail_hop(rate_mbps: f64, capacity: usize) -> HopSpec {
        HopSpec::new(
            LinkSpec::constant(rate_mbps),
            QueueSpec::DropTail { capacity },
        )
    }

    #[test]
    fn one_hop_topology_is_identical_to_legacy() {
        let legacy = Scenario::dumbbell(
            LinkSpec::constant(15.0),
            QueueSpec::DropTail { capacity: 1000 },
            4,
            Ns::from_millis(150),
            TrafficSpec::fig4(),
            Ns::from_secs(30),
            42,
        );
        let topo = legacy.clone().with_topology(Topology::single_bottleneck(
            LinkSpec::constant(15.0),
            QueueSpec::DropTail { capacity: 1000 },
            4,
        ));
        let a = run_scenario(&legacy, &|_| Box::new(FixedWindow::new(50.0)));
        let b = run_scenario(&topo, &|_| Box::new(FixedWindow::new(50.0)));
        assert_eq!(a.queue_drops, b.queue_drops);
        assert_eq!(a.packets_forwarded, b.packets_forwarded);
        for (fa, fb) in a.flows.iter().zip(&b.flows) {
            assert_eq!(fa.bytes, fb.bytes);
            assert_eq!(fa.packets_delivered, fb.packets_delivered);
            assert_eq!(fa.throughput_mbps.to_bits(), fb.throughput_mbps.to_bits());
            assert_eq!(
                fa.mean_queue_delay_ms.to_bits(),
                fb.mean_queue_delay_ms.to_bits()
            );
            assert_eq!(fa.mean_rtt_ms.to_bits(), fb.mean_rtt_ms.to_bits());
        }
    }

    #[test]
    fn chain_throughput_limited_by_slowest_hop() {
        let topo = Topology::from_flow_hops(
            vec![
                droptail_hop(10.0, 1000),
                droptail_hop(2.0, 1000),
                droptail_hop(5.0, 1000),
            ],
            vec![FlowPath::through(vec![0, 1, 2])],
        );
        let s = saturating_scenario(1, 10.0, 100).with_topology(topo);
        let r = run_scenario(&s, &|_| Box::new(FixedWindow::new(200.0)));
        let got = r.flows[0].throughput_mbps;
        assert!(
            (got - 2.0).abs() < 0.2,
            "the 2 Mbps middle hop bottlenecks the chain, got {got}"
        );
        // Queueing delay is the per-packet sum over the whole path, not a
        // per-hop average: a 200-packet window over a 2 Mbps bottleneck
        // (6 ms/packet service) stands ~1.1 s deep. A per-hop average
        // diluted by the two idle hops would report a third of that.
        let qd = r.flows[0].mean_queue_delay_ms;
        assert!(qd > 800.0, "end-to-end queueing, undiluted: {qd} ms");
    }

    /// Counts the packets a hop shows its router hook.
    struct CountingRouter(std::sync::Arc<std::sync::atomic::AtomicU64>);

    impl RouterHook for CountingRouter {
        fn on_arrival(&mut self, _now: Ns, _p: &mut Packet, _queue_pkts: usize) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        fn on_departure(&mut self, _now: Ns, _p: &mut Packet, _queue_pkts: usize) {}
    }

    #[test]
    fn new_attaches_the_router_hook_to_hop_zero_only() {
        // Flow 0 crosses hops 0 → 1; flow 1 enters at hop 1, so a hook that
        // leaked onto hop 1 would count flow 1's packets too.
        let topo = Topology::from_flow_hops(
            vec![droptail_hop(10.0, 1000), droptail_hop(10.0, 1000)],
            vec![FlowPath::through(vec![0, 1]), FlowPath::through(vec![1])],
        );
        let s = saturating_scenario(2, 10.0, 100).with_topology(topo);
        let seen = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let ccs: Vec<Box<dyn CongestionControl>> = (0..2)
            .map(|_| Box::new(FixedWindow::new(20.0)) as _)
            .collect();
        let sim = Simulator::new(&s, ccs, Some(Box::new(CountingRouter(seen.clone()))));
        let hooked: Vec<bool> = sim.hops.iter().map(|h| h.router.is_some()).collect();
        assert_eq!(hooked, vec![true, false]);
        let r = sim.run();
        let arrivals = seen.load(std::sync::atomic::Ordering::Relaxed);
        let (f0, f1) = (r.flows[0].packets_delivered, r.flows[1].packets_delivered);
        assert!(f0 > 0 && f1 > 0, "both flows deliver");
        assert!(
            f0 <= arrivals && arrivals < f0 + f1,
            "hop 0 saw flow 0 only"
        );
    }

    #[test]
    fn parking_lot_cross_traffic_contends_on_the_shared_hop() {
        // Flow 0 crosses hops 0 and 1; flow 1 loads hop 1 only. They split
        // hop 1's 10 Mbps while hop 0 stays uncongested.
        let topo = Topology::from_flow_hops(
            vec![droptail_hop(10.0, 1000), droptail_hop(10.0, 1000)],
            vec![FlowPath::through(vec![0, 1]), FlowPath::through(vec![1])],
        );
        let s = saturating_scenario(2, 10.0, 100).with_topology(topo);
        let r = run_scenario(&s, &|_| Box::new(FixedWindow::new(100.0)));
        let t0 = r.flows[0].throughput_mbps;
        let t1 = r.flows[1].throughput_mbps;
        assert!(t0 + t1 > 9.5, "shared hop filled: {t0} + {t1}");
        assert!(
            (t0 - t1).abs() / (t0 + t1) < 0.1,
            "even split on the shared hop: {t0} vs {t1}"
        );
    }

    #[test]
    fn reverse_path_ack_queueing_inflates_rtt() {
        // Hop 0 is the eastbound direction, hop 1 the westbound. Flow 0 is
        // a small window-limited flow east; flow 1 fills the westbound
        // queue with data. With a queued ACK path, flow 0's ACKs wait
        // behind flow 1's standing queue; with the legacy pure-delay
        // return they do not.
        let build = |queued_acks: bool| {
            let flow0_ack = if queued_acks { vec![1] } else { vec![] };
            let topo = Topology::from_flow_hops(
                vec![droptail_hop(10.0, 1000), droptail_hop(10.0, 1000)],
                vec![
                    FlowPath::through(vec![0]).with_ack_path(flow0_ack),
                    FlowPath::through(vec![1]),
                ],
            );
            saturating_scenario(2, 10.0, 100).with_topology(topo)
        };
        let run = |s: &Scenario| {
            run_scenario(s, &|i| {
                Box::new(FixedWindow::new(if i == 0 { 5.0 } else { 400.0 }))
            })
        };
        let contended = run(&build(true));
        let clean = run(&build(false));
        let rtt_contended = contended.flows[0].mean_rtt_ms;
        let rtt_clean = clean.flows[0].mean_rtt_ms;
        assert!(
            rtt_clean < 110.0,
            "pure-delay ACK path stays near propagation: {rtt_clean}"
        );
        assert!(
            rtt_contended > rtt_clean + 100.0,
            "ACKs queue behind reverse data: {rtt_contended} vs {rtt_clean}"
        );
        // And the window-limited flow's throughput collapses with its RTT.
        assert!(contended.flows[0].throughput_mbps < clean.flows[0].throughput_mbps / 2.0);
    }

    #[test]
    fn incast_fan_in_overflows_the_shallow_aggregation_queue() {
        let n = 4;
        let mut hops: Vec<HopSpec> = (0..n).map(|_| droptail_hop(100.0, 1000)).collect();
        hops.push(droptail_hop(10.0, 20)); // shallow aggregation buffer
        let topo = Topology::from_flow_hops(
            hops,
            (0..n).map(|i| FlowPath::through(vec![i, n])).collect(),
        );
        let s = saturating_scenario(n, 10.0, 50).with_topology(topo);
        let r = run_scenario(&s, &|_| Box::new(FixedWindow::new(100.0)));
        assert!(
            r.queue_drops > 0,
            "4x100-pkt windows overflow a 20-pkt buffer"
        );
        let total: f64 = r.flows.iter().map(|f| f.throughput_mbps).sum();
        assert!(
            total > 8.5 && total <= 10.0,
            "aggregate goodput tracks the fan-in link, minus loss-recovery \
             overhead: {total}"
        );
    }

    // --- graph topologies: link failure & failover ---------------------

    use crate::graph::{FailoverPolicy, LinkEvent, NetworkBuilder};

    /// Chain a-b-c-d with the b→c hop as the 10 Mbps bottleneck (the
    /// flanking hops run at 50 Mbps, so the standing queue sits at b→c)
    /// and a heavier detour b-e-c around exactly that hop. Failing b→c
    /// mid-run forces the flow onto the detour — and because the detour
    /// leaves from b, packets stranded at the failed link can rejoin the
    /// new path.
    fn detour_scenario(events: Vec<LinkEvent>) -> Scenario {
        let mut b = NetworkBuilder::new();
        let a = b.add_router("a");
        let rb = b.add_router("b");
        let c = b.add_router("c");
        let d = b.add_router("d");
        let e = b.add_router("e");
        let fast = LinkSpec::constant(50.0);
        let slow = LinkSpec::constant(10.0);
        let q = QueueSpec::DropTail { capacity: 1000 };
        let ms5 = Ns::from_millis(5);
        b.add_duplex_link(a, rb, fast.clone(), q.clone(), ms5);
        b.add_duplex_link(rb, c, slow.clone(), q.clone(), ms5);
        b.add_duplex_link(c, d, fast, q.clone(), ms5);
        b.add_weighted_duplex_link(rb, e, slow.clone(), q.clone(), Ns::from_millis(20), 2);
        b.add_weighted_duplex_link(e, c, slow, q, Ns::from_millis(20), 2);
        let net = b.build().expect("valid network");
        let topo = net
            .into_topology(&[(a, d)], events, FailoverPolicy::Reroute)
            .expect("routable flow");
        Scenario::dumbbell(
            LinkSpec::constant(50.0),
            QueueSpec::DropTail { capacity: 1000 },
            1,
            Ns::from_millis(20),
            TrafficSpec::saturating(),
            Ns::from_secs(10),
            5,
        )
        .with_topology(topo)
    }

    /// Index of the b→c link in [`detour_scenario`]'s wiring order.
    const BC: u32 = 2;

    #[test]
    fn link_failure_reroutes_mid_flight_and_the_flow_keeps_delivering() {
        let mut s = detour_scenario(vec![LinkEvent {
            at: Ns::from_secs(5),
            link: BC,
            up: false,
        }]);
        s.record_deliveries = true;
        let r = run_scenario(&s, &|_| Box::new(FixedWindow::new(100.0)));
        assert_eq!(r.link_events, 1);
        assert_eq!(r.reroutes, 1, "one flow's forward path switched");
        assert_eq!(
            r.failover_drops, 0,
            "the detour leaves from b: all salvaged"
        );
        let last = r.deliveries.last().expect("deliveries recorded").at;
        assert!(
            last > Ns::from_secs(9),
            "the flow still delivers after the failure: last at {last:?}"
        );
    }

    #[test]
    fn link_recovery_restores_the_primary_route() {
        let s = detour_scenario(vec![
            LinkEvent {
                at: Ns::from_secs(3),
                link: BC,
                up: false,
            },
            LinkEvent {
                at: Ns::from_secs(6),
                link: BC,
                up: true,
            },
        ]);
        let r = run_scenario(&s, &|_| Box::new(FixedWindow::new(100.0)));
        assert_eq!(r.link_events, 2);
        assert_eq!(r.reroutes, 2, "onto the detour, then back");
        assert!(r.flows[0].bytes > 0);
        // The detour adds 30 ms of one-way propagation for 3 of 10
        // seconds; the mean RTT must sit between the all-primary and
        // all-detour floors.
        let rtt = r.flows[0].mean_rtt_ms;
        assert!(rtt > 30.0, "failure window visible in the mean RTT: {rtt}");
    }

    #[test]
    fn failover_runs_agree_across_schedulers_bit_for_bit() {
        let mut s = detour_scenario(vec![LinkEvent {
            at: Ns::from_secs(5),
            link: BC,
            up: false,
        }]);
        s.record_deliveries = true;
        let run = |kind: SchedulerKind| {
            let ccs: Vec<Box<dyn CongestionControl>> = vec![Box::new(FixedWindow::new(100.0)) as _];
            Simulator::with_scheduler(&s, ccs, None, kind).run()
        };
        let a = run(SchedulerKind::Heap);
        let b = run(SchedulerKind::Wheel);
        assert_eq!(a.queue_drops, b.queue_drops);
        assert_eq!(a.packets_forwarded, b.packets_forwarded);
        assert_eq!(a.reroutes, b.reroutes);
        assert_eq!(a.failover_drops, b.failover_drops);
        assert_eq!(a.deliveries.len(), b.deliveries.len());
        for (da, db) in a.deliveries.iter().zip(&b.deliveries) {
            assert_eq!((da.at, da.flow, da.seq), (db.at, db.flow, db.seq));
        }
        for (fa, fb) in a.flows.iter().zip(&b.flows) {
            assert_eq!(fa.bytes, fb.bytes);
            assert_eq!(fa.mean_rtt_ms.to_bits(), fb.mean_rtt_ms.to_bits());
        }
    }

    /// The k=4 fat tree with six edge-to-edge flows (four cross-pod, two
    /// intra-pod) while one core↔agg link at a time flaps every 25 ms for
    /// `secs`: the rotation runs through pods fastest, then direction,
    /// then aggregation switch, then core, and a link is back up before
    /// the next goes down.
    fn flapping_fat_tree(secs: u64) -> Scenario {
        let link = LinkSpec::constant(50.0);
        let q = QueueSpec::DropTail { capacity: 64 };
        let net = NetworkBuilder::fat_tree_k4(&link, &q, Ns::from_micros(100))
            .build()
            .expect("valid network");
        let id = |name: &str| net.router(name).expect("fat-tree router");
        let flows: Vec<_> = [
            ("pod0_edge0", "pod1_edge0"),
            ("pod1_edge1", "pod2_edge1"),
            ("pod2_edge0", "pod3_edge0"),
            ("pod0_edge1", "pod3_edge1"),
            ("pod0_edge0", "pod0_edge1"),
            ("pod2_edge1", "pod2_edge0"),
        ]
        .iter()
        .map(|(s, d)| (id(s), id(d)))
        .collect();
        let interval = Ns::from_millis(25);
        let end = Ns::from_secs(secs);
        let events = (0..)
            .map(|k: u64| (k, Ns((k + 1) * interval.0)))
            .take_while(|&(_, at)| at < end)
            .map(|(k, at)| {
                let i = (k / 2) as usize;
                let (pod, uplink, agg) = (i % 4, (i / 4).is_multiple_of(2), (i / 8) % 2);
                let core = id(&format!("core{}", 2 * agg + (i / 16) % 2));
                let agg = id(&format!("pod{pod}_agg{agg}"));
                let (from, to) = if uplink { (agg, core) } else { (core, agg) };
                LinkEvent {
                    at,
                    link: net.link_between(from, to).expect("core↔agg link").index() as u32,
                    up: k % 2 == 1,
                }
            })
            .collect();
        let topo = net
            .into_topology(&flows, events, FailoverPolicy::Reroute)
            .expect("routable flows");
        Scenario::dumbbell(
            link,
            q,
            6,
            Ns::from_millis(1),
            TrafficSpec::saturating(),
            end,
            2013,
        )
        .with_topology(topo)
    }

    #[test]
    fn flows_follow_the_full_tables_after_every_flap() {
        let s = flapping_fat_tree(1);
        let ccs: Vec<Box<dyn CongestionControl>> = (0..6)
            .map(|_| Box::new(FixedWindow::new(20.0)) as _)
            .collect();
        let mut sim = Simulator::new(&s, ccs, None);
        let mut checked = 0;
        // `drive`'s loop, with a check after each link event. (Churn,
        // trace slots and router ticks do not occur on this scenario.)
        while let Some((at, _id, ev)) = sim.events.pop() {
            if at > sim.end {
                break;
            }
            sim.now = at;
            let link_event = matches!(ev, Ev::LinkEvent(_));
            match ev {
                Ev::Toggle(f) => sim.on_toggle(f),
                Ev::Pacer(f) => {
                    let i = sim.flows.index_of(f).expect("persistent flow");
                    sim.flows.hot_mut(i).pacer_scheduled = None;
                    sim.try_send(i);
                }
                Ev::LinkReady(h) => {
                    sim.hops[h].busy = false;
                    sim.start_service_if_possible(h);
                }
                Ev::HopArrive(p) => sim.on_hop_arrive(p),
                Ev::Deliver(p) => sim.on_deliver(p),
                Ev::AckArrive(p) => sim.on_ack_arrive(p),
                Ev::Rto(f) => sim.on_rto(f),
                Ev::LinkEvent(idx) => sim.on_link_event(idx),
                Ev::TraceSlot(_) | Ev::RouterTick(_) | Ev::Spawn => {
                    unreachable!("not scheduled on this scenario")
                }
            }
            if !link_event {
                continue;
            }
            checked += 1;
            let g = Arc::clone(&sim.net.as_ref().expect("graph state").graph);
            let down: Vec<bool> = sim.hops.iter().map(|h| h.down).collect();
            let full = g.forwarding(&down);
            for (fi, &(src, dst)) in g.flows.iter().enumerate() {
                let fwd = g.route_via(&full, src, dst).expect("still connected");
                let ack = g.route_via(&full, dst, src).expect("still connected");
                let (hot, cold) = (sim.flows.hot(fi), sim.flows.cold(fi));
                assert_eq!(
                    (&cold.fwd_hops, &cold.ack_hops),
                    (&fwd, &ack),
                    "flow {fi} at {at:?}"
                );
                assert_eq!(hot.entry_hop as usize, fwd[0]);
                assert_eq!(hot.fwd_len as usize, fwd.len());
                assert_eq!(hot.ack_len as usize, ack.len());
            }
        }
        assert_eq!(checked, 39, "every event within the second fired");
        let r = sim.finish().0;
        assert_eq!(r.link_events, 39);
        assert!(r.reroutes > 0, "the flaps moved some flow");
    }

    #[test]
    fn flapping_fat_tree_runs_agree_across_schedulers_bit_for_bit() {
        let mut s = flapping_fat_tree(1);
        s.record_deliveries = true;
        let run = |kind: SchedulerKind| {
            let ccs: Vec<Box<dyn CongestionControl>> = (0..6)
                .map(|_| Box::new(FixedWindow::new(20.0)) as _)
                .collect();
            Simulator::with_scheduler(&s, ccs, None, kind).run()
        };
        let a = run(SchedulerKind::Heap);
        let b = run(SchedulerKind::Wheel);
        assert_eq!(a.link_events, 39);
        assert!(a.reroutes > 0 && a.packets_forwarded > 0);
        assert_eq!(
            (a.link_events, a.reroutes, a.failover_drops),
            (b.link_events, b.reroutes, b.failover_drops)
        );
        assert_eq!(
            (a.queue_drops, a.packets_forwarded),
            (b.queue_drops, b.packets_forwarded)
        );
        assert_eq!(a.deliveries.len(), b.deliveries.len());
        for (da, db) in a.deliveries.iter().zip(&b.deliveries) {
            assert_eq!((da.at, da.flow, da.seq), (db.at, db.flow, db.seq));
        }
        for (fa, fb) in a.flows.iter().zip(&b.flows) {
            assert_eq!(fa.bytes, fb.bytes);
            assert_eq!(fa.mean_rtt_ms.to_bits(), fb.mean_rtt_ms.to_bits());
            assert_eq!(
                fa.mean_queue_delay_ms.to_bits(),
                fb.mean_queue_delay_ms.to_bits()
            );
        }
    }
}
