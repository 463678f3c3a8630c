//! The named experiment registry: every figure and table reproduction of
//! the paper's evaluation. An entry is a name, the committed
//! `specs/<name>.json` (embedded at build time — the file is the only
//! description of the experiment, its `budget` the entry's default budget)
//! and, where the paper's presentation needs it, a custom report renderer.
//!
//! `by_name("fig4")` returns the entry; [`run_named`] executes it at a
//! budget; `remy-cli run <name|spec.json>` is the one entry point over it.
//! See EXPERIMENTS.md for the catalogue and "Adding an experiment".

use crate::experiment::{CellResult, Experiment};
use crate::harness::Contender;
use crate::report::{budget_title, col, label_col, Col, ExperimentReport, Field, Table};
use crate::spec::{Budget, ExperimentSpec, LinkEventSpec, SweepAxis, TopologySpec};
use netsim::metrics::{FlowSummary, SimResults};
use netsim::packet::MSS;
use netsim::rng::SimRng;
use netsim::sim::Simulator;
use netsim::stats::{mean, median, quantile, std_dev, std_err};
use netsim::time::Ns;
use netsim::traffic::{empirical_flow_bytes, OnSpec, TrafficSpec};
use netsim::traffic::{PARETO_ALPHA, PARETO_SHIFT, PARETO_XM};
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Registry plumbing
// ---------------------------------------------------------------------------

/// A bespoke presentation (sequence plots, RTT profiles, score sweeps) in
/// place of the generic report.
type CustomRunner = fn(&ExperimentSpec) -> Result<ExperimentReport, String>;

/// One registered figure/table reproduction.
pub struct NamedExperiment {
    /// Registry key (`remy-cli run <name>`), stem of its spec file and of
    /// the CSV it writes under `target/experiments/`.
    pub name: &'static str,
    /// The text of `specs/<name>.json`.
    spec_json: &'static str,
    /// `None`: run the spec through [`Experiment`], render the generic report.
    runner: Option<CustomRunner>,
}

/// One registry line: the name picks the spec file, so the two cannot
/// disagree.
macro_rules! entry {
    ($name:literal, $runner:expr) => {
        NamedExperiment {
            name: $name,
            spec_json: include_str!(concat!("../../../specs/", $name, ".json")),
            runner: $runner,
        }
    };
}

impl NamedExperiment {
    /// The experiment as committed: `specs/<name>.json`, parsed. This is
    /// what a flagless `remy-cli run <name>` executes.
    pub fn committed_spec(&self) -> ExperimentSpec {
        ExperimentSpec::from_json(self.spec_json)
            // lint:allow(p2-sim-panic): the spec is compiled into the binary
            // and parsed by the tier-1 canonical-spec test; a parse failure
            // means the build itself is corrupt.
            .unwrap_or_else(|e| panic!("specs/{}.json: {e}", self.name))
    }

    /// The committed spec at another budget (see [`NamedExperiment::rebudget`]).
    pub fn spec(&self, budget: Budget) -> ExperimentSpec {
        let mut spec = self.committed_spec();
        self.rebudget(&mut spec, budget);
        spec
    }

    /// Apply a budget override to this entry's spec — the committed one or
    /// a user's edited copy. Every `--runs` / `--secs` goes through here.
    ///
    /// A spec file states instants in absolute time, so the two entries
    /// whose event is "mid-run" (`fig6`'s departing competitor,
    /// `failover_chain`'s link failure, with the `t=…s` of its title) have
    /// it re-placed at `⌊sim_secs / 2⌋` seconds, at least 1, of the new
    /// budget.
    pub fn rebudget(&self, spec: &mut ExperimentSpec, budget: Budget) {
        spec.budget = budget;
        let mid_run = Ns::from_secs((budget.sim_secs / 2).max(1));
        match (self.name, &mut spec.workload.topology) {
            ("fig6", _) => {
                for s in &mut spec.workload.senders {
                    if let OnSpec::ByTimeFixed { duration } = &mut s.traffic.on {
                        *duration = mid_run;
                    }
                }
            }
            ("failover_chain", Some(TopologySpec::Graph(g))) => {
                let Some(old) = earliest_failure(&g.events).map(|e| e.at) else {
                    return;
                };
                let label = |at: Ns| format!("t={}s", at.0 / Ns::SECOND.0);
                spec.title = spec.title.replace(&label(old), &label(mid_run));
                for e in g.events.iter_mut().filter(|e| !e.up && e.at == old) {
                    e.at = mid_run;
                }
            }
            _ => {}
        }
    }

    /// Execute a spec (normally one produced by [`NamedExperiment::spec`],
    /// possibly with an adjusted budget) and render the report.
    pub fn run(&self, spec: &ExperimentSpec) -> Result<ExperimentReport, String> {
        match self.runner {
            None => Ok(Experiment::new(spec.clone()).run()?.report()),
            Some(custom) => custom(spec),
        }
    }
}

/// Every registered experiment, in catalogue order.
pub fn all() -> &'static [NamedExperiment] {
    &REGISTRY
}

/// Look an experiment up by registry name.
pub fn by_name(name: &str) -> Option<&'static NamedExperiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// Run a named experiment at the given budget.
pub fn run_named(name: &str, budget: Budget) -> Result<ExperimentReport, String> {
    let entry = by_name(name)
        .ok_or_else(|| format!("unknown experiment '{name}' (see `remy-cli list-experiments`)"))?;
    entry.run(&entry.spec(budget))
}

// ---------------------------------------------------------------------------
// The catalogue
// ---------------------------------------------------------------------------

static REGISTRY: [NamedExperiment; 21] = [
    entry!("fig3", Some(run_fig3)),
    entry!("fig4", None),
    entry!("fig5", None),
    entry!("fig6", Some(run_fig6)),
    entry!("fig7", Some(run_lte_trace)),
    entry!("fig8", Some(run_lte_trace)),
    entry!("fig9", Some(run_lte_trace)),
    entry!("fig10", Some(run_fig10)),
    entry!("fig11", Some(run_fig11)),
    entry!("table1_dumbbell", None),
    entry!("table1_cellular", Some(run_lte_trace)),
    entry!("table_competing", Some(run_table_competing)),
    entry!("table_datacenter", Some(run_table_datacenter)),
    entry!("ablation_signals", Some(run_ablation_signals)),
    entry!("ablation_loss", Some(run_ablation_loss)),
    entry!("parking_lot3", Some(run_parking_lot3)),
    entry!("incast16", Some(run_incast16)),
    entry!("reverse_path", Some(run_reverse_path)),
    entry!("web_churn", Some(run_web_churn)),
    entry!("failover_chain", Some(run_failover_chain)),
    entry!("fattree_k4_crosstraffic", None),
];

// ---------------------------------------------------------------------------
// Custom runners
// ---------------------------------------------------------------------------

fn run_fig3(spec: &ExperimentSpec) -> Result<ExperimentReport, String> {
    let n = spec.budget.runs;
    let mut rng = SimRng::new(spec.seed);
    // Draw raw (pre-16 kB-load) lengths to compare with the paper's fit.
    let mut raw: Vec<f64> = (0..n)
        .map(|_| (rng.pareto(PARETO_XM, PARETO_ALPHA) - PARETO_SHIFT).max(1.0))
        .collect();
    raw.sort_by(f64::total_cmp);

    let mut table = Table::new(
        &spec.title,
        vec![
            col("bytes", "bytes", 12, 0),
            col("empirical", "empirical_cdf", 12, 4),
            col("closed form", "closed_form_cdf", 12, 4),
        ],
    );
    for exp in 0..=7 {
        for mant in [1.0, 3.0] {
            let x = mant * 10f64.powi(exp);
            if !(100.0..=1e7).contains(&x) {
                continue;
            }
            let idx = raw.partition_point(|&v| v <= x);
            let emp = idx as f64 / raw.len() as f64;
            // CDF of the shifted Pareto: P(X ≤ x) = 1 − (Xm/(x+40))^α.
            let cf = if x + PARETO_SHIFT < PARETO_XM {
                0.0
            } else {
                1.0 - (PARETO_XM / (x + PARETO_SHIFT)).powf(PARETO_ALPHA)
            };
            table.row(vec![Field::Num(x), Field::Num(emp), Field::Num(cf)]);
        }
    }
    // Sanity: with the evaluation's +16 kB loading term, flows are at
    // least 16 kB.
    let min_loaded = (0..1000)
        .map(|_| empirical_flow_bytes(&mut rng, u64::MAX))
        .fold(u64::MAX, u64::min);
    table.note(&format!(
        "\nminimum loaded flow (with +16 kB term): {min_loaded} bytes"
    ));
    table.note(
        "paper: distribution \"suggest[s] that the underlying distribution does not have finite mean\"",
    );
    Ok(table.finish())
}

fn run_fig6(spec: &ExperimentSpec) -> Result<ExperimentReport, String> {
    if !spec.workload.record_deliveries {
        return Err("the sequence plot needs workload.record_deliveries".into());
    }
    let cells = spec.expand()?;
    let scenario = &cells[0].scenarios[0];
    fig6_report(spec, &cells[0].contender.simulate(scenario))
}

/// Fig. 6 from one run's delivery log, which must be whole: past its cap
/// the series would stop growing and the departure read early.
fn fig6_report(spec: &ExperimentSpec, results: &SimResults) -> Result<ExperimentReport, String> {
    let dropped = results.deliveries_dropped;
    if dropped > 0 {
        return Err(format!("delivery log full: {dropped} deliveries unlogged"));
    }
    // Find the instant flow 1's deliveries stop (its actual departure).
    let flow1_last = results
        .deliveries
        .iter()
        .filter(|d| d.flow == 1)
        .map(|d| d.at)
        .max()
        .unwrap_or(Ns::ZERO);

    // Delivered-sequence series for flow 0, sampled every 250 ms.
    let mut table = Table::new(
        &format!("{}, competitor departs ~{flow1_last}", spec.title),
        vec![
            col("t (s)", "t_secs", 8, 2),
            col("seq", "delivered_seq", 10, 0),
        ],
    );
    let step = Ns::from_millis(250);
    let mut t = Ns::ZERO;
    let mut seq = 0;
    let flow0: Vec<_> = results.deliveries.iter().filter(|d| d.flow == 0).collect();
    let mut pending = flow0.iter().peekable();
    while t <= results.duration {
        while let Some(d) = pending.next_if(|d| d.at <= t) {
            seq = d.seq;
        }
        table.row(vec![Field::Num(t.as_secs_f64()), Field::Num(seq as f64)]);
        t += step;
    }

    // Rate before vs. after the departure (1.5 s windows, skipping two
    // RTTs of reaction time).
    let rate_in = |from: Ns, to: Ns| {
        flow0.iter().filter(|d| d.at >= from && d.at < to).count() as f64
            / (to - from).as_secs_f64()
    };
    let win = Ns::from_millis(1500);
    let before = rate_in(flow1_last.saturating_sub(win), flow1_last);
    let react = flow1_last + Ns::from_millis(300);
    let after = rate_in(react, react + win);
    table.note(&format!(
        "\nflow 0 delivery rate: {before:.0} pkt/s before departure, {after:.0} pkt/s after"
    ));
    table.note(&format!(
        "ratio: {:.2}x (paper: ~2x within about one RTT)",
        after / before.max(1.0)
    ));
    Ok(table.finish())
}

/// Generic engine run plus a trace-utilization column for the cellular
/// experiments: on a trace-driven link, utilization must be measured
/// against the capacity the schedule *actually delivered* over the
/// simulated window (`LinkSpec::delivered_capacity_bits`), not a nominal
/// constant rate — an LTE trace's instantaneous rate swings far from its
/// long-term average, so the nominal denominator can be off severalfold
/// over short windows.
fn run_lte_trace(spec: &ExperimentSpec) -> Result<ExperimentReport, String> {
    let results = Experiment::new(spec.clone()).run()?;
    let mut rep = results.report();
    let link = spec.workload.link.resolve()?;
    let capacity = link.delivered_capacity_bits(MSS, spec.budget.duration());
    let util =
        |run: &Vec<FlowSummary>| run.iter().map(|f| f.bytes as f64 * 8.0).sum::<f64>() / capacity;
    let per_run = |cell: &CellResult| -> Vec<f64> { cell.runs.iter().map(util).collect() };
    let utils: Vec<f64> = results.cells.iter().map(|c| mean(&per_run(c))).collect();
    assert_eq!(rep.csv_rows.len(), utils.len(), "one CSV row per cell");
    rep.csv_header.push_str(",mean_utilization");
    for (row, u) in rep.csv_rows.iter_mut().zip(&utils) {
        row.push_str(&format!(",{u}"));
    }
    let _ = writeln!(
        rep.text,
        "\nutilization of delivered trace capacity ({}):",
        link.label()
    );
    for (cell, u) in results.cells.iter().zip(&utils) {
        let _ = writeln!(rep.text, "  {:<16} {:>5.1}%", cell.label, u * 100.0);
    }
    Ok(rep)
}

fn run_fig10(spec: &ExperimentSpec) -> Result<ExperimentReport, String> {
    let results = Experiment::new(spec.clone()).run()?;
    let rtt_ms: Vec<u64> = spec
        .workload
        .senders
        .iter()
        .map(|s| s.rtt.0 / 1_000_000)
        .collect();
    let Some(&last_ms) = rtt_ms.last() else {
        return Err(format!("{}: the RTT sweep has no senders", spec.name));
    };
    let mut cols = vec![label_col("scheme", 16)];
    cols.extend(
        rtt_ms
            .iter()
            .map(|ms| col(format!("{ms} ms"), format!("share{ms},se{ms}"), 14, 3)),
    );
    let mut table = Table::new(&budget_title(&spec.title, spec.budget), cols);
    for cell in &results.cells {
        // Per-sender (= per-RTT) mean throughput and standard error.
        let prof: Vec<(f64, f64)> = (0..rtt_ms.len())
            .map(|i| {
                let samples: Vec<f64> = cell
                    .runs
                    .iter()
                    .filter(|run| run[i].was_active())
                    .map(|run| run[i].throughput_mbps)
                    .collect();
                (mean(&samples), std_err(&samples))
            })
            .collect();
        let best = prof
            .iter()
            .map(|&(m, _)| m)
            .fold(f64::MIN, f64::max)
            .max(1e-9);
        let mut row = vec![Field::Label(cell.label.clone())];
        row.extend(prof.iter().map(|&(m, se)| {
            let (m, se) = (m / best, se / best);
            Field::Pre(
                format!("{:>14}", format!("{m:.3}±{se:.3}")),
                format!("{m},{se}"),
            )
        }));
        table.row(row);
        // `prof` has one entry per sender, so it is as non-empty as `rtt_ms`.
        if let Some(&(worst, _)) = prof.last() {
            table.note(&format!(
                "  -> {last_ms} ms flow keeps {:.2} of the best share",
                worst / best
            ));
        }
    }
    Ok(table.finish())
}

/// The contender × sweep-point pivot Fig. 11 and the loss ablation share:
/// one row per contender, one `point_col` column per sweep value, each
/// cell `value(cell, sweep value)`; `head_note` trails the header line.
fn pivot_report(
    spec: &ExperimentSpec,
    points: &[f64],
    point_col: impl Fn(f64) -> Col,
    head_note: &str,
    value: impl Fn(&CellResult, f64) -> f64,
) -> Result<ExperimentReport, String> {
    let results = Experiment::new(spec.clone()).run()?;
    let mut cols = vec![label_col("scheme", 16)];
    cols.extend(points.iter().map(|&p| point_col(p)));
    if let Some(last) = cols.last_mut() {
        last.head = format!("{:>w$}{head_note}", last.head, w = last.width);
    }
    let mut table = Table::new(&budget_title(&spec.title, spec.budget), cols);
    // Contender labels in spec order, from the already-run cells.
    for first in results.cells.iter().filter(|c| c.point_index == 0) {
        let mut row = vec![Field::Label(first.label.clone())];
        for (pi, &p) in points.iter().enumerate() {
            let cell = results
                .cell(pi, &first.label)
                .ok_or_else(|| format!("missing cell {}@{p}", first.label))?;
            row.push(Field::Num(value(cell, p)));
        }
        table.row(row);
    }
    Ok(table.finish())
}

fn run_fig11(spec: &ExperimentSpec) -> Result<ExperimentReport, String> {
    let Some(SweepAxis::LinkMbps(speeds)) = spec.sweeps.first() else {
        return Err("fig11 spec needs a link_mbps sweep".to_string());
    };
    pivot_report(
        spec,
        speeds,
        |s| col(format!("{s}"), format!("mbps_{s}"), 7, 2),
        "  (Mbps; 10x design range is 4.7-47)",
        |cell, mbps| {
            // Per-sender mean of log(norm tput) − log(norm delay), with
            // normalized throughput = share of the fair rate (link/2) and
            // delay = mean RTT over the 150 ms propagation floor.
            let fair = mbps / 2.0;
            let o = &cell.outcome;
            let mut total = 0.0;
            let mut count = 0usize;
            for (t, r) in o.throughput_samples.iter().zip(&o.rtt_samples) {
                total += (t / fair).max(1e-6).ln() - (r / 150.0).max(1e-6).ln();
                count += 1;
            }
            total / count.max(1) as f64
        },
    )
}

/// One §5.6 head-to-head: the coexistence RemyCC and a rival scheme share
/// one dumbbell. `point_stream` seeds the run set (common random numbers
/// across rivals at the same stream). Returns the table cells `RemyCC
/// mean (sd)` and `rival mean (sd)`.
fn head_to_head(
    spec: &ExperimentSpec,
    rival: &Contender,
    traffic: &TrafficSpec,
    point_stream: u64,
) -> Result<[Field; 2], String> {
    let remy = spec.contenders[0].build()?;
    let mut wl = spec.workload.clone();
    for s in &mut wl.senders {
        s.traffic = traffic.clone();
    }
    let point_seed = SimRng::split_seed(spec.seed, point_stream);
    let mut remy_t = Vec::new();
    let mut rival_t = Vec::new();
    for k in 0..spec.budget.runs {
        let run_seed = SimRng::split_seed(point_seed, k as u64);
        let scenario = wl.scenario(
            netsim::queue::QueueSpec::DropTail {
                capacity: wl.queue_capacity,
            },
            spec.budget.duration(),
            run_seed,
        )?;
        // Two schemes in one simulation: the one run no single
        // contender's `simulate` covers.
        let ccs = vec![remy.build_cc(), rival.build_cc()];
        let r = Simulator::new(&scenario, ccs, None).run();
        if r.flows[0].was_active() {
            remy_t.push(r.flows[0].throughput_mbps);
        }
        if r.flows[1].was_active() {
            rival_t.push(r.flows[1].throughput_mbps);
        }
    }
    Ok([&remy_t, &rival_t].map(|t| {
        let (m, sd) = (mean(t), std_dev(t));
        Field::Pre(format!("{m:>13.2} ({sd:.2})"), format!("{m},{sd}"))
    }))
}

fn run_table_competing(spec: &ExperimentSpec) -> Result<ExperimentReport, String> {
    let compound = spec.contenders[1].build()?;
    let cubic = spec.contenders[2].build()?;
    let Some(SweepAxis::OffMeanMs(off_sweep)) = spec.sweeps.first() else {
        return Err("table_competing spec needs an off_mean_ms sweep".to_string());
    };
    let cols = |param: &str, rival: &str| {
        vec![
            col(param, "rival,param", 12, 0),
            col("RemyCC tput (sd)", "remy_mean,remy_sd", 20, 2),
            col(format!("{rival} tput (sd)"), "rival_mean,rival_sd", 20, 2),
        ]
    };

    let mut table = Table::new(
        &budget_title(
            "§5.6-a — RemyCC vs Compound, empirical flows, off-time sweep",
            spec.budget,
        ),
        cols("off time", "Compound"),
    );
    for (pi, &off_ms) in off_sweep.iter().enumerate() {
        // The spec's own (empirical flow-length) senders, at this off time.
        let mut traffic = spec.workload.senders[0].traffic.clone();
        traffic.off_mean = Ns::from_millis(off_ms);
        let [remy, rival] = head_to_head(spec, &compound, &traffic, pi as u64)?;
        let param = Field::Pre(format!("{off_ms:>9} ms"), format!("compound,{off_ms}"));
        table.row(vec![param, remy, rival]);
    }

    let mut part_b = Table::new(
        &budget_title(
            "§5.6-b — RemyCC vs Cubic, exponential flows, size sweep",
            spec.budget,
        ),
        cols("mean size", "Cubic"),
    );
    for (j, mean_kb) in [100u64, 1000].into_iter().enumerate() {
        let traffic = TrafficSpec {
            on: OnSpec::ByBytes {
                mean_bytes: mean_kb as f64 * 1000.0,
            },
            off_mean: Ns::from_millis(500),
            start_on: false,
        };
        // Streams beyond the off-time grid keep part b independent.
        let [remy, rival] = head_to_head(spec, &cubic, &traffic, 1000 + j as u64)?;
        let param = Field::Pre(format!("{mean_kb:>9} kB"), format!("cubic,{mean_kb}"));
        part_b.row(vec![param, remy, rival]);
    }
    // One report: part b's text follows part a's, its rows join the CSV.
    let (mut rep, part_b) = (table.finish(), part_b.finish());
    rep.text.push('\n');
    rep.text.push_str(&part_b.text);
    rep.csv_rows.extend(part_b.csv_rows);
    Ok(rep)
}

fn run_table_datacenter(spec: &ExperimentSpec) -> Result<ExperimentReport, String> {
    let results = Experiment::new(spec.clone()).run()?;
    let mut table = Table::new(
        &budget_title(&spec.title, spec.budget),
        vec![
            label_col("scheme", 20),
            col("tput mean", "tput_mean_mbps", 12, 1),
            col("tput median", "tput_median_mbps", 12, 1),
            col("tput sd", "tput_sd", 10, 1),
            col("rtt mean", "rtt_mean_ms", 10, 2),
            col("rtt med", "rtt_median_ms", 10, 2),
        ],
    );
    let mbps = |v: f64| Field::Pre(format!("{v:>9.1} M"), format!("{v}"));
    let ms = |v: f64| Field::Pre(format!("{v:>8.2}ms"), format!("{v}"));
    for cell in &results.cells {
        let o = &cell.outcome;
        table.row(vec![
            Field::Label(o.label.clone()),
            mbps(mean(&o.throughput_samples)),
            mbps(o.median_throughput_mbps),
            Field::Num(std_dev(&o.throughput_samples)),
            ms(mean(&o.rtt_samples)),
            ms(o.median_rtt_ms),
        ]);
    }
    table.note("\npaper shape: comparable throughput, RemyCC lower variance, higher RTT.");
    Ok(table.finish())
}

fn run_ablation_signals(spec: &ExperimentSpec) -> Result<ExperimentReport, String> {
    let results = Experiment::new(spec.clone()).run()?;
    let mut table = Table::new(
        &budget_title(&spec.title, spec.budget),
        vec![
            label_col("variant", 14),
            col("tput Mbps", "median_tput", 12, 3),
            col("qdelay ms", "median_qdelay", 12, 2),
        ],
    );
    for cell in &results.cells {
        table.row(vec![
            Field::Label(cell.label.clone()),
            Field::Num(cell.outcome.median_throughput_mbps),
            Field::Num(cell.outcome.median_queue_delay_ms),
        ]);
    }
    Ok(table.finish())
}

fn run_ablation_loss(spec: &ExperimentSpec) -> Result<ExperimentReport, String> {
    let Some(SweepAxis::LossRate(loss_rates)) = spec.sweeps.first() else {
        return Err("ablation_loss spec needs a loss_rate sweep".to_string());
    };
    pivot_report(
        spec,
        loss_rates,
        |p| col(format!("{:.1}%", p * 100.0), format!("loss_{p}"), 9, 3),
        "",
        |cell, _| cell.outcome.median_throughput_mbps,
    )
}

/// Median of one statistic pooled over a subset of senders across all of
/// a cell's runs (active senders only, as in the paper's per-sender
/// statistics).
fn pooled_median(
    runs: &[Vec<netsim::metrics::FlowSummary>],
    senders: std::ops::Range<usize>,
    stat: impl Fn(&netsim::metrics::FlowSummary) -> f64,
) -> f64 {
    let pool: Vec<f64> = runs
        .iter()
        .flat_map(|run| run[senders.clone()].iter())
        .filter(|f| f.was_active())
        .map(stat)
        .collect();
    median(&pool)
}

fn run_parking_lot3(spec: &ExperimentSpec) -> Result<ExperimentReport, String> {
    let results = Experiment::new(spec.clone()).run()?;
    let n_hops = spec
        .workload
        .topology
        .as_ref()
        .and_then(|t| t.n_flow_hops())
        .ok_or("parking_lot3 spec needs a hop-list topology")?;
    let n = spec.workload.n();
    let n_long = n - n_hops;
    let mut table = Table::new(
        &budget_title(&spec.title, spec.budget),
        vec![
            label_col("scheme", 16),
            col("e2e tput Mbps", "e2e_median_tput_mbps", 14, 3),
            col("cross tput", "cross_median_tput_mbps", 14, 3),
            col("e2e qdelay ms", "e2e_median_qdelay_ms", 14, 2),
            col("cross qdelay", "cross_median_qdelay_ms", 14, 2),
        ],
    );
    for cell in &results.cells {
        table.row(vec![
            Field::Label(cell.label.clone()),
            Field::Num(pooled_median(&cell.runs, 0..n_long, |f| f.throughput_mbps)),
            Field::Num(pooled_median(&cell.runs, n_long..n, |f| f.throughput_mbps)),
            Field::Num(pooled_median(&cell.runs, 0..n_long, |f| {
                f.mean_queue_delay_ms
            })),
            Field::Num(pooled_median(&cell.runs, n_long..n, |f| {
                f.mean_queue_delay_ms
            })),
        ]);
    }
    table.note(&format!(
        "\nend-to-end flows cross {n_hops} queues and pay queueing at each; \
         proportionally-fair schemes still grant them a non-zero share"
    ));
    Ok(table.finish())
}

fn run_incast16(spec: &ExperimentSpec) -> Result<ExperimentReport, String> {
    let results = Experiment::new(spec.clone()).run()?;
    let n = spec.workload.n();
    let mut table = Table::new(
        &budget_title(&spec.title, spec.budget),
        vec![
            label_col("scheme", 18),
            col("agg tput Mbps", "agg_mean_tput_mbps", 14, 2),
            col("per-flow med", "per_flow_median_tput_mbps", 14, 3),
            col("rtt med ms", "median_rtt_ms", 12, 2),
        ],
    );
    let wall_secs = spec.budget.sim_secs as f64;
    for cell in &results.cells {
        // Aggregate goodput over the wall clock (per-flow `throughput_mbps`
        // normalizes by each sender's on-time, so summing those would
        // overshoot the link rate whenever flows take turns).
        let agg: Vec<f64> = cell
            .runs
            .iter()
            .map(|run| run.iter().map(|f| f.bytes as f64 * 8.0).sum::<f64>() / wall_secs / 1e6)
            .collect();
        table.row(vec![
            Field::Label(cell.label.clone()),
            Field::Num(mean(&agg)),
            Field::Num(pooled_median(&cell.runs, 0..n, |f| f.throughput_mbps)),
            Field::Num(pooled_median(&cell.runs, 0..n, |f| f.mean_rtt_ms)),
        ]);
    }
    table.note(
        "\nthe shallow 64-packet aggregation buffer punishes synchronized \
         window bursts; ECN (DCTCP) and delay-aware control avoid collapse",
    );
    Ok(table.finish())
}

fn run_reverse_path(spec: &ExperimentSpec) -> Result<ExperimentReport, String> {
    let results = Experiment::new(spec.clone()).run()?;
    let mut table = Table::new(
        &budget_title(&spec.title, spec.budget),
        vec![
            label_col("scheme", 16),
            col("east tput", "east_median_tput_mbps", 12, 3),
            col("west tput", "west_median_tput_mbps", 12, 3),
            col("east rtt ms", "east_median_rtt_ms", 12, 1),
            col("west rtt ms", "west_median_rtt_ms", 12, 1),
        ],
    );
    for cell in &results.cells {
        table.row(vec![
            Field::Label(cell.label.clone()),
            Field::Num(pooled_median(&cell.runs, 0..1, |f| f.throughput_mbps)),
            Field::Num(pooled_median(&cell.runs, 1..2, |f| f.throughput_mbps)),
            Field::Num(pooled_median(&cell.runs, 0..1, |f| f.mean_rtt_ms)),
            Field::Num(pooled_median(&cell.runs, 1..2, |f| f.mean_rtt_ms)),
        ]);
    }
    table.note(
        "\nRTTs include ACK queueing behind the opposing direction's data — \
         the reverse-path congestion the paper's dumbbell rules out",
    );
    Ok(table.finish())
}

fn run_web_churn(spec: &ExperimentSpec) -> Result<ExperimentReport, String> {
    let results = Experiment::new(spec.clone()).run()?;
    let n = spec.workload.n();
    let mut table = Table::new(
        &budget_title(&spec.title, spec.budget),
        vec![
            label_col("scheme", 16),
            col("spawned", "spawned", 9, 0),
            col("done", "completed", 9, 0),
            col("done%", "completed_pct", 7, 1),
            col("fct p50 ms", "fct_p50_ms", 10, 2),
            col("fct p90 ms", "fct_p90_ms", 10, 2),
            col("fct p99 ms", "fct_p99_ms", 10, 2),
            col("pers tput", "persistent_median_tput_mbps", 12, 3),
        ],
    );
    for cell in &results.cells {
        let mut spawned = 0u64;
        let mut completed = 0u64;
        // Pool the per-run FCT reservoirs: each is an unbiased sample of
        // its run's completions, and the runs are identically budgeted.
        let mut fct_ms: Vec<f64> = Vec::new();
        for p in cell.populations.iter().flatten() {
            spawned += p.spawned;
            completed += p.completed;
            fct_ms.extend(p.fct_sample_secs.iter().map(|s| s * 1e3));
        }
        if spawned == 0 {
            return Err(format!("'{}': churn run spawned no flows", spec.name));
        }
        fct_ms.sort_by(f64::total_cmp);
        table.row(vec![
            Field::Label(cell.label.clone()),
            Field::Num(spawned as f64),
            Field::Num(completed as f64),
            Field::Num(100.0 * completed as f64 / spawned as f64),
            Field::Num(quantile(&fct_ms, 0.5)),
            Field::Num(quantile(&fct_ms, 0.9)),
            Field::Num(quantile(&fct_ms, 0.99)),
            Field::Num(pooled_median(&cell.runs, 0..n, |f| f.throughput_mbps)),
        ]);
    }
    table.note(
        "\nshort transfers finish inside slow-start, so their completion times \
         ride on the queue the persistent senders build; delay-minimizing \
         schemes shorten the tail",
    );
    Ok(table.finish())
}

/// The earliest scheduled link failure (the first listed, among equals).
fn earliest_failure(events: &[LinkEventSpec]) -> Option<&LinkEventSpec> {
    events.iter().filter(|e| !e.up).min_by_key(|e| e.at)
}

/// Why a spec's link failure cannot split its run into a pre-failure
/// prefix and a post-failure remainder.
#[derive(Debug, PartialEq)]
enum FailureInstantError {
    /// The spec schedules no `up: false` event on a graph topology.
    NoFailure,
    /// The earliest failure is not a whole second strictly inside the run
    /// (`Budget::sim_secs`, the prefix run's length, is whole seconds).
    NotInsideRun {
        /// The offending event.
        event: LinkEventSpec,
        /// The run it should fall inside.
        sim_secs: u64,
    },
}

impl std::fmt::Display for FailureInstantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureInstantError::NoFailure => {
                write!(f, "spec schedules no link failure (an `up: false` event)")
            }
            FailureInstantError::NotInsideRun { event, sim_secs } => write!(
                f,
                "failure of link '{}' -> '{}' at_ns {} is not a whole number of seconds \
                 strictly inside the {sim_secs} s run",
                event.from, event.to, event.at.0
            ),
        }
    }
}

/// The second at which `spec`'s earliest link failure fires.
fn failure_secs(spec: &ExperimentSpec) -> Result<u64, FailureInstantError> {
    let event = match &spec.workload.topology {
        Some(TopologySpec::Graph(g)) => earliest_failure(&g.events),
        _ => None,
    }
    .ok_or(FailureInstantError::NoFailure)?;
    let secs = event.at.0 / Ns::SECOND.0;
    if event.at != Ns::from_secs(secs) || secs == 0 || secs >= spec.budget.sim_secs {
        return Err(FailureInstantError::NotInsideRun {
            event: event.clone(),
            sim_secs: spec.budget.sim_secs,
        });
    }
    Ok(secs)
}

fn run_failover_chain(spec: &ExperimentSpec) -> Result<ExperimentReport, String> {
    // A second run truncated at the failure instant isolates the
    // pre-failure RTTs: the engine is deterministic and the workload
    // identical, so the truncated run is an exact event-prefix of the
    // full one. Subtracting its RTT sums from the full-run sums leaves
    // exactly the post-failure samples.
    let mut prefix_spec = spec.clone();
    prefix_spec.budget.sim_secs = failure_secs(spec).map_err(|e| e.to_string())?;
    let full = Experiment::new(spec.clone()).run()?;
    let prefix = Experiment::new(prefix_spec).run()?;
    let mut table = Table::new(
        &budget_title(&spec.title, spec.budget),
        vec![
            label_col("scheme", 16),
            col("pre-fail rtt ms", "pre_fail_rtt_ms", 16, 2),
            col("post-fail rtt ms", "post_fail_rtt_ms", 16, 2),
            col("median tput Mbps", "median_tput_mbps", 16, 3),
        ],
    );
    for (cell, pre_cell) in full.cells.iter().zip(&prefix.cells) {
        let mut pre_sum = 0.0;
        let mut pre_n = 0u64;
        let mut full_sum = 0.0;
        let mut full_n = 0u64;
        for (run, pre_run) in cell.runs.iter().zip(&pre_cell.runs) {
            for (f, p) in run.iter().zip(pre_run) {
                full_sum += f.mean_rtt_ms * f.rtt_samples as f64;
                full_n += f.rtt_samples;
                pre_sum += p.mean_rtt_ms * p.rtt_samples as f64;
                pre_n += p.rtt_samples;
            }
        }
        if pre_n == 0 || full_n <= pre_n {
            return Err(format!(
                "{}: both failure windows need RTT samples (pre={pre_n}, total={full_n}); \
                 raise --secs",
                cell.label
            ));
        }
        table.row(vec![
            Field::Label(cell.label.clone()),
            Field::Num(pre_sum / pre_n as f64),
            Field::Num((full_sum - pre_sum) / (full_n - pre_n) as f64),
            Field::Num(pooled_median(&cell.runs, 0..spec.workload.n(), |f| {
                f.throughput_mbps
            })),
        ]);
    }
    table.note(
        "\nthe backup path raises the propagation floor by 20 ms of RTT \
         (60 ms vs 40), so the post-failure RTT must step up if the reroute worked",
    );
    Ok(table.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_twenty_one_experiments() {
        assert_eq!(all().len(), 21);
        assert!(by_name("fig4").is_some());
        assert!(by_name("parking_lot3").is_some());
        assert!(by_name("fig99").is_none());
        // The spec files are the registry: an unregistered file or a
        // registered name without its file fails by name. (`entry!` embeds
        // `specs/<name>.json`, so only the first can happen silently.)
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        let mut files: Vec<String> = std::fs::read_dir(dir)
            .expect("specs/ exists")
            .map(|f| f.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        files.sort_unstable();
        let mut names: Vec<&str> = all().iter().map(|e| e.name).collect();
        names.sort_unstable();
        assert_eq!(files, names, "specs/*.json stems vs registry names");
    }

    #[test]
    fn topology_experiments_run_at_smoke_budget() {
        let tiny = Budget {
            runs: 2,
            sim_secs: 3,
        };
        for (name, contenders) in [
            ("parking_lot3", 3),
            ("incast16", 3),
            ("reverse_path", 3),
            ("failover_chain", 2),
            ("fattree_k4_crosstraffic", 3),
        ] {
            let rep = run_named(name, tiny).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!rep.csv_rows.is_empty(), "{name} produced CSV rows");
            assert_eq!(
                rep.csv_rows.len(),
                contenders,
                "{name}: one row per contender"
            );
            assert!(rep.text.contains("=="), "{name} printed a table");
        }
    }

    #[test]
    fn failover_chain_rtt_steps_up_after_the_link_failure() {
        // The acceptance check for the failure dynamics: the post-failure
        // RTT must sit a clear step above the pre-failure RTT (the backup
        // path costs 20 ms more of round-trip propagation), for every
        // contender, and the flows must keep delivering after the switch.
        let rep = run_named(
            "failover_chain",
            Budget {
                runs: 1,
                sim_secs: 8,
            },
        )
        .expect("failover_chain runs");
        assert_eq!(rep.csv_rows.len(), 2, "one row per contender");
        for row in &rep.csv_rows {
            let cols: Vec<&str> = row.split(',').collect();
            let pre: f64 = cols[1].parse().expect("pre RTT");
            let post: f64 = cols[2].parse().expect("post RTT");
            let tput: f64 = cols[3].parse().expect("throughput");
            assert!(
                pre >= 40.0,
                "{row}: pre-failure RTT sits on the 40 ms primary floor"
            );
            assert!(
                post > pre + 10.0,
                "{row}: post-failure RTT steps up with the 20 ms slower backup path"
            );
            assert!(tput > 0.0, "{row}: flows keep delivering after failover");
        }
    }

    #[test]
    fn lte_experiments_report_delivered_capacity_utilization() {
        // The cellular experiments append a mean_utilization column
        // measured against the trace's delivered capacity over the
        // simulated window (not the nominal average rate).
        let rep = run_named(
            "fig7",
            Budget {
                runs: 1,
                sim_secs: 3,
            },
        )
        .expect("fig7 runs");
        assert!(
            rep.csv_header.ends_with(",mean_utilization"),
            "header: {}",
            rep.csv_header
        );
        assert!(rep.text.contains("utilization of delivered trace capacity"));
        for row in &rep.csv_rows {
            assert_eq!(
                row.split(',').count(),
                rep.csv_header.split(',').count(),
                "row width matches header: {row}"
            );
            let util: f64 = row.rsplit(',').next().unwrap().parse().expect("numeric");
            assert!(
                (0.0..=1.05).contains(&util),
                "utilization in [0, 1] (+rounding): {util}"
            );
        }
    }

    #[test]
    fn parking_lot_cross_traffic_outpaces_end_to_end_flows() {
        // End-to-end flows pay three queues; per-hop cross traffic pays
        // one. Any loss-based scheme should show the gap.
        let spec = by_name("parking_lot3").unwrap().spec(Budget {
            runs: 2,
            sim_secs: 10,
        });
        let results = Experiment::new(spec).run().expect("runs");
        let reno = results
            .cells
            .iter()
            .find(|c| c.label == "NewReno")
            .expect("newreno cell");
        let e2e = pooled_median(&reno.runs, 0..2, |f| f.throughput_mbps);
        let cross = pooled_median(&reno.runs, 2..5, |f| f.throughput_mbps);
        assert!(e2e > 0.0 && cross > 0.0);
        assert!(
            cross > e2e,
            "cross traffic crosses fewer bottlenecks: cross={cross} e2e={e2e}"
        );
    }

    #[test]
    fn web_churn_smoke_reaches_ten_thousand_flows() {
        // The CI smoke budget: each run must still see ≥ 10k arrivals.
        let spec = by_name("web_churn").unwrap().spec(Budget {
            runs: 2,
            sim_secs: 5,
        });
        let results = Experiment::new(spec).run().expect("runs");
        for cell in &results.cells {
            for p in &cell.populations {
                let p = p.as_ref().expect("population stats");
                assert!(
                    p.spawned >= 9_000,
                    "{}: λ=2000/s for 5 s spawns ~10k flows, got {}",
                    cell.label,
                    p.spawned
                );
                assert!(
                    p.completed as f64 > 0.8 * p.spawned as f64,
                    "{}: most transfers complete, got {}/{}",
                    cell.label,
                    p.completed,
                    p.spawned
                );
            }
        }
        let rep = run_named(
            "web_churn",
            Budget {
                runs: 1,
                sim_secs: 3,
            },
        )
        .expect("report");
        assert_eq!(rep.csv_rows.len(), 3, "one row per contender");
        assert!(rep.csv_header.contains("fct_p99_ms"));
    }

    #[test]
    fn reverse_path_rtt_exceeds_propagation_floor() {
        let spec = by_name("reverse_path").unwrap().spec(Budget {
            runs: 1,
            sim_secs: 10,
        });
        let results = Experiment::new(spec).run().expect("runs");
        for cell in &results.cells {
            let rtt = pooled_median(&cell.runs, 0..1, |f| f.mean_rtt_ms);
            assert!(
                rtt > 100.0,
                "{}: ACK queueing keeps RTT above the 100 ms floor, got {rtt}",
                cell.label
            );
        }
    }

    #[test]
    fn every_named_experiment_expands_to_nonempty_scenarios() {
        let tiny = Budget {
            runs: 2,
            sim_secs: 3,
        };
        for entry in all() {
            let spec = entry.spec(tiny);
            assert_eq!(spec.name, entry.name);
            let cells = spec.expand().unwrap_or_else(|e| {
                panic!("{} failed to expand: {e}", entry.name);
            });
            assert!(!cells.is_empty(), "{} expands to no cells", entry.name);
            for cell in &cells {
                assert!(
                    !cell.scenarios.is_empty(),
                    "{} cell has no scenarios",
                    entry.name
                );
                for sc in &cell.scenarios {
                    assert!(sc.n() > 0);
                    assert!(sc.duration > Ns::ZERO);
                }
            }
            // The spec itself round-trips.
            let back = ExperimentSpec::from_json(&spec.to_json())
                .unwrap_or_else(|e| panic!("{} spec does not re-parse: {e}", entry.name));
            assert_eq!(back, spec, "{} spec round trip", entry.name);
        }
    }

    #[test]
    fn contender_lineups() {
        // The Figs. 4–9 line-up: the three general-purpose RemyCCs plus
        // every baseline, each buildable from the shipped tables.
        let all_c = by_name("fig4").unwrap().committed_spec().contenders;
        assert_eq!(all_c.len(), 9);
        let labels: Vec<String> = all_c
            .iter()
            .map(|c| c.build().expect("shipped tables").label())
            .collect();
        assert!(labels.iter().any(|l| l.contains("Cubic/sfqCoDel")));
        assert!(labels.iter().any(|l| l.contains("RemyCC")));
    }

    #[test]
    fn smallest_generic_experiment_runs_through_registry() {
        let rep = run_named(
            "fig6",
            Budget {
                runs: 1,
                sim_secs: 4,
            },
        )
        .expect("fig6 runs");
        assert!(rep.text.contains("flow 0 delivery rate"));
        assert!(!rep.csv_rows.is_empty());
        // The CSV takes the registry name.
        let path = rep.write_csv(by_name("fig6").unwrap().name).unwrap();
        assert!(path.ends_with("fig6.csv"), "{}", path.display());
    }

    #[test]
    fn fig6_without_a_delivery_log_is_an_error_naming_the_key() {
        let entry = by_name("fig6").unwrap();
        let mut spec = entry.committed_spec();
        spec.workload.record_deliveries = false;
        let err = entry.run(&spec).expect_err("no numbers are printed");
        assert!(err.contains("workload.record_deliveries"), "{err}");
    }

    #[test]
    fn fig6_with_a_capped_delivery_log_is_an_error_giving_the_drops() {
        // A log that overflowed its cap stops short of the run's end: the
        // plot would flatten and the departure read early.
        let spec = by_name("fig6").unwrap().committed_spec();
        let results = SimResults {
            deliveries: vec![netsim::metrics::DeliveryRecord {
                at: Ns::from_secs(1),
                flow: 1,
                seq: 7,
            }],
            deliveries_dropped: 123_456,
            duration: spec.budget.duration(),
            ..SimResults::default()
        };
        let err = fig6_report(&spec, &results).expect_err("no numbers are printed");
        assert!(err.contains("123456"), "{err}");
        let whole = SimResults {
            deliveries_dropped: 0,
            ..results
        };
        assert!(fig6_report(&spec, &whole).is_ok());
    }

    /// The committed `failover_chain` spec with its failure moved to `at`.
    fn failover_spec_failing_at(at: Ns) -> ExperimentSpec {
        let mut spec = by_name("failover_chain").unwrap().committed_spec();
        let Some(TopologySpec::Graph(g)) = &mut spec.workload.topology else {
            panic!("failover_chain runs on a graph topology");
        };
        for e in &mut g.events {
            e.at = at;
        }
        spec
    }

    #[test]
    fn failover_prefix_run_ends_at_the_specs_own_failure_instant() {
        // A copy of the golden with an edited `events[].at_ns` and no
        // `--secs`: the pre-failure window is the spec's 10 s, not a
        // re-derived 30 / 2 that would straddle the failure.
        assert_eq!(
            failure_secs(&failover_spec_failing_at(Ns::from_secs(10))),
            Ok(10)
        );
    }

    #[test]
    fn failover_instant_outside_the_run_is_an_error_naming_the_event() {
        for at in [Ns::from_millis(10_500), Ns::ZERO, Ns::from_secs(30)] {
            let spec = failover_spec_failing_at(at);
            let Err(FailureInstantError::NotInsideRun { event, sim_secs }) = failure_secs(&spec)
            else {
                panic!("{at}: accepted");
            };
            assert_eq!((event.from.as_str(), event.to.as_str()), ("b", "c"));
            assert_eq!((event.at, sim_secs), (at, 30));
            let err = run_failover_chain(&spec).expect_err("no numbers are printed");
            assert!(
                err.contains("'b' -> 'c'") && err.contains(&at.0.to_string()),
                "{err}"
            );
        }
        let mut spec = failover_spec_failing_at(Ns::from_secs(10));
        spec.workload.topology = None;
        assert_eq!(failure_secs(&spec), Err(FailureInstantError::NoFailure));
    }
}
