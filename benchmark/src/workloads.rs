//! The four workloads: how each is set up from its frozen inputs and a
//! seed, what one pass runs, and which invariants its output must keep.
//!
//! A pass calls only public functions of the library crates. For the three
//! spec workloads it is the recipe behind `Experiment::run`, written out
//! simulation by simulation so that the same code runs timed (tracer off)
//! and traced (tracer on); `run.sh` checks that its bytes equal those of
//! `remy-cli run <spec> --out csv`.

use crate::trace::Tracer;
use netsim::cc::CongestionControl;
use netsim::json::Value;
use netsim::metrics::{FlowSummary, PopulationSummary, SimResults};
use netsim::sim::Simulator;
use remy::action::Action;
use remy::evaluator::{EvalConfig, Evaluator};
use remy::model::NetworkModel;
use remy::objective::Objective;
use remy::optimizer::{Remy, TrainConfig, TrainEvent, K_SUBDIVIDE};
use remy::whisker::WhiskerTree;
use remy_sim::experiment::{CellResult, ExperimentCell, ExperimentResults};
use remy_sim::harness::{Contender, Outcome};
use remy_sim::spec::{Budget, ContenderSpec, ExperimentSpec, TopologySpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["fig4_dumbbell", "churn_100k", "fattree_flap", "train_step"];
pub const INPUT_DIR: &str = "benchmark/inputs";
pub const DEFAULT_SEED: u64 = 2013;

/// `train_step`'s frozen training configuration. The specimen-draw seed is
/// frozen with it: four specimens of `NetworkModel::general()` differ up to
/// twofold in host cost from one draw seed to the next (3.6–6.9 s per pass
/// over six seeds), which no number of passes would steady, so `--seed` does
/// not reach this workload and every run does identical work.
const TRAIN_SEED: u64 = DEFAULT_SEED;
pub const TRAIN_TABLE: &str = "benchmark/inputs/tables/delta1.json";
const TRAIN_DELTA: f64 = 1.0;
const TRAIN_STEPS: usize = 2;
const TRAIN_EVAL: EvalConfig = EvalConfig {
    specimens: 4,
    sim_secs: 8.0,
};
const TRAIN_EVAL_CHECK: EvalConfig = EvalConfig {
    specimens: 2,
    sim_secs: 2.0,
};

/// Exact-repeat counts of one pass. Two passes of one workload and seed
/// must agree on every field.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub sims: u64,
    pub sim_seconds: f64,
    pub pkts_forwarded: u64,
    pub pkts_delivered: u64,
    pub queue_drops: u64,
    pub spawned: u64,
    pub completed: u64,
    pub link_events: u64,
    pub reroutes: u64,
    pub failover_drops: u64,
    pub steps: u64,
    pub fresh_candidates: u64,
    pub rules: u64,
    /// Packets forwarded per cell, in contender order.
    pub cell_pkts: Vec<u64>,
}

impl Counts {
    pub fn to_json(&self) -> Value {
        let n = |x: u64| Value::num(x as f64);
        Value::obj(vec![
            ("sims", n(self.sims)),
            ("sim_seconds", Value::num(self.sim_seconds)),
            ("pkts_forwarded", n(self.pkts_forwarded)),
            ("pkts_delivered", n(self.pkts_delivered)),
            ("queue_drops", n(self.queue_drops)),
            ("spawned", n(self.spawned)),
            ("completed", n(self.completed)),
            ("link_events", n(self.link_events)),
            ("reroutes", n(self.reroutes)),
            ("failover_drops", n(self.failover_drops)),
            ("steps", n(self.steps)),
            ("rules", n(self.rules)),
            (
                "cell_pkts",
                Value::Arr(self.cell_pkts.iter().map(|&x| n(x)).collect()),
            ),
        ])
    }
}

/// What one pass produced.
pub struct PassOutput {
    /// The user-visible output: CSV text, or the trained table's JSON.
    pub bytes: String,
    pub counts: Counts,
    /// Host nanoseconds of each unit of the pass, in a fixed order: one per
    /// simulation (construct + run) and then the render for a spec
    /// workload, the whole `design_from` call for `train_step`. `wall_s`
    /// is assembled from the fastest timing of each unit.
    pub unit_ns: Vec<u64>,
    /// Broken invariants; empty on a correct pass.
    pub problems: Vec<String>,
}

pub struct SpecPrepared {
    pub spec: ExperimentSpec,
    pub cells: Vec<ExperimentCell>,
    /// `cell.<slug>` span name per cell, in contender order.
    pub cell_names: Vec<String>,
}

pub struct TrainPrepared {
    pub remy: Remy,
    pub start: WhiskerTree,
}

pub enum Prepared {
    Spec(SpecPrepared),
    Train(TrainPrepared),
}

fn spec_path(workload: &str) -> String {
    format!("{INPUT_DIR}/{workload}.json")
}

/// Layer-row slug of a contender: `remy:…/delta01.json` → `remy_d01`,
/// `cubic+sfqcodel` → `cubic_sfqcodel`, `dctcp:8` → `dctcp`.
pub fn cell_slug(scheme: &str) -> String {
    if let Some(table) = scheme.strip_prefix("remy:") {
        let stem = std::path::Path::new(table)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(table);
        return match stem {
            "delta01" => "remy_d01".to_string(),
            "delta1" | "delta1_deep" => "remy_d1".to_string(),
            "delta10" => "remy_d10".to_string(),
            "datacenter" => "remy_dc".to_string(),
            other => format!("remy_{other}"),
        };
    }
    let base = scheme.split(':').next().unwrap_or(scheme);
    base.replace(['+', '/'], "_")
}

/// The smoke budget `--check` runs a spec workload at.
fn check_budget(workload: &str) -> Budget {
    match workload {
        "fig4_dumbbell" => Budget {
            runs: 2,
            sim_secs: 3,
        },
        _ => Budget {
            runs: 1,
            sim_secs: 1,
        },
    }
}

/// Read and parse a workload's spec, with `--seed` and (under `--check`)
/// the smoke budget applied. The program receives only this generated input.
pub fn load_spec(workload: &str, seed: u64, check: bool) -> Result<ExperimentSpec, String> {
    let path = spec_path(workload);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut spec = ExperimentSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    spec.seed = seed;
    if check {
        spec.budget = check_budget(workload);
    }
    Ok(spec)
}

fn prepare_spec(spec: ExperimentSpec) -> Result<SpecPrepared, String> {
    let cells = spec.expand()?;
    if cells.len() != spec.contenders.len() {
        return Err(format!("spec '{}' must not sweep", spec.name));
    }
    let cell_names = spec
        .contenders
        .iter()
        .map(|c| format!("cell.{}", cell_slug(&c.scheme)))
        .collect();
    Ok(SpecPrepared {
        spec,
        cells,
        cell_names,
    })
}

fn train_config(check: bool) -> TrainConfig {
    TrainConfig {
        eval: if check { TRAIN_EVAL_CHECK } else { TRAIN_EVAL },
        wall_secs: 1e9,
        max_steps: TRAIN_STEPS,
        max_rules: 256,
        seed: TRAIN_SEED,
    }
}

pub fn load_table(path: &str) -> Result<WhiskerTree, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    WhiskerTree::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// One un-cached repetition of a workload's set-up phase: everything
/// between the files on disk and the first simulation.
pub fn setup(workload: &str, seed: u64, check: bool) -> Result<Prepared, String> {
    if workload == "train_step" {
        let start = load_table(TRAIN_TABLE)?;
        let remy = Remy::new(
            NetworkModel::general(),
            Objective::proportional(TRAIN_DELTA),
            train_config(check),
        );
        // `design_from` builds its evaluator from the same three values.
        std::hint::black_box(Evaluator::new(
            remy.model.clone(),
            remy.objective,
            remy.config.eval,
        ));
        return Ok(Prepared::Train(TrainPrepared { remy, start }));
    }
    prepare_spec(load_spec(workload, seed, check)?).map(Prepared::Spec)
}

pub fn pass(prepared: &Prepared, tr: &mut Tracer) -> PassOutput {
    match prepared {
        Prepared::Spec(p) => spec_pass(p, tr),
        Prepared::Train(p) => train_pass(p, tr),
    }
}

/// The text `remy-cli run <spec> --out csv` prints for this report.
pub fn csv_text(header: &str, rows: &[String]) -> String {
    let mut out =
        String::with_capacity(header.len() + 1 + rows.iter().map(|r| r.len() + 1).sum::<usize>());
    out.push_str(header);
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    out
}

/// Link events of the spec that fire within the run.
fn expected_link_events(spec: &ExperimentSpec) -> Option<u64> {
    match &spec.workload.topology {
        Some(TopologySpec::Graph(g)) if !g.events.is_empty() => {
            let end = spec.budget.duration();
            Some(g.events.iter().filter(|e| e.at <= end).count() as u64)
        }
        _ => None,
    }
}

fn check_outcome(o: &Outcome, problems: &mut Vec<String>) {
    if o.throughput_samples.is_empty() {
        problems.push(format!("{}: no active sender", o.label));
    }
    let fields = [
        o.median_throughput_mbps,
        o.median_queue_delay_ms,
        o.median_rtt_ms,
        o.ellipse.mean_x,
        o.ellipse.mean_y,
        o.ellipse.sd_x,
        o.ellipse.sd_y,
        o.ellipse.corr,
    ];
    if fields.iter().any(|f| !f.is_finite()) {
        problems.push(format!("{}: non-finite outcome field", o.label));
    }
}

/// Run every (cell, run) simulation serially and render the CSV: the run
/// phase of `Experiment::run` + `report()`, from already-expanded cells.
fn spec_pass(p: &SpecPrepared, tr: &mut Tracer) -> PassOutput {
    let root = tr.enter("pass");
    let mut problems = Vec::new();
    let mut counts = Counts::default();
    let link_events = expected_link_events(&p.spec);
    let mut per_cell: Vec<Vec<SimResults>> = Vec::with_capacity(p.cells.len());
    let mut unit_ns = Vec::new();
    for (cell, name) in p.cells.iter().zip(&p.cell_names) {
        let cell_span = tr.enter(name);
        let mut runs = Vec::with_capacity(cell.scenarios.len());
        let mut cell_pkts = 0u64;
        for sc in &cell.scenarios {
            let unit = Instant::now();
            let construct = tr.enter("sim.construct");
            let ccs: Vec<Box<dyn CongestionControl>> =
                (0..sc.n()).map(|_| cell.contender.build_cc()).collect();
            let router = cell.contender.router(&sc.link, sc.mss);
            let mut sim = Simulator::new(sc, ccs, router);
            if sc.churn.is_some() {
                let contender = cell.contender.clone();
                sim = sim.with_churn_cc(Box::new(move |_| contender.build_cc()));
            }
            tr.exit(construct);
            let run = tr.enter("sim.run");
            let r = sim.run();
            tr.exit(run);
            unit_ns.push(unit.elapsed().as_nanos() as u64);

            let delivered: u64 = r.flows.iter().map(|f| f.packets_delivered).sum();
            if delivered > r.packets_forwarded {
                problems.push(format!("{name}: delivered {delivered} > forwarded"));
            }
            counts.sims += 1;
            counts.sim_seconds += r.duration.as_secs_f64();
            counts.pkts_forwarded += r.packets_forwarded;
            counts.pkts_delivered += delivered;
            counts.queue_drops += r.queue_drops;
            counts.link_events += r.link_events;
            counts.reroutes += r.reroutes;
            counts.failover_drops += r.failover_drops;
            cell_pkts += r.packets_forwarded;
            if let (Some(churn), Some(pop)) = (&sc.churn, &r.population) {
                counts.spawned += pop.spawned;
                counts.completed += pop.completed;
                let offered = churn.arrivals_per_sec * sc.duration.as_secs_f64();
                if (pop.spawned as f64) < 0.8 * offered {
                    problems.push(format!("{name}: spawned {} of ~{offered}", pop.spawned));
                }
                if pop.completed > pop.spawned {
                    problems.push(format!("{name}: completed > spawned"));
                }
            } else if sc.churn.is_some() {
                problems.push(format!("{name}: churn run without population stats"));
            }
            if let Some(expected) = link_events {
                if r.link_events != expected {
                    problems.push(format!(
                        "{name}: {} link events, spec schedules {expected}",
                        r.link_events
                    ));
                }
                if r.reroutes == 0 {
                    problems.push(format!("{name}: no flow was rerouted"));
                }
            }
            runs.push(r);
        }
        counts.cell_pkts.push(cell_pkts);
        per_cell.push(runs);
        tr.exit(cell_span);
    }

    let unit = Instant::now();
    let render = tr.enter("report.render");
    let cells: Vec<CellResult> = p
        .cells
        .iter()
        .zip(per_cell)
        .map(|(cell, per_run)| {
            let runs: Vec<Vec<FlowSummary>> = per_run.iter().map(|r| r.flows.clone()).collect();
            let populations: Vec<Option<PopulationSummary>> =
                per_run.into_iter().map(|r| r.population).collect();
            let (mut tput, mut delay, mut rtt) = (Vec::new(), Vec::new(), Vec::new());
            for f in runs.iter().flatten().filter(|f| f.was_active()) {
                tput.push(f.throughput_mbps);
                delay.push(f.mean_queue_delay_ms);
                rtt.push(f.mean_rtt_ms);
            }
            CellResult {
                point_index: cell.point_index,
                point: cell.point.clone(),
                label: cell.contender.label(),
                runs,
                populations,
                outcome: Outcome::from_samples(cell.contender.label(), tput, delay, rtt),
            }
        })
        .collect();
    let results = ExperimentResults {
        spec: p.spec.clone(),
        cells,
    };
    let report = results.report();
    let bytes = csv_text(&report.csv_header, &report.csv_rows);
    tr.exit(render);
    unit_ns.push(unit.elapsed().as_nanos() as u64);
    for c in &results.cells {
        check_outcome(&c.outcome, &mut problems);
    }
    counts.rules = p
        .cells
        .iter()
        .map(|c| match &c.contender {
            Contender::Remy { table, .. } => table.len() as u64,
            Contender::Baseline(_) => 0,
        })
        .sum();
    tr.exit(root);
    PassOutput {
        bytes,
        counts,
        unit_ns,
        problems,
    }
}

/// `Remy::design_from` for two improve steps; the output is the table.
fn train_pass(p: &TrainPrepared, tr: &mut Tracer) -> PassOutput {
    let root = tr.enter("pass");
    let mut done = None;
    let unit = Instant::now();
    let span = tr.enter("optimizer.design_from");
    let tree = p.remy.design_from(p.start.clone(), |e| {
        if let TrainEvent::Done {
            rules,
            score,
            steps,
        } = e
        {
            done = Some((rules, score, steps));
        }
    });
    tr.exit(span);
    let unit_ns = vec![unit.elapsed().as_nanos() as u64];
    let mut problems = Vec::new();
    let mut counts = Counts::default();
    match done {
        Some((rules, score, steps)) => {
            counts.steps = steps as u64;
            counts.rules = rules as u64;
            if steps != p.remy.config.max_steps {
                problems.push(format!(
                    "trained {steps} steps, not {}",
                    p.remy.config.max_steps
                ));
            }
            if !score.is_finite() {
                problems.push("final score is not finite".to_string());
            }
            if rules < p.start.len() {
                problems.push("training lost rules".to_string());
            }
        }
        None => problems.push("design_from never reported Done".to_string()),
    }
    let bytes = tree.to_json();
    tr.exit(root);
    PassOutput {
        bytes,
        counts,
        unit_ns,
        problems,
    }
}

/// The optimizer's improve loop replayed through the evaluator's public
/// functions, each call a span. It yields the evaluator-side counts that
/// `design_from` does not report, and the table it reaches.
pub struct Replay {
    pub tree: WhiskerTree,
    pub sims: u64,
    pub steps: u64,
    pub fresh_candidates: u64,
}

fn action_key(a: &Action) -> [u64; 3] {
    [
        a.window_multiple.to_bits(),
        a.window_increment.to_bits(),
        a.intersend_ms.to_bits(),
    ]
}

pub fn replay_design(p: &TrainPrepared, tr: &mut Tracer) -> Result<Replay, String> {
    let cfg = p.remy.config;
    let evaluator = Evaluator::new(p.remy.model.clone(), p.remy.objective, cfg.eval);
    let per_eval = cfg.eval.specimens as u64;
    let mut tree = p.start.clone();
    let mut out = Replay {
        tree: p.start.clone(),
        sims: 0,
        steps: 0,
        fresh_candidates: 0,
    };
    let root = tr.enter("pass");
    let mut draw_seed = cfg.seed;
    let mut global_epoch = 0u64;
    'outer: loop {
        tree.set_all_epochs(global_epoch);
        loop {
            if out.steps as usize >= cfg.max_steps {
                break 'outer;
            }
            draw_seed = draw_seed.wrapping_add(1);
            let specimens = tr.scope("evaluator.specimens", || evaluator.specimens(draw_seed));
            let shared = Arc::new(tree.clone());
            let (base_score, usage) = tr.scope("evaluator.evaluate", || {
                evaluator.evaluate(&shared, &specimens)
            });
            out.sims += per_eval;
            let Some(rule) = tree.most_used_in_epoch(global_epoch, &usage) else {
                break;
            };
            let start_action = tree.get(rule).ok_or("most-used rule vanished")?.action;
            let mut memo: BTreeMap<[u64; 3], f64> = BTreeMap::new();
            memo.insert(action_key(&start_action), base_score);
            let mut current_action = start_action;
            let mut current = base_score;
            let mut budget_hit = false;
            loop {
                if out.steps as usize >= cfg.max_steps {
                    budget_hit = true;
                    break;
                }
                out.steps += 1;
                let candidates =
                    tr.scope("action.neighbourhood", || current_action.neighbourhood());
                let fresh: Vec<Action> = candidates
                    .iter()
                    .copied()
                    .filter(|c| !memo.contains_key(&action_key(c)))
                    .collect();
                let scores = tr.scope("evaluator.score_overlays", || {
                    evaluator.score_overlays(&shared, rule, &fresh, &specimens)
                });
                out.sims += fresh.len() as u64 * per_eval;
                out.fresh_candidates += fresh.len() as u64;
                for (a, s) in fresh.iter().zip(&scores) {
                    memo.insert(action_key(a), *s);
                }
                let best = candidates
                    .iter()
                    .map(|c| memo[&action_key(c)])
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .map(|(i, score)| (candidates[i], score));
                match best {
                    Some((action, score)) if score > current => {
                        current_action = action;
                        current = score;
                    }
                    _ => break,
                }
            }
            if current_action != start_action {
                tree.set_action(rule, current_action);
            }
            if budget_hit {
                break 'outer;
            }
            tree.bump_epoch(rule);
        }
        global_epoch += 1;
        if global_epoch.is_multiple_of(K_SUBDIVIDE) {
            return Err("replay reached a subdivision, which it does not model".to_string());
        }
    }
    tr.exit(root);
    out.tree = tree;
    Ok(out)
}

/// `fig4_dumbbell`'s `remy:delta1` cell, alone, with the given table file:
/// the deep-table check runs it once per table and compares the bytes.
pub fn single_remy_cell(base: &ExperimentSpec, table: &str) -> Result<String, String> {
    let mut spec = base.clone();
    spec.contenders = vec![ContenderSpec::labeled(
        format!("remy:{INPUT_DIR}/tables/{table}.json"),
        "RemyCC d=1",
    )];
    let out = spec_pass(&prepare_spec(spec)?, &mut Tracer::off());
    if out.problems.is_empty() {
        Ok(out.bytes)
    } else {
        Err(out.problems.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_follow_the_layer_row_names() {
        let cases = [
            ("remy:benchmark/inputs/tables/delta01.json", "remy_d01"),
            ("remy:benchmark/inputs/tables/delta1.json", "remy_d1"),
            ("remy:benchmark/inputs/tables/delta1_deep.json", "remy_d1"),
            ("remy:benchmark/inputs/tables/delta10.json", "remy_d10"),
            ("remy:benchmark/inputs/tables/datacenter.json", "remy_dc"),
            ("newreno", "newreno"),
            ("cubic+sfqcodel", "cubic_sfqcodel"),
            ("dctcp:8", "dctcp"),
            ("xcp", "xcp"),
        ];
        for (scheme, slug) in cases {
            assert_eq!(cell_slug(scheme), slug, "{scheme}");
        }
    }

    #[test]
    fn csv_text_is_header_then_rows_newline_terminated() {
        assert_eq!(
            csv_text("a,b", &["1,2".to_string(), "3,4".to_string()]),
            "a,b\n1,2\n3,4\n"
        );
    }
}
