//! The experiment runner: expand an [`ExperimentSpec`] into (sweep point ×
//! contender × run) cells, fan every simulation through the deterministic
//! parallel engine, and return structured per-cell results.
//!
//! Parallelism follows the evaluator's flattened-matrix design (see
//! `remy::evaluator`): all simulations of all cells form one
//! [`netsim::par::map`], so load balancing is per-simulation while results
//! are collected by index — outcomes are byte-identical at any `--jobs`
//! setting.

use crate::harness::{Contender, Outcome};
use crate::report::{
    outcome_csv_row, outcomes_table, speedup_table, ExperimentReport, OUTCOMES_CSV_HEADER,
};
use crate::spec::{ExperimentSpec, SweepPoint};
use netsim::metrics::{FlowSummary, PopulationSummary, SimResults};
use netsim::scenario::Scenario;

/// One expanded unit of work: a contender at a sweep point, with its
/// fully-materialized scenarios (one per seeded run).
pub struct ExperimentCell {
    /// Index into [`ExperimentSpec::points`].
    pub point_index: usize,
    /// The sweep point's coordinates.
    pub point: SweepPoint,
    /// The runnable contender.
    pub contender: Contender,
    /// One scenario per run, seeds fork-derived from the spec seed.
    pub scenarios: Vec<Scenario>,
}

impl ExperimentSpec {
    /// Expand into cells: every sweep point × every contender, scenarios
    /// materialized. Fails on unresolvable contenders or links rather
    /// than panicking mid-run.
    pub fn expand(&self) -> Result<Vec<ExperimentCell>, String> {
        if self.contenders.is_empty() {
            return Err(format!("spec '{}' has no contenders", self.name));
        }
        let points = self.points();
        let mut cells = Vec::with_capacity(points.len() * self.contenders.len());
        for (pi, point) in points.iter().enumerate() {
            for cs in &self.contenders {
                if self.workload.churn.is_some() && cs.scheme == "xcp" {
                    // XCP's efficiency controller is provisioned for the
                    // persistent population; a churning flow count would
                    // silently mis-estimate spare capacity.
                    return Err(format!(
                        "spec '{}': contender 'xcp' is not supported on a \
                         churn workload",
                        self.name
                    ));
                }
                if self.workload.topology.is_some() && cs.scheme == "xcp" {
                    // The harness attaches a contender's router hook to hop
                    // 0 only; on a multi-hop topology XCP would silently run
                    // at the wrong hop with the wrong rate. Refuse instead
                    // (per-hop hooks exist via `Simulator::with_scheduler` for
                    // hand-built scenarios).
                    return Err(format!(
                        "spec '{}': contender 'xcp' is not supported on a \
                         topology workload",
                        self.name
                    ));
                }
                let contender = cs.build()?;
                let scenarios = self.scenarios_at(pi, point, &contender)?;
                cells.push(ExperimentCell {
                    point_index: pi,
                    point: point.clone(),
                    contender,
                    scenarios,
                });
            }
        }
        Ok(cells)
    }
}

/// Results of one cell: the per-run, per-sender flow summaries (sender
/// order preserved — RTT-fairness style analyses need the index) plus the
/// pooled [`Outcome`] over active senders.
pub struct CellResult {
    /// Index into [`ExperimentSpec::points`].
    pub point_index: usize,
    /// The sweep point's coordinates.
    pub point: SweepPoint,
    /// Contender display label.
    pub label: String,
    /// `runs[k][i]` is sender `i`'s summary in run `k`.
    pub runs: Vec<Vec<FlowSummary>>,
    /// `populations[k]` is run `k`'s churn-population summary (`None` on
    /// churn-free workloads).
    pub populations: Vec<Option<PopulationSummary>>,
    /// Samples of all active senders pooled across runs, in run order.
    pub outcome: Outcome,
}

/// Executes an [`ExperimentSpec`].
pub struct Experiment {
    /// The spec being run.
    pub spec: ExperimentSpec,
}

impl Experiment {
    /// Wrap a spec.
    pub fn new(spec: ExperimentSpec) -> Experiment {
        Experiment { spec }
    }

    /// Run every cell and pool results. Deterministic at any thread count.
    pub fn run(&self) -> Result<ExperimentResults, String> {
        let cells = self.spec.expand()?;
        // Flatten (cell, run) into one positional work list.
        let jobs: Vec<(usize, usize)> = cells
            .iter()
            .enumerate()
            .flat_map(|(ci, c)| (0..c.scenarios.len()).map(move |si| (ci, si)))
            .collect();
        let per_run: Vec<SimResults> = netsim::par::map(&jobs, |&(ci, si)| {
            cells[ci].contender.simulate(&cells[ci].scenarios[si])
        });
        // Regroup positionally into cells.
        let mut results = Vec::with_capacity(cells.len());
        let mut cursor = 0;
        for cell in &cells {
            let n_runs = cell.scenarios.len();
            let end = cursor + n_runs;
            let runs: Vec<Vec<FlowSummary>> = per_run[cursor..end]
                .iter()
                .map(|r| r.flows.clone())
                .collect();
            let populations: Vec<Option<PopulationSummary>> = per_run[cursor..end]
                .iter()
                .map(|r| r.population.clone())
                .collect();
            cursor += n_runs;
            let mut tput = Vec::new();
            let mut delay = Vec::new();
            let mut rtt = Vec::new();
            for run in &runs {
                for f in run.iter().filter(|f| f.was_active()) {
                    tput.push(f.throughput_mbps);
                    delay.push(f.mean_queue_delay_ms);
                    rtt.push(f.mean_rtt_ms);
                }
            }
            results.push(CellResult {
                point_index: cell.point_index,
                point: cell.point.clone(),
                label: cell.contender.label(),
                runs,
                populations,
                outcome: Outcome::from_samples(cell.contender.label(), tput, delay, rtt),
            });
        }
        Ok(ExperimentResults {
            spec: self.spec.clone(),
            cells: results,
        })
    }
}

/// Structured results of a full experiment: one [`CellResult`] per
/// (sweep point × contender), in expansion order.
pub struct ExperimentResults {
    /// The spec that produced these results.
    pub spec: ExperimentSpec,
    /// Per-cell results.
    pub cells: Vec<CellResult>,
}

impl ExperimentResults {
    /// Number of sweep points.
    pub fn n_points(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.point_index + 1)
            .max()
            .unwrap_or(0)
    }

    /// The outcomes at one sweep point, in contender order.
    pub fn point_outcomes(&self, point_index: usize) -> Vec<&Outcome> {
        self.cells
            .iter()
            .filter(|c| c.point_index == point_index)
            .map(|c| &c.outcome)
            .collect()
    }

    /// The cell of one contender label at one sweep point.
    pub fn cell(&self, point_index: usize, label: &str) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.point_index == point_index && c.label == label)
    }

    /// Render the generic report: a paper-style outcomes table per sweep
    /// point (plus the speedup table when the spec asks for one), and the
    /// outcomes CSV — prefixed with a `point` column when the grid has
    /// more than one point.
    pub fn report(&self) -> ExperimentReport {
        let n_points = self.n_points();
        let swept = n_points > 1;
        let mut text = String::new();
        let mut csv_rows = Vec::new();
        for pi in 0..n_points {
            let outcomes: Vec<Outcome> = self.point_outcomes(pi).into_iter().cloned().collect();
            let point = self
                .cells
                .iter()
                .find(|c| c.point_index == pi)
                .map(|c| c.point.clone())
                .unwrap_or_default();
            let title = if swept {
                format!(
                    "{} [{}] ({} runs x {} s)",
                    self.spec.title,
                    point.label(),
                    self.spec.budget.runs,
                    self.spec.budget.sim_secs
                )
            } else {
                format!(
                    "{} ({} runs x {} s)",
                    self.spec.title, self.spec.budget.runs, self.spec.budget.sim_secs
                )
            };
            text.push_str(&outcomes_table(&title, &outcomes));
            if let Some(reference_label) = &self.spec.speedup_reference {
                if let Some(reference) = outcomes.iter().find(|o| &o.label == reference_label) {
                    // The paper's table compares against the human-designed
                    // schemes only.
                    let baselines: Vec<Outcome> = outcomes
                        .iter()
                        .filter(|o| !o.label.starts_with("RemyCC"))
                        .cloned()
                        .collect();
                    text.push_str(&speedup_table(reference, &baselines));
                }
            }
            for o in &outcomes {
                if swept {
                    csv_rows.push(format!(
                        "{},{}",
                        point.label().replace(", ", ";").replace(',', ";"),
                        outcome_csv_row(o)
                    ));
                } else {
                    csv_rows.push(outcome_csv_row(o));
                }
            }
        }
        let csv_header = if swept {
            format!("point,{OUTCOMES_CSV_HEADER}")
        } else {
            OUTCOMES_CSV_HEADER.to_string()
        };
        ExperimentReport {
            csv_name: self.spec.name.clone(),
            csv_header,
            csv_rows,
            text,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Budget, ContenderSpec, LinkRef, SweepAxis, WorkloadSpec};
    use netsim::time::Ns;
    use netsim::traffic::TrafficSpec;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec::new(
            "tiny",
            "tiny dumbbell",
            WorkloadSpec::uniform(
                LinkRef::constant(15.0),
                1000,
                2,
                Ns::from_millis(150),
                TrafficSpec::fig4(),
            ),
            vec![ContenderSpec::new("newreno"), ContenderSpec::new("vegas")],
            Budget {
                runs: 2,
                sim_secs: 5,
            },
            77,
        )
    }

    #[test]
    fn runs_every_cell_and_pools_outcomes() {
        let r = Experiment::new(tiny_spec()).run().expect("run");
        assert_eq!(r.cells.len(), 2);
        assert_eq!(r.n_points(), 1);
        for cell in &r.cells {
            assert_eq!(cell.runs.len(), 2, "one entry per seeded run");
            assert_eq!(cell.runs[0].len(), 2, "one summary per sender");
            assert!(cell.outcome.median_throughput_mbps > 0.0);
        }
        assert!(r.cell(0, "NewReno").is_some());
        assert!(r.cell(0, "Vegas").is_some());
        assert!(r.cell(0, "Cubic").is_none());
    }

    #[test]
    fn sweeps_expand_and_report_with_point_column() {
        let mut spec = tiny_spec();
        spec.sweeps = vec![SweepAxis::Senders(vec![1, 3])];
        let r = Experiment::new(spec).run().expect("run");
        assert_eq!(r.n_points(), 2);
        assert_eq!(r.cells.len(), 4);
        assert_eq!(r.cell(1, "NewReno").unwrap().runs[0].len(), 3);
        let rep = r.report();
        assert!(rep.csv_header.starts_with("point,"));
        assert_eq!(rep.csv_rows.len(), 4);
        assert!(rep.csv_rows[0].starts_with("n_senders=1,"));
        assert!(rep.text.contains("[n_senders=3]"));
    }

    #[test]
    fn results_are_deterministic() {
        let a = Experiment::new(tiny_spec()).run().unwrap();
        let b = Experiment::new(tiny_spec()).run().unwrap();
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.outcome.delay_samples, y.outcome.delay_samples);
        }
        assert_eq!(a.report().csv_rows, b.report().csv_rows);
    }

    #[test]
    fn speedup_reference_appends_table() {
        let mut spec = tiny_spec();
        spec.speedup_reference = Some("NewReno".to_string());
        let rep = Experiment::new(spec).run().unwrap().report();
        assert!(rep.text.contains("vs protocol"));
        assert!(rep.text.contains("Vegas"));
    }

    #[test]
    fn bad_contender_fails_cleanly() {
        let mut spec = tiny_spec();
        spec.contenders.push(ContenderSpec::new("bbr"));
        assert!(Experiment::new(spec).run().is_err());
    }

    #[test]
    fn churn_workloads_run_and_carry_population_stats() {
        use netsim::scenario::ChurnSpec;
        use netsim::traffic::OnSpec;
        let mut spec = tiny_spec();
        spec.workload = spec.workload.clone().with_churn(ChurnSpec {
            arrivals_per_sec: 100.0,
            size: OnSpec::BoundedPareto {
                xm: 3000.0,
                alpha: 1.2,
                cap_bytes: 150_000.0,
            },
            rtt: Ns::from_millis(20),
        });
        let r = Experiment::new(spec).run().expect("run");
        for cell in &r.cells {
            assert_eq!(cell.populations.len(), cell.runs.len());
            for p in &cell.populations {
                let p = p.as_ref().expect("churn run has population stats");
                assert!(p.spawned > 100, "λ=100/s for 5 s: {} spawned", p.spawned);
                assert_eq!(p.completed + p.live_at_end, p.spawned);
            }
        }
        // Determinism holds through the churn path too.
        let spec2 = {
            let mut s = tiny_spec();
            s.workload = s.workload.clone().with_churn(ChurnSpec {
                arrivals_per_sec: 100.0,
                size: OnSpec::BoundedPareto {
                    xm: 3000.0,
                    alpha: 1.2,
                    cap_bytes: 150_000.0,
                },
                rtt: Ns::from_millis(20),
            });
            s
        };
        let r2 = Experiment::new(spec2).run().expect("run");
        for (a, b) in r.cells.iter().zip(&r2.cells) {
            for (pa, pb) in a.populations.iter().zip(&b.populations) {
                let (pa, pb) = (pa.as_ref().unwrap(), pb.as_ref().unwrap());
                assert_eq!(pa.spawned, pb.spawned);
                assert_eq!(pa.completed, pb.completed);
                assert_eq!(pa.fct_secs.sum().to_bits(), pb.fct_secs.sum().to_bits());
            }
        }
    }

    #[test]
    fn xcp_on_a_churn_workload_is_rejected() {
        use netsim::scenario::ChurnSpec;
        use netsim::traffic::OnSpec;
        let mut spec = tiny_spec();
        spec.workload = spec.workload.clone().with_churn(ChurnSpec {
            arrivals_per_sec: 10.0,
            size: OnSpec::BoundedPareto {
                xm: 3000.0,
                alpha: 1.2,
                cap_bytes: 150_000.0,
            },
            rtt: Ns::from_millis(20),
        });
        spec.contenders.push(ContenderSpec::new("xcp"));
        let err = match spec.expand() {
            Ok(_) => panic!("xcp on churn must be rejected"),
            Err(e) => e,
        };
        assert!(err.contains("churn"), "{err}");
        spec.contenders.pop();
        assert!(spec.expand().is_ok());
    }

    #[test]
    fn xcp_on_a_topology_workload_is_rejected() {
        use crate::spec::{HopRef, TopologySpec};
        use netsim::topology::FlowPath;
        let mut spec = tiny_spec();
        spec.workload = spec.workload.clone().with_topology(TopologySpec::FlowHops {
            hops: vec![HopRef {
                link: LinkRef::constant(15.0),
                queue_capacity: 1000,
                prop_delay: Ns::ZERO,
            }],
            paths: (0..2).map(|_| FlowPath::through(vec![0])).collect(),
        });
        spec.contenders.push(ContenderSpec::new("xcp"));
        let err = match spec.expand() {
            Ok(_) => panic!("xcp on a topology must be rejected"),
            Err(e) => e,
        };
        assert!(err.contains("xcp"), "{err}");
        // Without XCP the same topology spec expands fine.
        spec.contenders.pop();
        assert!(spec.expand().is_ok());
    }
}
