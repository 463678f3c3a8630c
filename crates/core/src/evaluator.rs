//! Evaluating candidate rule tables (§4.3's inner loop).
//!
//! "A single evaluation step … consists of drawing 16 or more network
//! specimens from the network model, then simulating the RemyCC algorithm
//! at each sender for 100 seconds on each network specimen. At the end of
//! the simulation, the objective function for each sender … is totaled to
//! produce an overall figure of merit."
//!
//! Common random numbers are essential: the same specimen scenarios (same
//! seeds) are reused for every candidate action so comparisons see the
//! same traffic randomness.
//!
//! Every simulation runs as one item of a [`netsim::par::map`] over
//! [`jobs`] worker threads. Results are collected positionally and reduced
//! in input order, so scores and trained tables are byte-identical at any
//! worker count.

use crate::action::Action;
use crate::model::NetworkModel;
use crate::objective::Objective;
use crate::remycc::{recorded_usage, RemyCc};
use crate::whisker::{Usage, WhiskerTree};
use netsim::cc::CongestionControl;
use netsim::rng::SimRng;
use netsim::scenario::Scenario;
use netsim::sim::Simulator;
use netsim::time::Ns;
use std::sync::Arc;

// The `--jobs` worker count (`0` = all cores), also reachable here because
// the benchmark harness sets it as `remy::evaluator::set_jobs`.
pub use netsim::par::{jobs, set_jobs};

/// Evaluation budget knobs. The paper simulates ≥16 specimens for 100 s
/// each on a 48-core server; the budget each shipped table was trained at
/// is on its [`crate::designs`] entry.
#[derive(Clone, Copy, Debug)]
pub struct EvalConfig {
    /// Specimen networks per evaluation.
    pub specimens: usize,
    /// Simulated seconds per specimen.
    pub sim_secs: f64,
}

/// Evaluates rule tables against a network model and objective.
pub struct Evaluator {
    /// The design-range model specimens are drawn from.
    pub model: NetworkModel,
    /// The figure of merit.
    pub objective: Objective,
    /// Budget knobs.
    pub config: EvalConfig,
}

impl Evaluator {
    /// Build an evaluator.
    pub fn new(model: NetworkModel, objective: Objective, config: EvalConfig) -> Evaluator {
        Evaluator {
            model,
            objective,
            config,
        }
    }

    /// Draw a specimen set. Each distinct `draw_seed` yields a different
    /// set; reusing a seed reproduces the same set exactly (common random
    /// numbers across candidate actions).
    pub fn specimens(&self, draw_seed: u64) -> Vec<Scenario> {
        // Frozen specimen-draw stream constant; changing the derivation
        // re-randomizes every published evaluation.
        let mut rng = SimRng::new(draw_seed ^ 0x5EED_5EED);
        let dur = Ns::from_secs_f64(self.config.sim_secs);
        (0..self.config.specimens)
            .map(|_| self.model.sample(&mut rng, dur))
            .collect()
    }

    /// One scoring cell: a table (optionally with a hill-climb overlay on
    /// one rule) on one specimen, reduced to its objective score.
    fn score_cell(
        &self,
        tree: &Arc<WhiskerTree>,
        overlay: Option<(usize, Action)>,
        sc: &Scenario,
    ) -> f64 {
        let ccs = senders(sc, || {
            let cc = RemyCc::new(Arc::clone(tree));
            match overlay {
                Some((rule, action)) => cc.with_candidate(rule, action),
                None => cc,
            }
        });
        let results = Simulator::new(sc, ccs, None).run();
        self.objective.score_results(&results)
    }

    /// One base-pass cell: the table on one specimen with every sender
    /// recording, so the run also yields its whisker-usage statistics.
    fn usage_cell(&self, tree: &Arc<WhiskerTree>, sc: &Scenario) -> (f64, Usage) {
        let ccs = senders(sc, || RemyCc::recording(Arc::clone(tree)));
        let (results, ccs) = Simulator::new(sc, ccs, None).run_returning_ccs();
        let usage = recorded_usage(ccs, tree.id_bound());
        (self.objective.score_results(&results), usage)
    }

    /// Run one table over a specimen set, each specimen simulated on its
    /// own worker: per-specimen scores (in specimen order) plus the merged
    /// whisker-usage statistics. Deterministic at any thread count: cells
    /// are collected positionally and usages merged in specimen order.
    pub fn evaluate_per_specimen(
        &self,
        tree: &Arc<WhiskerTree>,
        specimens: &[Scenario],
    ) -> (Vec<f64>, Usage) {
        let cells = netsim::par::map(specimens, |sc| self.usage_cell(tree, sc));
        let mut usage = Usage::new(tree.id_bound());
        let mut scores = Vec::with_capacity(cells.len());
        for (score, cell_usage) in cells {
            scores.push(score);
            usage.merge(&cell_usage);
        }
        (scores, usage)
    }

    /// Run one table over a specimen set: total objective score plus
    /// whisker-usage statistics.
    pub fn evaluate(&self, tree: &Arc<WhiskerTree>, specimens: &[Scenario]) -> (f64, Usage) {
        let (scores, usage) = self.evaluate_per_specimen(tree, specimens);
        (scores.iter().sum(), usage)
    }

    /// Score only (nothing records usage). Specimens run in parallel; the
    /// total is summed in specimen order.
    pub fn score(&self, tree: &Arc<WhiskerTree>, specimens: &[Scenario]) -> f64 {
        self.score_matrix(1, specimens, |_, sc| self.score_cell(tree, None, sc))[0]
    }

    /// The flattened (row × specimen) work matrix behind all candidate
    /// scoring: `rows` candidates, each simulated on every specimen by
    /// `cell(row, specimen)`, as one parallel map so load-balancing is
    /// per-simulation rather than per-candidate — a slow specimen can't
    /// serialize a whole candidate behind one worker. Deterministic: cells
    /// are collected positionally and each row's score is summed in
    /// specimen order, so thread timing cannot change the result.
    fn score_matrix(
        &self,
        rows: usize,
        specimens: &[Scenario],
        cell: impl Fn(usize, &Scenario) -> f64 + Sync,
    ) -> Vec<f64> {
        if specimens.is_empty() {
            return vec![0.0; rows];
        }
        let cells: Vec<(usize, usize)> = (0..rows)
            .flat_map(|r| (0..specimens.len()).map(move |si| (r, si)))
            .collect();
        let scored = netsim::par::map(&cells, |&(r, si)| cell(r, &specimens[si]));
        scored
            .chunks(specimens.len())
            .map(|row| row.iter().sum())
            .collect()
    }

    /// Score hill-climb candidates as cheap overlays of a base table:
    /// candidate `k` behaves as `base` with rule `rule`'s action replaced
    /// by `actions[k]`, with no per-candidate tree clone. See
    /// [`Self::score_matrix`] for the parallelism and determinism
    /// guarantees.
    pub fn score_overlays(
        &self,
        base: &Arc<WhiskerTree>,
        rule: usize,
        actions: &[Action],
        specimens: &[Scenario],
    ) -> Vec<f64> {
        self.score_matrix(actions.len(), specimens, |ai, sc| {
            self.score_cell(base, Some((rule, actions[ai])), sc)
        })
    }
}

/// One RemyCC per sender of `sc`, each built by `make`.
fn senders(sc: &Scenario, make: impl Fn() -> RemyCc) -> Vec<Box<dyn CongestionControl>> {
    (0..sc.n())
        .map(|_| Box::new(make()) as Box<dyn CongestionControl>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;

    fn tiny_eval() -> Evaluator {
        Evaluator::new(
            NetworkModel::general(),
            Objective::proportional(1.0),
            EvalConfig {
                specimens: 3,
                sim_secs: 8.0,
            },
        )
    }

    #[test]
    fn specimen_sets_reproduce_with_same_seed() {
        let e = tiny_eval();
        let a = e.specimens(5);
        let b = e.specimens(5);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.n(), y.n());
            assert_eq!(x.seed, y.seed);
        }
        let c = e.specimens(6);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.seed != y.seed),
            "different draw seeds give different specimens"
        );
    }

    #[test]
    fn evaluation_is_deterministic() {
        let e = tiny_eval();
        let tree = Arc::new(WhiskerTree::single_rule());
        let specimens = e.specimens(1);
        let (s1, u1) = e.evaluate(&tree, &specimens);
        let (s2, u2) = e.evaluate(&tree, &specimens);
        assert_eq!(s1, s2);
        assert_eq!(u1.total(), u2.total());
        assert!(u1.total() > 0, "rules must actually fire");
    }

    #[test]
    fn score_matches_evaluate() {
        let e = tiny_eval();
        let tree = Arc::new(WhiskerTree::single_rule());
        let specimens = e.specimens(2);
        let (s, _) = e.evaluate(&tree, &specimens);
        assert_eq!(s, e.score(&tree, &specimens));
    }

    #[test]
    fn better_actions_score_better() {
        // A pathologically slow action (tiny window forever, huge pacing
        // gap) must lose to the sane default under the same specimens.
        let e = tiny_eval();
        let specimens = e.specimens(3);
        let good = Arc::new(WhiskerTree::single_rule());
        let mut bad_tree = WhiskerTree::single_rule();
        bad_tree.set_action(
            0,
            Action {
                window_multiple: 0.0,
                window_increment: 1.0,
                intersend_ms: 200.0,
            },
        );
        let bad = Arc::new(bad_tree);
        let scores = [e.score(&good, &specimens), e.score(&bad, &specimens)];
        assert!(
            scores[0] > scores[1],
            "default ({}) must beat crippled ({})",
            scores[0],
            scores[1]
        );
    }

    #[test]
    fn overlay_scores_match_full_clones() {
        // A candidate evaluated as an overlay must score bit-identically
        // to the same candidate materialized as a cloned, mutated table.
        let e = tiny_eval();
        let specimens = e.specimens(2);
        let base = Arc::new(WhiskerTree::single_rule());
        let actions: Vec<Action> = Action::DEFAULT
            .neighbourhood()
            .into_iter()
            .take(5)
            .collect();
        let clones: Vec<Arc<WhiskerTree>> = actions
            .iter()
            .map(|&a| {
                let mut t = (*base).clone();
                t.set_action(0, a);
                Arc::new(t)
            })
            .collect();
        let full: Vec<f64> = clones.iter().map(|t| e.score(t, &specimens)).collect();
        assert_eq!(e.score_overlays(&base, 0, &actions, &specimens), full);
    }

    #[test]
    fn per_specimen_scores_sum_to_total() {
        let e = tiny_eval();
        let specimens = e.specimens(9);
        let tree = Arc::new(WhiskerTree::single_rule());
        let (scores, usage) = e.evaluate_per_specimen(&tree, &specimens);
        assert_eq!(scores.len(), specimens.len());
        let (total, usage2) = e.evaluate(&tree, &specimens);
        assert_eq!(total, scores.iter().sum::<f64>());
        assert_eq!(usage.total(), usage2.total());
    }

    #[test]
    fn empty_specimen_sets_score_zero() {
        let e = tiny_eval();
        let t = Arc::new(WhiskerTree::single_rule());
        assert_eq!(e.score(&t, &[]), 0.0);
        assert_eq!(e.score_overlays(&t, 0, &[Action::DEFAULT], &[]), vec![0.0]);
    }

    #[test]
    fn parallel_scores_match_serial() {
        let e = tiny_eval();
        let specimens = e.specimens(4);
        let t1 = Arc::new(WhiskerTree::single_rule());
        let fast = Action {
            window_multiple: 1.0,
            window_increment: 2.0,
            intersend_ms: 0.01,
        };
        let mut t2m = WhiskerTree::single_rule();
        t2m.set_action(0, fast);
        let t2 = Arc::new(t2m);
        // Two rows of one work matrix, against each table scored alone.
        let par = e.score_overlays(&t1, 0, &[Action::DEFAULT, fast], &specimens);
        assert_eq!(par[0], e.score(&t1, &specimens));
        assert_eq!(par[1], e.score(&t2, &specimens));
    }
}
