//! Remy's automated design procedure (§4.3).
//!
//! Starting from a single rule mapping all of memory space to the default
//! action, Remy alternates two kinds of greedy step:
//!
//! 1. **Improve**: find the most-used rule in the current epoch, then hill-
//!    climb its action over the geometric candidate neighbourhood, always
//!    re-simulating the *same* specimen networks with the same seeds
//!    (common random numbers). When no candidate improves the total
//!    objective, the rule's epoch advances.
//! 2. **Subdivide**: once every rule has left the epoch, bump the global
//!    epoch; every `K = 4` epochs, split the most-used rule at the median
//!    memory value that triggered it, producing eight octree children.
//!
//! "Areas of the memory space more likely to occur receive correspondingly
//! more attention from the optimizer."

use crate::action::Action;
use crate::evaluator::{EvalConfig, Evaluator};
use crate::model::NetworkModel;
use crate::objective::Objective;
use crate::whisker::WhiskerTree;
use std::collections::BTreeMap;
use std::sync::Arc;
// lint:allow(d2-wallclock-rng): wall-clock here bounds the *training*
// budget (`TrainConfig::wall_secs`); it decides when to stop, never what
// any simulation computes — results are a function of steps and seeds.
use std::time::Instant;

/// Ordered fingerprint of an action (exact f64 bits — memoization must
/// only ever hit for bit-identical candidates).
type ActionKey = [u64; 3];

fn action_key(a: &Action) -> ActionKey {
    [
        a.window_multiple.to_bits(),
        a.window_increment.to_bits(),
        a.intersend_ms.to_bits(),
    ]
}

/// Subdivision cadence: split every K epochs ("We use K = 4 to balance
/// structural improvements vs. honing the existing structure").
pub const K_SUBDIVIDE: u64 = 4;

/// Training budget and reproducibility knobs.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Evaluation budget per step (specimen count, sim length).
    pub eval: EvalConfig,
    /// Hard wall-clock budget, seconds. Training returns the best table
    /// found when it expires.
    pub wall_secs: f64,
    /// Hard cap on improvement steps (deterministic budget for tests);
    /// `usize::MAX` to rely on wall time only.
    pub max_steps: usize,
    /// Stop subdividing once the table has this many rules (the paper's
    /// tables hold 162–204).
    pub max_rules: usize,
    /// Root seed for specimen draws.
    pub seed: u64,
}

/// Progress callback payloads (training logs).
#[derive(Clone, Debug)]
pub enum TrainEvent {
    /// A new global epoch began.
    Epoch {
        /// The epoch number.
        epoch: u64,
        /// Rules currently in the table.
        rules: usize,
        /// Best score so far.
        score: f64,
    },
    /// A rule's action was improved.
    Improved {
        /// Whisker id.
        rule: usize,
        /// Score before/after.
        from: f64,
        /// New total objective.
        to: f64,
    },
    /// A rule was subdivided.
    Split {
        /// Whisker id that was split.
        rule: usize,
        /// Rules after the split.
        rules: usize,
    },
    /// Training finished.
    Done {
        /// Final rule count.
        rules: usize,
        /// Final score on the last specimen set.
        score: f64,
        /// Improvement steps taken.
        steps: usize,
    },
}

/// The Remy optimizer.
pub struct Remy {
    /// Design-range model (prior assumptions).
    pub model: NetworkModel,
    /// The objective to maximize.
    pub objective: Objective,
    /// Budgets and seeds.
    pub config: TrainConfig,
}

impl Remy {
    /// Construct an optimizer.
    pub fn new(model: NetworkModel, objective: Objective, config: TrainConfig) -> Remy {
        Remy {
            model,
            objective,
            config,
        }
    }

    /// Run the design procedure from scratch (a single default rule),
    /// reporting progress through `progress`.
    pub fn design(&self, progress: impl FnMut(TrainEvent)) -> WhiskerTree {
        self.design_from(WhiskerTree::single_rule(), progress)
    }

    /// Continue the design procedure from an existing table (warm start).
    ///
    /// The paper's procedure is an anytime algorithm: the rule table only
    /// ever improves under the training distribution, so topping up a
    /// shipped table with more budget is always safe. Epoch counters are
    /// reset; the structure and actions are kept.
    pub fn design_from(
        &self,
        mut tree: WhiskerTree,
        mut progress: impl FnMut(TrainEvent),
    ) -> WhiskerTree {
        // lint:allow(d2-wallclock-rng): the anytime-training stop clock;
        // see the allow on the import — budget only, never observable.
        let started = Instant::now();
        let evaluator = Evaluator::new(self.model.clone(), self.objective, self.config.eval);
        let mut global_epoch = 0u64;
        let mut draw_seed = self.config.seed;
        let mut steps = 0usize;
        let mut last_score = f64::NEG_INFINITY;

        let out_of_budget = |steps: usize, cfg: &TrainConfig| {
            started.elapsed().as_secs_f64() >= cfg.wall_secs || steps >= cfg.max_steps
        };

        'outer: loop {
            // Step 1: set all rules to the current epoch.
            tree.set_all_epochs(global_epoch);
            progress(TrainEvent::Epoch {
                epoch: global_epoch,
                rules: tree.len(),
                score: last_score,
            });

            // Step 2/3: repeatedly improve the most-used rule of the epoch.
            loop {
                if out_of_budget(steps, &self.config) {
                    break 'outer;
                }
                draw_seed = draw_seed.wrapping_add(1);
                let specimens = evaluator.specimens(draw_seed);
                let shared = Arc::new(tree.clone());
                let (base_score, usage) = evaluator.evaluate(&shared, &specimens);
                last_score = base_score;
                let Some(rule) = tree.most_used_in_epoch(global_epoch, &usage) else {
                    break; // step 4: no used rules left in this epoch
                };

                // Step 3: hill-climb this rule's action on fixed specimens.
                // Candidates are scored as overlays of the shared base
                // table (no per-candidate clone), and every scored action —
                // including the unchanged base — is memoized, so an action
                // revisited by overlapping neighbourhoods is never
                // re-simulated within this improve step.
                // lint:allow(p1-sim-unwrap): `rule` comes from iterating the
                // tree's own leaf ids this epoch; a miss is a logic error.
                let start_action = tree.get(rule).expect("rule exists").action;
                let mut memo: BTreeMap<ActionKey, f64> = BTreeMap::new();
                memo.insert(action_key(&start_action), base_score);
                let mut current_action = start_action;
                let mut current = base_score;
                let mut budget_hit = false;
                loop {
                    if out_of_budget(steps, &self.config) {
                        budget_hit = true;
                        break;
                    }
                    steps += 1;
                    let candidates = current_action.neighbourhood();
                    let fresh: Vec<Action> = candidates
                        .iter()
                        .copied()
                        .filter(|c| !memo.contains_key(&action_key(c)))
                        .collect();
                    let fresh_scores = evaluator.score_overlays(&shared, rule, &fresh, &specimens);
                    for (a, s) in fresh.iter().zip(&fresh_scores) {
                        memo.insert(action_key(a), *s);
                    }
                    let (best_idx, best_score) = candidates
                        .iter()
                        .map(|c| memo[&action_key(c)])
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(&b.1))
                        // lint:allow(p1-sim-unwrap): neighbourhood() always
                        // returns the base action plus its perturbations, so
                        // the candidate set is non-empty by construction.
                        .expect("non-empty candidate set");
                    if best_score > current {
                        current_action = candidates[best_idx];
                        progress(TrainEvent::Improved {
                            rule,
                            from: current,
                            to: best_score,
                        });
                        current = best_score;
                        last_score = best_score;
                    } else {
                        break;
                    }
                }
                // Commit the climb's winner to the real table (the shared
                // base stayed untouched while overlays were scored).
                if current_action != start_action {
                    tree.set_action(rule, current_action);
                }
                if budget_hit {
                    break 'outer;
                }
                tree.bump_epoch(rule);
            }

            // Step 4: advance the global epoch; every K epochs, subdivide.
            global_epoch += 1;
            if global_epoch.is_multiple_of(K_SUBDIVIDE) && tree.len() < self.config.max_rules {
                draw_seed = draw_seed.wrapping_add(1);
                let specimens = evaluator.specimens(draw_seed);
                let shared = Arc::new(tree.clone());
                let (_, usage) = evaluator.evaluate(&shared, &specimens);
                if let Some(rule) = tree.most_used(&usage) {
                    let split_at = usage
                        .median_memory(rule)
                        // lint:allow(p1-sim-unwrap): `rule` was just returned
                        // by most_used() over this tree, so the lookup holds.
                        .unwrap_or_else(|| tree.get(rule).expect("rule exists").domain.midpoint());
                    if tree.split(rule, split_at) {
                        progress(TrainEvent::Split {
                            rule,
                            rules: tree.len(),
                        });
                    }
                }
            }
            if out_of_budget(steps, &self.config) {
                break;
            }
        }

        tree.provenance = format!(
            "remy-rs: model=[{}], objective=[{}], specimens={}, sim_secs={}, \
             steps={}, rules={}, seed={}",
            self.model.describe(),
            self.objective.label(),
            self.config.eval.specimens,
            self.config.eval.sim_secs,
            steps,
            tree.len(),
            self.config.seed,
        );
        progress(TrainEvent::Done {
            rules: tree.len(),
            score: last_score,
            steps,
        });
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;

    fn quick_remy(max_steps: usize) -> Remy {
        Remy::new(
            NetworkModel::general(),
            Objective::proportional(1.0),
            TrainConfig {
                eval: EvalConfig {
                    specimens: 2,
                    sim_secs: 5.0,
                },
                wall_secs: 120.0,
                max_steps,
                max_rules: 64,
                seed: 7,
            },
        )
    }

    #[test]
    fn design_runs_and_reports() {
        let remy = quick_remy(2);
        let mut events = Vec::new();
        let tree = remy.design(|e| events.push(e));
        assert!(!tree.is_empty());
        assert!(matches!(events.last(), Some(TrainEvent::Done { .. })));
        assert!(
            events.iter().any(|e| matches!(e, TrainEvent::Epoch { .. })),
            "epoch events expected"
        );
        assert!(tree.provenance.contains("remy-rs"));
    }

    #[test]
    fn design_is_deterministic_under_step_budget() {
        let a = quick_remy(3).design(|_| {});
        let b = quick_remy(3).design(|_| {});
        assert_eq!(a.len(), b.len());
        let wa = a.whiskers();
        let wb = b.whiskers();
        for (x, y) in wa.iter().zip(&wb) {
            assert_eq!(x.action, y.action);
            assert_eq!(x.id, y.id);
        }
    }

    #[test]
    fn warm_start_keeps_structure_and_actions() {
        let remy = quick_remy(1);
        let first = remy.design(|_| {});
        let n_rules = first.len();
        let actions: Vec<Action> = first.whiskers().iter().map(|w| w.action).collect();
        // Zero-step continuation returns the same table (modulo epochs).
        let frozen = Remy::new(
            NetworkModel::general(),
            Objective::proportional(1.0),
            TrainConfig {
                max_steps: 0,
                ..remy.config
            },
        )
        .design_from(first, |_| {});
        assert_eq!(frozen.len(), n_rules);
        let after: Vec<Action> = frozen.whiskers().iter().map(|w| w.action).collect();
        assert_eq!(actions, after);
    }

    #[test]
    fn never_on_senders_do_not_poison_training() {
        // A design range whose senders never turn on produces zero active
        // flows in every specimen; scores must stay finite (no NaN panics
        // in candidate selection) and the design loop must come back.
        use netsim::time::Ns;
        use netsim::traffic::{OnSpec, TrafficSpec};
        let model = NetworkModel {
            traffic: TrafficSpec {
                on: OnSpec::ByTime {
                    mean: Ns::from_secs(5),
                },
                off_mean: Ns::from_secs(1_000_000),
                start_on: false,
            },
            ..NetworkModel::general()
        };
        let remy = Remy::new(
            model,
            Objective::proportional(1.0),
            TrainConfig {
                eval: EvalConfig {
                    specimens: 2,
                    sim_secs: 3.0,
                },
                wall_secs: 1.0,
                max_steps: 4,
                max_rules: 8,
                seed: 2,
            },
        );
        let mut done_score = f64::NAN;
        let tree = remy.design(|e| {
            if let TrainEvent::Done { score, .. } = e {
                done_score = score;
            }
        });
        assert!(!tree.is_empty());
        // Specimens with zero active flows score 0; a rare off-time draw
        // can still activate a sender and yield a real finite score, and
        // −∞ is the "budget expired before the first evaluation" sentinel.
        // What must never appear is NaN — the failure mode that used to
        // panic candidate selection mid-training.
        assert!(
            !done_score.is_nan(),
            "NaN training score poisoned candidate selection"
        );
    }

    #[test]
    fn improvement_steps_change_the_default_action() {
        // With a real budget the optimizer should move off the naive
        // default on the general model (the default builds infinite
        // queues on an unlimited buffer, which log-delay punishes).
        let remy = Remy::new(
            NetworkModel::general(),
            Objective::proportional(1.0),
            TrainConfig {
                eval: EvalConfig {
                    specimens: 3,
                    sim_secs: 6.0,
                },
                wall_secs: 60.0,
                max_steps: 6,
                max_rules: 8,
                seed: 3,
            },
        );
        let tree = remy.design(|_| {});
        let acted: Vec<Action> = tree.whiskers().iter().map(|w| w.action).collect();
        assert!(
            acted.iter().any(|a| *a != Action::DEFAULT),
            "no action ever improved: {acted:?}"
        );
    }
}
