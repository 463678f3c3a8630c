//! The shipped RemyCC designs: one registry entry per rule table.
//!
//! Remy's whole interface is a pair — the designer's prior assumptions
//! about the network and an objective — and its output is a rule table
//! (§3–§4). Each entry of [`all`] states that pair once, beside the
//! evaluation budget its table was trained at, the label reports print
//! and the `assets/<name>.json` the optimizer wrote (compiled into the
//! binary, so harnesses need no filesystem access). Everything else that
//! names a shipped table — `remy:<name>` contenders and `remy-cli
//! list | inspect | eval | train` — reads this list.
//!
//! The paper's RemyCCs took "3–5 CPU-days" each on large servers; these
//! were trained at laptop scale by `remy-cli train <name>`, and a test
//! holds each table's embedded `provenance` string to its entry.

use crate::evaluator::EvalConfig;
use crate::model::NetworkModel;
use crate::objective::Objective;
use crate::optimizer::{Remy, TrainConfig};
use crate::whisker::WhiskerTree;
use netsim::queue::QueueSpec;
use netsim::time::Ns;
use netsim::traffic::{OnSpec, TrafficSpec};
use std::sync::Arc;

/// One shipped RemyCC: what it was designed for and the table that came
/// out.
pub struct Design {
    /// Registry name: `remy:<name>` in a spec, `assets/<name>.json` on disk.
    pub name: &'static str,
    /// Display label of a `remy:<name>` contender in reports.
    pub label: &'static str,
    /// The paper section whose RemyCC this reproduces.
    pub section: &'static str,
    /// Prior assumptions: the networks training specimens are drawn from.
    pub model: NetworkModel,
    /// The objective the table maximizes.
    pub objective: Objective,
    /// The evaluation budget the asset was trained at — the one field a
    /// paper-depth run (≥ 16 specimens × 100 s, §4.3) changes.
    pub eval: EvalConfig,
    json: &'static str,
}

/// The registry: one row per table. The name picks the embedded asset, so
/// a row cannot be paired with another table's file.
macro_rules! designs {
    ($($name:literal $label:literal $section:literal $model:ident $objective:expr,
       $specimens:literal x $sim_secs:literal;)*) => {
        [$(Design {
            name: $name,
            label: $label,
            section: $section,
            model: $model,
            objective: $objective,
            eval: EvalConfig {
                specimens: $specimens,
                sim_secs: $sim_secs,
            },
            json: include_str!(concat!("../assets/", $name, ".json")),
        }),*]
    };
}

static DESIGNS: [Design; 7] = designs! {
    // name      label               section prior     objective, eval: specimens x sim_secs
    "delta01"    "RemyCC d=0.1"      "§5.1" GENERAL    Objective::proportional(0.1),     4 x 8.0;
    "delta1"     "RemyCC d=1"        "§5.1" GENERAL    Objective::proportional(1.0),     4 x 8.0;
    "delta10"    "RemyCC d=10"       "§5.1" GENERAL    Objective::proportional(10.0),    4 x 8.0;
    "onex"       "RemyCC 1x"         "§5.7" ONEX       Objective::proportional(1.0),     4 x 8.0;
    "tenx"       "RemyCC 10x"        "§5.7" TENX       Objective::proportional(1.0),     4 x 8.0;
    "datacenter" "RemyCC datacenter" "§5.5" DATACENTER Objective::min_potential_delay(), 4 x 3.0;
    "coexist"    "RemyCC"            "§5.6" COEXIST    Objective::proportional(1.0),     4 x 12.0;
};

const GENERAL: NetworkModel = NetworkModel::general();

/// §5.7's dumbbell, two senders at 150 ms: the "1×" design knows the link
/// speed exactly …
const ONEX: NetworkModel = NetworkModel {
    n_senders: (2, 2),
    link_mbps: (15.0, 15.0),
    rtt_ms: (150.0, 150.0),
    ..GENERAL
};

/// … and the "10×" design only to a tenfold range.
const TENX: NetworkModel = NetworkModel {
    link_mbps: (4.7, 47.0),
    ..ONEX
};

/// Scaled datacenter. The paper's fabric is 10 Gbps / 4 ms with up to 64
/// senders and 20 MB mean transfers; here it is 500 Mbps with up to 32
/// senders and 1 MB transfers over the same 1000-packet queue, so a
/// laptop-scale trainer sees the same queue-vs-BDP geometry
/// (`specs/table_datacenter.json` evaluates on this scaled fabric).
const DATACENTER: NetworkModel = NetworkModel {
    n_senders: (1, 32),
    link_mbps: (500.0, 500.0),
    rtt_ms: (4.0, 4.0),
    traffic: TrafficSpec {
        on: OnSpec::ByBytes { mean_bytes: 1e6 },
        off_mean: Ns::from_millis(100),
        start_on: false,
    },
    queue: QueueSpec::DropTail { capacity: 1000 },
};

/// Coexistence: RTTs well beyond the propagation delay, so a buffer-filling
/// competitor on the same bottleneck cannot push the RemyCC out of its
/// design range. Training simulations are finite, so the range stops at
/// 2 s rather than the paper's 10 s.
const COEXIST: NetworkModel = NetworkModel {
    n_senders: (1, 2),
    rtt_ms: (100.0, 2000.0),
    ..GENERAL
};

/// Every shipped design, in listing order.
pub fn all() -> &'static [Design] {
    &DESIGNS
}

/// Look a design up by its registry name.
pub fn by_name(name: &str) -> Option<&'static Design> {
    DESIGNS.iter().find(|d| d.name == name)
}

/// The registered names, space-separated, for "no such design" errors.
pub fn names() -> String {
    DESIGNS.each_ref().map(|d| d.name).join(" ")
}

impl Design {
    /// The shipped rule table.
    pub fn table(&self) -> Arc<WhiskerTree> {
        Arc::new(
            WhiskerTree::from_json(self.json)
                // lint:allow(p2-sim-panic): the table is compiled into the
                // binary; a parse failure means the build itself is corrupt.
                .unwrap_or_else(|e| panic!("shipped table '{}' is corrupt: {e}", self.name)),
        )
    }

    /// The optimizer that (re)trains this design within `wall_secs` of
    /// wall clock and `max_steps` improvement steps, whichever ends first.
    pub fn remy(&self, wall_secs: f64, max_steps: usize) -> Remy {
        Remy::new(
            self.model.clone(),
            self.objective,
            TrainConfig {
                eval: self.eval,
                wall_secs,
                max_steps,
                max_rules: 128,
                seed: 2013,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Memory;

    #[test]
    fn tables_carry_provenance() {
        // What `Remy::design_from` wrote into each asset is what its
        // entry's optimizer writes: same prior, objective, budget and seed.
        for d in all() {
            let says = d.table().provenance.clone();
            let head = format!(
                "remy-rs: model=[{}], objective=[{}], specimens={}, sim_secs={},",
                d.model.describe(),
                d.objective.label(),
                d.eval.specimens,
                d.eval.sim_secs,
            );
            let tail = format!("seed={}", d.remy(1.0, 1).config.seed);
            assert!(
                says.starts_with(&head) && says.ends_with(&tail) && tail == "seed=2013",
                "{}: asset says\n  {says}\nentry says\n  {head} … {tail}",
                d.name
            );
        }
    }

    #[test]
    fn asset_files_and_registry_names_are_the_same_set() {
        let mut on_disk: Vec<String> =
            std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/assets"))
                .expect("assets directory")
                .map(|e| e.expect("directory entry").path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .map(|p| p.file_stem().unwrap().to_str().unwrap().to_string())
                .collect();
        let mut registered: Vec<&str> = all().iter().map(|d| d.name).collect();
        on_disk.sort();
        registered.sort();
        assert_eq!(on_disk, registered, "assets/*.json vs registered names");
    }

    #[test]
    fn labels_are_the_ones_reports_pin() {
        // `tests/report_digests.txt` hashes these strings into the reports.
        let pinned = [
            ("delta01", "RemyCC d=0.1"),
            ("delta1", "RemyCC d=1"),
            ("delta10", "RemyCC d=10"),
            ("onex", "RemyCC 1x"),
            ("tenx", "RemyCC 10x"),
            ("datacenter", "RemyCC datacenter"),
            ("coexist", "RemyCC"),
        ];
        let registered: Vec<_> = all().iter().map(|d| (d.name, d.label)).collect();
        assert_eq!(registered, pinned);
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn shipped_tables_carry_each_rules_pacing_gap() {
        for d in all() {
            crate::whisker::tests::assert_leaf_gaps_match(&d.table());
        }
    }

    #[test]
    fn all_tables_parse_and_cover_memory_space() {
        for d in all() {
            let t = d.table();
            assert!(!t.is_empty(), "{} is empty", d.name);
            // Lookup is total over a grid of points.
            for &a in &[0.0, 1.0, 50.0, 16_000.0] {
                for &r in &[0.0, 1.0, 2.5, 100.0] {
                    let m = Memory {
                        ack_ewma_ms: a,
                        send_ewma_ms: a / 2.0,
                        rtt_ratio: r,
                    };
                    let w = t.get(t.lookup(m).id).expect("live rule");
                    assert!(w.domain.contains(m.clamped()), "{} lookup broken", d.name);
                }
            }
        }
    }
}
