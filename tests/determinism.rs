//! Integration: bit-for-bit reproducibility across the whole stack.
//! Everything the optimizer does relies on this (common random numbers).

use remy_sim::prelude::*;
use std::sync::{Arc, Mutex};

/// Serializes the tests that sweep the process-global jobs knob, so each
/// really runs at the thread counts it claims to cover.
static JOBS_KNOB: Mutex<()> = Mutex::new(());

fn fingerprint(r: &SimResults) -> (u64, u64, Vec<u64>) {
    (
        r.packets_forwarded,
        r.queue_drops,
        r.flows.iter().map(|f| f.bytes).collect(),
    )
}

#[test]
fn identical_runs_for_every_scheme() {
    for scheme in Scheme::standard_suite() {
        let link = LinkSpec::constant(15.0);
        let scenario = Scenario {
            link: link.clone(),
            queue: scheme.queue_spec(1000),
            senders: (0..3)
                .map(|_| SenderConfig {
                    rtt: Ns::from_millis(150),
                    traffic: TrafficSpec::fig4(),
                })
                .collect(),
            mss: 1500,
            duration: Ns::from_secs(12),
            seed: 1234,
            record_deliveries: false,
            topology: None,
            churn: None,
        };
        let go = || {
            let ccs = (0..3).map(|_| scheme.build_cc()).collect();
            let router = scheme.router(&link, 1500);
            Simulator::new(&scenario, ccs, router).run()
        };
        assert_eq!(
            fingerprint(&go()),
            fingerprint(&go()),
            "{} is nondeterministic",
            scheme.label()
        );
    }
}

#[test]
fn identical_runs_for_remycc_on_trace_links() {
    let table = remy::designs::by_name("delta1").unwrap().table();
    let scenario = Scenario::dumbbell(
        LinkSpec::Trace {
            schedule: Arc::new(verizon_schedule()),
            name: "v".into(),
        },
        QueueSpec::DropTail { capacity: 1000 },
        4,
        Ns::from_millis(50),
        TrafficSpec::fig4(),
        Ns::from_secs(12),
        77,
    );
    let go = || run_scenario(&scenario, &|_| Box::new(RemyCc::new(Arc::clone(&table))));
    assert_eq!(fingerprint(&go()), fingerprint(&go()));
}

#[test]
fn seeds_actually_matter() {
    let scenario = |seed| {
        Scenario::dumbbell(
            LinkSpec::constant(15.0),
            QueueSpec::DropTail { capacity: 1000 },
            4,
            Ns::from_millis(150),
            TrafficSpec::fig4(),
            Ns::from_secs(12),
            seed,
        )
    };
    let a = run_scenario(&scenario(1), &|_| Box::new(NewReno::new()));
    let b = run_scenario(&scenario(2), &|_| Box::new(NewReno::new()));
    assert_ne!(
        fingerprint(&a).2,
        fingerprint(&b).2,
        "different seeds must change traffic draws"
    );
}

#[test]
fn evaluator_common_random_numbers_hold_across_tables() {
    // Two different tables must see exactly the same specimen scenarios.
    let evaluator = Evaluator::new(
        NetworkModel::general(),
        Objective::proportional(1.0),
        EvalConfig {
            specimens: 3,
            sim_secs: 3.0,
        },
    );
    let s1 = evaluator.specimens(42);
    let s2 = evaluator.specimens(42);
    for (a, b) in s1.iter().zip(&s2) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.n(), b.n());
        assert_eq!(a.senders[0].rtt, b.senders[0].rtt);
    }
}

#[test]
fn training_with_step_budget_is_reproducible() {
    let cfg = TrainConfig {
        eval: EvalConfig {
            specimens: 2,
            sim_secs: 3.0,
        },
        wall_secs: 600.0,
        max_steps: 2,
        max_rules: 8,
        seed: 9,
    };
    let onex = remy::designs::by_name("onex").unwrap();
    let train = || Remy::new(onex.model.clone(), onex.objective, cfg).design(|_| {});
    assert_eq!(train().to_json(), train().to_json());
}

#[test]
fn trained_table_bytes_are_pinned() {
    // Two improve steps from the shipped δ = 1 table. Every candidate is
    // scored as an overlay of the shared base table
    // (`RemyCc::with_candidate`), a path none of the report digests
    // reaches; this golden pins its output byte for byte.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let delta1 = remy::designs::by_name("delta1").unwrap();
    let cfg = TrainConfig {
        eval: EvalConfig {
            specimens: 2,
            sim_secs: 2.0,
        },
        wall_secs: 1e9,
        max_steps: 2,
        max_rules: 128,
        seed: 2013,
    };
    let json = Remy::new(delta1.model.clone(), delta1.objective, cfg)
        .design_from(WhiskerTree::clone(&delta1.table()), |_| {})
        .to_json();
    assert_eq!(
        format!("{:016x}", fnv1a64(json.as_bytes())),
        "e3605ccd929c5841"
    );
}

#[test]
fn training_is_thread_count_invariant() {
    // The hard constraint of the parallel evaluation engine: the trained
    // table is byte-identical at any worker count, because every parallel
    // map collects positionally and reductions run in input order.
    let _knob = JOBS_KNOB.lock().unwrap();
    let cfg = TrainConfig {
        eval: EvalConfig {
            specimens: 3,
            sim_secs: 3.0,
        },
        wall_secs: 600.0,
        max_steps: 2,
        max_rules: 16,
        seed: 21,
    };
    let train = || {
        Remy::new(NetworkModel::general(), Objective::proportional(1.0), cfg)
            .design(|_| {})
            .to_json()
    };
    let mut outputs = Vec::new();
    for jobs in [1usize, 2, 4] {
        remy::evaluator::set_jobs(jobs);
        outputs.push((jobs, train()));
    }
    remy::evaluator::set_jobs(0); // restore automatic selection
    let (_, reference) = &outputs[0];
    for (jobs, json) in &outputs[1..] {
        assert_eq!(
            json, reference,
            "table trained with --jobs {jobs} differs from --jobs 1"
        );
    }
}

#[test]
fn evaluation_scores_are_thread_count_invariant() {
    let _knob = JOBS_KNOB.lock().unwrap();
    let evaluator = Evaluator::new(
        NetworkModel::general(),
        Objective::proportional(1.0),
        EvalConfig {
            specimens: 5,
            sim_secs: 3.0,
        },
    );
    let specimens = evaluator.specimens(3);
    let table = remy::designs::by_name("delta1").unwrap().table();
    let mut scores = Vec::new();
    let mut usages = Vec::new();
    for jobs in [1usize, 2, 4] {
        remy::evaluator::set_jobs(jobs);
        let (score, usage) = evaluator.evaluate(&table, &specimens);
        scores.push(score);
        usages.push(usage.total());
    }
    remy::evaluator::set_jobs(0);
    assert!(
        scores.windows(2).all(|w| w[0] == w[1]),
        "scores varied with thread count: {scores:?}"
    );
    assert!(
        usages.windows(2).all(|w| w[0] == w[1]),
        "usage totals varied with thread count: {usages:?}"
    );
}
