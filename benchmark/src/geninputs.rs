//! `benchmark gen-inputs`: regenerate every file under `benchmark/inputs/`
//! deterministically. The committed files are the frozen inputs; this is
//! how they were made (see `inputs/README.md` for provenance).

use crate::workloads::{DEFAULT_SEED, INPUT_DIR};
use netsim::graph::FailoverPolicy;
use netsim::scenario::ChurnSpec;
use netsim::time::Ns;
use netsim::traffic::{OnSpec, TrafficSpec};
use remy::whisker::WhiskerTree;
use remy_sim::spec::{
    Budget, ContenderSpec, ExperimentSpec, GraphGenerator, GraphSpec, LinkEventSpec, LinkRef,
    TopologySpec, WorkloadSpec,
};

/// Rule tables copied byte for byte from the shipped assets.
const ASSET_DIR: &str = "crates/core/assets";
const COPIED_TABLES: [&str; 4] = ["delta01", "delta1", "delta10", "datacenter"];

/// `delta1_deep` is split until it holds at least this many rules (the
/// paper's tables hold 162–204).
pub const DEEP_RULES: usize = 160;

/// `fattree_flap`: one core↔agg link changes state every `FLAP_INTERVAL`.
const FLAP_INTERVAL: Ns = Ns(25_000_000);
const FLAP_SECS: u64 = 30;

fn table_ref(name: &str) -> String {
    format!("remy:{INPUT_DIR}/tables/{name}.json")
}

/// Traffic models are spelled out here, not taken from the library's
/// constructors, so that a change to those cannot move the frozen inputs.
fn saturating() -> TrafficSpec {
    TrafficSpec {
        on: OnSpec::ByTime { mean: Ns::MAX },
        off_mean: Ns::ZERO,
        start_on: true,
    }
}

/// Today's `specs/fig4.json` at a quarter of the paper's 128 × 100 s.
fn fig4_dumbbell() -> ExperimentSpec {
    let workload = WorkloadSpec::uniform(
        LinkRef::constant(15.0),
        1000,
        8,
        Ns::from_millis(150),
        TrafficSpec {
            on: OnSpec::ByBytes {
                mean_bytes: 100_000.0,
            },
            off_mean: Ns::from_millis(500),
            start_on: false,
        },
    );
    let contenders = vec![
        ContenderSpec::labeled(table_ref("delta01"), "RemyCC d=0.1"),
        ContenderSpec::labeled(table_ref("delta1"), "RemyCC d=1"),
        ContenderSpec::labeled(table_ref("delta10"), "RemyCC d=10"),
        ContenderSpec::new("newreno"),
        ContenderSpec::new("vegas"),
        ContenderSpec::new("cubic"),
        ContenderSpec::new("compound"),
        ContenderSpec::new("cubic+sfqcodel"),
        ContenderSpec::new("xcp"),
    ];
    ExperimentSpec::new(
        "fig4_dumbbell",
        "Benchmark: Fig. 4 dumbbell, 15 Mbps, RTT 150 ms, n=8, nine contenders",
        workload,
        contenders,
        Budget {
            runs: 32,
            sim_secs: 100,
        },
        DEFAULT_SEED,
    )
}

/// ~100 k short flows per run beside two persistent senders.
fn churn_100k() -> ExperimentSpec {
    let workload = WorkloadSpec::uniform(
        LinkRef::constant(500.0),
        1000,
        2,
        Ns::from_millis(50),
        saturating(),
    )
    .with_churn(ChurnSpec {
        arrivals_per_sec: 10_000.0,
        size: OnSpec::BoundedPareto {
            xm: 2000.0,
            alpha: 1.2,
            cap_bytes: 10_000.0,
        },
        rtt: Ns::from_millis(20),
    });
    ExperimentSpec::new(
        "churn_100k",
        "Benchmark: Poisson(10000/s) bounded-Pareto transfers vs two persistent senders, 500 Mbps",
        workload,
        vec![
            ContenderSpec::new("newreno"),
            ContenderSpec::new("cubic"),
            ContenderSpec::labeled(table_ref("delta1"), "RemyCC d=1"),
        ],
        Budget {
            runs: 4,
            sim_secs: 10,
        },
        DEFAULT_SEED,
    )
}

/// The `i`-th directed core↔agg link of the flap rotation: pods round-robin
/// fastest, then direction, then aggregation switch, then core.
fn flap_link(i: usize) -> (String, String) {
    let pod = i % 4;
    let uplink = (i / 4).is_multiple_of(2);
    let agg = (i / 8) % 2;
    let core = 2 * agg + (i / 16) % 2;
    let (a, c) = (format!("pod{pod}_agg{agg}"), format!("core{core}"));
    if uplink {
        (a, c)
    } else {
        (c, a)
    }
}

/// Tick `k` fires at `(k + 1) · FLAP_INTERVAL`: even ticks take the next
/// link of the rotation down, the following odd tick brings it back, so at
/// most one link is down at a time and every flow keeps a route.
fn flap_events() -> Vec<LinkEventSpec> {
    let end = Ns::from_secs(FLAP_SECS);
    (0..)
        .map(|k: usize| (k, Ns((k as u64 + 1) * FLAP_INTERVAL.0)))
        .take_while(|&(_, at)| at < end)
        .map(|(k, at)| {
            let (from, to) = flap_link(k / 2);
            LinkEventSpec {
                at,
                from,
                to,
                up: k % 2 == 1,
            }
        })
        .collect()
}

/// Fat-tree k=4 with six flows while core↔agg links flap under `reroute`.
fn fattree_flap() -> ExperimentSpec {
    let graph = GraphSpec {
        generator: GraphGenerator::FatTreeK4 {
            link: LinkRef::constant(50.0),
            queue_capacity: 64,
            prop_delay: Ns::from_micros(100),
        },
        flows: [
            ("pod0_edge0", "pod1_edge0"),
            ("pod1_edge1", "pod2_edge1"),
            ("pod2_edge0", "pod3_edge0"),
            ("pod0_edge1", "pod3_edge1"),
            ("pod0_edge0", "pod0_edge1"),
            ("pod2_edge1", "pod2_edge0"),
        ]
        .iter()
        .map(|(s, d)| (s.to_string(), d.to_string()))
        .collect(),
        events: flap_events(),
        policy: FailoverPolicy::Reroute,
    };
    let workload = WorkloadSpec::uniform(
        LinkRef::constant(50.0),
        64,
        6,
        Ns::from_millis(1),
        saturating(),
    )
    .with_topology(TopologySpec::Graph(graph));
    ExperimentSpec::new(
        "fattree_flap",
        "Benchmark: fat-tree k=4, six flows, one core-agg link flapping every 25 ms",
        workload,
        vec![
            ContenderSpec::labeled(table_ref("datacenter"), "RemyCC (DropTail)"),
            ContenderSpec::new("dctcp:8"),
            ContenderSpec::new("cubic"),
        ],
        Budget {
            runs: 2,
            sim_secs: FLAP_SECS,
        },
        DEFAULT_SEED,
    )
}

/// Split leaves at their domain midpoints, in tree order, one generation
/// of leaves after another, until the table holds `DEEP_RULES` rules.
/// Children inherit the parent's action, so the table's behaviour is
/// unchanged and only the lookup depth grows.
pub fn deepen(mut tree: WhiskerTree) -> Result<WhiskerTree, String> {
    while tree.len() < DEEP_RULES {
        let generation: Vec<_> = tree
            .whiskers()
            .iter()
            .map(|w| (w.id, w.domain.midpoint()))
            .collect();
        let before = tree.len();
        for (id, mid) in generation {
            if tree.len() >= DEEP_RULES {
                break;
            }
            tree.split(id, mid);
        }
        if tree.len() == before {
            return Err("no leaf can be split further".to_string());
        }
    }
    tree.provenance = format!(
        "{} | benchmark gen-inputs: leaves split at domain midpoints to {} rules, actions inherited",
        tree.provenance,
        tree.len()
    );
    Ok(tree)
}

fn write(path: &str, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path} ({} bytes)", bytes.len());
    Ok(())
}

pub fn write_inputs() -> Result<(), String> {
    let tables = format!("{INPUT_DIR}/tables");
    std::fs::create_dir_all(&tables).map_err(|e| format!("cannot create {tables}: {e}"))?;
    for name in COPIED_TABLES {
        let src = format!("{ASSET_DIR}/{name}.json");
        let bytes = std::fs::read(&src).map_err(|e| format!("cannot read {src}: {e}"))?;
        write(&format!("{tables}/{name}.json"), &bytes)?;
    }
    let delta1 = crate::workloads::load_table(&format!("{ASSET_DIR}/delta1.json"))?;
    write(
        &format!("{tables}/delta1_deep.json"),
        deepen(delta1)?.to_json().as_bytes(),
    )?;
    for spec in [fig4_dumbbell(), churn_100k(), fattree_flap()] {
        write(
            &format!("{INPUT_DIR}/{}.json", spec.name),
            spec.to_json().as_bytes(),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::cc::Memory;

    #[test]
    fn deepening_reaches_paper_depth_and_keeps_every_lookup() {
        let mut base = WhiskerTree::single_rule();
        base.split(
            0,
            Memory {
                ack_ewma_ms: 10.0,
                send_ewma_ms: 10.0,
                rtt_ratio: 2.0,
            },
        );
        let deep = deepen(base.clone()).expect("splits");
        assert!(deep.len() >= DEEP_RULES && deep.len() < DEEP_RULES + 7);
        for i in 0..500 {
            let m = Memory {
                ack_ewma_ms: (i as f64 * 1.37) % 200.0,
                send_ewma_ms: (i as f64 * 0.91) % 150.0,
                rtt_ratio: 1.0 + (i as f64 * 0.11) % 8.0,
            };
            assert_eq!(deep.lookup(m).action, base.lookup(m).action);
        }
    }

    #[test]
    fn flap_rotation_alternates_down_and_up_on_one_link_at_a_time() {
        let events = flap_events();
        assert_eq!(events.len(), 1199, "ticks at 25 ms, strictly inside 30 s");
        for pair in events.chunks(2) {
            assert!(!pair[0].up);
            if let [down, up] = pair {
                assert!(up.up);
                assert_eq!((&down.from, &down.to), (&up.from, &up.to));
                assert_eq!(up.at.0 - down.at.0, FLAP_INTERVAL.0);
            }
        }
        // 32 directed core↔agg links, each visited once per rotation.
        let mut seen: Vec<(String, String)> = (0..32).map(flap_link).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 32);
        assert_eq!(flap_link(0), flap_link(32));
    }
}
