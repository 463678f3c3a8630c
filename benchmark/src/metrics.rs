//! The names, units and directions of every metric the harness prints.
//! `BENCHMARK.json` at the repository root lists the same rows; a unit
//! test keeps the two in step.

/// `(name, unit, better, regression bound as a share of the median)`.
pub const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
];

/// `(name, unit, better)` of the per-layer rows. A workload that does not
/// exercise a layer reports 0 for its rows.
pub const LAYERS: [(&str, &str, &str); 68] = [
    // Exact-repeat counts of the traced pass.
    ("sim.runs", "count", "higher"),
    ("sim.sim_seconds", "s", "higher"),
    ("sim.pkts_forwarded", "count", "higher"),
    ("sim.pkts_delivered", "count", "higher"),
    ("queue.drops", "count", "lower"),
    ("flow.spawned", "count", "higher"),
    ("flow.completed", "count", "higher"),
    ("graph.link_events", "count", "higher"),
    ("graph.reroutes", "count", "higher"),
    ("graph.failover_drops", "count", "lower"),
    ("optimizer.steps", "count", "higher"),
    ("optimizer.fresh_candidates", "count", "lower"),
    ("evaluator.sims", "count", "lower"),
    ("whisker.rules", "count", "higher"),
    // Spans of the traced pass and of the traced set-up.
    ("spec.parse_us", "us", "lower"),
    ("spec.expand_us", "us", "lower"),
    ("assets.table_load_us", "us", "lower"),
    ("report.render_us", "us", "lower"),
    ("sim.construct_us", "us", "lower"),
    ("sim.construct_p95_us", "us", "lower"),
    ("sim.run_us", "us", "lower"),
    ("sim.run_p95_us", "us", "lower"),
    ("harness.self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("evaluator.specimens_us", "us", "lower"),
    ("evaluator.evaluate_s", "s", "lower"),
    ("evaluator.score_overlays_s", "s", "lower"),
    ("evaluator.sims_per_s", "1/s", "higher"),
    ("optimizer.self_s", "s", "lower"),
    // Host time per simulated packet, per contender.
    ("cell.remy_d01.ns_per_pkt", "ns", "lower"),
    ("cell.remy_d1.ns_per_pkt", "ns", "lower"),
    ("cell.remy_d10.ns_per_pkt", "ns", "lower"),
    ("cell.remy_dc.ns_per_pkt", "ns", "lower"),
    ("cell.newreno.ns_per_pkt", "ns", "lower"),
    ("cell.vegas.ns_per_pkt", "ns", "lower"),
    ("cell.cubic.ns_per_pkt", "ns", "lower"),
    ("cell.compound.ns_per_pkt", "ns", "lower"),
    ("cell.cubic_sfqcodel.ns_per_pkt", "ns", "lower"),
    ("cell.xcp.ns_per_pkt", "ns", "lower"),
    ("cell.dctcp.ns_per_pkt", "ns", "lower"),
    // Fixed-size probes.
    ("sched.wheel_push_pop_ns", "ns", "lower"),
    ("sched.heap_push_pop_ns", "ns", "lower"),
    ("packet.arena_alloc_free_ns", "ns", "lower"),
    ("queue.droptail_ns", "ns", "lower"),
    ("queue.ecn_ns", "ns", "lower"),
    ("queue.codel_ns", "ns", "lower"),
    ("queue.sfqcodel_ns", "ns", "lower"),
    ("transport.ack_cycle_ns", "ns", "lower"),
    ("cc.remycc.on_ack_ns", "ns", "lower"),
    ("cc.newreno.on_ack_ns", "ns", "lower"),
    ("cc.cubic.on_ack_ns", "ns", "lower"),
    ("cc.vegas.on_ack_ns", "ns", "lower"),
    ("cc.compound.on_ack_ns", "ns", "lower"),
    ("cc.dctcp.on_ack_ns", "ns", "lower"),
    ("whisker.flat_lookup_ns", "ns", "lower"),
    ("whisker.flat_lookup_deep_ns", "ns", "lower"),
    ("whisker.octree_lookup_deep_ns", "ns", "lower"),
    ("whisker.clone_us", "us", "lower"),
    ("action.neighbourhood_us", "us", "lower"),
    ("flow.spawn_free_ns", "ns", "lower"),
    ("graph.build_us", "us", "lower"),
    ("graph.forwarding_us", "us", "lower"),
    // Derived from the rows above; informational.
    ("rate.sim_s_per_s", "1/s", "higher"),
    ("rate.pkts_per_s", "1/s", "higher"),
    ("rate.flows_per_s", "1/s", "higher"),
    ("rate.steps_per_hour", "1/h", "higher"),
    ("rayon.jobs2_wall_s", "s", "lower"),
    ("rayon.jobs2_speedup", "x", "higher"),
];

/// Per-layer values of one traced run, every row present.
pub struct Layers(Vec<f64>);

impl Layers {
    pub fn zeroed() -> Layers {
        Layers(vec![0.0; LAYERS.len()])
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = LAYERS
            .iter()
            .position(|(n, ..)| *n == name)
            .unwrap_or_else(|| panic!("'{name}' is not a per-layer metric"));
        self.0[i] = value;
    }

    /// `(name, unit, value)` in table order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        LAYERS
            .iter()
            .zip(&self.0)
            .map(|(&(name, unit, _), &v)| (name, unit, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::json::{parse, Value};

    fn manifest() -> Value {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at repo root");
        parse(&text).expect("valid JSON")
    }

    fn rows(v: &Value, key: &str) -> Vec<(String, String, String)> {
        v.field(key)
            .and_then(Value::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.field(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn manifest_lists_exactly_the_metrics_the_harness_prints() {
        let m = manifest();
        let want: Vec<_> = LAYERS
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(rows(&m, "per_layer"), want);
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b, _)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(rows(&m, "end_to_end"), want);
        for (entry, &(name, .., bound)) in m
            .field("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(
                entry.field("bound").unwrap().as_f64().unwrap(),
                bound,
                "{name}"
            );
        }
        let names: Vec<&str> = m
            .field("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.field("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, crate::workloads::WORKLOADS);
    }

    #[test]
    fn layer_names_are_unique_and_settable() {
        let mut seen: Vec<&str> = LAYERS.iter().map(|(n, ..)| *n).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), LAYERS.len());
        let mut l = Layers::zeroed();
        l.set("sim.runs", 288.0);
        assert_eq!(l.rows().next(), Some(("sim.runs", "count", 288.0)));
        assert_eq!(l.rows().count(), 68);
    }
}
