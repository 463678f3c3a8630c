//! Datacenter comparison (paper §5.5): DCTCP with ECN marking vs. a
//! RemyCC designed for `−1/throughput` over a plain DropTail queue.
//!
//! The paper's fabric is 10 Gbps / 4 ms / 64 senders; DESIGN.md documents
//! the 500 Mbps scaling used here (same queue-vs-BDP geometry, laptop-
//! scale runtime); set `MBPS` below to 10 000 to run at paper scale.
//!
//! ```text
//! cargo run --release -p remy-sim --example datacenter
//! ```

use remy_sim::prelude::*;

/// Fabric speed, Mbps; transfer sizes and the marking threshold scale with it.
const MBPS: f64 = 500.0;

fn main() {
    let mbps = MBPS;
    let scale = mbps / 10_000.0;
    let n = 32;
    let transfer_bytes = 20e6 * scale; // paper: exp(20 MB) at 10 Gbps

    println!(
        "Datacenter: {mbps} Mbps, RTT 4 ms, n = {n}, exp({:.1} MB) transfers / exp(0.1 s) off\n",
        transfer_bytes / 1e6
    );

    // DCTCP's gateway marks at K packets; the paper's guidance is
    // K ≈ C·RTT/7 ≈ 0.6 BDP; use 65 (the common 10 GbE setting), scaled.
    let k = ((65.0 * scale).round() as usize).max(4);
    let spec = ExperimentSpec::new(
        "datacenter",
        "Datacenter fabric",
        WorkloadSpec::uniform(
            LinkRef::constant(mbps),
            1000,
            n,
            Ns::from_millis(4),
            TrafficSpec {
                on: OnSpec::ByBytes {
                    mean_bytes: transfer_bytes,
                },
                off_mean: Ns::from_millis(100),
                start_on: false,
            },
        ),
        vec![
            ContenderSpec::new(format!("dctcp:{k}")),
            ContenderSpec::labeled("remy:datacenter", "RemyCC (DropTail)"),
        ],
        Budget {
            runs: 4,
            sim_secs: 10,
        },
        99,
    );
    let results = Experiment::new(spec).run().expect("spec is well-formed");
    for cell in &results.cells {
        let out = &cell.outcome;
        println!(
            "{:<20} tput mean {:>8.2} med {:>8.2} Mbps   rtt mean {:>6.2} med {:>6.2} ms",
            out.label,
            netsim::stats::mean(&out.throughput_samples),
            out.median_throughput_mbps,
            netsim::stats::mean(&out.rtt_samples),
            out.median_rtt_ms,
        );
    }
    println!("\nPaper table (§5.5): RemyCC over DropTail achieves comparable throughput");
    println!("to DCTCP at lower variance, but higher per-packet latency (no ECN/AQM).");
}
