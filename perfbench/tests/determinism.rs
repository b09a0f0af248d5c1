//! Determinism self-test: at one seed every simulated metric and
//! counter of every workload repeats bit for bit across two in-process
//! runs (host metrics only need to be sane), and a second seed changes
//! the graph and the sources.
//!
//! Drives the real workloads at their minimum length (the sample), so
//! run it optimised: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use rdbs_core::service::traffic::generate_arrivals;
use rdbs_perfbench::{run, sources, traffic_config, Clock, Loop, Metric, WORKLOADS};

fn split(metrics: &[Metric]) -> (Vec<(&'static str, u64)>, Vec<f64>) {
    let sim = metrics.iter().filter(|m| m.clock == Clock::Sim).map(|m| (m.name, m.value.to_bits()));
    let host = metrics.iter().filter(|m| m.clock == Clock::Host).map(|m| m.value);
    (sim.collect(), host.collect())
}

#[test]
fn simulated_metrics_repeat_exactly_at_a_seed() {
    for w in &WORKLOADS {
        let a = run(w, 11, 0.0, false);
        let b = run(w, 11, 0.0, false);
        assert_eq!((a.failed, b.failed), (0, 0), "{}: wrong answers", w.name);
        assert_eq!(a.attempted, b.attempted, "{}: the sample is fixed", w.name);
        for (ma, mb) in [(&a.end_to_end, &b.end_to_end), (&a.per_layer, &b.per_layer)] {
            let (sim_a, host_a) = split(ma);
            let (sim_b, host_b) = split(mb);
            assert!(!sim_a.is_empty());
            assert_eq!(sim_a, sim_b, "{}: simulated metrics differ between runs", w.name);
            for v in host_a.into_iter().chain(host_b) {
                assert!(v.is_finite() && v >= 0.0, "{}: host metric {v}", w.name);
            }
        }
        assert!(a.attempted > 0, "{}: no queries offered", w.name);
    }
}

#[test]
fn a_second_seed_changes_the_graph_and_the_sources() {
    for w in &WORKLOADS {
        let (g1, g2) = (w.graph.generate(11), w.graph.generate(12));
        assert!(
            g1.adjacency() != g2.adjacency() || g1.weights() != g2.weights(),
            "{}: seed does not reach the graph",
            w.name
        );
        match w.run {
            Loop::Batch { size } | Loop::Verify { size } => {
                assert_ne!(sources(&g1, 11, 0, size), sources(&g2, 12, 0, size), "{}", w.name);
                assert_ne!(sources(&g1, 11, 0, size), sources(&g1, 11, 1, size), "{}", w.name);
            }
            Loop::Traffic(t) => {
                let n = g1.num_vertices() as u32;
                let draw = |seed| {
                    let cfg = traffic_config(t, w.slo_ms, seed, 0);
                    generate_arrivals(&cfg, n).iter().map(|q| q.source).collect::<Vec<_>>()
                };
                assert_ne!(draw(11), draw(12), "{}", w.name);
            }
        }
    }
}
