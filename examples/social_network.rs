//! Social-network analysis: power-law graphs, where RDBS shines.
//!
//! Builds a soc-Pokec-like power-law graph, computes single-source
//! shortest paths from several seed users on both the simulated GPU
//! (RDBS) and the native CPU (PQ-Δ*, Table 2's CPU comparator), and
//! derives a closeness-centrality ranking from the distances —
//! the kind of downstream analysis the paper's intro motivates.
//!
//! ```text
//! cargo run --release --example social_network
//! ```

use rdbs::baselines::{default_threads, pq_delta_stepping};
use rdbs::graph::datasets::by_name;
use rdbs::sim::DeviceConfig;
use rdbs::sssp::gpu::{run_gpu, RdbsConfig, Variant};
use rdbs::sssp::INF;

fn main() {
    let spec = by_name("soc-PK").expect("soc-PK spec");
    let graph = spec.generate(7, 3);
    println!("soc-PK stand-in: {} vertices, {} edges", graph.num_vertices(), graph.num_edges());

    let device =
        DeviceConfig::v100().with_overhead_scale(1.0 / 128.0).with_cache_scale(1.0 / 128.0);
    let seeds = [1u32, 77, 4242];
    let threads = default_threads();

    println!("\n{:<8} {:>14} {:>16}", "seed", "GPU RDBS (ms)", "CPU PQ-D* (ms)");
    let mut best: Vec<(u32, f64)> = Vec::new();
    for &s in &seeds {
        let gpu = run_gpu(&graph, s, Variant::Rdbs(RdbsConfig::full()), device.clone());

        let t0 = std::time::Instant::now();
        let cpu_pq = pq_delta_stepping(&graph, s, threads, None);
        let pq_ms = t0.elapsed().as_secs_f64() * 1e3;

        assert_eq!(gpu.result.dist, cpu_pq.dist, "GPU and CPU must agree");

        println!("{:<8} {:>14.3} {:>16.3}", s, gpu.elapsed_ms, pq_ms);

        // Closeness centrality of the seed: n_reached / sum(dist).
        let (sum, reached) = gpu
            .result
            .dist
            .iter()
            .filter(|&&d| d != INF && d > 0)
            .fold((0u64, 0u64), |(s, c), &d| (s + d as u64, c + 1));
        if sum > 0 {
            best.push((s, reached as f64 / sum as f64));
        }
    }

    best.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\ncloseness-centrality ranking of the seed users:");
    for (rank, (seed, score)) in best.iter().enumerate() {
        println!("  #{} user {seed} (closeness {score:.6})", rank + 1);
    }
}
