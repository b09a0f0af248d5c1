//! Extension experiments: ablations of the design choices DESIGN.md
//! calls out, beyond the paper's own Fig. 8 study.
//!
//! 1. **Vertex-ordering ablation** — PRO's descending-degree relabel
//!    vs random, BFS and ascending-degree orderings (all with
//!    weight-sorted rows and heavy offsets, isolating the *ordering*
//!    choice).
//! 2. **Δ₀ sensitivity** — the Dijkstra ↔ Bellman-Ford spectrum.
//! 3. **Weight-distribution sensitivity** — uniform vs log-normal vs
//!    exponential vs bimodal weights.

use rdbs_bench::{pick_sources, HarnessArgs, Table};
use rdbs_core::default_delta;
use rdbs_core::gpu::rdbs::{rdbs, RdbsConfig};
use rdbs_core::gpu::{run_gpu, Variant};
use rdbs_gpu_sim::Device;
use rdbs_graph::builder::build_undirected;
use rdbs_graph::datasets::kronecker_spec;
use rdbs_graph::generate::{
    assign_distributed_weights, kronecker, KroneckerConfig, WeightDistribution,
};
use rdbs_graph::reorder::{
    attach_heavy_offsets, bfs_order, degree_ascending, degree_descending, random_order,
    sort_edges_by_weight, Permutation,
};

fn main() {
    let args = HarnessArgs::parse();
    println!(
        "Extension — design-choice ablations ({} | scale-shift {})\n",
        args.device.name, args.scale_shift
    );
    ordering_ablation(&args);
    delta_sensitivity(&args);
    weight_distribution(&args);
}

fn ordering_ablation(args: &HarnessArgs) {
    println!("## 1. Vertex-ordering ablation (k-n21-16 stand-in, BASYN+ADWL fixed, rows weight-sorted)\n");
    let g = kronecker_spec(21, 16).generate(args.scale_shift, args.seed);
    let source = pick_sources(&g, 1, args.seed)[0];
    let delta0 = default_delta(&g);
    let orderings: Vec<(&str, Permutation)> = vec![
        ("degree-desc (PRO)", degree_descending(&g)),
        ("degree-asc", degree_ascending(&g)),
        ("bfs", bfs_order(&g, source)),
        ("random", random_order(&g, args.seed)),
        ("input order", Permutation::identity(g.num_vertices())),
    ];
    let mut t = Table::new(&["ordering", "sim ms", "hit %", "warp insts"]);
    for (name, perm) in orderings {
        let mut pg = perm.apply_to_graph(&g);
        sort_edges_by_weight(&mut pg);
        attach_heavy_offsets(&mut pg, delta0);
        let mut dev = Device::new(args.device.clone());
        let run = rdbs(&mut dev, &pg, perm.new_id(source), RdbsConfig::full());
        assert_eq!(run.result.reached(), run.result.reached());
        t.row(vec![
            name.into(),
            format!("{:.4}", dev.elapsed_ms()),
            format!("{:.2}", dev.counters().global_hit_rate()),
            dev.counters().inst_executed.to_string(),
        ]);
    }
    t.print();
    println!();
}

fn delta_sensitivity(args: &HarnessArgs) {
    println!("## 2. Δ₀ sensitivity (k-n21-16 stand-in, full RDBS)\n");
    let g = kronecker_spec(21, 16).generate(args.scale_shift, args.seed);
    let source = pick_sources(&g, 1, args.seed)[0];
    let mut t = Table::new(&["delta0", "sim ms", "buckets", "total updates", "work ratio"]);
    for delta0 in [1u32, 10, 100, 500, 1000, 10_000, 1_000_000] {
        let cfg = RdbsConfig { delta0: Some(delta0), ..RdbsConfig::full() };
        let run = run_gpu(&g, source, Variant::Rdbs(cfg), args.device.clone());
        t.row(vec![
            delta0.to_string(),
            format!("{:.4}", run.elapsed_ms),
            run.buckets.len().to_string(),
            run.result.stats.total_updates.to_string(),
            format!("{:.2}", run.result.work_ratio().unwrap_or(f64::NAN)),
        ]);
    }
    t.print();
    println!("\n(Δ → 1 approaches Dijkstra: minimal updates, many buckets; Δ → ∞ approaches Bellman-Ford)\n");
}

fn weight_distribution(args: &HarnessArgs) {
    println!(
        "## 3. Weight-distribution sensitivity (SCALE {} ef 16, full RDBS)\n",
        21 - args.scale_shift.min(13)
    );
    let scale = (21 - args.scale_shift.min(13)).max(8);
    let mut t = Table::new(&["distribution", "sim ms", "buckets", "work ratio"]);
    for (name, dist) in [
        ("uniform(1,1000)", WeightDistribution::Uniform),
        ("log-normal", WeightDistribution::LogNormal),
        ("exponential", WeightDistribution::Exponential),
        ("bimodal 90/10", WeightDistribution::Bimodal),
    ] {
        let mut el = kronecker(KroneckerConfig::new(scale, 16), args.seed);
        assign_distributed_weights(&mut el, dist, args.seed + 5);
        let g = build_undirected(&el);
        let source = pick_sources(&g, 1, args.seed)[0];
        let run = run_gpu(&g, source, Variant::Rdbs(RdbsConfig::full()), args.device.clone());
        t.row(vec![
            name.into(),
            format!("{:.4}", run.elapsed_ms),
            run.buckets.len().to_string(),
            format!("{:.2}", run.result.work_ratio().unwrap_or(f64::NAN)),
        ]);
    }
    t.print();
    println!();
}
