//! Scatter-mode bench: the resident service answering the same
//! 4-stream batch with the per-element scalar publish path (one tail
//! `atomicAdd` plus one slot `atomicExch` per push) versus the
//! warp-aggregated multisplit scatter (one tail `atomicAdd` per
//! (warp × bucket), coalesced reserved stores into the won range), on
//! every frontier layout and in two provisioning regimes: *ample*
//! (each lane's queues hold the vertex count, so nothing overflows)
//! and *stress* (a quarter of the vertex count, so the single layout
//! escalates and the MLMQ spills). The claim graded here: the
//! aggregated path cuts `inst_executed_global_atomics` at least 2x in
//! the stress regime on at least one frontier, with bit-identical
//! distances and no change in escalations or fallbacks.
//!
//! Writes the machine-readable record to `results/BENCH_pr10.json`.

use criterion::robust_stats;
use rdbs_core::gpu::{FrontierKind, ScatterMode};
use rdbs_core::service::{ServiceConfig, SsspService};
use rdbs_core::stats::BatchStats;
use rdbs_core::{Csr, Dist, VertexId};
use rdbs_gpu_sim::DeviceConfig;
use rdbs_graph::datasets::kronecker_spec;
use std::fmt::Write as _;
use std::time::Instant;

const BATCH: usize = 16;
const REPS: usize = 5;
/// Stress-regime queue capacity: the vertex count over this divisor
/// (the provisioning `BENCH_pr8.json` recorded, so the scalar rows
/// reproduce its counters exactly).
const STRESS_DIVISOR: u32 = 4;

fn graph() -> Csr {
    kronecker_spec(21, 16).generate(8, 42)
}

fn device() -> DeviceConfig {
    DeviceConfig::v100().with_overhead_scale(1.0 / 256.0).with_cache_scale(1.0 / 256.0)
}

fn sources(n: usize) -> Vec<VertexId> {
    (0..BATCH as u64).map(|i| ((i * 2_654_435_761) % n as u64) as VertexId).collect()
}

/// One measured (scatter, frontier, provisioning) configuration.
struct Row {
    scatter: ScatterMode,
    frontier: FrontierKind,
    regime: &'static str,
    capacity: Option<u32>,
    host_median_ms: f64,
    stats: BatchStats,
    global_atomics: u64,
    /// Distance vectors of the whole batch, for the bit-identity gate.
    dists: Vec<Vec<Dist>>,
}

fn measure(
    g: &Csr,
    srcs: &[VertexId],
    scatter: ScatterMode,
    kind: FrontierKind,
    regime: &'static str,
    capacity: Option<u32>,
) -> Row {
    let mut host_ms = Vec::with_capacity(REPS);
    let mut stats = None;
    let mut global_atomics = 0;
    let mut dists = Vec::new();
    for _ in 0..REPS {
        // Fresh service per rep: identical cold-pool state, so the
        // simulated clock and counters are bit-identical across reps.
        let mut config =
            ServiceConfig::rdbs(device()).with_streams(4).with_frontier(kind).with_scatter(scatter);
        if let Some(cap) = capacity {
            config = config.with_queue_capacity(cap);
        }
        let mut svc = SsspService::new(g, config);
        let started = Instant::now();
        let results = svc.batch(srcs);
        host_ms.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(results.len(), srcs.len());
        dists = results.into_iter().map(|r| r.dist).collect();
        stats = Some(svc.stats().clone());
        global_atomics = svc.device_counters().expect("gpu backend").inst_executed_global_atomics;
    }
    let stats = stats.expect("at least one rep ran");
    assert_eq!(
        stats.fallbacks,
        0,
        "{}/{}/{regime}: batch degraded to the host oracle",
        scatter.name(),
        kind.name()
    );
    Row {
        scatter,
        frontier: kind,
        regime,
        capacity,
        host_median_ms: robust_stats(&host_ms).median,
        stats,
        global_atomics,
        dists,
    }
}

fn json_row(out: &mut String, row: &Row, last: bool) {
    writeln!(
        out,
        "    {{\n      \"scatter\": \"{}\",\n      \"frontier\": \"{}\",\n      \
         \"regime\": \"{}\",\n      \"queue_capacity\": {},\n      \
         \"host_median_ms\": {:.4},\n      \"sim_batch_ms\": {:.4},\n      \
         \"inst_executed_global_atomics\": {},\n      \"escalations\": {},\n      \
         \"fallbacks\": {}\n    }}{}",
        row.scatter.name(),
        row.frontier.name(),
        row.regime,
        row.capacity.map_or("null".into(), |c| c.to_string()),
        row.host_median_ms,
        row.stats.sim_batch_ms,
        row.global_atomics,
        row.stats.escalations,
        row.stats.fallbacks,
        if last { "" } else { "," },
    )
    .expect("writing to a String cannot fail");
}

fn main() {
    let g = graph();
    let srcs = sources(g.num_vertices());
    let stress_cap = (g.num_vertices() as u32 / STRESS_DIVISOR).max(8);
    println!(
        "multisplit bench: kronecker scale-13 ef16 ({} vertices, {} edges), batch {BATCH}, \
         stress capacity {stress_cap}",
        g.num_vertices(),
        g.num_edges()
    );

    let mut rows = Vec::new();
    for scatter in ScatterMode::ALL {
        for kind in FrontierKind::ALL {
            rows.push(measure(&g, &srcs, scatter, kind, "ample", None));
        }
        for kind in FrontierKind::ALL {
            rows.push(measure(&g, &srcs, scatter, kind, "stress", Some(stress_cap)));
        }
    }
    for row in &rows {
        println!(
            "  {:<10} {:<8} {:<8} host {:8.3} ms  sim {:8.3} ms  atomics {:>9}  esc {}  fb {}",
            row.scatter.name(),
            row.frontier.name(),
            row.regime,
            row.host_median_ms,
            row.stats.sim_batch_ms,
            row.global_atomics,
            row.stats.escalations,
            row.stats.fallbacks,
        );
    }

    let find = |scatter: ScatterMode, kind: FrontierKind, regime: &str| {
        rows.iter()
            .find(|r| r.scatter == scatter && r.frontier == kind && r.regime == regime)
            .expect("row measured")
    };

    // Bit-identity gate: the aggregated publish is a pure scheduling
    // change — every (frontier, regime) pair must answer the whole
    // batch with the exact distance vectors of the scalar path.
    for kind in FrontierKind::ALL {
        for regime in ["ample", "stress"] {
            let scalar = find(ScatterMode::Scalar, kind, regime);
            let multi = find(ScatterMode::Multisplit, kind, regime);
            assert_eq!(
                scalar.dists,
                multi.dists,
                "{}/{regime}: multisplit distances diverge from scalar",
                kind.name()
            );
            assert_eq!(
                multi.stats.escalations,
                scalar.stats.escalations,
                "{}/{regime}: multisplit changed the escalation count",
                kind.name()
            );
        }
    }

    let mut best_ratio = 0.0f64;
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"multisplit_scatter\",\n");
    writeln!(
        out,
        "  \"graph\": {{\"family\": \"kronecker\", \"scale\": 13, \"edgefactor\": 16, \
         \"seed\": 42, \"vertices\": {}, \"edges\": {}}},",
        g.num_vertices(),
        g.num_edges()
    )
    .unwrap();
    writeln!(out, "  \"device\": \"v100 (overhead/cache scaled 1/256)\",").unwrap();
    writeln!(out, "  \"batch\": {BATCH},").unwrap();
    writeln!(out, "  \"streams\": 4,").unwrap();
    writeln!(out, "  \"host_reps\": {REPS},").unwrap();
    writeln!(out, "  \"stress_queue_capacity\": {stress_cap},").unwrap();
    out.push_str("  \"configs\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json_row(&mut out, row, i + 1 == rows.len());
    }
    out.push_str("  ],\n  \"stress_atomics_scalar_over_multisplit\": {\n");
    for (i, kind) in FrontierKind::ALL.into_iter().enumerate() {
        let scalar = find(ScatterMode::Scalar, kind, "stress");
        let multi = find(ScatterMode::Multisplit, kind, "stress");
        let ratio = scalar.global_atomics as f64 / multi.global_atomics as f64;
        best_ratio = best_ratio.max(ratio);
        writeln!(
            out,
            "    \"{}\": {:.4}{}",
            kind.name(),
            ratio,
            if i + 1 == FrontierKind::ALL.len() { "" } else { "," }
        )
        .unwrap();
    }
    writeln!(
        out,
        "  }},\n  \"acceptance_stress_atomics_halved\": {},\n  \
         \"acceptance_bit_identical_distances\": true,\n  \
         \"acceptance_no_new_escalations\": true\n}}",
        best_ratio >= 2.0,
    )
    .unwrap();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_pr10.json");
    std::fs::write(path, &out).expect("write results/BENCH_pr10.json");
    println!("wrote {path}");
    assert!(
        best_ratio >= 2.0,
        "acceptance: best stress-regime atomic reduction {best_ratio:.2}x is below 2x"
    );
}
