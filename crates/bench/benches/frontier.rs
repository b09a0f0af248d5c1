//! Frontier-layout bench: the resident service answering a 4-stream
//! batch with each pluggable frontier (single workload queues, MLMQ),
//! in two provisioning regimes — ample queues, and deliberately
//! under-provisioned queues so overflow pressure is real.
//! The claims graded here are the MLMQ headline: fewer global-memory
//! atomic instructions than the single layout (lane-hashed sub-queues
//! spread the tail counters), and under overflow stress the spill
//! level absorbs the pressure on-device where the single layout climbs
//! the escalation ladder — with zero host fallbacks either way.
//!
//! Writes the machine-readable record to `results/BENCH_pr8.json`.

use criterion::robust_stats;
use rdbs_core::gpu::{FrontierKind, ScatterMode};
use rdbs_core::service::{ServiceConfig, SsspService};
use rdbs_core::stats::BatchStats;
use rdbs_core::{Csr, VertexId};
use rdbs_gpu_sim::DeviceConfig;
use rdbs_graph::datasets::kronecker_spec;
use std::fmt::Write as _;
use std::time::Instant;

const BATCH: usize = 16;
const REPS: usize = 5;
/// Under-provisioned per-queue capacity for the stress regime, as a
/// divisor of the vertex count. Small enough that frontier-heavy
/// buckets overflow the single layout's workload queues; the MLMQ's
/// aggregate slots (4x the configured capacity across levels and
/// sub-queues) still cover every pending vertex, so spills defer work
/// instead of dropping it.
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

/// One measured (frontier, provisioning) configuration.
struct Row {
    frontier: FrontierKind,
    regime: &'static str,
    capacity: Option<u32>,
    host_median_ms: f64,
    host_mad_ms: f64,
    stats: BatchStats,
    global_atomics: u64,
}

impl Row {
    fn sim_qps(&self) -> f64 {
        BATCH as f64 / (self.stats.sim_batch_ms / 1e3)
    }
}

fn measure(
    g: &Csr,
    srcs: &[VertexId],
    kind: FrontierKind,
    regime: &'static str,
    capacity: Option<u32>,
) -> Row {
    let mut host_ms = Vec::with_capacity(REPS);
    let mut stats = None;
    let mut global_atomics = 0;
    for _ in 0..REPS {
        // Fresh service per rep: identical cold-pool state, so the
        // simulated clock and counters are bit-identical across reps.
        // Scalar scatter pins the publish path this record was graded
        // under; the scatter-mode axis has its own bench (multisplit).
        let mut config = ServiceConfig::rdbs(device())
            .with_streams(4)
            .with_frontier(kind)
            .with_scatter(ScatterMode::Scalar);
        if let Some(cap) = capacity {
            config = config.with_queue_capacity(cap);
        }
        let mut svc = SsspService::new(g, config);
        let started = Instant::now();
        let results = svc.batch(srcs);
        host_ms.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(results.len(), srcs.len());
        stats = Some(svc.stats().clone());
        global_atomics = svc.device_counters().expect("gpu backend").inst_executed_global_atomics;
    }
    let stats = stats.expect("at least one rep ran");
    assert_eq!(stats.fallbacks, 0, "{}/{regime}: batch degraded to the host oracle", kind.name());
    let r = robust_stats(&host_ms);
    Row {
        frontier: kind,
        regime,
        capacity,
        host_median_ms: r.median,
        host_mad_ms: r.mad,
        stats,
        global_atomics,
    }
}

fn json_row(out: &mut String, row: &Row, last: bool) {
    writeln!(
        out,
        "    {{\n      \"frontier\": \"{}\",\n      \"regime\": \"{}\",\n      \
         \"queue_capacity\": {},\n      \"host_median_ms\": {:.4},\n      \
         \"host_mad_ms\": {:.4},\n      \"sim_batch_ms\": {:.4},\n      \
         \"sim_qps\": {:.2},\n      \"inst_executed_global_atomics\": {},\n      \
         \"inflight_peak\": {},\n      \"escalations\": {},\n      \
         \"fallbacks\": {}\n    }}{}",
        row.frontier.name(),
        row.regime,
        row.capacity.map_or("null".into(), |c| c.to_string()),
        row.host_median_ms,
        row.host_mad_ms,
        row.stats.sim_batch_ms,
        row.sim_qps(),
        row.global_atomics,
        row.stats.inflight_peak,
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
        "frontier bench: kronecker scale-13 ef16 ({} vertices, {} edges), batch {BATCH}, \
         stress capacity {stress_cap}",
        g.num_vertices(),
        g.num_edges()
    );

    let mut rows = Vec::new();
    for kind in FrontierKind::ALL {
        rows.push(measure(&g, &srcs, kind, "ample", None));
    }
    for kind in FrontierKind::ALL {
        rows.push(measure(&g, &srcs, kind, "stress", Some(stress_cap)));
    }
    for row in &rows {
        println!(
            "  {:<8} {:<8} host {:8.3} ms ±{:6.3}  sim makespan {:8.3} ms  qps {:8.1}  \
             atomics {:>9}  esc {}  fb {}",
            row.frontier.name(),
            row.regime,
            row.host_median_ms,
            row.host_mad_ms,
            row.stats.sim_batch_ms,
            row.sim_qps(),
            row.global_atomics,
            row.stats.escalations,
            row.stats.fallbacks,
        );
    }

    let find = |kind: FrontierKind, regime: &str| {
        rows.iter().find(|r| r.frontier == kind && r.regime == regime).expect("row measured")
    };
    let single_stress = find(FrontierKind::Single, "stress");
    let mlmq_stress = find(FrontierKind::Mlmq, "stress");
    let mlmq_ample = find(FrontierKind::Mlmq, "ample");
    let single_ample = find(FrontierKind::Single, "ample");
    let atomics_ratio = mlmq_stress.global_atomics as f64 / single_stress.global_atomics as f64;

    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"pluggable_frontier\",\n");
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
    out.push_str("  ],\n");
    writeln!(
        out,
        "  \"stress_atomics_mlmq_over_single\": {:.4},\n  \
         \"ample_atomics_mlmq_over_single\": {:.4},\n  \
         \"acceptance_mlmq_fewer_stress_atomics\": {},\n  \
         \"acceptance_single_escalated_under_stress\": {},\n  \
         \"acceptance_mlmq_spilled_on_device\": {}\n}}",
        atomics_ratio,
        mlmq_ample.global_atomics as f64 / single_ample.global_atomics as f64,
        mlmq_stress.global_atomics < single_stress.global_atomics,
        single_stress.stats.escalations > 0,
        mlmq_stress.stats.escalations == 0 && mlmq_stress.stats.fallbacks == 0,
    )
    .unwrap();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_pr8.json");
    std::fs::write(path, &out).expect("write results/BENCH_pr8.json");
    println!("wrote {path}");
    assert!(
        mlmq_stress.global_atomics < single_stress.global_atomics,
        "acceptance: MLMQ stress atomics {} not below single {}",
        mlmq_stress.global_atomics,
        single_stress.global_atomics
    );
    assert!(
        single_stress.stats.escalations > 0,
        "acceptance: the stress capacity must push the single layout into the escalation ladder"
    );
    assert!(
        mlmq_stress.stats.escalations == 0 && mlmq_stress.stats.fallbacks == 0,
        "acceptance: MLMQ must absorb the same pressure via spill, on-device"
    );
}
