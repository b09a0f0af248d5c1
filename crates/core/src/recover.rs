//! Detect and recover: audit an SSSP attempt without an oracle and
//! climb one recovery ladder until the answer is certified, so RDBS
//! never returns a silently wrong answer. [`recover`] is that ladder.
//! The resident service ([`crate::service`]) sends every device answer
//! through it before returning or caching it; the conformance registry
//! sends its one-shot device runs.
//!
//! Detection is cheap and oracle-free:
//!
//! * the per-bucket monotonicity audit inside [`crate::gpu::rdbs`]
//!   (distances never increase, settled vertices stay settled — only
//!   active when faults are armed, so fault-free runs pay nothing);
//! * a final O(V+E) host pass, [`crate::validate::audit_sssp`]: no
//!   edge left relaxable, and every reached vertex certified by a
//!   tight-edge path from the source;
//! * a panic or typed error in place of the attempt's answer (e.g. a
//!   queue overflow past the service's escalation ceiling).
//!
//! The rungs, in [`AnswerSource`] order; every rung but the last is
//! audited before it certifies:
//!
//! 1. **Device** — the attempt as it stands;
//! 2. **Repair** — reset the audit-flagged vertices and re-relax on the
//!    host, seeded from the intact ones, for a bounded number of
//!    rounds;
//! 3. **Rerun** — the caller's device rerun: the service reruns the
//!    query on its own lane, a one-shot run reruns as the
//!    barrier-per-layer [`crate::gpu::RdbsConfig::sync_delta`] variant
//!    on a fresh device;
//! 4. **Host** — sequential Dijkstra.
//!
//! A rerun that is itself faulted (the service's device keeps its
//! fault plan armed; a refaulting one-shot cell re-arms it) still never
//! returns silently wrong: its answer must pass the audit, or the
//! ladder falls through to Dijkstra.

use crate::seq::dijkstra;
use crate::stats::SsspResult;
use crate::validate::audit_sssp;
use crate::{saturating_relax, Csr, Dist, VertexId, INF};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Upper bound on full-edge re-relaxation rounds in the repair sweep.
const REPAIR_ROUNDS: u32 = 32;

/// Where an answer came from: the ladder rung that certified it, or
/// the answer cache, which replays an answer a rung certified earlier.
/// Ordered by how far down the ladder the answer went.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnswerSource {
    /// Bit-identical replay from the answer cache.
    Cache,
    /// The device attempt passed the audit as it stood.
    Device,
    /// The repair sweep fixed the audit-flagged vertices.
    Repair,
    /// A device rerun of the query passed the audit.
    Rerun,
    /// Host Dijkstra, the rung that always certifies.
    Host,
}

impl std::fmt::Display for AnswerSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AnswerSource::Cache => "cache",
            AnswerSource::Device => "device",
            AnswerSource::Repair => "repair",
            AnswerSource::Rerun => "rerun",
            AnswerSource::Host => "host",
        })
    }
}

/// What the detectors saw on the attempt the ladder started from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Detection {
    /// Per-bucket monotonicity-audit hits during the attempt.
    pub monotonicity_hits: usize,
    /// Vertices the audit flagged in the attempt's answer.
    pub flagged: usize,
    /// The panic or typed error that replaced the attempt's answer.
    pub error: Option<String>,
}

impl Detection {
    /// Whether the attempt answered and the audit rejected the answer.
    /// With no fault armed that is a protocol bug, whichever rung then
    /// certified the answer.
    pub fn audit_failed(&self) -> bool {
        self.monotonicity_hits > 0 || self.flagged > 0
    }

    /// Whether any detector fired.
    pub fn any(&self) -> bool {
        self.audit_failed() || self.error.is_some()
    }
}

impl std::fmt::Display for Detection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} monotonicity hit(s), {} flagged vertex(es)",
            self.monotonicity_hits, self.flagged
        )?;
        match &self.error {
            Some(msg) => write!(f, ", attempt failed: {msg}"),
            None => Ok(()),
        }
    }
}

/// An audit-certified answer and how the ladder reached it.
pub struct RecoveredRun {
    pub result: SsspResult,
    /// The rung that certified `result`.
    pub via: AnswerSource,
    pub detection: Detection,
}

/// The ladder's device rerun of the query: `Err` (or a panic) when it
/// could not answer.
pub type Rerun<'a> = &'a mut dyn FnMut() -> Result<SsspResult, String>;

/// Certify an answer for `source`. `attempt` is the device's answer
/// with its per-bucket monotonicity-audit hits, or the panic or typed
/// error that replaced it; `rerun` is the device rerun rung, `None`
/// where a rerun cannot help (a queue set already at its escalation
/// ceiling would overflow again). The returned distances are
/// audit-certified, or Dijkstra's.
pub fn recover(
    graph: &Csr,
    source: VertexId,
    attempt: Result<(SsspResult, usize), String>,
    rerun: Option<Rerun<'_>>,
) -> RecoveredRun {
    let mut detection = Detection::default();
    match attempt {
        Ok((mut result, monotonicity_hits)) => {
            let audit = audit_sssp(graph, source, &result.dist);
            detection.monotonicity_hits = monotonicity_hits;
            detection.flagged = audit.flagged.len();
            if !detection.audit_failed() {
                return RecoveredRun { result, via: AnswerSource::Device, detection };
            }
            if repair_sweep(graph, source, &mut result.dist, &audit.flagged) {
                return RecoveredRun { result, via: AnswerSource::Repair, detection };
            }
        }
        Err(error) => detection.error = Some(error), // no distances to repair
    }
    if let Some(rerun) = rerun {
        if let Ok(Ok(result)) = catch_unwind(AssertUnwindSafe(rerun)) {
            if audit_sssp(graph, source, &result.dist).is_clean() {
                return RecoveredRun { result, via: AnswerSource::Rerun, detection };
            }
        }
    }
    RecoveredRun { result: dijkstra(graph, source), via: AnswerSource::Host, detection }
}

/// The repair rung: reset the flagged vertices to `INF` (uncorrupted
/// values are kept as seeds) and re-relax over all edges, Bellman-Ford
/// style, until a fixpoint or [`REPAIR_ROUNDS`]. Never increases a kept
/// value, so an intact prefix of the solution is preserved. Returns
/// whether the result passes the audit.
fn repair_sweep(graph: &Csr, source: VertexId, dist: &mut [Dist], flagged: &[VertexId]) -> bool {
    for &v in flagged {
        dist[v as usize] = INF;
    }
    dist[source as usize] = if flagged.contains(&source) { 0 } else { dist[source as usize] };
    for _ in 0..REPAIR_ROUNDS {
        let mut changed = false;
        for (u, v, w) in graph.all_edges() {
            let du = dist[u as usize];
            if du == INF {
                continue;
            }
            let nd = saturating_relax(du, w);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    audit_sssp(graph, source, dist).is_clean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{run_gpu_on, RdbsConfig, Variant};
    use crate::validate::check_against_dijkstra;
    use rdbs_gpu_sim::{Device, DeviceConfig, FaultModel, FaultPlan, FaultSpec};
    use rdbs_graph::builder::build_undirected;
    use rdbs_graph::generate::{erdos_renyi, uniform_weights};

    fn graph(seed: u64) -> Csr {
        let mut el = erdos_renyi(120, 600, seed);
        uniform_weights(&mut el, seed + 9);
        build_undirected(&el)
    }

    /// Full RDBS on a fresh device under `fault`, certified by the
    /// ladder. The rerun rung is the synchronous variant on another
    /// fresh device, with the spec re-armed there when `refault` is set.
    fn run_gpu(g: &Csr, source: VertexId, fault: Option<FaultSpec>, refault: bool) -> RecoveredRun {
        let on = |fault: Option<FaultSpec>| {
            let mut device = Device::new(DeviceConfig::test_tiny());
            if let Some(spec) = fault {
                device.arm_faults(FaultPlan::new(spec));
            }
            device
        };
        let mut device = on(fault);
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let run = run_gpu_on(&mut device, g, source, Variant::Rdbs(RdbsConfig::full()));
            (run.result, run.audit.len())
        }))
        .map_err(|_| "attempt panicked".to_string());
        let mut rerun = || {
            let sync = Variant::Rdbs(RdbsConfig::sync_delta());
            Ok(run_gpu_on(&mut on(fault.filter(|_| refault)), g, source, sync).result)
        };
        recover(g, source, attempt, Some(&mut rerun))
    }

    #[test]
    fn fault_free_run_is_clean() {
        let g = graph(1);
        let run = run_gpu(&g, 0, None, false);
        assert_eq!(run.via, AnswerSource::Device);
        assert!(!run.detection.any());
        check_against_dijkstra(&g, 0, &run.result.dist).unwrap();
    }

    #[test]
    fn dropped_atomics_are_never_silently_wrong() {
        let g = graph(2);
        for seed in 0..4 {
            let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 0.3, seed);
            let run = run_gpu(&g, 0, Some(spec), false);
            check_against_dijkstra(&g, 0, &run.result.dist)
                .unwrap_or_else(|m| panic!("seed {seed}: {m} ({})", run.detection));
        }
    }

    #[test]
    fn bit_flips_are_detected_and_recovered() {
        let g = graph(3);
        let mut detected_any = false;
        for seed in 0..4 {
            let spec = FaultSpec::new(FaultModel::BitFlip, 0.002, seed);
            let run = run_gpu(&g, 0, Some(spec), false);
            check_against_dijkstra(&g, 0, &run.result.dist)
                .unwrap_or_else(|m| panic!("seed {seed}: {m} ({})", run.detection));
            detected_any |= run.detection.any();
        }
        assert!(detected_any, "no seed produced a detectable flip");
    }

    #[test]
    fn repair_sweep_fixes_local_corruption() {
        let g = graph(4);
        let oracle = dijkstra(&g, 0);
        let mut dist = oracle.dist.clone();
        // Corrupt three vertices both ways.
        dist[10] = dist[10].saturating_add(1_000);
        dist[20] = dist[20].saturating_sub(dist[20].min(3));
        dist[30] = 0;
        let audit = audit_sssp(&g, 0, &dist);
        assert!(!audit.is_clean());
        assert!(repair_sweep(&g, 0, &mut dist, &audit.flagged));
        assert_eq!(dist, oracle.dist);
    }

    #[test]
    fn persistent_faults_exhaust_the_ladder_without_lying() {
        // A directed path running *against* CSR edge order (source at
        // the high end) under a total atomic-min drop: the repair
        // sweep gains one vertex per round, so the 199-hop diameter
        // defeats its 32-round bound. A fault-free rerun then
        // certifies; with the spec re-armed the rerun is corrupt too,
        // and the audit must reject it and fall through to Dijkstra —
        // the persistent-fault cell is kept honest by the gate, not a
        // fault-free retry.
        let mut el = rdbs_graph::builder::EdgeList::new(200);
        for i in 0..199u32 {
            el.push(i + 1, i, 1);
        }
        let g = rdbs_graph::builder::build_directed(&el);
        let source = 199;
        let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 1.0, 0);
        let fresh = run_gpu(&g, source, Some(spec), false);
        assert_eq!(fresh.via, AnswerSource::Rerun, "{}", fresh.detection);
        let refaulted = run_gpu(&g, source, Some(spec), true);
        check_against_dijkstra(&g, source, &refaulted.result.dist)
            .unwrap_or_else(|m| panic!("{m} ({})", refaulted.detection));
        assert!(refaulted.detection.audit_failed(), "{}", refaulted.detection);
        assert_eq!(refaulted.via, AnswerSource::Host, "the refaulted rerun came back clean");

        // Moderate persistent rates must also never be silently wrong.
        let g = graph(9);
        for seed in 0..4 {
            let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 0.3, seed);
            let run = run_gpu(&g, 0, Some(spec), true);
            check_against_dijkstra(&g, 0, &run.result.dist)
                .unwrap_or_else(|m| panic!("seed {seed}: {m} ({})", run.detection));
        }
    }

    #[test]
    fn report_displays_the_ladder() {
        let g = graph(6);
        let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 1.0, 0);
        let run = run_gpu(&g, 0, Some(spec), false);
        assert!(run.via > AnswerSource::Device, "a total atomic drop must climb the ladder");
        let text = format!("{}; certified by {}", run.detection, run.via);
        assert!(text.contains("flagged vertex(es)"), "{text}");
        assert!(["repair", "rerun", "host"].iter().any(|rung| text.ends_with(rung)), "{text}");
        let failed = Detection { error: Some("boom".into()), ..Detection::default() };
        assert!(failed.to_string().ends_with("attempt failed: boom"));
        assert!(failed.any() && !failed.audit_failed());
    }
}
