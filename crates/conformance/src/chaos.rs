//! The chaos matrix: every device fault model × fault-swept entry
//! point × graph family, with one invariant — **no silent wrong
//! answer**.
//!
//! Each cell runs an SSSP entry point with a seeded [`FaultSpec`]
//! armed, through `Entry::observe`, which hands back an answer
//! certified by the one recovery ladder ([`rdbs_core::recover`]): the
//! service certifies its own, and a one-shot device run climbs the
//! ladder there. The cell grades that answer against the Dijkstra
//! oracle, with no recovery wrapped around it:
//!
//! * **Correct** — the answer matches, either because the run was
//!   clean, the faults happened to be benign, or a ladder rung
//!   repaired them (the cell records which);
//! * **Error** — the cell raised an explicit error instead of
//!   answering (a panic that escaped the harness). Loud failure is an
//!   acceptable outcome; lying is not;
//! * **SilentWrong** — wrong distances presented as good. This is the
//!   invariant violation the matrix exists to rule out, and the only
//!   verdict that makes a sweep red.
//!
//! The `gpu/refault` entry re-arms the same fault spec on the ladder's
//! rerun (persistent-fault semantics), and the service reruns on its
//! own device with the plan still armed, so the recovery path itself
//! executes under fire: the ladder's audit of the rerun's output — not
//! fault-free luck — is what keeps those cells honest.

use crate::registry::{Entry, Instruments, SweepOptions, FAULTS};
use rdbs_core::recover::{AnswerSource, Detection};
use rdbs_core::seq::dijkstra;
use rdbs_core::validate::{check_against, Mismatch};
use rdbs_core::{Csr, VertexId};
use rdbs_gpu_sim::{FaultModel, FaultSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Per-model default injection rate: high enough that faults actually
/// land on the small matrix graphs, low enough that runs terminate.
/// (`BitFlip` corrupts persistently and can hit row offsets, so it is
/// kept rare; the drop/duplicate models need many opportunities to
/// matter.)
pub fn default_rate(model: FaultModel) -> f64 {
    match model {
        FaultModel::BitFlip => 0.002,
        FaultModel::DroppedAtomicMin => 0.25,
        FaultModel::DuplicatedAtomicMin => 0.25,
        FaultModel::FailedChildLaunch => 0.25,
        FaultModel::StaleRead => 0.1,
    }
}

/// How a cell's final answer graded against the oracle.
#[derive(Clone, Debug)]
pub enum CellVerdict {
    /// Final distances match Dijkstra.
    Correct,
    /// The cell errored out loudly instead of answering.
    Error(String),
    /// Wrong distances presented as good — the invariant violation.
    SilentWrong(Mismatch),
}

impl std::fmt::Display for CellVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellVerdict::Correct => write!(f, "correct"),
            CellVerdict::Error(msg) => write!(f, "explicit error: {msg}"),
            CellVerdict::SilentWrong(m) => write!(f, "SILENT WRONG ANSWER: {m}"),
        }
    }
}

/// One (entry, model, graph, seed) cell of the chaos matrix.
#[derive(Clone, Debug)]
pub struct ChaosCell {
    pub entry_id: &'static str,
    pub model: FaultModel,
    pub graph: &'static str,
    pub source: VertexId,
    pub seed: u64,
    pub rate: f64,
    /// Faults the plan injected.
    pub injections: u64,
    /// What the detectors saw on the faulted attempt.
    pub detection: Detection,
    /// The rung that certified the final answer (`None` when the cell
    /// errored before answering).
    pub via: Option<AnswerSource>,
    pub verdict: CellVerdict,
}

impl ChaosCell {
    /// Whether any detector fired on the faulted attempt.
    pub fn detected(&self) -> bool {
        self.detection.any()
    }
}

/// Outcome of a chaos sweep.
#[derive(Debug, Default)]
pub struct ChaosReport {
    pub cells: Vec<ChaosCell>,
}

impl ChaosReport {
    /// Green iff no cell returned a silently wrong answer. Explicitly
    /// errored cells stay green: the guarantee is about lying, not
    /// about surviving every fault.
    pub fn is_green(&self) -> bool {
        self.silent_wrong().next().is_none()
    }

    /// The violating cells, if any.
    pub fn silent_wrong(&self) -> impl Iterator<Item = &ChaosCell> {
        self.cells.iter().filter(|c| matches!(c.verdict, CellVerdict::SilentWrong(_)))
    }

    /// Cell counts: `(clean, recovered, degraded, errored,
    /// silent_wrong)` — clean at the device rung, recovered by the
    /// repair sweep or a rerun, degraded to host Dijkstra.
    pub fn tally(&self) -> (usize, usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0, 0);
        for c in &self.cells {
            match (&c.verdict, c.via) {
                (CellVerdict::SilentWrong(_), _) => t.4 += 1,
                (CellVerdict::Error(_), _) | (_, None) => t.3 += 1,
                (_, Some(AnswerSource::Cache | AnswerSource::Device)) => t.0 += 1,
                (_, Some(AnswerSource::Repair | AnswerSource::Rerun)) => t.1 += 1,
                (_, Some(AnswerSource::Host)) => t.2 += 1,
            }
        }
        t
    }
}

/// Run one chaos cell — the entry's scenario with `spec` armed — and
/// grade its certified answer.
pub fn run_cell(
    entry: &Entry,
    graph_name: &'static str,
    graph: &Csr,
    oracle_dist: &[u32],
    source: VertexId,
    spec: FaultSpec,
) -> ChaosCell {
    let arm = Instruments { fault: Some(spec), ..Instruments::default() };
    let mut cell = ChaosCell {
        entry_id: entry.id,
        model: spec.model,
        graph: graph_name,
        source,
        seed: spec.seed,
        rate: spec.rate,
        injections: 0,
        detection: Detection::default(),
        via: None,
        verdict: CellVerdict::Correct,
    };
    match catch_unwind(AssertUnwindSafe(|| entry.observe(graph, source, None, &arm))) {
        Ok(seen) => {
            if let Err(m) = check_against(oracle_dist, &seen.result.dist) {
                cell.verdict = CellVerdict::SilentWrong(m);
            }
            cell.injections = seen.injections;
            cell.detection = seen.detection;
            cell.via = seen.via;
        }
        Err(payload) => {
            cell.verdict = CellVerdict::Error(crate::registry::panic_message(payload.as_ref()));
        }
    }
    cell
}

/// Sweep the chaos matrix over the [`FAULTS`] entries. `progress` is
/// called once per cell as it completes; pass a no-op closure when
/// output is unwanted.
pub fn run_chaos(opts: &SweepOptions, mut progress: impl FnMut(&ChaosCell)) -> ChaosReport {
    let entries = opts.entries(FAULTS);
    let models: Vec<FaultModel> =
        FaultModel::ALL.into_iter().filter(|m| opts.model_selected(m.name())).collect();
    let seeds = match (opts.seeds.is_empty(), opts.quick) {
        (false, _) => opts.seeds.clone(),
        (true, true) => vec![1],
        (true, false) => vec![1, 2],
    };

    let mut report = ChaosReport::default();
    for family in &opts.families() {
        let graph = family.build();
        let source = family.sources(graph.num_vertices())[0];
        let oracle = dijkstra(&graph, source);
        for entry in &entries {
            for &model in &models {
                let rate = opts.rate.unwrap_or_else(|| default_rate(model));
                for &seed in &seeds {
                    let spec = FaultSpec::new(model, rate, seed);
                    let cell = run_cell(entry, family.name, &graph, &oracle.dist, source, spec);
                    progress(&cell);
                    report.cells.push(cell);
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs;
    use crate::registry::{by_id, Shape, FAULT_OFF_BY_ONE};
    use rdbs_core::gpu::FrontierKind;
    use rdbs_core::validate::audit_sssp;

    /// The acceptance gate: the quick chaos matrix must have zero
    /// silently-wrong cells — every cell is oracle-correct (clean or
    /// recovered) or an explicit error.
    #[test]
    fn quick_chaos_matrix_has_no_silent_wrong_answers() {
        let report = run_chaos(&SweepOptions { quick: true, ..Default::default() }, |_| {});
        assert!(!report.cells.is_empty());
        let wrong: Vec<String> = report
            .silent_wrong()
            .map(|c| {
                format!("{}/{} on {} seed {}: {}", c.entry_id, c.model, c.graph, c.seed, c.verdict)
            })
            .collect();
        assert!(report.is_green(), "silent wrong answers:\n{}", wrong.join("\n"));
    }

    /// At least one quick cell must actually detect and climb the
    /// ladder — otherwise the matrix proves nothing about recovery.
    #[test]
    fn quick_chaos_matrix_exercises_recovery() {
        let report = run_chaos(&SweepOptions { quick: true, ..Default::default() }, |_| {});
        assert!(report.cells.iter().any(|c| c.injections > 0), "no cell injected anything");
        assert!(
            report.cells.iter().any(super::ChaosCell::detected),
            "no cell detected a fault — rates too low to mean anything"
        );
    }

    #[test]
    fn filters_restrict_the_sweep() {
        let opts = SweepOptions {
            quick: true,
            model_filter: Some("dropped-atomic".into()),
            entry_filter: Some("gpu/full".into()),
            graph_filter: Some("erdos".into()),
            seeds: vec![7],
            ..Default::default()
        };
        let report = run_chaos(&opts, |_| {});
        assert_eq!(report.cells.len(), 1);
        let c = &report.cells[0];
        assert_eq!(c.model, FaultModel::DroppedAtomicMin);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn chaos_cells_replay_deterministically() {
        let opts = SweepOptions {
            quick: true,
            model_filter: Some("bit-flip".into()),
            entry_filter: Some("gpu/full".into()),
            seeds: vec![3],
            ..Default::default()
        };
        let a = run_chaos(&opts, |_| {});
        let b = run_chaos(&opts, |_| {});
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.injections, y.injections);
            assert_eq!(x.detection, y.detection);
            assert_eq!(x.via, y.via);
        }
    }

    /// The spill-path invariant: with faults landing while the
    /// under-provisioned MLMQ frontier spills across levels, no cell
    /// may present a wrong answer as good — every outcome is correct
    /// (possibly via a counted host fallback) or a loud error.
    #[test]
    fn faulted_mlmq_spill_is_never_silently_wrong() {
        let opts = SweepOptions {
            quick: true,
            entry_filter: Some("mlmq-spill".into()),
            ..Default::default()
        };
        let report = run_chaos(&opts, |_| {});
        assert!(!report.cells.is_empty(), "the spill entry swept nothing");
        assert!(
            report.cells.iter().any(|c| c.injections > 0),
            "no fault ever landed on the spill path"
        );
        let wrong: Vec<String> = report
            .silent_wrong()
            .map(|c| format!("{}/{}: {}", c.model, c.graph, c.verdict))
            .collect();
        assert!(report.is_green(), "faulted spill lied:\n{}", wrong.join("\n"));
    }

    /// The spill entry's under-provisioning must be absorbed by the
    /// level pair when no faults are armed: the batch completes
    /// without escalation and without host fallback, so a red spill
    /// cell can only ever be the fault's doing.
    #[test]
    fn spill_entry_config_is_clean_without_faults() {
        use rdbs_core::service::SsspService;

        let variant = by_id("service/mlmq-spill").unwrap().variant.unwrap();
        for family in graphs::quick_families() {
            let graph = family.build();
            let source = family.sources(graph.num_vertices())[0];
            let oracle = dijkstra(&graph, source);
            let mut svc = SsspService::new(&graph, Shape::Spill.config(&graph, variant));
            let results = svc.batch(&[source, (source + 1) % graph.num_vertices() as u32]);
            check_against(&oracle.dist, &results[0].dist).unwrap();
            let stats = svc.stats();
            assert_eq!(stats.escalations, 0, "{}: MLMQ must spill, not escalate", family.name);
            assert_eq!(stats.fallbacks, 0, "{}: fault-free spill dropped work", family.name);
        }
    }

    /// `--frontier` reroutes every RDBS-backed entry: the quick sweep
    /// stays green on the MLMQ layout too.
    #[test]
    fn chaos_frontier_axis_stays_green() {
        let opts = SweepOptions {
            quick: true,
            model_filter: Some("dropped-atomic".into()),
            entry_filter: Some("gpu/full".into()),
            graph_filter: Some("erdos".into()),
            frontier: Some(FrontierKind::Mlmq),
            ..Default::default()
        };
        let report = run_chaos(&opts, |_| {});
        assert!(!report.cells.is_empty());
        assert!(report.is_green(), "MLMQ frontier lied under faults");
    }

    /// Regression for the PR-1 fault specimen: the deliberately broken
    /// Dijkstra must be caught by the oracle-free audit alone — the
    /// detection layer cannot depend on having an oracle around.
    #[test]
    fn off_by_one_specimen_is_caught_by_the_audit() {
        let specimen = by_id(FAULT_OFF_BY_ONE).unwrap();
        let mut caught = false;
        for family in graphs::quick_families() {
            let g = family.build();
            let source = family.sources(g.num_vertices())[0];
            let r = specimen.run(&g, source, None);
            let audit = audit_sssp(&g, source, &r.dist);
            let oracle = dijkstra(&g, source);
            if r.dist != oracle.dist {
                assert!(
                    !audit.is_clean(),
                    "{}: specimen is wrong but the audit saw nothing",
                    family.name
                );
                caught = true;
            }
        }
        assert!(caught, "specimen never diverged on the quick families");
    }

    /// The recovery tests' graph: 120 vertices, 600 random edges.
    fn erdos(seed: u64) -> Csr {
        let mut el = rdbs_graph::generate::erdos_renyi(120, 600, seed);
        rdbs_graph::generate::uniform_weights(&mut el, seed + 9);
        rdbs_graph::builder::build_undirected(&el)
    }

    /// Dropped atomics on a service shape are never silently wrong, and
    /// at least one seed trips a detector.
    fn service_shape_recovers(id: &str, graph_seed: u64) {
        let g = erdos(graph_seed);
        let oracle = dijkstra(&g, 0);
        let entry = by_id(id).unwrap();
        let mut detected_any = false;
        for seed in 0..4 {
            let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 0.3, seed);
            let cell = run_cell(&entry, "erdos", &g, &oracle.dist, 0, spec);
            assert!(matches!(cell.verdict, CellVerdict::Correct), "{id} seed {seed}: {cell:?}");
            detected_any |= cell.detected();
        }
        assert!(detected_any, "no seed tripped a detector on {id}");
    }

    /// The faulted query runs on recycled pooled buffers (after a
    /// fault-free warm-up) — reuse must not weaken the guarantee.
    #[test]
    fn service_pooled_queries_are_never_silently_wrong() {
        service_shape_recovers("service/pooled", 7);
    }

    /// Faults land while three queries are in flight across four
    /// command streams — interleaved bucket execution must not weaken
    /// the zero-silent-wrong guarantee for the scored query.
    #[test]
    fn concurrent_batches_are_never_silently_wrong() {
        service_shape_recovers("service/concurrent", 10);
    }

    #[test]
    fn service_fault_free_run_is_clean() {
        let g = erdos(8);
        let entry = by_id("service/pooled").unwrap();
        let seen = entry.observe(&g, 3, None, &Instruments::default());
        assert_eq!(seen.via, Some(AnswerSource::Device));
        assert!(!seen.detection.any());
        assert_eq!(seen.audit_failures, 0);
        check_against(&dijkstra(&g, 3).dist, &seen.result.dist).unwrap();
    }

    /// Regression: bit flips pinned to one vertex's `light_ranges` pair
    /// inflate its light-edge count until ADWL queues a child of about
    /// 2^31 lanes. The simulator refuses that launch with a catchable
    /// panic, so the cell is graded — a detection the ladder recovers
    /// from — instead of aborting the process on the per-lane
    /// allocation. (The first flips of an unpinned plan land on row
    /// words, whose light range then ends before it starts.) The
    /// one-shot entry pins words 972 and 973 of the grid, vertex 486
    /// after PRO's relabelling. The service files every small-class
    /// vertex by its id and reads no grid pair at publish, so its case
    /// pins words 2 and 3 of the power-law graph: vertex 1 of the
    /// service's class order, degree 42, a medium-class vertex.
    #[test]
    fn runaway_child_launch_is_graded_not_fatal() {
        use rdbs_gpu_sim::FaultTarget;
        let cases = [("gpu/full", "grid", (972, 973)), ("service/pooled", "powerlaw", (2, 3))];
        for (id, family, pair) in cases {
            let g = graphs::families().into_iter().find(|f| f.name == family).unwrap().build();
            let oracle = dijkstra(&g, 0);
            let target = FaultTarget {
                site: Some("light_ranges"),
                index: Some(pair),
                wave: None,
                stream: None,
            };
            let spec = FaultSpec::new(FaultModel::BitFlip, 1.0, 48).with_target(target).with_cap(4);
            let cell = run_cell(&by_id(id).unwrap(), family, &g, &oracle.dist, 0, spec);
            assert!(matches!(cell.verdict, CellVerdict::Correct), "{id}: {}", cell.verdict);
            let panic = cell.detection.error.unwrap_or_default();
            assert!(panic.contains("above the simulator's"), "{id}: attempt ended with {panic:?}");
        }
    }
}
