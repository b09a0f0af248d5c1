//! Detect-and-recover: audit an SSSP attempt (possibly run under an
//! armed fault plan) without an oracle, and climb a recovery ladder
//! until the answer is certified — so RDBS never returns a silently
//! wrong answer. [`recover`] is the one entry point; the conformance
//! registry builds the attempts (one-shot device runs, the multi-GPU
//! state, the resident service's shapes) and hands them in.
//!
//! Detection is cheap and oracle-free:
//!
//! * the per-bucket monotonicity audit inside [`crate::gpu::rdbs`]
//!   (distances never increase, settled vertices stay settled — only
//!   active when faults are armed, so fault-free runs pay nothing);
//! * a final O(V+E) post-pass, [`crate::validate::audit_sssp`]: no
//!   edge left relaxable, and every reached vertex certified by a
//!   tight-edge path from the source;
//! * a panic or typed error in the attempt (e.g. a queue overflow).
//!
//! The recovery ladder, each rung bounded and recorded in the
//! [`RecoveryReport`]:
//!
//! 1. **Repair sweep** — reset the audit-flagged vertices and run a
//!    bounded host-side re-relaxation seeded from the intact ones;
//! 2. **Rerun** — the caller's rung-2 entry, typically the barrier-per-
//!    layer [`crate::gpu::RdbsConfig::sync_delta`] variant on a fresh
//!    device (for multi-GPU, a fault-free multi rerun);
//! 3. **Graceful degradation** — sequential Dijkstra.
//!
//! A rerun that is itself faulted (persistent-fault semantics: the
//! caller re-arms the spec on the rerun device) still never returns
//! silently wrong, because the ladder audits the rerun's output and
//! falls through to the sequential rung when it is corrupt.

use crate::seq::dijkstra;
use crate::stats::{SsspResult, UpdateStats};
use crate::validate::audit_sssp;
use crate::{saturating_relax, Csr, Dist, VertexId, INF};
use rdbs_gpu_sim::{FaultEvent, FaultSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Upper bound on full-edge re-relaxation rounds in the repair sweep.
const REPAIR_ROUNDS: u32 = 32;

/// Explicit retry budget for the recovery ladder. Every recovery is
/// bounded: at most `max_rungs` rungs are *attempted* (a rung skipped
/// for free — e.g. the repair sweep when the attempt panicked and left
/// no distances — costs nothing), and the rung-1 sweep re-relaxes for
/// at most `repair_rounds` rounds. When the budget runs out before a
/// rung certifies an answer, the run ends in the typed
/// [`RecoveryOutcome::Exhausted`] instead of climbing further — never
/// an unbounded or implicit loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryBudget {
    /// Maximum ladder rungs attempted: 1 = repair sweep only,
    /// 2 = + synchronous rerun, 3 = + sequential fallback (default).
    pub max_rungs: u32,
    /// Round bound for the rung-1 repair sweep.
    pub repair_rounds: u32,
}

impl Default for RecoveryBudget {
    fn default() -> Self {
        Self { max_rungs: 3, repair_rounds: REPAIR_ROUNDS }
    }
}

impl std::fmt::Display for RecoveryBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} rung(s), {} repair round(s)", self.max_rungs, self.repair_rounds)
    }
}

/// One rung climbed on the recovery ladder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryStep {
    /// Bounded re-relaxation seeded from the audit-flagged vertices.
    RepairSweep { rounds: u32, relaxations: u64, clean: bool },
    /// Fault-free rerun with the synchronous variant.
    SyncRerun { clean: bool },
    /// Graceful degradation to sequential Dijkstra.
    SequentialFallback,
}

impl std::fmt::Display for RecoveryStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryStep::RepairSweep { rounds, relaxations, clean } => write!(
                f,
                "repair sweep: {rounds} rounds, {relaxations} relaxations — {}",
                if *clean { "clean" } else { "still dirty" }
            ),
            RecoveryStep::SyncRerun { clean } => write!(
                f,
                "synchronous fault-free rerun — {}",
                if *clean { "clean" } else { "still dirty" }
            ),
            RecoveryStep::SequentialFallback => write!(f, "sequential Dijkstra fallback"),
        }
    }
}

/// How the run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The first attempt passed every audit — nothing to recover.
    Clean,
    /// A fault was detected and a ladder rung produced a certified
    /// answer.
    Recovered,
    /// All GPU-side rungs failed; the answer comes from sequential
    /// Dijkstra.
    Degraded,
    /// The retry budget ran out before any rung certified an answer.
    /// The carried distances are **best-effort and uncertified** —
    /// callers must treat them as unusable for correctness purposes
    /// (the chaos matrix grades this as an error cell, never compared
    /// against the oracle).
    Exhausted,
}

impl std::fmt::Display for RecoveryOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecoveryOutcome::Clean => "clean",
            RecoveryOutcome::Recovered => "recovered",
            RecoveryOutcome::Degraded => "degraded",
            RecoveryOutcome::Exhausted => "exhausted",
        })
    }
}

/// What was injected, what was detected, and what recovery did.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// The fault spec the run was executed under, if any.
    pub fault: Option<FaultSpec>,
    /// Total injections the plan performed.
    pub injections: u64,
    /// Injection log (capped device-side).
    pub fault_events: Vec<FaultEvent>,
    /// Per-bucket monotonicity audit hits during the run.
    pub monotonicity_hits: usize,
    /// Vertices flagged by the final audit of the faulted attempt.
    pub flagged: usize,
    /// Panic message if the faulted attempt crashed outright (e.g. a
    /// bit flip in a row offset driving an out-of-bounds access).
    pub panic: Option<String>,
    /// Ladder rungs climbed, in order (empty for a clean run).
    pub steps: Vec<RecoveryStep>,
    /// The retry budget the ladder ran under.
    pub budget: RecoveryBudget,
    pub outcome: RecoveryOutcome,
}

impl RecoveryReport {
    /// Whether any detector fired on the first attempt.
    pub fn detected(&self) -> bool {
        self.monotonicity_hits > 0 || self.flagged > 0 || self.panic.is_some()
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.fault {
            Some(spec) => writeln!(
                f,
                "fault: {} rate {} seed {} — {} injection(s)",
                spec.model, spec.rate, spec.seed, self.injections
            )?,
            None => writeln!(f, "fault: none")?,
        }
        write!(
            f,
            "detection: {} monotonicity hit(s), {} flagged vertex(es)",
            self.monotonicity_hits, self.flagged
        )?;
        if let Some(msg) = &self.panic {
            write!(f, ", attempt panicked: {msg}")?;
        }
        writeln!(f)?;
        if self.steps.is_empty() {
            writeln!(f, "ladder: not needed")?;
        } else {
            writeln!(f, "ladder (budget {}):", self.budget)?;
            for (i, step) in self.steps.iter().enumerate() {
                writeln!(f, "  {}. {step}", i + 1)?;
            }
        }
        write!(f, "outcome: {}", self.outcome)
    }
}

/// An SSSP result carrying the recovery evidence.
pub struct RecoveredRun {
    pub result: SsspResult,
    pub report: RecoveryReport,
}

/// One attempt at a query, as the ladder receives it: the answer plus
/// its per-bucket monotonicity-audit hits — or the panic or typed
/// error that replaced it — and what the armed fault plan injected.
pub struct Attempt {
    /// The fault spec the attempt ran under, if any.
    pub fault: Option<FaultSpec>,
    /// Total injections the plan performed.
    pub injections: u64,
    /// Injection log (capped device-side).
    pub fault_events: Vec<FaultEvent>,
    /// `Err` carries the panic or typed-error text (a detection).
    pub outcome: Result<(SsspResult, usize), String>,
}

/// Detect and recover: audit `attempt` without an oracle and climb
/// the ladder until an answer is certified or `budget` runs out.
/// `rerun` is the rung-2 entry — a synchronous rerun on a fresh device
/// (with the fault re-armed for persistent-fault semantics, if the
/// caller wants recovery under fire) or a fault-free multi-GPU rerun.
/// Unless the outcome is [`RecoveryOutcome::Exhausted`], the returned
/// distances are audit-certified.
pub fn recover(
    graph: &Csr,
    source: VertexId,
    attempt: Attempt,
    rerun: &dyn Fn(&Csr, VertexId) -> SsspResult,
    budget: RecoveryBudget,
) -> RecoveredRun {
    let mut report = RecoveryReport {
        fault: attempt.fault,
        injections: attempt.injections,
        fault_events: attempt.fault_events,
        monotonicity_hits: 0,
        flagged: 0,
        panic: attempt.outcome.as_ref().err().cloned(),
        steps: Vec::new(),
        budget,
        outcome: RecoveryOutcome::Clean,
    };
    let mut rungs_used = 0u32;

    // ---- Detection ----
    let mut best = match attempt.outcome {
        Ok((result, mono_hits)) => {
            report.monotonicity_hits = mono_hits;
            let audit = audit_sssp(graph, source, &result.dist);
            report.flagged = audit.flagged.len();
            if audit.is_clean() && mono_hits == 0 {
                return RecoveredRun { result, report };
            }
            // ---- Rung 1: bounded repair sweep ----
            if rungs_used >= budget.max_rungs {
                return exhaust(graph, source, Some(result), report);
            }
            rungs_used += 1;
            let mut repaired = result;
            let (rounds, relaxations, clean) = repair_sweep(
                graph,
                source,
                &mut repaired.dist,
                &audit.flagged,
                budget.repair_rounds,
            );
            report.steps.push(RecoveryStep::RepairSweep { rounds, relaxations, clean });
            if clean {
                report.outcome = RecoveryOutcome::Recovered;
                return RecoveredRun { result: repaired, report };
            }
            Some(repaired)
        }
        Err(_) => None, // panicked: no distances to repair
    };

    // ---- Rung 2: the caller's rerun ----
    if rungs_used >= budget.max_rungs {
        return exhaust(graph, source, best, report);
    }
    rungs_used += 1;
    match catch_unwind(AssertUnwindSafe(|| rerun(graph, source))) {
        Ok(rr) => {
            let clean = audit_sssp(graph, source, &rr.dist).is_clean();
            report.steps.push(RecoveryStep::SyncRerun { clean });
            if clean {
                report.outcome = RecoveryOutcome::Recovered;
                return RecoveredRun { result: rr, report };
            }
            best = Some(rr);
        }
        Err(_) => {
            report.steps.push(RecoveryStep::SyncRerun { clean: false });
        }
    }

    // ---- Rung 3: graceful degradation ----
    if rungs_used >= budget.max_rungs {
        return exhaust(graph, source, best, report);
    }
    report.steps.push(RecoveryStep::SequentialFallback);
    report.outcome = RecoveryOutcome::Degraded;
    RecoveredRun { result: dijkstra(graph, source), report }
}

/// Budget ran out before any rung certified an answer: end in the typed
/// [`RecoveryOutcome::Exhausted`], carrying the best uncertified
/// distances seen so far (or an all-`INF` placeholder when the attempt
/// panicked and no rung produced anything).
fn exhaust(
    graph: &Csr,
    source: VertexId,
    best: Option<SsspResult>,
    mut report: RecoveryReport,
) -> RecoveredRun {
    report.outcome = RecoveryOutcome::Exhausted;
    let result = best.unwrap_or_else(|| {
        let mut dist = vec![INF; graph.num_vertices()];
        dist[source as usize] = 0;
        SsspResult { source, dist, stats: UpdateStats::default() }
    });
    RecoveredRun { result, report }
}

/// Rung 1: reset the flagged vertices to `INF` (uncorrupted values are
/// kept as seeds) and re-relax over all edges, Bellman-Ford style,
/// until a fixpoint or the round budget. Never increases a kept value,
/// so an intact prefix of the solution is preserved. Returns
/// `(rounds, relaxations, audit-clean)`.
fn repair_sweep(
    graph: &Csr,
    source: VertexId,
    dist: &mut [Dist],
    flagged: &[VertexId],
    round_budget: u32,
) -> (u32, u64, bool) {
    for &v in flagged {
        dist[v as usize] = INF;
    }
    dist[source as usize] = if flagged.contains(&source) { 0 } else { dist[source as usize] };
    let mut rounds = 0u32;
    let mut relaxations = 0u64;
    while rounds < round_budget {
        rounds += 1;
        let mut changed = false;
        for (u, v, w) in graph.all_edges() {
            let du = dist[u as usize];
            if du == INF {
                continue;
            }
            let nd = saturating_relax(du, w);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                relaxations += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let clean = audit_sssp(graph, source, dist).is_clean();
    (rounds, relaxations, clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{
        multi_gpu_sssp, run_gpu_on, MultiGpuConfig, MultiGpuState, RdbsConfig, Variant,
    };
    use crate::validate::check_against_dijkstra;
    use rdbs_gpu_sim::{Device, DeviceConfig, FaultModel, FaultPlan};
    use rdbs_graph::builder::build_undirected;
    use rdbs_graph::generate::{erdos_renyi, uniform_weights};

    fn graph(seed: u64) -> Csr {
        let mut el = erdos_renyi(120, 600, seed);
        uniform_weights(&mut el, seed + 9);
        build_undirected(&el)
    }

    fn tiny() -> DeviceConfig {
        DeviceConfig::test_tiny()
    }

    /// Full RDBS on a fresh device under `fault`, graded by the ladder.
    /// The rung-2 rerun is the synchronous variant on another fresh
    /// device, with the spec re-armed there when `refault` is set.
    fn run_gpu(
        g: &Csr,
        source: VertexId,
        fault: Option<FaultSpec>,
        refault: bool,
        budget: RecoveryBudget,
    ) -> RecoveredRun {
        let on = |fault: Option<FaultSpec>| {
            let mut device = Device::new(tiny());
            if let Some(spec) = fault {
                device.arm_faults(FaultPlan::new(spec));
            }
            device
        };
        let mut device = on(fault);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let run = run_gpu_on(&mut device, g, source, Variant::Rdbs(RdbsConfig::full()));
            (run.result, run.audit.len())
        }))
        .map_err(|_| "attempt panicked".to_string());
        let plan = device.disarm_faults();
        let attempt = Attempt {
            fault,
            injections: plan.as_ref().map_or(0, FaultPlan::injections),
            fault_events: plan.map(|p| p.log().to_vec()).unwrap_or_default(),
            outcome,
        };
        let rerun = |g: &Csr, s: VertexId| {
            let sync = Variant::Rdbs(RdbsConfig::sync_delta());
            run_gpu_on(&mut on(fault.filter(|_| refault)), g, s, sync).result
        };
        recover(g, source, attempt, &rerun, budget)
    }

    fn run_gpu_recovered(g: &Csr, source: VertexId, fault: Option<FaultSpec>) -> RecoveredRun {
        run_gpu(g, source, fault, false, RecoveryBudget::default())
    }

    #[test]
    fn fault_free_run_is_clean() {
        let g = graph(1);
        let run = run_gpu_recovered(&g, 0, None);
        assert_eq!(run.report.outcome, RecoveryOutcome::Clean);
        assert!(run.report.steps.is_empty());
        assert!(!run.report.detected());
        check_against_dijkstra(&g, 0, &run.result.dist).unwrap();
    }

    #[test]
    fn dropped_atomics_are_never_silently_wrong() {
        let g = graph(2);
        for seed in 0..4 {
            let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 0.3, seed);
            let run = run_gpu_recovered(&g, 0, Some(spec));
            check_against_dijkstra(&g, 0, &run.result.dist)
                .unwrap_or_else(|m| panic!("seed {seed}: {m}\n{}", run.report));
        }
    }

    #[test]
    fn bit_flips_are_detected_and_recovered() {
        let g = graph(3);
        let mut detected_any = false;
        for seed in 0..4 {
            let spec = FaultSpec::new(FaultModel::BitFlip, 0.002, seed);
            let run = run_gpu_recovered(&g, 0, Some(spec));
            check_against_dijkstra(&g, 0, &run.result.dist)
                .unwrap_or_else(|m| panic!("seed {seed}: {m}\n{}", run.report));
            detected_any |= run.report.detected();
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
        let (_, _, clean) = repair_sweep(&g, 0, &mut dist, &audit.flagged, REPAIR_ROUNDS);
        assert!(clean);
        assert_eq!(dist, oracle.dist);
    }

    #[test]
    fn multi_gpu_message_loss_recovers() {
        let g = graph(5);
        let config = MultiGpuConfig {
            num_devices: 2,
            device: tiny(),
            interconnect_gbps: 50.0,
            exchange_latency_us: 5.0,
            delta0: None,
        };
        for seed in 0..3 {
            let spec = FaultSpec::new(FaultModel::LostMessage, 0.5, seed);
            let mut state = MultiGpuState::new(&g, &config);
            state.arm_faults(spec);
            let run = state.run(0);
            let attempt = Attempt {
                fault: Some(spec),
                injections: run.fault_injections,
                fault_events: run.fault_events,
                outcome: Ok((run.result, 0)),
            };
            let rerun = |g: &Csr, s: VertexId| multi_gpu_sssp(g, s, &config).result;
            let run = recover(&g, 0, attempt, &rerun, RecoveryBudget::default());
            check_against_dijkstra(&g, 0, &run.result.dist)
                .unwrap_or_else(|m| panic!("seed {seed}: {m}\n{}", run.report));
        }
    }

    #[test]
    fn persistent_faults_exhaust_the_ladder_without_lying() {
        // A directed path running *against* CSR edge order (source at
        // the high end) under a total atomic-min drop: rung 1's
        // Bellman-Ford gains one vertex per round, so the 199-hop
        // diameter defeats its 32-round budget, and with the spec
        // re-armed the rung-2 rerun is corrupt too. The audit must
        // reject that rerun and degrade to Dijkstra — the persistent-
        // fault cell is kept honest by the gate, not a fault-free
        // retry.
        let mut el = rdbs_graph::builder::EdgeList::new(200);
        for i in 0..199u32 {
            el.push(i + 1, i, 1);
        }
        let g = rdbs_graph::builder::build_directed(&el);
        let source = 199;
        let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 1.0, 0);
        let run = run_gpu(&g, source, Some(spec), true, RecoveryBudget::default());
        check_against_dijkstra(&g, source, &run.result.dist)
            .unwrap_or_else(|m| panic!("{m}\n{}", run.report));
        assert!(
            run.report.steps.iter().any(|s| matches!(s, RecoveryStep::SyncRerun { clean: false })),
            "refaulted rerun was not exercised or came back clean:\n{}",
            run.report
        );
        assert_eq!(run.report.outcome, RecoveryOutcome::Degraded, "{}", run.report);

        // Moderate persistent rates must also never be silently wrong.
        let g = graph(9);
        for seed in 0..4 {
            let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 0.3, seed);
            let run = run_gpu(&g, 0, Some(spec), true, RecoveryBudget::default());
            check_against_dijkstra(&g, 0, &run.result.dist)
                .unwrap_or_else(|m| panic!("seed {seed}: {m}\n{}", run.report));
        }
    }

    #[test]
    fn exhausted_budget_yields_typed_outcome_not_a_lie() {
        // Same adversarial 199-hop path as the persistent-fault test:
        // the rung-1 sweep cannot certify within its round budget, so a
        // one-rung budget must end in the typed `Exhausted` outcome
        // after exactly one (dirty) repair-sweep step — never a silent
        // wrong answer and never an implicit extra rung.
        let mut el = rdbs_graph::builder::EdgeList::new(200);
        for i in 0..199u32 {
            el.push(i + 1, i, 1);
        }
        let g = rdbs_graph::builder::build_directed(&el);
        let source = 199;
        let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 1.0, 0);
        let budget = RecoveryBudget { max_rungs: 1, repair_rounds: REPAIR_ROUNDS };
        let run = run_gpu(&g, source, Some(spec), false, budget);
        assert_eq!(run.report.outcome, RecoveryOutcome::Exhausted, "{}", run.report);
        assert_eq!(run.report.budget, budget);
        assert_eq!(run.report.steps.len(), 1, "{}", run.report);
        assert!(
            matches!(run.report.steps[0], RecoveryStep::RepairSweep { clean: false, .. }),
            "{}",
            run.report
        );
        assert!(run.report.to_string().contains("exhausted"), "{}", run.report);

        // The default budget reaches a certifying rung on the same input.
        let full = run_gpu_recovered(&g, source, Some(spec));
        check_against_dijkstra(&g, source, &full.result.dist)
            .unwrap_or_else(|m| panic!("{m}\n{}", full.report));
        assert_eq!(full.report.outcome, RecoveryOutcome::Recovered, "{}", full.report);

        // And an explicit default budget is behaviourally identical to
        // the unbudgeted entry point.
        let dflt = run_gpu(&g, source, Some(spec), false, RecoveryBudget::default());
        assert_eq!(dflt.result.dist, full.result.dist);
        assert_eq!(dflt.report.outcome, full.report.outcome);
        assert_eq!(dflt.report.steps, full.report.steps);
    }

    #[test]
    fn report_displays_the_ladder() {
        let g = graph(6);
        let spec = FaultSpec::new(FaultModel::DroppedAtomicMin, 1.0, 0);
        let run = run_gpu_recovered(&g, 0, Some(spec));
        let text = run.report.to_string();
        assert!(text.contains("outcome:"), "{text}");
        assert!(text.contains("dropped-atomic"), "{text}");
    }
}
