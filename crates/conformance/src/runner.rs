//! The differential runner: every [`DIFFERENTIAL`] registry entry ×
//! every graph family × every seeded source, each compared exactly
//! against the Dijkstra oracle. Panics inside an implementation are
//! caught and reported as failures rather than aborting the sweep, and
//! so is any answer whose audit failed on the way to a certified one
//! (`grade`).

use crate::registry::{Entry, Instruments, Observation, SweepOptions, DIFFERENTIAL};
use rdbs_core::seq::dijkstra;
use rdbs_core::validate::{check_against, Mismatch};
use rdbs_core::{Csr, Dist, VertexId, Weight};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How one case failed.
#[derive(Clone, Debug)]
pub enum FailureKind {
    /// Distances disagree with the oracle.
    Mismatch(Mismatch),
    /// The implementation panicked.
    Panic(String),
    /// Answers failed their audit before the recovery ladder certified
    /// one: with no fault armed, a protocol bug.
    Audit(u64),
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Mismatch(m) => write!(f, "{m}"),
            FailureKind::Panic(msg) => write!(f, "panicked: {msg}"),
            FailureKind::Audit(n) => {
                write!(f, "{n} answer(s) failed the audit before the recovery ladder certified one")
            }
        }
    }
}

/// One failing (implementation, graph, source) cell.
#[derive(Clone, Debug)]
pub struct CaseFailure {
    pub impl_id: &'static str,
    pub graph: &'static str,
    pub source: VertexId,
    pub kind: FailureKind,
}

/// Outcome of a matrix sweep.
#[derive(Debug, Default)]
pub struct MatrixReport {
    /// Cells executed.
    pub cases_run: usize,
    /// Implementations swept.
    pub impls_run: usize,
    /// Families swept.
    pub graphs_run: usize,
    /// Every failing cell, in sweep order.
    pub failures: Vec<CaseFailure>,
}

impl MatrixReport {
    /// No failures?
    pub fn is_green(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Grade a run with no fault armed: the attempt must not have panicked
/// or failed its audit — either is a bug, whichever rung of the
/// recovery ladder then certified the answer — and the answer must
/// match the oracle.
pub(crate) fn grade(seen: &Observation, oracle_dist: &[Dist]) -> Result<(), FailureKind> {
    if let Some(msg) = &seen.detection.error {
        return Err(FailureKind::Panic(msg.clone()));
    }
    if seen.audit_failures > 0 {
        return Err(FailureKind::Audit(seen.audit_failures));
    }
    check_against(oracle_dist, &seen.result.dist).map_err(FailureKind::Mismatch)
}

/// Run one entry on one instance and `grade` it against the oracle's
/// distances.
pub fn run_case(
    imp: &Entry,
    graph: &Csr,
    oracle_dist: &[u32],
    source: VertexId,
    delta0: Option<Weight>,
) -> Result<(), FailureKind> {
    let arm = Instruments::default();
    match catch_unwind(AssertUnwindSafe(|| imp.observe(graph, source, delta0, &arm))) {
        Ok(seen) => grade(&seen, oracle_dist),
        Err(payload) => Err(FailureKind::Panic(crate::registry::panic_message(payload.as_ref()))),
    }
}

/// Sweep the full differential matrix.
///
/// `progress` is called once per (implementation, graph, source) cell
/// with the cell's coordinates and whether it passed; pass a no-op
/// closure when output is unwanted.
pub fn run_matrix(
    opts: &SweepOptions,
    mut progress: impl FnMut(&str, &str, VertexId, bool),
) -> MatrixReport {
    let impls = opts.entries(DIFFERENTIAL);
    let families = opts.families();
    let mut report =
        MatrixReport { impls_run: impls.len(), graphs_run: families.len(), ..Default::default() };

    for family in &families {
        let graph = family.build();
        let mut sources = family.sources(graph.num_vertices());
        if opts.quick {
            sources.truncate(1);
        }
        for &source in &sources {
            let oracle = dijkstra(&graph, source);
            for imp in &impls {
                report.cases_run += 1;
                let outcome = run_case(imp, &graph, &oracle.dist, source, opts.delta0);
                progress(imp.id, family.name, source, outcome.is_ok());
                if let Err(kind) = outcome {
                    report.failures.push(CaseFailure {
                        impl_id: imp.id,
                        graph: family.name,
                        source,
                        kind,
                    });
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_is_green() {
        let report =
            run_matrix(&SweepOptions { quick: true, ..Default::default() }, |_, _, _, _| {});
        assert!(report.is_green(), "failures: {:?}", report.failures);
        assert!(report.cases_run > 0);
    }

    #[test]
    fn injected_fault_is_caught() {
        let opts = SweepOptions {
            quick: true,
            include_faults: true,
            entry_filter: Some("fault/".into()),
            ..Default::default()
        };
        let report = run_matrix(&opts, |_, _, _, _| {});
        assert!(!report.is_green(), "the fault specimen must fail");
        assert!(report.failures.iter().all(|f| f.impl_id == crate::registry::FAULT_OFF_BY_ONE));
    }

    /// A fault-free cell whose audit failed is dirty even though the
    /// ladder certified its answer: the certified answer must not hide
    /// a protocol bug from the sweeps.
    #[test]
    fn audit_failure_grades_dirty_though_the_answer_is_certified() {
        use rdbs_core::recover::{AnswerSource, Detection};
        let family = crate::graphs::quick_families().remove(0);
        let graph = family.build();
        let oracle = dijkstra(&graph, 0);
        let mut seen = Observation {
            result: oracle.clone(),
            via: Some(AnswerSource::Device),
            detection: Detection::default(),
            audit_failures: 0,
            injections: 0,
            violations: Vec::new(),
            san_total: 0,
            irs: Vec::new(),
        };
        assert!(grade(&seen, &oracle.dist).is_ok());
        // The same answer, certified by the repair sweep after the
        // audit flagged the device's.
        seen.via = Some(AnswerSource::Repair);
        seen.detection.flagged = 3;
        seen.audit_failures = 1;
        assert!(matches!(grade(&seen, &oracle.dist), Err(FailureKind::Audit(1))));
    }

    #[test]
    fn filters_restrict_the_sweep() {
        let opts = SweepOptions {
            quick: true,
            entry_filter: Some("seq/dijkstra".into()),
            graph_filter: Some("erdos".into()),
            ..Default::default()
        };
        let mut cells = 0;
        let report = run_matrix(&opts, |_, _, _, _| cells += 1);
        assert_eq!(report.impls_run, 1);
        assert_eq!(report.graphs_run, 1);
        assert_eq!(report.cases_run, cells);
    }
}
