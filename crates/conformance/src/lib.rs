//! # Conformance harness for the RDBS workspace
//!
//! Keeps every SSSP implementation honest against the Dijkstra oracle,
//! and turns any disagreement into a minimal, replayable artifact:
//!
//! * [`registry`] — one table of every public SSSP entry point
//!   (sequential references, CPU-parallel, the simulated-GPU RDBS with
//!   all ablation toggles, the multi-GPU port at k ∈ {1, 2, 4}, the
//!   resident service's shapes, every baseline comparator, and the
//!   framework integration). Each entry names one scenario, its
//!   kernel variant and the capability flags that decide which sweeps
//!   select it; the instruments below are armed on whatever backend
//!   the scenario builds.
//! * [`runner`] — the differential matrix: implementations × graph
//!   families × seeded sources, each compared exactly against the
//!   oracle; panics are caught and reported as failures.
//! * [`shrink`] — delta-debugging minimization of a failing instance
//!   (chunked edge removal, vertex compaction, weight reduction) down
//!   to a witness of a few vertices, plus the exact CLI replay
//!   command.
//! * [`localize`] — replays the failing implementation with the
//!   relaxation trace sink in `rdbs_core::stats::trace` armed and
//!   reports the first bucket/phase/edge where settled distances
//!   depart from the oracle.
//! * [`chaos`] — the fault-injection matrix: every device fault model
//!   × detect-and-recover entry point × graph family, each cell graded
//!   correct / explicitly-errored / silently-wrong; the sweep is green
//!   only when no cell lies.
//! * [`sanitize`] — the memory-model matrix: every GPU entry point run
//!   with the wave-level sanitizer armed; green only when every cell
//!   is correct *and* produced zero violations, with a planted-race
//!   specimen proving the detector itself is alive.
//! * [`adversary`] — the adversarial layer on top of both: a budgeted
//!   placement search that scouts each entry's sanitizer access
//!   profile and the oracle's deep frontier, then pins fault plans to
//!   the hottest targets and scores them by recovery-ladder depth
//!   (keeping a replayable worst-case corpus); plus a seeded
//!   lane-permutation schedule fuzzer that re-executes race windows
//!   under shuffled interleavings with the sanitizer watching.
//!
//! Every sweep takes one [`SweepOptions`] and is reachable from the
//! command line — `rdbs-cli verify`, `chaos`, `chaos --adversarial`,
//! `fuzz-schedules`, `sanitize` and `analyze` — all exiting non-zero
//! on violation.

pub mod adversary;
pub mod analyze;
pub mod chaos;
pub mod graphs;
pub mod localize;
pub mod registry;
pub mod runner;
pub mod sanitize;
pub mod shrink;

pub use analyze::{
    baseline_json, check_baseline, planted_race_static, report_json, run_analyze,
    schedule_hidden_specimen, specimens_caught_statically, AnalyzeReport, AnalyzedCell,
    BaselineCheck,
};

pub use adversary::{
    corpus_lines, depth_label, fuzz_schedules, ladder_depth, parse_corpus_line, replay_case,
    run_adversary, AdversaryReport, AttackRun, Candidate, CorpusCase, FuzzCell, FuzzReport,
    ScoutIntel,
};
pub use chaos::{run_chaos, CellVerdict, ChaosCell, ChaosReport};
pub use graphs::{families, GraphCase};
pub use localize::{localize, Divergence};
pub use registry::{all, by_id, with_faults, Entry, SweepOptions, FAULT_OFF_BY_ONE};
pub use runner::{run_matrix, CaseFailure, FailureKind, MatrixReport};
pub use sanitize::{
    planted_race_specimen, run_sanitize, specimen_detected, SanCell, SanMatrixReport,
};
pub use shrink::{shrink, shrink_built, ShrunkWitness};
