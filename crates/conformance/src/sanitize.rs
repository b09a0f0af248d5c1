//! The sanitized conformance matrix: every GPU entry point × graph
//! family with the memory-model sanitizer armed, and one invariant —
//! **zero violations**.
//!
//! The differential matrix ([`crate::runner`]) checks *answers*; the
//! chaos matrix ([`crate::chaos`]) checks answers under injected
//! faults; this matrix checks *accesses*: every kernel the repo ships
//! must respect the snapshot / volatile / atomic discipline that makes
//! BASYN's barrier-free phase 1 (§4.3) correct on real hardware, not
//! just under the simulator's sequential execution. A cell is green
//! only when the entry point's answer matches the Dijkstra oracle
//! *and* its run produced no [`SanViolation`].
//!
//! [`planted_race_specimen`] is the detector's liveness check: a
//! deliberately racy kernel that must produce a violation carrying
//! lane ids, the buffer label and the address — run first by the CLI
//! so "zero violations" can never mean "detector asleep".

use crate::registry::{Entry, Instruments, SweepOptions, SANITIZE};
use crate::runner::{grade, FailureKind};
use rdbs_core::seq::dijkstra;
use rdbs_core::{Csr, VertexId};
use rdbs_gpu_sim::{Device, DeviceConfig, SanCheck, SanViolation};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One (entry, graph, source) cell of the sanitized matrix.
#[derive(Clone, Debug)]
pub struct SanCell {
    pub entry_id: &'static str,
    pub graph: &'static str,
    pub source: VertexId,
    /// Recorded violations (capped; `total` has the true count).
    pub violations: Vec<SanViolation>,
    pub total: u64,
    /// Oracle mismatch, if the answer was wrong, or the answers whose
    /// audit failed on the way to a certified one.
    pub mismatch: Option<String>,
    /// Panic message, if the cell crashed.
    pub panic: Option<String>,
}

impl SanCell {
    /// Green = ran to completion, correct answer, zero violations.
    pub fn is_clean(&self) -> bool {
        self.total == 0 && self.mismatch.is_none() && self.panic.is_none()
    }
}

/// Outcome of a sanitized sweep.
#[derive(Debug, Default)]
pub struct SanMatrixReport {
    pub cells: Vec<SanCell>,
}

impl SanMatrixReport {
    pub fn is_green(&self) -> bool {
        !self.cells.is_empty() && self.cells.iter().all(SanCell::is_clean)
    }

    /// Total violations across all cells.
    pub fn total_violations(&self) -> u64 {
        self.cells.iter().map(|c| c.total).sum()
    }

    pub fn dirty_cells(&self) -> impl Iterator<Item = &SanCell> {
        self.cells.iter().filter(|c| !c.is_clean())
    }
}

/// Run one entry's scenario on `graph` with the sanitizer — and, with
/// `permute`, the lane permuter — armed from before the first query.
pub fn run_cell(
    entry: &Entry,
    graph: &Csr,
    oracle_dist: &[u32],
    source: VertexId,
    permute: Option<u64>,
) -> SanCell {
    let arm = Instruments { sanitizer: true, permute, ..Instruments::default() };
    let mut cell = SanCell {
        entry_id: entry.id,
        graph: "",
        source,
        violations: Vec::new(),
        total: 0,
        mismatch: None,
        panic: None,
    };
    match catch_unwind(AssertUnwindSafe(|| entry.observe(graph, source, None, &arm))) {
        Ok(seen) => {
            match grade(&seen, oracle_dist) {
                Ok(()) => {}
                Err(FailureKind::Panic(msg)) => cell.panic = Some(msg),
                Err(failure) => cell.mismatch = Some(failure.to_string()),
            }
            cell.violations = seen.violations;
            cell.total = seen.san_total;
        }
        Err(payload) => cell.panic = Some(crate::registry::panic_message(payload.as_ref())),
    }
    cell
}

/// Sweep the sanitized matrix over the [`SANITIZE`] entries.
/// `progress` is called once per cell.
pub fn run_sanitize(opts: &SweepOptions, mut progress: impl FnMut(&SanCell)) -> SanMatrixReport {
    let entries = opts.entries(SANITIZE);
    let mut report = SanMatrixReport::default();
    for family in &opts.families() {
        let graph = family.build();
        let sources = family.sources(graph.num_vertices());
        let sources = if opts.quick { &sources[..1] } else { &sources[..] };
        for &source in sources {
            let oracle = dijkstra(&graph, source);
            for entry in &entries {
                let mut cell = run_cell(entry, &graph, &oracle.dist, source, None);
                cell.graph = family.name;
                progress(&cell);
                report.cells.push(cell);
            }
        }
    }
    report
}

/// The planted-race kernel on a fresh device with `arm`'s instruments:
/// every lane of one live wave plain-stores the same word of a labelled
/// buffer — a textbook last-writer race — and lane 0's later plain
/// load races the stores too. The dynamic sanitizer, the schedule
/// fuzzer and the static verifier all gate on it.
pub(crate) fn planted_race(arm: &Instruments) -> Device {
    let mut device = Device::new(DeviceConfig::test_tiny());
    arm.on_device(&mut device);
    let victim = device.alloc("specimen-victim", 4);
    device.fill(victim, 0);
    device.wave_session("planted-race").wave(8, 1, |lane| {
        lane.st(victim, 0, lane.tid() as u32);
        if lane.tid() == 0 {
            let _ = lane.ld(victim, 1);
        }
    });
    device
}

/// The planted-race regression specimen under the sanitizer. Returns
/// the violations the detector produced — callers assert the
/// report names the check, both lane ids, the buffer label and the
/// address. If this comes back empty the detector is broken and any
/// green matrix is meaningless.
pub fn planted_race_specimen() -> Vec<SanViolation> {
    let arm = Instruments { sanitizer: true, ..Instruments::default() };
    planted_race(&arm).san_violations().to_vec()
}

/// Quick check that the specimen fires with a fully descriptive
/// report; used by the CLI before every sweep.
pub fn specimen_detected() -> Result<(), String> {
    let violations = planted_race_specimen();
    let Some(v) = violations.iter().find(|v| v.check == SanCheck::WriteWriteRace) else {
        return Err("planted write-write race was not detected".into());
    };
    if v.buffer != "specimen-victim" {
        return Err(format!("report lost the buffer label: {v}"));
    }
    if v.lanes[0] == v.lanes[1] {
        return Err(format!("report does not name two distinct lanes: {v}"));
    }
    if v.addr == 0 {
        return Err(format!("report carries no address: {v}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate: the quick sanitized matrix must be
    /// entirely clean — right answers and zero violations.
    #[test]
    fn quick_sanitized_matrix_is_clean() {
        let report = run_sanitize(&SweepOptions { quick: true, ..Default::default() }, |_| {});
        assert!(!report.cells.is_empty());
        let dirty: Vec<String> = report
            .dirty_cells()
            .map(|c| {
                let mut lines = vec![format!(
                    "{} on {} (source {}): {} violation(s){}{}",
                    c.entry_id,
                    c.graph,
                    c.source,
                    c.total,
                    c.mismatch.as_deref().map(|m| format!(", mismatch: {m}")).unwrap_or_default(),
                    c.panic.as_deref().map(|p| format!(", panic: {p}")).unwrap_or_default(),
                )];
                lines.extend(c.violations.iter().take(5).map(|v| format!("  {v}")));
                lines.join("\n")
            })
            .collect();
        assert!(report.is_green(), "sanitized matrix is dirty:\n{}", dirty.join("\n"));
    }

    /// The detector liveness check.
    #[test]
    fn planted_race_specimen_is_detected() {
        specimen_detected().unwrap();
        let v = planted_race_specimen();
        let ww = v.iter().find(|v| v.check == SanCheck::WriteWriteRace).unwrap();
        assert_eq!(ww.lanes, [0, 1]);
        assert_eq!(ww.buffer, "specimen-victim");
        assert!(ww.addr >= 0x1000, "flat device address expected, got {:#x}", ww.addr);
        assert_eq!(ww.kernel, "planted-race");
    }

    #[test]
    fn filters_restrict_the_sweep() {
        let opts = SweepOptions {
            quick: true,
            entry_filter: Some("gpu/bl".into()),
            graph_filter: Some("erdos".into()),
            ..Default::default()
        };
        let report = run_sanitize(&opts, |_| {});
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].entry_id, "gpu/bl");
    }

    /// The MLMQ frontier must respect the same snapshot / volatile /
    /// atomic discipline as the single queue: rerouting the quick RDBS
    /// entries through `--frontier` stays violation-free.
    #[test]
    fn frontier_axis_is_violation_free() {
        let opts = SweepOptions {
            quick: true,
            entry_filter: Some("gpu/full".into()),
            graph_filter: Some("erdos".into()),
            frontier: Some(rdbs_core::gpu::FrontierKind::Mlmq),
            ..Default::default()
        };
        let report = run_sanitize(&opts, |_| {});
        assert!(!report.cells.is_empty());
        assert!(report.is_green(), "MLMQ frontier is dirty: {:?}", report.cells);
    }
}
