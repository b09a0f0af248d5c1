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

use crate::graphs::{self, GraphCase};
use rdbs_core::gpu::{
    run_gpu_on, FrontierKind, MultiGpuConfig, MultiGpuState, RdbsConfig, Variant,
};
use rdbs_core::seq::dijkstra;
use rdbs_core::service::{ServiceConfig, SsspService};
use rdbs_core::validate::check_against;
use rdbs_core::{Csr, VertexId};
use rdbs_gpu_sim::{Device, DeviceConfig, SanCheck, SanConfig, SanViolation};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One sanitized entry point.
#[derive(Clone, Copy, Debug)]
pub struct SanEntry {
    /// Stable id used in reports and filters (e.g. `gpu/full`).
    pub id: &'static str,
    pub(crate) kind: EntryKind,
    /// `--frontier` override: sanitize every RDBS-backed surface of
    /// this entry on this frontier layout instead of its own.
    frontier: Option<FrontierKind>,
}

impl SanEntry {
    /// Sanitize this entry on `kind`'s frontier layout (`--frontier`).
    #[must_use]
    pub fn with_frontier(mut self, kind: FrontierKind) -> Self {
        self.frontier = Some(kind);
        self
    }

    pub(crate) fn apply_variant(&self, v: Variant) -> Variant {
        match (self.frontier, v) {
            (Some(kind), Variant::Rdbs(cfg)) => Variant::Rdbs(cfg.with_frontier(kind)),
            (_, v) => v,
        }
    }

    pub(crate) fn apply_service(&self, config: ServiceConfig) -> ServiceConfig {
        match self.frontier {
            Some(kind) => config.with_frontier(kind),
            None => config,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum EntryKind {
    Gpu(Variant),
    MultiGpu(usize),
    /// The resident batched service's pooled entry point: a warm-up
    /// query then the real one, so the sanitized run crosses pool
    /// recycling (the uninit check's main quarry).
    Service,
    /// The service's concurrent scheduler: a four-source batch spread
    /// across four command streams, so the sanitized run interleaves
    /// in-flight queries — any cross-lane buffer sharing shows up as a
    /// race or uninit read.
    ServiceConcurrent,
}

/// Every GPU entry point: the baseline, all RDBS ablation toggles,
/// multi-GPU at k ∈ {1, 2, 4}, and the pooled service.
pub fn san_entries() -> Vec<SanEntry> {
    let entry = |id, kind| SanEntry { id, kind, frontier: None };
    vec![
        entry("gpu/bl", EntryKind::Gpu(Variant::Baseline)),
        entry("gpu/sync-delta", EntryKind::Gpu(Variant::Rdbs(RdbsConfig::sync_delta()))),
        entry("gpu/basyn", EntryKind::Gpu(Variant::Rdbs(RdbsConfig::basyn_only()))),
        entry("gpu/basyn-pro", EntryKind::Gpu(Variant::Rdbs(RdbsConfig::basyn_pro()))),
        entry("gpu/basyn-adwl", EntryKind::Gpu(Variant::Rdbs(RdbsConfig::basyn_adwl()))),
        entry("gpu/full", EntryKind::Gpu(Variant::Rdbs(RdbsConfig::full()))),
        entry("multi-gpu/k1", EntryKind::MultiGpu(1)),
        entry("multi-gpu/k2", EntryKind::MultiGpu(2)),
        entry("multi-gpu/k4", EntryKind::MultiGpu(4)),
        entry("service/pooled", EntryKind::Service),
        entry("service/concurrent", EntryKind::ServiceConcurrent),
    ]
}

/// The reduced sweep: the synchronous baseline, the fully asynchronous
/// single-device entry (widest race surface), the multi-GPU exchange,
/// the pooled service (buffer-recycle surface) and the concurrent
/// scheduler (cross-lane isolation surface).
pub fn quick_san_entries() -> Vec<SanEntry> {
    san_entries()
        .into_iter()
        .filter(|e| {
            matches!(
                e.id,
                "gpu/bl" | "gpu/full" | "multi-gpu/k2" | "service/pooled" | "service/concurrent"
            )
        })
        .collect()
}

/// What to sweep.
#[derive(Clone, Debug, Default)]
pub struct SanOptions {
    /// Reduced sweep: quick graph families, four entries, one source.
    pub quick: bool,
    /// Only entries whose id contains this substring.
    pub entry_filter: Option<String>,
    /// Only families whose name contains this substring.
    pub graph_filter: Option<String>,
    /// Sanitize every RDBS-backed entry on this frontier layout
    /// (`--frontier`); `None` keeps each entry's own.
    pub frontier: Option<FrontierKind>,
}

/// One (entry, graph, source) cell of the sanitized matrix.
#[derive(Clone, Debug)]
pub struct SanCell {
    pub entry_id: &'static str,
    pub graph: &'static str,
    pub source: VertexId,
    /// Recorded violations (capped; `total` has the true count).
    pub violations: Vec<SanViolation>,
    pub total: u64,
    /// Oracle mismatch, if the answer was wrong.
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

fn substring(filter: &Option<String>, s: &str) -> bool {
    match filter {
        Some(f) => s.contains(f.as_str()),
        None => true,
    }
}

/// Run one entry point on `graph` with the sanitizer armed from
/// before the first device allocation.
pub fn run_cell(entry: &SanEntry, graph: &Csr, oracle_dist: &[u32], source: VertexId) -> SanCell {
    let outcome = catch_unwind(AssertUnwindSafe(|| match entry.kind {
        EntryKind::Gpu(variant) => {
            let mut device = Device::new(DeviceConfig::test_tiny());
            device.arm_sanitizer(SanConfig::default());
            let run = run_gpu_on(&mut device, graph, source, entry.apply_variant(variant));
            (run.result.dist, device.san_violations().to_vec(), device.san_total())
        }
        EntryKind::MultiGpu(k) => {
            let config = MultiGpuConfig {
                num_devices: k,
                device: DeviceConfig::test_tiny(),
                interconnect_gbps: 50.0,
                exchange_latency_us: 5.0,
                delta0: None,
            };
            let mut state = MultiGpuState::new(graph, &config);
            state.arm_sanitizer(SanConfig::default());
            let run = state.run(source);
            let violations: Vec<SanViolation> =
                state.san_violations().into_iter().map(|(_, v)| v).collect();
            let total = state.san_total();
            (run.result.dist, violations, total)
        }
        EntryKind::Service => {
            let config = entry.apply_service(ServiceConfig::rdbs(DeviceConfig::test_tiny()));
            let mut svc = SsspService::new(graph, config);
            svc.arm_sanitizer(SanConfig::default());
            // Warm query first: the real query then runs entirely on
            // recycled (re-poisoned) pool buffers.
            let n = graph.num_vertices();
            let warm = VertexId::try_from((source as usize + 1) % n).expect("vertex id fits");
            let _ = svc.query(warm);
            let result = svc.query(source);
            (result.dist, svc.san_violations(), svc.san_total())
        }
        EntryKind::ServiceConcurrent => {
            let config =
                entry.apply_service(ServiceConfig::rdbs(DeviceConfig::test_tiny()).with_streams(4));
            let mut svc = SsspService::new(graph, config);
            svc.arm_sanitizer(SanConfig::default());
            // Four sources in flight at once: the scored one plus
            // three offsets, each on its own leased lane.
            let n = graph.num_vertices();
            let other = |k: usize| VertexId::try_from((source as usize + k) % n).expect("fits");
            let batch = [source, other(1), other(2), other(3)];
            let mut results = svc.batch(&batch);
            let result = results.swap_remove(0);
            (result.dist, svc.san_violations(), svc.san_total())
        }
    }));
    match outcome {
        Ok((dist, violations, total)) => {
            let mismatch = check_against(oracle_dist, &dist).err().map(|m| m.to_string());
            SanCell {
                entry_id: entry.id,
                graph: "",
                source,
                violations,
                total,
                mismatch,
                panic: None,
            }
        }
        Err(payload) => SanCell {
            entry_id: entry.id,
            graph: "",
            source,
            violations: Vec::new(),
            total: 0,
            mismatch: None,
            panic: Some(crate::runner::panic_message(payload.as_ref())),
        },
    }
}

/// Sweep the sanitized matrix. `progress` is called once per cell.
pub fn run_sanitize(opts: &SanOptions, mut progress: impl FnMut(&SanCell)) -> SanMatrixReport {
    let entries: Vec<SanEntry> = if opts.quick { quick_san_entries() } else { san_entries() }
        .into_iter()
        .filter(|e| substring(&opts.entry_filter, e.id))
        .map(|e| match opts.frontier {
            Some(kind) => e.with_frontier(kind),
            None => e,
        })
        .collect();
    let families: Vec<GraphCase> =
        if opts.quick { graphs::quick_families() } else { graphs::families() }
            .into_iter()
            .filter(|g| substring(&opts.graph_filter, g.name))
            .collect();

    let mut report = SanMatrixReport::default();
    for family in &families {
        let graph = family.build();
        let sources = family.sources(graph.num_vertices());
        let sources = if opts.quick { &sources[..1] } else { &sources[..] };
        for &source in sources {
            let oracle = dijkstra(&graph, source);
            for entry in &entries {
                let mut cell = run_cell(entry, &graph, &oracle.dist, source);
                cell.graph = family.name;
                progress(&cell);
                report.cells.push(cell);
            }
        }
    }
    report
}

/// The planted-race regression specimen: a kernel where every lane
/// plain-stores the same word of a labelled buffer inside one wave.
/// Returns the violations the detector produced — callers assert the
/// report names the check, both lane ids, the buffer label and the
/// address. If this comes back empty the detector is broken and any
/// green matrix is meaningless.
pub fn planted_race_specimen() -> Vec<SanViolation> {
    let mut device = Device::new(DeviceConfig::test_tiny());
    device.arm_sanitizer(SanConfig::default());
    let victim = device.alloc("specimen-victim", 4);
    device.fill(victim, 0);
    let mut session = device.wave_session("planted-race");
    session.wave(8, 1, |lane| {
        // All eight lanes plain-store word 0 — a textbook last-writer
        // race — and lane 0's later plain load races the stores too.
        lane.st(victim, 0, lane.tid() as u32);
        if lane.tid() == 0 {
            let _ = lane.ld(victim, 1);
        }
    });
    device.san_violations().to_vec()
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
        let report = run_sanitize(&SanOptions { quick: true, ..Default::default() }, |_| {});
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
        let opts = SanOptions {
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
        let opts = SanOptions {
            quick: true,
            entry_filter: Some("gpu/full".into()),
            graph_filter: Some("erdos".into()),
            frontier: Some(FrontierKind::Mlmq),
        };
        let report = run_sanitize(&opts, |_| {});
        assert!(!report.cells.is_empty());
        assert!(report.is_green(), "MLMQ frontier is dirty: {:?}", report.cells);
    }
}
