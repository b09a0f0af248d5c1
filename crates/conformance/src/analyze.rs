//! The static-verification matrix: every GPU entry point × frontier
//! layout with the access-IR recorder armed, verified by the
//! schedule-universal analyzer ([`rdbs_statan::verify`]).
//!
//! The sanitized matrix ([`crate::sanitize`]) checks the accesses the
//! schedule that ran happened to produce; this matrix checks **all**
//! schedules at once: the retained IR summarizes every access a race
//! window saw, and the verifier quantifies over every interleaving of
//! it. A kernel certified [`rdbs_statan::Verdict::RaceFree`] here
//! cannot be made racy by any lane permutation the schedule fuzzer
//! could ever draw.
//!
//! Two liveness specimens gate every sweep (run first by the CLI so a
//! green matrix can never mean "verifier asleep"):
//!
//! * [`planted_race_static`] — PR 4's planted write-write race, which
//!   the dynamic sanitizer also catches; the static verifier must
//!   flag it too.
//! * [`schedule_hidden_specimen`] — a publish/consume pair (plain
//!   store cross-lane against a volatile read) that is **invisible to
//!   the dynamic sanitizer under every lane order** (it records no
//!   volatile reads) yet is a real race: the reader can observe a
//!   half-published state. Only the static verifier catches it.

use crate::registry::{Entry, Instruments, SweepOptions, FRONTIER, SANITIZE};
use crate::runner::{grade, FailureKind};
use crate::sanitize::planted_race;
use rdbs_core::gpu::FrontierKind;
use rdbs_core::seq::dijkstra;
use rdbs_core::{Csr, VertexId};
use rdbs_gpu_sim::{AccessIr, Device, DeviceConfig, HazardKind, SanConfig};
use rdbs_statan::{Analysis, QueueClass, Verdict};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One `entry@frontier` cell: the merged analysis of that entry point
/// across every graph family and source it ran on.
#[derive(Clone, Debug)]
pub struct AnalyzedCell {
    /// Entry id (e.g. `gpu/full`).
    pub entry_id: &'static str,
    /// Frontier layout the entry ran on.
    pub frontier: FrontierKind,
    /// Merged verifier output across all runs of this cell.
    pub analysis: Analysis,
    /// Runs merged into the analysis (families × sources, × devices
    /// inside each run).
    pub runs: u64,
    /// First oracle mismatch, if any run answered wrong.
    pub mismatch: Option<String>,
    /// First panic message, if any run crashed.
    pub panic: Option<String>,
}

impl AnalyzedCell {
    /// Stable cell key, `entry@frontier`.
    pub fn key(&self) -> String {
        format!("{}@{}", self.entry_id, self.frontier.name())
    }

    /// Green = every run completed with the right answer, no kernel is
    /// `Racy`, and no queue is `Overflowing`.
    pub fn is_clean(&self) -> bool {
        self.panic.is_none()
            && self.mismatch.is_none()
            && self.analysis.worst_verdict() != Verdict::Racy
            && self.analysis.worst_queue_class() != QueueClass::Overflowing
    }
}

/// Outcome of a static-verification sweep.
#[derive(Debug, Default)]
pub struct AnalyzeReport {
    /// One cell per `entry@frontier`, in sweep order.
    pub cells: Vec<AnalyzedCell>,
}

impl AnalyzeReport {
    /// Green = at least one cell ran and every cell is clean.
    pub fn is_green(&self) -> bool {
        !self.cells.is_empty() && self.cells.iter().all(AnalyzedCell::is_clean)
    }

    /// Cells that are not clean.
    pub fn red_cells(&self) -> impl Iterator<Item = &AnalyzedCell> {
        self.cells.iter().filter(|c| !c.is_clean())
    }
}

/// The frontier layouts a cell sweep covers for `entry`: every layout
/// for an entry that accepts a forced one ([`FRONTIER`]) — unless the
/// sweep already forced one — and its own layout otherwise. Entries
/// without a frontier choice would only duplicate identical
/// certificates per layout.
fn frontier_axis(entry: &Entry, forced: Option<FrontierKind>) -> Vec<FrontierKind> {
    match forced {
        None if entry.has(FRONTIER) => FrontierKind::ALL.to_vec(),
        _ => vec![entry.frontier()],
    }
}

/// Run one entry's scenario once with the IR recorder armed and verify
/// the retained IR. Returns the per-device analyses merged.
fn run_verified(
    entry: &Entry,
    graph: &Csr,
    oracle_dist: &[u32],
    source: VertexId,
) -> Result<(Analysis, Option<String>), String> {
    let arm = Instruments { ir: true, ..Instruments::default() };
    let seen = catch_unwind(AssertUnwindSafe(|| entry.observe(graph, source, None, &arm)))
        .map_err(|payload| crate::registry::panic_message(payload.as_ref()))?;
    let mismatch = match grade(&seen, oracle_dist) {
        Ok(()) => None,
        Err(FailureKind::Panic(msg)) => return Err(msg),
        Err(failure) => Some(failure.to_string()),
    };
    let mut analysis = Analysis::default();
    for ir in &seen.irs {
        analysis.merge(rdbs_statan::verify(ir));
    }
    Ok((analysis, mismatch))
}

/// Sweep the static-verification matrix: [`SANITIZE`] entries ×
/// frontier axis × graph families, one merged cell per
/// `entry@frontier`. `progress` is called once per completed cell.
pub fn run_analyze(opts: &SweepOptions, mut progress: impl FnMut(&AnalyzedCell)) -> AnalyzeReport {
    let families = opts.families();
    let mut report = AnalyzeReport::default();
    for entry in opts.entries(SANITIZE) {
        for kind in frontier_axis(&entry, opts.frontier) {
            let entry = entry.with_frontier(kind);
            let mut cell = AnalyzedCell {
                entry_id: entry.id,
                frontier: kind,
                analysis: Analysis::default(),
                runs: 0,
                mismatch: None,
                panic: None,
            };
            for family in &families {
                let graph = family.build();
                // One source per family: certificates quantify over
                // schedules, not inputs, so extra sources only re-walk
                // the same kernels; one covers the code paths.
                let source = family.sources(graph.num_vertices())[0];
                let oracle = dijkstra(&graph, source);
                match run_verified(&entry, &graph, &oracle.dist, source) {
                    Ok((analysis, mismatch)) => {
                        cell.analysis.merge(analysis);
                        cell.runs += 1;
                        if cell.mismatch.is_none() {
                            cell.mismatch =
                                mismatch.map(|m| format!("{} (source {source}): {m}", family.name));
                        }
                    }
                    Err(panic) => {
                        if cell.panic.is_none() {
                            cell.panic = Some(format!("{}: {panic}", family.name));
                        }
                    }
                }
            }
            progress(&cell);
            report.cells.push(cell);
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Liveness specimens
// ---------------------------------------------------------------------------

/// Run the schedule-hidden publish/consume specimen once: lane 0
/// plain-stores a word that lane 1 volatile-reads in the same live
/// wave. Returns the dynamic sanitizer's violation count and the
/// retained IR. With `fuzz_seed` set, the wave's lane order is the
/// seeded permutation instead of ascending.
fn hidden_specimen_run(fuzz_seed: Option<u64>) -> (u64, AccessIr) {
    let mut device = Device::new(DeviceConfig::test_tiny());
    device.arm_sanitizer(SanConfig::default());
    device.arm_ir();
    if let Some(seed) = fuzz_seed {
        device.arm_schedule_fuzz(seed);
    }
    let victim = device.alloc("hidden-victim", 4);
    device.fill(victim, 0);
    {
        let mut session = device.wave_session("hidden-publish");
        session.wave(8, 1, |lane| {
            // The publish side lacks atomic discipline: under the lane
            // order where 1 runs mid-store, the consumer observes a
            // half-published state. The dynamic sanitizer records plain
            // stores, atomics and plain loads — never volatile reads —
            // so NO lane order makes this pair visible to it.
            if lane.tid() == 0 {
                lane.st(victim, 0, 0xDEAD);
            } else if lane.tid() == 1 {
                let _ = lane.ld_volatile(victim, 0);
            }
        });
    }
    (device.san_total(), device.take_ir().expect("IR was armed"))
}

/// Outcome of the schedule-hidden specimen across the dynamic
/// sanitizer, the schedule fuzzer, and the static verifier.
#[derive(Debug)]
pub struct HiddenSpecimen {
    /// Dynamic violations under the default ascending lane order.
    pub dynamic_violations: u64,
    /// Dynamic violations summed across all fuzzed permutations.
    pub fuzz_violations: u64,
    /// Permutations fuzzed.
    pub fuzz_seeds: u64,
    /// The static verifier's analysis of the same run.
    pub analysis: Analysis,
}

/// Run the schedule-hidden specimen under the default lane order, 32
/// fuzzed permutations, and the static verifier.
pub fn schedule_hidden_specimen() -> HiddenSpecimen {
    let (dynamic_violations, ir) = hidden_specimen_run(None);
    let mut fuzz_violations = 0;
    let fuzz_seeds = 32;
    for seed in 0..fuzz_seeds {
        let (v, _) = hidden_specimen_run(Some(seed));
        fuzz_violations += v;
    }
    HiddenSpecimen {
        dynamic_violations,
        fuzz_violations,
        fuzz_seeds,
        analysis: rdbs_statan::verify(&ir),
    }
}

/// The planted write-write race (`sanitize::planted_race`), re-run with the
/// IR recorder armed and statically verified. The dynamic sanitizer catches this one too
/// ([`crate::sanitize::planted_race_specimen`]); the static verifier
/// must agree.
pub fn planted_race_static() -> Analysis {
    let arm = Instruments { ir: true, ..Instruments::default() };
    rdbs_statan::verify(&planted_race(&arm).take_ir().expect("IR was armed"))
}

/// The verifier's liveness gate, run by the CLI before every sweep:
/// both specimens must come back `Racy` with the right hazard kinds,
/// and the hidden one must be invisible to the dynamic sanitizer both
/// unfuzzed and across 32 permutations. If this fails, a green matrix
/// proves nothing.
pub fn specimens_caught_statically() -> Result<(), String> {
    let planted = planted_race_static();
    let Some(cert) = planted.kernels.get("planted-race") else {
        return Err("planted-race specimen produced no kernel certificate".into());
    };
    if cert.verdict != Verdict::Racy {
        return Err(format!(
            "planted write-write race not flagged statically (verdict {})",
            cert.verdict.name()
        ));
    }
    if !cert.findings.iter().any(|h| h.kind == HazardKind::WriteWrite) {
        return Err("planted specimen's findings cite no write-write hazard".into());
    }

    let hidden = schedule_hidden_specimen();
    if hidden.dynamic_violations != 0 {
        return Err(format!(
            "hidden specimen is not schedule-hidden: dynamic sanitizer saw {} violation(s)",
            hidden.dynamic_violations
        ));
    }
    if hidden.fuzz_violations != 0 {
        return Err(format!(
            "hidden specimen is not schedule-hidden: {} violation(s) across {} permutations",
            hidden.fuzz_violations, hidden.fuzz_seeds
        ));
    }
    let Some(cert) = hidden.analysis.kernels.get("hidden-publish") else {
        return Err("hidden specimen produced no kernel certificate".into());
    };
    if cert.verdict != Verdict::Racy {
        return Err(format!(
            "hidden specimen not flagged statically (verdict {})",
            cert.verdict.name()
        ));
    }
    if !cert.findings.iter().any(|h| h.kind == HazardKind::UnsanctionedPublish) {
        return Err("hidden specimen's findings cite no unsanctioned-publish hazard".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Serialization + baseline diffing
// ---------------------------------------------------------------------------

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render the full report as deterministic JSON (the CLI's `--json`).
pub fn report_json(report: &AnalyzeReport) -> String {
    let mut out = String::from("{\n  \"format\": \"rdbs-analyze-v1\",\n  \"cells\": [");
    for (i, cell) in report.cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\n      \"cell\": \"{}\",", esc(&cell.key())));
        out.push_str(&format!("\n      \"clean\": {},", cell.is_clean()));
        out.push_str(&format!("\n      \"runs\": {},", cell.runs));
        out.push_str(&format!("\n      \"devices\": {},", cell.analysis.devices));
        out.push_str(&format!("\n      \"windows\": {},", cell.analysis.windows));
        out.push_str(&format!(
            "\n      \"peak_window_words\": {},",
            cell.analysis.peak_window_words
        ));
        match &cell.mismatch {
            Some(m) => out.push_str(&format!("\n      \"mismatch\": \"{}\",", esc(m))),
            None => out.push_str("\n      \"mismatch\": null,"),
        }
        match &cell.panic {
            Some(p) => out.push_str(&format!("\n      \"panic\": \"{}\",", esc(p))),
            None => out.push_str("\n      \"panic\": null,"),
        }
        out.push_str("\n      \"kernels\": [");
        for (j, cert) in cell.analysis.kernels.values().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let sanctions: Vec<String> =
                cert.sanctions.iter().map(|k| format!("\"{}\"", k.name())).collect();
            let findings: Vec<String> =
                cert.findings.iter().map(|h| format!("\"{}\"", esc(&h.to_string()))).collect();
            out.push_str(&format!(
                "\n        {{\"kernel\": \"{}\", \"verdict\": \"{}\", \"sanctions\": [{}], \
                 \"findings\": [{}], \"waves\": {}, \"max_lanes\": {}, \"gangs_checked\": {}, \
                 \"gangs_divergent\": {}, \"child_divergent\": {}}}",
                esc(cert.kernel),
                cert.verdict.name(),
                sanctions.join(", "),
                findings.join(", "),
                cert.waves,
                cert.max_lanes,
                cert.gangs_checked,
                cert.gangs_divergent,
                cert.child_divergent,
            ));
        }
        out.push_str("\n      ],");
        out.push_str("\n      \"queues\": [");
        for (j, q) in cell.analysis.queues.values().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n        {{\"label\": \"{}\", \"class\": \"{}\", \"capacity\": {}, \
                 \"spill\": {}, \"pushes\": {}, \"high_water\": {}, \"max_window_pushes\": {}, \
                 \"drops\": {}, \"window_bounded\": {}}}",
                esc(q.label),
                q.class.name(),
                q.capacity,
                q.spill,
                q.pushes,
                q.high_water,
                q.max_window_pushes,
                q.drops,
                q.window_bounded(),
            ));
        }
        out.push_str("\n      ],");
        out.push_str("\n      \"hot_words\": [");
        for (j, (buf, idx, n)) in cell.analysis.hot_words(10).into_iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n        {{\"buffer\": \"{}\", \"index\": {idx}, \"atomics\": {n}}}",
                esc(buf)
            ));
        }
        out.push_str("\n      ],");
        out.push_str("\n      \"buffers\": [");
        for (j, (label, t)) in cell.analysis.buffers.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n        {{\"label\": \"{}\", \"loads\": {}, \"stores\": {}, \"atomics\": {}, \
                 \"same_word\": {}, \"unit_stride\": {}, \"strided\": {}, \"scatter\": {}}}",
                esc(label),
                t.loads,
                t.stores,
                t.atomics,
                t.same_word,
                t.unit_stride,
                t.strided,
                t.scatter,
            ));
        }
        out.push_str("\n      ]\n    }");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// The flat certificate map the baseline stores: one line per
/// certificate, `"<cell> kernel <name>"` or `"<cell> queue <label>"`
/// mapped to its verdict / class name. Deterministic (sorted keys).
pub fn certificate_map(report: &AnalyzeReport) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for cell in &report.cells {
        let key = cell.key();
        for cert in cell.analysis.kernels.values() {
            map.insert(format!("{key} kernel {}", cert.kernel), cert.verdict.name().to_string());
        }
        for q in cell.analysis.queues.values() {
            map.insert(format!("{key} queue {}", q.label), q.class.name().to_string());
        }
    }
    map
}

/// Render the committed certificate baseline (`--write`).
pub fn baseline_json(report: &AnalyzeReport) -> String {
    let map = certificate_map(report);
    let mut out = String::from("{\n  \"format\": \"rdbs-certificates-v1\",\n  \"certs\": {");
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": \"{}\"", esc(k), esc(v)));
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Parse a baseline file written by [`baseline_json`]. Line-oriented
/// on purpose: the file is machine-written, so `"key": "value"` pairs
/// one per line are a stable contract.
pub fn parse_baseline(text: &str) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else { continue };
        let Some((key, rest)) = rest.split_once("\": \"") else { continue };
        let Some(val) = rest.strip_suffix('"') else { continue };
        if key == "format" {
            continue;
        }
        map.insert(key.to_string(), val.to_string());
    }
    map
}

/// Result of diffing a fresh report against the committed baseline.
#[derive(Debug, Default)]
pub struct BaselineCheck {
    /// Regressions: lost certificates, downgraded verdicts, new red
    /// certificates, or broken runs. Any entry here is a red build.
    pub failures: Vec<String>,
    /// Benign drift: upgrades and new green certificates. The baseline
    /// is stale; refresh with `--write`.
    pub notes: Vec<String>,
}

impl BaselineCheck {
    /// True when nothing regressed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Severity rank of a certificate value; `None` if unparseable.
fn severity(kind: &str, value: &str) -> Option<u8> {
    match kind {
        "kernel" => Verdict::parse(value).map(|v| v as u8),
        "queue" => QueueClass::parse(value).map(|c| c as u8),
        _ => None,
    }
}

fn cert_kind(key: &str) -> &'static str {
    if key.contains(" kernel ") {
        "kernel"
    } else if key.contains(" queue ") {
        "queue"
    } else {
        "unknown"
    }
}

/// Diff `report` against the committed baseline text: fail on any
/// certificate that disappeared, got worse, or arrived red; note (but
/// allow) upgrades and new green certificates.
pub fn check_baseline(report: &AnalyzeReport, baseline: &str) -> BaselineCheck {
    let mut check = BaselineCheck::default();
    for cell in report.red_cells() {
        let key = cell.key();
        if let Some(p) = &cell.panic {
            check.failures.push(format!("{key}: panicked: {p}"));
        }
        if let Some(m) = &cell.mismatch {
            check.failures.push(format!("{key}: wrong answer: {m}"));
        }
    }
    let base = parse_baseline(baseline);
    if base.is_empty() {
        check.failures.push("baseline is empty or unparseable".to_string());
        return check;
    }
    let current = certificate_map(report);
    for (key, base_val) in &base {
        let kind = cert_kind(key);
        match current.get(key) {
            None => {
                check.failures.push(format!("lost certificate: {key} (was {base_val})"));
            }
            Some(cur_val) => match (severity(kind, base_val), severity(kind, cur_val)) {
                (Some(b), Some(c)) if c > b => {
                    check.failures.push(format!("regressed: {key}: {base_val} -> {cur_val}"));
                }
                (Some(b), Some(c)) if c < b => {
                    check.notes.push(format!(
                        "improved: {key}: {base_val} -> {cur_val} (refresh with --write)"
                    ));
                }
                (Some(_), Some(_)) => {}
                _ => {
                    check
                        .failures
                        .push(format!("unparseable certificate: {key}: {base_val} / {cur_val}"));
                }
            },
        }
    }
    for (key, cur_val) in &current {
        if base.contains_key(key) {
            continue;
        }
        match severity(cert_kind(key), cur_val) {
            Some(s) if s >= 2 => {
                check.failures.push(format!("new red certificate: {key}: {cur_val}"));
            }
            Some(_) => {
                check.notes.push(format!("new certificate: {key}: {cur_val} (adopt with --write)"));
            }
            None => {
                check.failures.push(format!("unparseable certificate: {key}: {cur_val}"));
            }
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate: the quick static matrix must be green —
    /// every kernel certified `RaceFree` or `SanctionedRacy`, every
    /// queue `Bounded` or `Spilling`, right answers everywhere.
    #[test]
    fn quick_static_matrix_is_green() {
        let report = run_analyze(&SweepOptions { quick: true, ..Default::default() }, |_| {});
        assert!(!report.cells.is_empty());
        let red: Vec<String> = report
            .red_cells()
            .map(|c| {
                let mut lines = vec![format!(
                    "{}: worst verdict {}, worst queue {}{}{}",
                    c.key(),
                    c.analysis.worst_verdict().name(),
                    c.analysis.worst_queue_class().name(),
                    c.mismatch.as_deref().map(|m| format!(", mismatch: {m}")).unwrap_or_default(),
                    c.panic.as_deref().map(|p| format!(", panic: {p}")).unwrap_or_default(),
                )];
                for cert in c.analysis.kernels.values() {
                    lines.extend(cert.findings.iter().take(3).map(|h| format!("  {h}")));
                }
                lines.join("\n")
            })
            .collect();
        assert!(report.is_green(), "static matrix is red:\n{}", red.join("\n"));
    }

    /// Satellite 4's core claim, end to end: the hidden specimen is
    /// invisible to the dynamic sanitizer under the default order AND
    /// 32 fuzzed permutations, yet the static verifier flags it; the
    /// PR-4 planted race is flagged statically too.
    #[test]
    fn specimens_gate_the_verifier() {
        specimens_caught_statically().unwrap();
        let hidden = schedule_hidden_specimen();
        assert_eq!(hidden.dynamic_violations, 0, "dynamic sanitizer must miss it");
        assert_eq!(hidden.fuzz_violations, 0, "32-permutation fuzz must miss it");
        let cert = &hidden.analysis.kernels["hidden-publish"];
        assert_eq!(cert.verdict, Verdict::Racy);
        assert!(cert.findings.iter().any(|h| h.kind == HazardKind::UnsanctionedPublish));
        assert!(
            cert.findings.iter().any(|h| h.buffer == "hidden-victim"),
            "finding names the buffer"
        );
    }

    /// The frontier axis only multiplies entries that actually route
    /// through the frontier abstraction.
    #[test]
    fn frontier_axis_matches_sensitivity() {
        let axis_of = |id: &str| frontier_axis(&crate::registry::by_id(id).unwrap(), None).len();
        assert_eq!(axis_of("gpu/bl"), 1);
        assert_eq!(axis_of("gpu/full"), 2);
        assert_eq!(axis_of("service/pooled"), 2);
    }

    /// Baseline round-trip and regression detection.
    #[test]
    fn baseline_diff_flags_regressions_only() {
        let report = run_analyze(
            &SweepOptions {
                quick: true,
                entry_filter: Some("gpu/full".into()),
                frontier: Some(FrontierKind::Single),
                ..Default::default()
            },
            |_| {},
        );
        let baseline = baseline_json(&report);
        // Round-trip: the freshly-written baseline matches itself.
        let clean = check_baseline(&report, &baseline);
        assert!(clean.ok(), "self-check failed: {:?}", clean.failures);
        assert!(clean.notes.is_empty(), "self-check drifted: {:?}", clean.notes);

        // A downgraded kernel and a vanished queue are both failures.
        let map = certificate_map(&report);
        let kernel_key = map.keys().find(|k| k.contains(" kernel ")).unwrap().clone();
        let doctored = baseline
            .replace(
                &format!("\"{kernel_key}\": \"race-free\""),
                &format!("\"{kernel_key}\": \"racy\""),
            )
            .replace(
                &format!("\"{kernel_key}\": \"sanctioned-racy\""),
                &format!("\"{kernel_key}\": \"racy\""),
            );
        let diff = check_baseline(&report, &doctored);
        assert!(
            diff.notes.iter().any(|n| n.contains("improved")),
            "downgrading the baseline should read as an improvement: {:?}",
            diff.notes
        );

        // Losing a certificate (baseline has one the run no longer
        // produces) is a failure.
        let mut with_ghost = parse_baseline(&baseline);
        with_ghost.insert("ghost@single kernel ghost".into(), "race-free".into());
        let ghost_text = {
            let mut s = String::from("{\n  \"certs\": {");
            for (i, (k, v)) in with_ghost.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\n    \"{k}\": \"{v}\""));
            }
            s.push_str("\n  }\n}\n");
            s
        };
        let diff = check_baseline(&report, &ghost_text);
        assert!(
            diff.failures.iter().any(|f| f.contains("lost certificate")),
            "missing cert must fail: {:?}",
            diff.failures
        );
    }

    /// The JSON writers escape and stay parseable by our own reader.
    #[test]
    fn baseline_json_round_trips() {
        let report = run_analyze(
            &SweepOptions {
                quick: true,
                entry_filter: Some("gpu/bl".into()),
                ..Default::default()
            },
            |_| {},
        );
        let text = baseline_json(&report);
        let parsed = parse_baseline(&text);
        assert_eq!(parsed, certificate_map(&report));
        // The rich report renders without panicking and names the cell.
        let rich = report_json(&report);
        assert!(rich.contains("\"cell\": \"gpu/bl@single\""));
    }
}
