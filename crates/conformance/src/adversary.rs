//! Adversarial chaos: sanitizer-guided fault placement search and
//! seeded schedule fuzzing.
//!
//! The plain chaos matrix ([`crate::chaos`]) sprays faults uniformly
//! and asks "did anything lie?". This module replaces spraying with a
//! **budgeted placement search** that actively hunts for the fault
//! placements that hurt the most:
//!
//! 1. **Scout** — run the entry fault-free with the memory-model
//!    sanitizer armed and harvest an access profile
//!    ([`rdbs_gpu_sim::AccessProfile`]): the hottest contended words,
//!    the atomic-vs-plain overlap sites, and every kernel's wave
//!    window. The Dijkstra oracle contributes the *deep frontier* —
//!    the last-settled vertices, whose distances depend on the longest
//!    relaxation chains and are therefore the most fragile.
//! 2. **Search** — spend a fixed budget of injection runs on
//!    [`FaultSpec`]s pinned to those targets via [`FaultTarget`]
//!    (site, index window, wave window, stream), first sampling the
//!    target pool, then mutating the best candidate found so far
//!    (rate bumps, seed redraws, target swaps, window widening).
//! 3. **Score** — each candidate is graded by how deep it drove the
//!    recovery ladder, read off the rung that certified its answer:
//!    `clean(0) < repair-sweep(1) < rerun(2) < host / explicit
//!    error(3) < silent-wrong(4 — jackpot)`. A
//!    silent wrong answer is the invariant violation the whole
//!    robustness layer exists to rule out, so finding one is the
//!    search's jackpot *and* a red build.
//!
//! The same budget is also spent on **uniformly sampled** untargeted
//! plans at the matrix default rates, so every sweep reports the
//! targeted-vs-uniform margin — the evidence that scouting pays.
//!
//! Every scored candidate that survives into the **corpus** is
//! serialized as one plain-text `key=value` line ([`corpus_lines`])
//! and replays bit-for-bit through the ordinary chaos cell runner
//! ([`replay_case`]): same spec, same score, same verdict.
//!
//! Schedule fuzzing ([`fuzz_schedules`]) attacks the other
//! nondeterminism axis: each [`FUZZ`] entry's scenario — the service
//! entries through the service itself — is re-executed with the
//! seeded lane-permutation fuzzer armed
//! ([`rdbs_gpu_sim::Device::arm_schedule_fuzz`]) *and* the sanitizer
//! watching, across many permutation seeds. Green requires every
//! permuted run to stay oracle-correct with zero violations, and the
//! planted-race specimen to stay detected under permutation — a
//! sanitizer that goes blind when the schedule shifts is worthless.

use crate::chaos::{self, default_rate, CellVerdict};
use crate::graphs::{self, GraphCase};
use crate::registry::{self, Entry, Instruments, SweepOptions, FAULTS, FRONTIER, FUZZ};
use crate::sanitize;
use rdbs_core::gpu::{run_gpu_on, FrontierKind};
use rdbs_core::recover::AnswerSource;
use rdbs_core::seq::dijkstra;
use rdbs_core::{Csr, VertexId, INF};
use rdbs_gpu_sim::{
    splitmix64, Device, DeviceConfig, FaultModel, FaultSpec, FaultTarget, SanCheck, SanConfig,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

// ---------------------------------------------------------------------------
// Deterministic search PRNG (splitmix64, same generator the fault and
// schedule plans use — the whole search is a pure function of its seed).
// ---------------------------------------------------------------------------

struct SearchRng {
    state: u64,
}

impl SearchRng {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

// ---------------------------------------------------------------------------
// Scoring: recovery-ladder depth.
// ---------------------------------------------------------------------------

/// Jackpot score: a silently wrong answer.
pub const SCORE_SILENT_WRONG: u32 = 4;

/// How deep a graded cell drove the recovery ladder, read off the rung
/// that certified its answer. Monotone in damage: `0` clean, `1` the
/// repair sweep, `2` the device rerun, `3` host Dijkstra or a loud
/// error, `4` silent wrong answer (the jackpot — and a red build).
pub fn ladder_depth(via: Option<AnswerSource>, verdict: &CellVerdict) -> u32 {
    match (verdict, via) {
        (CellVerdict::SilentWrong(_), _) => SCORE_SILENT_WRONG,
        (CellVerdict::Error(_), _) | (_, Some(AnswerSource::Host)) => 3,
        (_, Some(AnswerSource::Rerun)) => 2,
        (_, Some(AnswerSource::Repair)) => 1,
        (_, Some(AnswerSource::Cache | AnswerSource::Device) | None) => 0,
    }
}

/// Human label for a ladder-depth score.
pub fn depth_label(score: u32) -> &'static str {
    match score {
        0 => "clean",
        1 => "repair-sweep",
        2 => "rerun",
        3 => "host/error",
        _ => "SILENT-WRONG",
    }
}

// ---------------------------------------------------------------------------
// Scouting: access profile + deep frontier → target pool.
// ---------------------------------------------------------------------------

/// What the fault-free sanitized scouting pass learned about an entry
/// on one graph.
#[derive(Clone, Debug, Default)]
pub struct ScoutIntel {
    /// Hottest contended words: shared between lanes *and* hit by
    /// atomics, `(buffer, index)`.
    pub hot_words: Vec<(&'static str, u32)>,
    /// Most-loaded buffers (loads summed across words) — read-hot
    /// topology whose corruption propagates to every consumer.
    pub hot_read_buffers: Vec<&'static str>,
    /// Atomic-vs-plain overlap sites, `(buffer, index)`.
    pub overlap_words: Vec<(&'static str, u32)>,
    /// Per-kernel `(name, first_wave, last_wave)` windows.
    pub kernel_windows: Vec<(&'static str, u64, u64)>,
    /// Total waves the fault-free run executed.
    pub waves: u64,
    /// Deepest-settled vertices (largest finite oracle distance) — the
    /// audit's most fragile tight-edge chains end here.
    pub deep_vertices: Vec<VertexId>,
}

/// How many top sites / deep vertices the scout keeps per category.
const SCOUT_KEEP: usize = 6;

/// Run the entry's kernel variant fault-free under the sanitizer and
/// harvest targeting intel. Entries without a kernel variant still get
/// the oracle-derived deep frontier; their profile-derived pools stay
/// empty and the search falls back to the unconstrained target.
pub fn scout(entry: &Entry, graph: &Csr, source: VertexId, oracle_dist: &[u32]) -> ScoutIntel {
    let mut intel = ScoutIntel::default();
    if let Some(variant) = entry.variant {
        let mut device = Device::new(DeviceConfig::test_tiny());
        device.arm_sanitizer(SanConfig::default());
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let _ = run_gpu_on(&mut device, graph, source, variant);
        }))
        .is_ok();
        if ran {
            if let Some(profile) = device.san_profile() {
                intel.hot_words = profile
                    .hottest_contended(SCOUT_KEEP)
                    .into_iter()
                    .map(|(b, i, _)| (b, i))
                    .collect();
                intel.hot_read_buffers =
                    profile.hottest_buffers(SCOUT_KEEP).into_iter().map(|(b, _)| b).collect();
                intel.overlap_words =
                    profile.overlap_sites(SCOUT_KEEP).into_iter().map(|(b, i, _)| (b, i)).collect();
                intel.kernel_windows = profile.kernel_windows();
                intel.waves = profile.waves();
            }
        }
    }
    let mut reached: Vec<(u32, VertexId)> = oracle_dist
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != INF && d > 0)
        .map(|(v, &d)| (d, v as VertexId))
        .collect();
    reached.sort_by(|a, b| b.cmp(a)); // deepest first, deterministic
    intel.deep_vertices = reached.into_iter().take(SCOUT_KEEP).map(|(_, v)| v).collect();
    intel
}

/// The deterministic opening book of the search: `(model, rate,
/// target)` pairings ranked by expected damage, derived straight from
/// the scouted intel. A bit flip in read-hot topology hits every
/// downstream consumer; a total atomic-min drop on a contended
/// distance word starves the longest relaxation chains; a stale read
/// at an atomic/plain overlap site resurrects dead snapshots; a failed
/// child launch inside a kernel's own wave window severs dynamic
/// parallelism where it actually fires.
fn playbook(intel: &ScoutIntel) -> Vec<(FaultModel, f64, FaultTarget)> {
    let mut book: Vec<(FaultModel, f64, FaultTarget)> = Vec::new();
    let site_pin = |site| FaultTarget { site: Some(site), index: None, wave: None, stream: None };
    for &site in &intel.hot_read_buffers {
        book.push((FaultModel::BitFlip, 1.0, site_pin(site)));
    }
    let mut seen_hot: Vec<&'static str> = Vec::new();
    for &(site, _) in &intel.hot_words {
        if !seen_hot.contains(&site) {
            seen_hot.push(site);
            book.push((FaultModel::DroppedAtomicMin, 1.0, site_pin(site)));
            book.push((FaultModel::DuplicatedAtomicMin, 1.0, site_pin(site)));
        }
    }
    let mut seen_overlap: Vec<&'static str> = Vec::new();
    for &(site, _) in &intel.overlap_words {
        if !seen_overlap.contains(&site) {
            seen_overlap.push(site);
            book.push((FaultModel::StaleRead, 1.0, site_pin(site)));
        }
    }
    for &(kernel, lo, hi) in &intel.kernel_windows {
        // Only dynamically launched kernels have a launch to fail.
        if kernel.contains("child") {
            book.push((
                FaultModel::FailedChildLaunch,
                1.0,
                FaultTarget { site: Some(kernel), index: None, wave: Some((lo, hi)), stream: None },
            ));
        }
    }
    for &v in &intel.deep_vertices {
        let window = (v.saturating_sub(1), v.saturating_add(1));
        book.push((
            FaultModel::DroppedAtomicMin,
            1.0,
            FaultTarget { site: Some("dist"), index: Some(window), wave: None, stream: None },
        ));
    }
    book
}

/// Build the pool of candidate [`FaultTarget`]s the search draws from.
fn target_pool(intel: &ScoutIntel) -> Vec<FaultTarget> {
    let mut pool: Vec<FaultTarget> = Vec::new();
    let mut push = |t: FaultTarget| {
        if !pool.contains(&t) {
            pool.push(t);
        }
    };
    for &(site, idx) in intel.hot_words.iter().chain(&intel.overlap_words) {
        push(FaultTarget { site: Some(site), index: Some((idx, idx)), wave: None, stream: None });
        push(FaultTarget { site: Some(site), index: None, wave: None, stream: None });
    }
    for &site in &intel.hot_read_buffers {
        push(FaultTarget { site: Some(site), index: None, wave: None, stream: None });
    }
    for &(kernel, lo, hi) in &intel.kernel_windows {
        // Wave pins bite for every model; the site doubles as the
        // child-kernel name pin for failed-launch faults.
        push(FaultTarget { site: None, index: None, wave: Some((lo, hi)), stream: None });
        push(FaultTarget { site: Some(kernel), index: None, wave: Some((lo, hi)), stream: None });
    }
    for &v in &intel.deep_vertices {
        // The deep frontier lives in the distance/pending arrays.
        let window = (v.saturating_sub(1), v.saturating_add(1));
        push(FaultTarget { site: Some("dist"), index: Some(window), wave: None, stream: None });
        push(FaultTarget { site: Some("pending"), index: Some(window), wave: None, stream: None });
    }
    if pool.is_empty() {
        pool.push(FaultTarget::ANY);
    }
    pool
}

/// The rate ladder the search climbs; mutation bumps toward 1.0.
const RATES: [f64; 3] = [0.1, 0.5, 1.0];

// ---------------------------------------------------------------------------
// The search.
// ---------------------------------------------------------------------------

/// One scored injection candidate (targeted or uniform).
#[derive(Clone, Debug)]
pub struct Candidate {
    pub spec: FaultSpec,
    /// Ladder depth, 0..=4 — see [`ladder_depth`].
    pub score: u32,
    /// `"correct"`, `"error"` or `"silent-wrong"`.
    pub verdict: &'static str,
    pub injections: u64,
}

fn verdict_name(v: &CellVerdict) -> &'static str {
    match v {
        CellVerdict::Correct => "correct",
        CellVerdict::Error(_) => "error",
        CellVerdict::SilentWrong(_) => "silent-wrong",
    }
}

/// The placement search for one `(entry, graph)` cell pair.
#[derive(Clone, Debug)]
pub struct AttackRun {
    pub entry_id: &'static str,
    pub graph: &'static str,
    /// The forced frontier layout the entry ran on, if one applied.
    pub frontier: Option<FrontierKind>,
    pub source: VertexId,
    /// Scouting summary: waves profiled and targets pooled.
    pub waves: u64,
    pub pool_size: usize,
    /// Replayable worst-case corpus, deepest-first.
    pub corpus: Vec<Candidate>,
    /// Best ladder depth a *targeted* candidate reached.
    pub best_targeted: u32,
    /// Best ladder depth an equal-budget *uniform* candidate reached.
    pub best_uniform: u32,
    /// Silent-wrong candidates found (targeted + uniform) — any makes
    /// the sweep red.
    pub silent_wrong: usize,
}

/// Outcome of an adversarial sweep.
#[derive(Clone, Debug, Default)]
pub struct AdversaryReport {
    pub runs: Vec<AttackRun>,
}

impl AdversaryReport {
    /// Green iff no candidate — targeted or uniform — produced a
    /// silently wrong answer.
    pub fn is_green(&self) -> bool {
        self.runs.iter().all(|r| r.silent_wrong == 0)
    }
}

fn sample_target(rng: &mut SearchRng, pool: &[FaultTarget]) -> FaultTarget {
    pool[rng.below(pool.len())]
}

fn sample_fresh(rng: &mut SearchRng, models: &[FaultModel], pool: &[FaultTarget]) -> FaultSpec {
    let model = models[rng.below(models.len())];
    let rate = RATES[rng.below(RATES.len())];
    let seed = rng.next_u64() % 1024;
    FaultSpec::new(model, rate, seed).with_target(sample_target(rng, pool))
}

/// Mutate the best candidate so far toward more damage: bump the rate
/// up the ladder, redraw the plan seed, swap the target, or widen the
/// target's windows.
fn mutate(rng: &mut SearchRng, best: FaultSpec, pool: &[FaultTarget]) -> FaultSpec {
    let mut spec = best;
    match rng.below(4) {
        0 => {
            let next =
                RATES.iter().copied().find(|&r| r > spec.rate).unwrap_or(RATES[RATES.len() - 1]);
            spec.rate = next;
        }
        1 => spec.seed = rng.next_u64() % 1024,
        2 => spec.target = Some(sample_target(rng, pool)),
        _ => {
            let mut t = spec.target.unwrap_or(FaultTarget::ANY);
            if let Some((lo, hi)) = t.index {
                t.index = Some((lo.saturating_sub(2), hi.saturating_add(2)));
            }
            if let Some((lo, hi)) = t.wave {
                t.wave = Some((lo.saturating_sub(1), hi.saturating_add(1)));
            }
            spec.target = Some(t);
        }
    }
    spec
}

/// Run the budgeted placement search for one `(entry, graph)` pair.
/// Deterministic in `(opts.seed, opts.budget)`: same corpus, same
/// scores, same worst plan.
pub fn attack(entry: &Entry, family: &GraphCase, opts: &SweepOptions) -> AttackRun {
    let graph = family.build();
    let source = family.sources(graph.num_vertices())[0];
    let oracle = dijkstra(&graph, source);
    let intel = scout(entry, &graph, source, &oracle.dist);
    let pool = target_pool(&intel);
    let book = playbook(&intel);
    let models = FaultModel::ALL;

    // Independent deterministic streams for the targeted search and the
    // uniform baseline, both derived from (seed, entry, graph).
    let mix = |tag: u64| {
        let mut h = opts.seed() ^ tag;
        for b in entry.id.bytes().chain(family.name.bytes()) {
            h = h.wrapping_mul(0x100_0000_01B3).wrapping_add(u64::from(b));
        }
        h
    };
    let mut rng = SearchRng::new(mix(0x5EED));
    let mut best: Option<Candidate> = None;
    let mut corpus: Vec<Candidate> = Vec::new();
    let mut silent_wrong = 0usize;
    let mut spent = 0u64;

    // Per-candidate allowance: an even split of the injection budget
    // across the evaluation slots, so one opportunity-rich placement
    // (e.g. a bit flip pinned to the most-loaded buffer) cannot starve
    // the rest of the opening book.
    let allowance = (opts.budget / u64::from(opts.max_evals.max(1))).max(1);

    let mut i = 0u32;
    while spent < opts.budget && i < opts.max_evals {
        // Opening book first (deterministic damage-ranked pairings from
        // the scouted intel), then mutate the best plan found so far,
        // falling back to fresh pool samples until something scores.
        // Every candidate is capped at its allowance and at the arm's
        // remaining injection budget, so the search can never
        // overspend.
        let spec = if let Some(&(model, rate, target)) = book.get(i as usize) {
            FaultSpec::new(model, rate, rng.next_u64() % 1024).with_target(target)
        } else {
            match &best {
                Some(b) if b.score > 0 => mutate(&mut rng, b.spec, &pool),
                _ => sample_fresh(&mut rng, &models, &pool),
            }
        }
        .with_cap(allowance.min(opts.budget - spent));
        let cell = chaos::run_cell(entry, family.name, &graph, &oracle.dist, source, spec);
        let cand = Candidate {
            spec,
            score: ladder_depth(cell.via, &cell.verdict),
            verdict: verdict_name(&cell.verdict),
            injections: cell.injections,
        };
        spent += cand.injections;
        if matches!(cell.verdict, CellVerdict::SilentWrong(_)) {
            silent_wrong += 1;
        }
        if best.as_ref().is_none_or(|b| cand.score > b.score) {
            best = Some(cand.clone());
        }
        corpus.push(cand);
        i += 1;
    }
    let best_targeted = best.as_ref().map_or(0, |b| b.score);

    // The uniform baseline: untargeted plans at the matrix default
    // rates, spending the same injection budget under the same cap
    // discipline.
    let mut urng = SearchRng::new(mix(0x0F_F5E7));
    let mut best_uniform = 0u32;
    let mut uspent = 0u64;
    let mut uevals = 0u32;
    while uspent < opts.budget && uevals < opts.max_evals {
        let model = models[urng.below(models.len())];
        let spec = FaultSpec::new(model, default_rate(model), urng.next_u64() % 1024)
            .with_cap(allowance.min(opts.budget - uspent));
        let cell = chaos::run_cell(entry, family.name, &graph, &oracle.dist, source, spec);
        uspent += cell.injections;
        if matches!(cell.verdict, CellVerdict::SilentWrong(_)) {
            silent_wrong += 1;
        }
        best_uniform = best_uniform.max(ladder_depth(cell.via, &cell.verdict));
        uevals += 1;
    }

    // Deepest-first corpus, discovery order breaking ties (stable sort
    // keeps determinism).
    corpus.sort_by_key(|c| std::cmp::Reverse(c.score));
    corpus.truncate(opts.corpus_keep);

    AttackRun {
        entry_id: entry.id,
        graph: family.name,
        frontier: opts.frontier.filter(|_| entry.has(FRONTIER)),
        source,
        waves: intel.waves,
        pool_size: pool.len(),
        corpus,
        best_targeted,
        best_uniform,
        silent_wrong,
    }
}

/// Sweep the adversarial search over the [`FAULTS`] entries ×
/// families. Deterministic in `(seed, budget, max_evals)`. `progress`
/// is called once per completed `(entry, graph)` attack.
pub fn run_adversary(opts: &SweepOptions, mut progress: impl FnMut(&AttackRun)) -> AdversaryReport {
    let entries = opts.entries(FAULTS);
    let mut report = AdversaryReport::default();
    for family in &opts.families() {
        for entry in &entries {
            let run = attack(entry, family, opts);
            progress(&run);
            report.runs.push(run);
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Corpus serialization + replay.
// ---------------------------------------------------------------------------

fn fmt_opt_u32_range(r: Option<(u32, u32)>) -> String {
    r.map_or_else(|| "-".into(), |(lo, hi)| format!("{lo}..{hi}"))
}

fn fmt_opt_u64_range(r: Option<(u64, u64)>) -> String {
    r.map_or_else(|| "-".into(), |(lo, hi)| format!("{lo}..{hi}"))
}

/// Serialize a sweep's corpus: one `key=value` line per kept
/// candidate, `#`-prefixed header. Every line replays through
/// [`parse_corpus_line`] + [`replay_case`] to the same score and
/// verdict.
pub fn corpus_lines(report: &AdversaryReport) -> String {
    let mut out =
        String::from("# rdbs adversarial corpus v1: one fault placement per line, deepest first\n");
    for run in &report.runs {
        for c in &run.corpus {
            let t = c.spec.target.unwrap_or(FaultTarget::ANY);
            // The layout is recorded only when a forced one applied:
            // corpora searched without an override carry no field.
            let frontier =
                run.frontier.map_or_else(String::new, |f| format!(" frontier={}", f.name()));
            out.push_str(&format!(
                "entry={} graph={}{frontier} source={} model={} rate={} seed={} cap={} site={} \
                 index={} wave={} stream={} score={} verdict={}\n",
                run.entry_id,
                run.graph,
                run.source,
                c.spec.model.name(),
                c.spec.rate,
                c.spec.seed,
                c.spec.cap.map_or_else(|| "-".into(), |n| n.to_string()),
                t.site.unwrap_or("-"),
                fmt_opt_u32_range(t.index),
                fmt_opt_u64_range(t.wave),
                t.stream.map_or_else(|| "-".into(), |s| s.to_string()),
                c.score,
                c.verdict,
            ));
        }
    }
    out
}

/// One parsed corpus line, ready to replay.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusCase {
    pub entry_id: String,
    pub graph: String,
    /// The forced frontier layout the search ran the entry on.
    pub frontier: Option<FrontierKind>,
    pub source: VertexId,
    pub spec: FaultSpec,
    /// Score and verdict recorded at search time.
    pub score: u32,
    pub verdict: String,
}

/// Intern a parsed site name. Buffer labels in the simulator are all
/// `&'static str` compile-time constants, so a round-tripped name
/// almost always matches one of the known labels; an unknown name is
/// leaked once (corpus files are small and bounded).
fn intern_site(name: &str) -> &'static str {
    const KNOWN: [&str; 11] = [
        "row_offsets",
        "adjacency",
        "weights",
        "light_ranges",
        "dist",
        "pending",
        "queue_tail",
        "queue_overflow",
        "bl_mask",
        "relax",
        "drain",
    ];
    if let Some(k) = KNOWN.iter().find(|&&k| k == name) {
        return k;
    }
    Box::leak(name.to_owned().into_boxed_str())
}

fn parse_range<T: std::str::FromStr + Copy>(s: &str) -> Option<Option<(T, T)>> {
    if s == "-" {
        return Some(None);
    }
    let (lo, hi) = s.split_once("..")?;
    Some(Some((lo.parse().ok()?, hi.parse().ok()?)))
}

/// Parse one corpus line (`None` for headers, blanks and junk).
pub fn parse_corpus_line(line: &str) -> Option<CorpusCase> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let mut kv = std::collections::BTreeMap::new();
    for tok in line.split_whitespace() {
        let (k, v) = tok.split_once('=')?;
        kv.insert(k, v);
    }
    let model_name = *kv.get("model")?;
    let model = FaultModel::ALL.into_iter().find(|m| m.name() == model_name)?;
    let site = match *kv.get("site")? {
        "-" => None,
        s => Some(intern_site(s)),
    };
    let index = parse_range::<u32>(kv.get("index")?)?;
    let wave = parse_range::<u64>(kv.get("wave")?)?;
    let stream = match *kv.get("stream")? {
        "-" => None,
        s => Some(s.parse().ok()?),
    };
    let mut spec =
        FaultSpec::new(model, kv.get("rate")?.parse().ok()?, kv.get("seed")?.parse().ok()?)
            .with_target(FaultTarget { site, index, wave, stream });
    spec.cap = match *kv.get("cap")? {
        "-" => None,
        s => Some(s.parse().ok()?),
    };
    let frontier = match kv.get("frontier") {
        Some(name) => Some(FrontierKind::parse(name)?),
        None => None,
    };
    Some(CorpusCase {
        entry_id: (*kv.get("entry")?).to_string(),
        graph: (*kv.get("graph")?).to_string(),
        frontier,
        source: kv.get("source")?.parse().ok()?,
        spec,
        score: kv.get("score")?.parse().ok()?,
        verdict: (*kv.get("verdict")?).to_string(),
    })
}

/// Replay a corpus case through the ordinary chaos cell runner, on the
/// frontier layout the line records.
/// Returns `(score, verdict)` — a healthy corpus replays every line to
/// its recorded values. `None` when the entry or graph no longer
/// exists.
pub fn replay_case(case: &CorpusCase) -> Option<(u32, &'static str)> {
    let entry = registry::all().into_iter().find(|e| e.id == case.entry_id && e.has(FAULTS))?;
    let entry = case.frontier.map_or(entry, |kind| entry.with_frontier(kind));
    let family = graphs::families().into_iter().find(|f| f.name == case.graph)?;
    let graph = family.build();
    let oracle = dijkstra(&graph, case.source);
    let cell = chaos::run_cell(&entry, family.name, &graph, &oracle.dist, case.source, case.spec);
    Some((ladder_depth(cell.via, &cell.verdict), verdict_name(&cell.verdict)))
}

// ---------------------------------------------------------------------------
// Schedule fuzzing.
// ---------------------------------------------------------------------------

/// One permuted execution of one entry on one graph.
#[derive(Clone, Debug)]
pub struct FuzzCell {
    pub entry_id: &'static str,
    pub graph: &'static str,
    pub source: VertexId,
    pub perm_seed: u64,
    /// Oracle-correct under the permuted schedule.
    pub correct: bool,
    /// Sanitizer violations under the permuted schedule (must be 0).
    pub violations: u64,
    pub panic: Option<String>,
}

impl FuzzCell {
    pub fn is_clean(&self) -> bool {
        self.correct && self.violations == 0 && self.panic.is_none()
    }
}

/// Outcome of a schedule-fuzzing sweep.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    pub cells: Vec<FuzzCell>,
    /// The planted-race specimen stayed detected under every
    /// permutation seed — proof the sanitizer does not go blind when
    /// the schedule shifts.
    pub specimen_alive: bool,
}

impl FuzzReport {
    /// Green iff every permuted run was oracle-correct with zero
    /// violations and the permuted specimen stayed detected.
    pub fn is_green(&self) -> bool {
        self.specimen_alive && self.cells.iter().all(FuzzCell::is_clean)
    }

    pub fn dirty_cells(&self) -> impl Iterator<Item = &FuzzCell> {
        self.cells.iter().filter(|c| !c.is_clean())
    }
}

/// The planted-race specimen (`sanitize::planted_race`) re-run under
/// one permutation seed. Returns whether the write-write race was
/// still detected.
pub fn permuted_specimen_detected(perm_seed: u64) -> bool {
    let arm = Instruments { sanitizer: true, permute: Some(perm_seed), ..Instruments::default() };
    let device = sanitize::planted_race(&arm);
    device.san_violations().iter().any(|v| v.check == SanCheck::WriteWriteRace)
}

/// Re-execute each [`FUZZ`] entry's scenario under `perms` seeded lane
/// permutations with the sanitizer armed. `progress` fires per cell.
pub fn fuzz_schedules(opts: &SweepOptions, mut progress: impl FnMut(&FuzzCell)) -> FuzzReport {
    let entries = opts.entries(FUZZ);
    let mut rng = SearchRng::new(opts.seed());
    let perm_seeds: Vec<u64> = (0..opts.perms).map(|_| rng.next_u64()).collect();
    let mut report = FuzzReport {
        cells: Vec::new(),
        specimen_alive: perm_seeds.iter().all(|&s| permuted_specimen_detected(s)),
    };
    for family in &opts.families() {
        let graph = family.build();
        let source = family.sources(graph.num_vertices())[0];
        let oracle = dijkstra(&graph, source);
        for entry in &entries {
            for &perm_seed in &perm_seeds {
                let seen = sanitize::run_cell(entry, &graph, &oracle.dist, source, Some(perm_seed));
                let cell = FuzzCell {
                    entry_id: entry.id,
                    graph: family.name,
                    source,
                    perm_seed,
                    correct: seen.mismatch.is_none() && seen.panic.is_none(),
                    violations: seen.total,
                    panic: seen.panic,
                };
                progress(&cell);
                report.cells.push(cell);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> SweepOptions {
        SweepOptions {
            quick: true,
            entry_filter: Some("gpu/full".into()),
            graph_filter: Some("erdos".into()),
            budget: 48,
            max_evals: 6,
            corpus_keep: 3,
            ..SweepOptions::default()
        }
    }

    #[test]
    fn scout_harvests_profile_and_deep_frontier() {
        let entry = registry::by_id("gpu/full").unwrap();
        let family =
            graphs::quick_families().into_iter().find(|f| f.name == "erdos-renyi").unwrap();
        let graph = family.build();
        let source = family.sources(graph.num_vertices())[0];
        let oracle = dijkstra(&graph, source);
        let intel = scout(&entry, &graph, source, &oracle.dist);
        assert!(intel.waves > 0, "sanitized scout saw no waves");
        assert!(!intel.kernel_windows.is_empty(), "no kernel windows profiled");
        assert!(!intel.deep_vertices.is_empty(), "no deep frontier derived");
        // The distance array is the contended heart of the algorithm —
        // the profile must surface it as a target.
        let pool = target_pool(&intel);
        assert!(
            pool.iter().any(|t| t.site == Some("dist")),
            "target pool never pins the distance array: {pool:?}"
        );
    }

    #[test]
    fn search_is_deterministic_in_seed_and_budget() {
        let opts = small_opts();
        let a = run_adversary(&opts, |_| {});
        let b = run_adversary(&opts, |_| {});
        assert_eq!(corpus_lines(&a), corpus_lines(&b));
        assert_eq!(a.runs.len(), b.runs.len());
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.best_targeted, y.best_targeted);
            assert_eq!(x.best_uniform, y.best_uniform);
        }
    }

    #[test]
    fn corpus_round_trips_and_replays_to_recorded_verdicts() {
        let report = run_adversary(&small_opts(), |_| {});
        let text = corpus_lines(&report);
        let cases: Vec<CorpusCase> = text.lines().filter_map(parse_corpus_line).collect();
        let kept: usize = report.runs.iter().map(|r| r.corpus.len()).sum();
        assert_eq!(cases.len(), kept);
        for case in &cases {
            let (score, verdict) = replay_case(case).expect("replay target vanished");
            assert_eq!(score, case.score, "replayed score diverged for {case:?}");
            assert_eq!(verdict, case.verdict, "replayed verdict diverged for {case:?}");
        }
    }

    /// Regression: a corpus searched under a forced frontier records
    /// the layout and replays on it. Replayed on the entry's own layout
    /// instead, this search's bit flip on the concurrent service scores
    /// 1 where the search recorded 2.
    #[test]
    fn corpus_replays_on_the_recorded_frontier() {
        let opts = SweepOptions {
            quick: true,
            entry_filter: Some("service/concurrent".into()),
            graph_filter: Some("erdos".into()),
            frontier: Some(FrontierKind::Mlmq),
            budget: 32,
            max_evals: 8,
            ..SweepOptions::default()
        };
        let text = corpus_lines(&run_adversary(&opts, |_| {}));
        let cases: Vec<CorpusCase> = text.lines().filter_map(parse_corpus_line).collect();
        assert!(!cases.is_empty(), "no corpus:\n{text}");
        for case in &cases {
            assert_eq!(case.frontier, Some(FrontierKind::Mlmq), "{case:?}");
            let (score, verdict) = replay_case(case).expect("replay target vanished");
            assert_eq!((score, verdict), (case.score, case.verdict.as_str()), "{case:?}");
        }
    }

    #[test]
    fn adversarial_search_never_finds_silent_wrong() {
        // The acceptance gate: a targeted search hunting for the
        // jackpot must still come up empty — the robustness layer
        // holds under adversarial placement, not just uniform spray.
        let report = run_adversary(&SweepOptions { budget: 64, ..small_opts() }, |_| {});
        assert!(report.is_green(), "adversarial search found a silent wrong answer");
    }

    #[test]
    fn targeted_search_beats_uniform_at_equal_budget() {
        // The reason the adversary exists: at the same injection
        // budget, scouted placement must drive the recovery ladder
        // strictly deeper than uniform spray on at least one entry.
        // On the refaulting entry the scouted book reaches the
        // degraded rung (3) while uniform spray at this budget stalls
        // at the repair sweep (1).
        let opts = SweepOptions {
            quick: true,
            entry_filter: Some("gpu/refault".into()),
            graph_filter: Some("erdos".into()),
            budget: 32,
            seeds: vec![3],
            ..SweepOptions::default()
        };
        let report = run_adversary(&opts, |_| {});
        assert!(report.is_green());
        let run = &report.runs[0];
        assert!(
            run.best_targeted > run.best_uniform,
            "targeted {} ({}) did not beat uniform {} ({})",
            run.best_targeted,
            depth_label(run.best_targeted),
            run.best_uniform,
            depth_label(run.best_uniform),
        );
    }

    #[test]
    fn schedule_fuzz_quick_sweep_is_clean_and_specimen_stays_alive() {
        let opts = SweepOptions {
            quick: true,
            entry_filter: Some("gpu/full".into()),
            perms: 8,
            ..SweepOptions::default()
        };
        let report = fuzz_schedules(&opts, |_| {});
        assert!(!report.cells.is_empty());
        assert!(report.specimen_alive, "sanitizer went blind under permutation");
        let dirty: Vec<String> = report
            .dirty_cells()
            .map(|c| {
                format!(
                    "{} on {} perm {}: correct={} violations={} panic={:?}",
                    c.entry_id, c.graph, c.perm_seed, c.correct, c.violations, c.panic
                )
            })
            .collect();
        assert!(report.is_green(), "permuted schedules broke:\n{}", dirty.join("\n"));
    }

    #[test]
    fn ladder_depth_orders_outcomes() {
        use AnswerSource::{Cache, Device, Host, Repair, Rerun};
        let depth = |via| ladder_depth(Some(via), &CellVerdict::Correct);
        assert_eq!([Cache, Device, Repair, Rerun, Host].map(depth), [0, 0, 1, 2, 3]);
        assert_eq!(ladder_depth(None, &CellVerdict::Error("boom".into())), 3);
        let wrong = CellVerdict::SilentWrong(rdbs_core::validate::Mismatch {
            vertex: 1,
            expected: 2,
            actual: 3,
        });
        assert_eq!(ladder_depth(Some(Device), &wrong), SCORE_SILENT_WRONG);
    }
}
