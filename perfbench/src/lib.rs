//! The repository's benchmark: four seeded workloads driven through
//! the public API of the service, the static verifier, the sequential
//! oracle and the validator, measured on both clocks.
//!
//! * **Simulated** metrics come from a fixed *sample* — the first
//!   rounds of the timed phase, whose count is a workload constant —
//!   so they are a pure function of the seed and repeat bit for bit.
//! * **Host** metrics come from the whole timed phase, which runs for
//!   the requested number of seconds (and at least the sample).
//!
//! Every workload constant lives in [`WORKLOADS`] and the constants
//! next to it; nothing is calibrated by probing the code under test.

pub mod trace;

use rdbs_core::seq::dijkstra;
use rdbs_core::service::traffic::{AnswerSource, Outcome, SourceMix, TrafficConfig, TrafficReport};
use rdbs_core::service::{ServiceConfig, SsspService};
use rdbs_core::stats::{percentile, BatchStats};
use rdbs_core::validate::audit_sssp;
use rdbs_core::{default_delta, Csr, Dist, SsspResult, UpdateStats, VertexId};
use rdbs_gpu_sim::{Counters, DeviceConfig, KernelReport, SanConfig};
use rdbs_graph::datasets::{by_name, kronecker_spec};
use rdbs_statan::{Analysis, QueueClass, Verdict};
use std::collections::HashMap;
use std::time::Instant;
use trace::Tracer;

/// Command streams of the one resident service per run.
pub const STREAMS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Sources in the premise probe batch the traced batch runs make on
/// the other batch workload's graph.
const PROBE_SOURCES: usize = 8;

/// The device model every committed measurement uses: a V100 with
/// launch/barrier overheads and cache capacities scaled by 1/256, the
/// time-scale-preserving shrink for the 2^8-smaller stand-in graphs.
pub fn device() -> DeviceConfig {
    DeviceConfig::v100().with_overhead_scale(1.0 / 256.0).with_cache_scale(1.0 / 256.0)
}

/// Full RDBS (BASYN+PRO+ADWL), default `single` frontier and
/// `multisplit` scatter, spread over [`STREAMS`] streams.
pub fn service_config() -> ServiceConfig {
    ServiceConfig::rdbs(device()).with_streams(STREAMS)
}

/// How a workload's graph is generated from the seed.
#[derive(Clone, Copy, Debug)]
pub enum GraphRecipe {
    /// `kronecker_spec(scale, edgefactor).generate(shift, seed)`.
    Kronecker { scale: u32, edgefactor: u32, shift: u32 },
    /// `datasets::by_name(name).generate(shift, seed)`.
    Dataset { name: &'static str, shift: u32 },
}

impl GraphRecipe {
    pub fn generate(self, seed: u64) -> Csr {
        match self {
            GraphRecipe::Kronecker { scale, edgefactor, shift } => {
                kronecker_spec(scale, edgefactor).generate(shift, seed)
            }
            GraphRecipe::Dataset { name, shift } => {
                by_name(name).expect("the recipe names a Table 1 dataset").generate(shift, seed)
            }
        }
    }
}

/// The open-loop constants of `kron-traffic`, all in simulated time.
#[derive(Clone, Copy, Debug)]
pub struct Traffic {
    /// Poisson arrival rate, queries per simulated second.
    pub qps: f64,
    /// Queries offered per `serve_open_loop` round.
    pub offered: usize,
    /// `SourceMix::Hot`: the first `hot_sources` ids get `hot_weight`.
    pub hot_sources: u32,
    pub hot_weight: f64,
    /// Admission safety factor on the predicted service time.
    pub shed_margin: f64,
}

/// What one round of the timed phase does.
#[derive(Clone, Copy, Debug)]
pub enum Loop {
    /// Closed loop: `SsspService::batch` of `size` seeded sources.
    Batch { size: usize },
    /// Open loop: one `serve_open_loop` call with the answer cache on.
    Traffic(Traffic),
    /// Closed loop with the sanitizer and IR recorder armed:
    /// `arm_ir`, `batch` of `size` sources, `take_irs`, `verify`, and a
    /// per-query oracle diff plus audit — all inside the timed phase.
    Verify { size: usize },
}

/// One workload: its graph, its loop, its fixed SLO and its sample.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub graph: GraphRecipe,
    pub run: Loop,
    /// Latency limit on sojourn time, simulated ms (`slo_attainment`).
    pub slo_ms: f64,
    /// Rounds in the deterministic sample the simulated metrics use.
    pub sample_rounds: usize,
}

const KRON: GraphRecipe = GraphRecipe::Kronecker { scale: 21, edgefactor: 16, shift: 8 };
const ROAD: GraphRecipe = GraphRecipe::Dataset { name: "road-TX", shift: 7 };

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kron-batch",
        graph: KRON,
        run: Loop::Batch { size: 36 },
        slo_ms: 0.2,
        sample_rounds: 2,
    },
    Workload {
        name: "road-batch",
        graph: ROAD,
        run: Loop::Batch { size: 32 },
        slo_ms: 4.0,
        sample_rounds: 3,
    },
    Workload {
        name: "kron-traffic",
        graph: KRON,
        run: Loop::Traffic(Traffic {
            qps: 400_000.0,
            offered: 512,
            hot_sources: 8,
            hot_weight: 0.5,
            shed_margin: 2.0,
        }),
        slo_ms: 0.2,
        sample_rounds: 1,
    },
    Workload {
        name: "kron-verify",
        graph: KRON,
        run: Loop::Verify { size: 12 },
        slo_ms: 0.2,
        sample_rounds: 1,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which clock a metric is on. Simulated metrics and counts repeat
/// exactly at a seed; host metrics are wall time of this process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Sim,
    Host,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

/// Everything one run measured.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub vertices: usize,
    pub edges: usize,
    /// Offered queries in the timed phase.
    pub attempted: u64,
    /// Wrong answers (against the oracle or the audit) and traffic
    /// accounting errors, plus sanitizer violations and red certificates
    /// on `kron-verify`. A panic aborts the run; `main` reports it.
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable lines: ratio bases, tail percentiles, premise.
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

/// splitmix64, the workspace's small deterministic generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Round `round`'s `count` sources, uniform over the vertices that
/// have an edge (an isolated source measures nothing).
pub fn sources(g: &Csr, seed: u64, round: usize, count: usize) -> Vec<VertexId> {
    let eligible: Vec<VertexId> =
        (0..g.num_vertices() as VertexId).filter(|&v| g.degree(v) > 0).collect();
    assert!(!eligible.is_empty(), "the workload graph has no edges");
    let mut state = seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ (round as u64).wrapping_add(1);
    (0..count)
        .map(|_| eligible[(splitmix64(&mut state) % eligible.len() as u64) as usize])
        .collect()
}

/// Round `round`'s open-loop workload.
pub fn traffic_config(t: Traffic, slo_ms: f64, seed: u64, round: usize) -> TrafficConfig {
    let mut state = seed ^ 0x7A11_C0DE ^ ((round as u64) << 32);
    let mut cfg =
        TrafficConfig::poisson(t.qps, t.offered, slo_ms, splitmix64(&mut state)).with_cache();
    cfg.sources = SourceMix::Hot { hot_sources: t.hot_sources, hot_weight: t.hot_weight };
    cfg.shed_margin = t.shed_margin;
    cfg
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The tail of a latency sample as `(percentile, value)`: the
/// nearest-rank p90, or, when fewer than ten samples lie beyond p90,
/// the highest percentile that leaves ten beyond it (the 11th-largest
/// sample); the median when the sample is too small for either. Above
/// p90 the sample thins out, and on `kron-traffic` the 11th-largest of
/// ~220 moved by 22% between seeds.
fn tail(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    if n <= 20 {
        return (50.0, percentile(v, 50.0).unwrap_or(0.0));
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let beyond = (n / 10).max(10);
    (100.0 * (n - beyond) as f64 / n as f64, s[n - beyond - 1])
}

/// Peak resident set (VmHWM) of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds this thread has run on a CPU (`/proc/thread-self/schedstat`).
fn cpu_secs() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse::<f64>().ok()))
        .map_or(0.0, |ns| ns / 1e9)
}

/// Simulated-time sums over a slice of kernel reports, by RDBS phase.
#[derive(Clone, Debug, Default)]
struct KernelSums {
    phase1_ns: f64,
    phase1_waves: u64,
    phase2_ns: f64,
    phase3_ns: f64,
    heavy_offsets_ns: f64,
    all_ns: f64,
}

fn kernel_sums(reports: &[KernelReport]) -> KernelSums {
    let mut k = KernelSums::default();
    for r in reports {
        k.all_ns += r.total_ns;
        match r.name {
            n if n.starts_with("phase1_") => {
                k.phase1_ns += r.total_ns;
                k.phase1_waves += u64::from(!r.child);
            }
            "phase2_heavy" => k.phase2_ns += r.total_ns,
            "phase3_collect" => k.phase3_ns += r.total_ns,
            "update_heavy_offsets" => k.heavy_offsets_ns += r.total_ns,
            _ => {}
        }
    }
    k
}

/// Atomics on the frontier's queue buffers (data and cursor cells).
fn queue_atomics(svc: &SsspService) -> u64 {
    let is_queue = |label: &str| {
        label.starts_with("workload_")
            || label.starts_with("queue_")
            || label == "bucket_members"
            || label == "mlmq_lane"
    };
    svc.buffer_traffic()
        .unwrap_or_default()
        .into_iter()
        .filter(|row| is_queue(row.0))
        .map(|row| row.3)
        .sum()
}

/// Device state at one instant, for deltas.
#[derive(Clone, Debug)]
struct DeviceMark {
    counters: Counters,
    reports: usize,
    queue_atomics: u64,
}

impl DeviceMark {
    fn take(svc: &SsspService) -> Self {
        Self {
            counters: svc.device_counters().expect("single-GPU backend").clone(),
            reports: svc.kernel_reports().map_or(0, <[KernelReport]>::len),
            queue_atomics: queue_atomics(svc),
        }
    }
}

/// The deterministic sample: device and service state after the
/// sample rounds, plus what those rounds answered.
struct Sample {
    stats: BatchStats,
    start: DeviceMark,
    end: DeviceMark,
    kernels: KernelSums,
    /// Simulated ms the sample rounds occupied (stream makespan).
    makespan_ms: f64,
    /// Device-run results (for the Δ/work accounting).
    device_results: Vec<UpdateSummary>,
    /// Open-loop reports of the sample rounds.
    traffic: Vec<TrafficReport>,
    /// Static analysis of the sample rounds.
    analysis: Option<Analysis>,
}

/// The per-query work counters the layer metrics need.
#[derive(Clone, Debug)]
struct UpdateSummary {
    stats: UpdateStats,
    valid: u64,
}

impl UpdateSummary {
    fn of(r: &SsspResult) -> Self {
        Self { stats: r.stats.clone(), valid: UpdateStats::valid_updates(&r.dist) }
    }
}

/// Host timings the traced part of the timed phase collects.
#[derive(Default)]
struct HostLayers {
    /// Per-call seconds of `batch` / `serve_open_loop`.
    call_secs: Vec<f64>,
    /// Warp instructions and kernel reports those calls added.
    call_warp_insts: u64,
    call_waves: u64,
    /// Per-round `take_irs` + `verify` seconds.
    statan_secs: Vec<f64>,
}

/// The timed phase's schedule: rounds run until `seconds` have passed
/// and the sample is complete. In a traced run odd rounds are traced
/// and even rounds are not, so the two halves see the same warm state
/// and the same source distribution; their per-query host times give
/// the tracing overhead. Round 0 pays one-time costs (the extra
/// streams' lanes, cold host caches) and is left out of that
/// comparison.
struct Schedule {
    seconds: f64,
    min_rounds: usize,
    traced_run: bool,
    start: Instant,
    rounds: usize,
    /// Offered queries of all rounds.
    offered: u64,
    /// Wall seconds and offered queries of untraced / traced rounds
    /// after round 0.
    untraced: (f64, u64),
    traced: (f64, u64),
    wall_s: f64,
}

impl Schedule {
    fn new(seconds: f64, traced_run: bool, sample: usize) -> Self {
        // A traced run needs a round of each kind after round 0.
        let min_rounds = if traced_run { sample.max(3) } else { sample };
        let start = Instant::now();
        Self {
            seconds,
            min_rounds,
            traced_run,
            start,
            rounds: 0,
            offered: 0,
            untraced: (0.0, 0),
            traced: (0.0, 0),
            wall_s: 0.0,
        }
    }

    /// `Some(traced)` for the next round, `None` when the phase is over.
    fn next(&mut self) -> Option<bool> {
        let elapsed = self.start.elapsed().as_secs_f64();
        if self.rounds < self.min_rounds || elapsed < self.seconds {
            Some(self.traced_run && !self.rounds.is_multiple_of(2))
        } else {
            self.wall_s = elapsed;
            None
        }
    }

    fn done(&mut self, traced: bool, secs: f64, offered: u64) {
        if self.rounds > 0 {
            let part = if traced { &mut self.traced } else { &mut self.untraced };
            part.0 += secs;
            part.1 += offered;
        }
        self.rounds += 1;
        self.offered += offered;
    }
}

/// Diff answers against `seq::dijkstra` (one oracle run per distinct
/// source) and audit each; returns the number that fail.
fn check_answers(
    g: &Csr,
    answers: &[SsspResult],
    oracle: &mut HashMap<VertexId, Vec<Dist>>,
    tracer: &mut Tracer,
    seq_secs: &mut Vec<f64>,
    audit_secs: &mut Vec<f64>,
    first_query: u64,
) -> u64 {
    let mut failed = 0;
    for (i, r) in answers.iter().enumerate() {
        let q = Some(first_query + i as u64);
        let want = oracle.entry(r.source).or_insert_with(|| {
            let (res, secs) = tracer.time("seq.dijkstra", q, || dijkstra(g, r.source));
            seq_secs.push(secs);
            res.dist
        });
        let right = *want == r.dist;
        let (audit, secs) = tracer.time("validate.audit", q, || audit_sssp(g, r.source, &r.dist));
        audit_secs.push(secs);
        if !right || !audit.is_clean() {
            failed += 1;
        }
    }
    failed
}

fn red_certificates(a: &Analysis) -> (u64, u64) {
    let racy = a.kernels.values().filter(|c| c.verdict == Verdict::Racy).count() as u64;
    let overflowing =
        a.queues.values().filter(|q| q.class == QueueClass::Overflowing).count() as u64;
    (racy, overflowing)
}

/// The premise-check quantities of one batch: phase-1 waves per query,
/// phase 2's share of kernel time, and frontier atomics per relaxed
/// edge (check).
#[derive(Clone, Copy, Debug)]
struct Profile {
    waves_per_query: f64,
    phase2_share: f64,
    atomics_per_check: f64,
}

/// [`Profile`] of one small batch of workload `w` at `seed`.
fn premise_probe(w: &Workload, seed: u64) -> Profile {
    let g = w.graph.generate(seed);
    let mut svc = SsspService::new(&g, service_config());
    let before = DeviceMark::take(&svc);
    let out = svc.batch(&sources(&g, seed, 0, PROBE_SOURCES));
    let after = DeviceMark::take(&svc);
    let k = kernel_sums(&svc.kernel_reports().expect("single-GPU")[before.reports..]);
    let atomics =
        after.counters.inst_executed_global_atomics - before.counters.inst_executed_global_atomics;
    let checks: u64 = out.iter().map(|r| r.stats.checks).sum();
    Profile {
        waves_per_query: k.phase1_waves as f64 / PROBE_SOURCES as f64,
        phase2_share: ratio(k.phase2_ns, k.all_ns),
        atomics_per_check: ratio(atomics as f64, checks as f64),
    }
}

/// Run one workload: set up, run the timed phase for `seconds`, check
/// every answer, and compute every metric. `traced` splits the timed
/// phase into untraced and traced rounds and records spans.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut tracer = Tracer::new(traced);
    let mut notes = Vec::new();

    // ---- Set-up: graph generation + service construction, repeated.
    let setup_span = tracer.enter("setup", None);
    let (mut gen_secs, mut new_secs, mut pro_secs, mut setup_secs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut built: Option<(Csr, SsspService)> = None;
    for _ in 0..SETUP_REPS {
        drop(built.take()); // free the previous set-up before building the next
        let (g, gen) = tracer.time("graph.generate", None, || w.graph.generate(seed));
        let (svc, new) =
            tracer.time("service.new", None, || SsspService::new(&g, service_config()));
        setup_secs.push(gen + new);
        gen_secs.push(gen);
        new_secs.push(new);
        if traced {
            // PRO on its own (it also runs inside `service.new`).
            let (_, pro) =
                tracer.time("graph.pro", None, || rdbs_graph::reorder::pro(&g, default_delta(&g)));
            pro_secs.push(pro);
        }
        built = Some((g, svc));
    }
    tracer.exit(setup_span);
    let (g, mut svc) = built.expect("at least one set-up");
    let edges = g.num_edges();
    let h2d_words = svc.device_counters().expect("single-GPU").h2d_words;
    let start = DeviceMark::take(&svc);
    if matches!(w.run, Loop::Verify { .. }) {
        svc.arm_sanitizer(SanConfig::default());
    }

    // ---- Timed phase.
    let cpu0 = cpu_secs();
    let mut schedule = Schedule::new(seconds, traced, w.sample_rounds);
    let mut oracle: HashMap<VertexId, Vec<Dist>> = HashMap::new();
    let (mut seq_secs, mut audit_secs) = (Vec::new(), Vec::new());
    let mut sample: Option<Sample> = None;
    let mut host = HostLayers::default();
    let mut answers: Vec<SsspResult> = Vec::new();
    let mut sample_results: Vec<UpdateSummary> = Vec::new();
    let mut sample_traffic: Vec<TrafficReport> = Vec::new();
    let mut sample_analysis: Option<Analysis> = None;
    let mut full_analysis = Analysis::default();
    let mut failed = 0u64;
    let mut accounting_errors = Vec::new();
    let mut armed_round0_secs = 0.0;
    while let Some(traced_round) = schedule.next() {
        let round = schedule.rounds;
        let round_started = Instant::now();
        tracer.set_enabled(traced_round);
        let round_span = tracer.enter("round", Some(round as u64));
        let in_sample = round < w.sample_rounds;
        let before = traced_round.then(|| DeviceMark::take(&svc));
        let offered = match w.run {
            Loop::Batch { size } | Loop::Verify { size } => {
                let srcs = sources(&g, seed, round, size);
                let q0 = Some((round * size) as u64);
                let verify = matches!(w.run, Loop::Verify { .. });
                if verify {
                    tracer.time("service.arm_ir", q0, || svc.arm_ir());
                }
                let (out, secs) = tracer.time("service.batch", q0, || svc.batch(&srcs));
                if traced_round {
                    host.call_secs.push(secs);
                }
                if round == 0 {
                    armed_round0_secs = secs;
                }
                if in_sample {
                    sample_results.extend(out.iter().map(UpdateSummary::of));
                }
                if verify {
                    let (irs, take_s) = tracer.time("service.take_irs", q0, || svc.take_irs());
                    let (analysis, verify_s) = tracer.time("statan.verify", q0, || {
                        let mut a = Analysis::default();
                        for ir in &irs {
                            a.merge(rdbs_statan::verify(ir));
                        }
                        a
                    });
                    if traced_round {
                        host.statan_secs.push(take_s + verify_s);
                    }
                    if in_sample {
                        sample_analysis
                            .get_or_insert_with(Analysis::default)
                            .merge(analysis.clone());
                    }
                    full_analysis.merge(analysis);
                    let (mut s, mut a) = (Vec::new(), Vec::new());
                    failed += check_answers(&g, &out, &mut oracle, &mut tracer, &mut s, &mut a, 0);
                    if traced_round {
                        seq_secs.extend(s);
                        audit_secs.extend(a);
                    }
                } else {
                    answers.extend(out);
                }
                size as u64
            }
            Loop::Traffic(t) => {
                let cfg = traffic_config(t, w.slo_ms, seed, round);
                let stats_before = svc.stats();
                let q0 = Some((round * t.offered) as u64);
                let (report, secs) = tracer.time("traffic.serve", q0, || svc.serve_open_loop(&cfg));
                if traced_round {
                    host.call_secs.push(secs);
                }
                if let Err(m) = report.check_accounting(&stats_before, &svc.stats()) {
                    accounting_errors.push(format!("round {round}: {m}"));
                    failed += report.offered as u64;
                }
                for o in &report.outcomes {
                    if let Outcome::Exact { result, via, .. } = o {
                        if in_sample && *via == AnswerSource::Device {
                            sample_results.push(UpdateSummary::of(result));
                        }
                        answers.push(result.clone());
                    }
                }
                let offered = report.offered as u64;
                if in_sample {
                    sample_traffic.push(report);
                }
                offered
            }
        };
        if let Some(before) = before {
            let after = DeviceMark::take(&svc);
            host.call_warp_insts += after.counters.inst_executed - before.counters.inst_executed;
            host.call_waves += (after.reports - before.reports) as u64;
        }
        tracer.exit(round_span);
        schedule.done(traced_round, round_started.elapsed().as_secs_f64(), offered);
        if schedule.rounds == w.sample_rounds {
            let end = DeviceMark::take(&svc);
            let stats = svc.stats();
            let kernels =
                kernel_sums(&svc.kernel_reports().expect("single-GPU")[start.reports..end.reports]);
            let makespan_ms = match w.run {
                Loop::Traffic(_) => sample_traffic.iter().map(|r| r.makespan_ms).sum(),
                _ => stats.sim_batch_ms,
            };
            sample = Some(Sample {
                stats,
                start: start.clone(),
                end,
                kernels,
                makespan_ms,
                device_results: std::mem::take(&mut sample_results),
                traffic: std::mem::take(&mut sample_traffic),
                analysis: sample_analysis.take(),
            });
        }
    }
    tracer.set_enabled(traced);
    notes.push(format!(
        "timed phase: {:.3} s wall, {:.3} s cpu",
        schedule.wall_s,
        cpu_secs() - cpu0
    ));
    let (untraced_s, offered_untraced) = schedule.untraced;
    let (traced_s, offered_traced) = schedule.traced;
    let attempted = schedule.offered;

    // ---- Correctness gate (outside the timed phase).
    let gate_span = tracer.enter("check", None);
    failed +=
        check_answers(&g, &answers, &mut oracle, &mut tracer, &mut seq_secs, &mut audit_secs, 0);
    tracer.exit(gate_span);
    let (racy, overflowing) = red_certificates(&full_analysis);
    let violations = svc.san_total();
    if matches!(w.run, Loop::Verify { .. }) {
        failed += violations + racy + overflowing;
    }
    for e in &accounting_errors {
        notes.push(format!("traffic accounting error: {e}"));
    }

    // ---- Probes only the traced run makes.
    let mut unarmed_round0_secs = 0.0;
    let mut premise: Option<(bool, String)> = None;
    if traced {
        tracer.set_enabled(false);
        if let Loop::Verify { size } = w.run {
            let mut plain = SsspService::new(&g, service_config());
            let srcs = sources(&g, seed, 0, size);
            let t = Instant::now();
            plain.batch(&srcs);
            unarmed_round0_secs = t.elapsed().as_secs_f64();
        }
    }

    let sample = sample.expect("the schedule always runs the sample");
    let mut r = Metrics::default();
    let st = &sample.stats;
    let c0 = &sample.start.counters;
    let c1 = &sample.end.counters;

    // ---- End-to-end metrics.
    r.e2e("setup_s", median(&setup_secs), "s", Clock::Host);
    // Host throughput is printed but not bounded: on a shared host it
    // swings by up to 1.8x between minutes (README, "Host clock").
    notes.push(format!(
        "host_qps = offered / timed wall s = {attempted} / {:.3} = {:.4}",
        schedule.wall_s,
        ratio(attempted as f64, schedule.wall_s)
    ));
    r.e2e("peak_rss_mb", peak_rss_mb(), "MB", Clock::Host);
    let device_answered = st.per_query_sim_ms.len();
    let gteps = ratio(edges as f64 * device_answered as f64, sample.makespan_ms * 1e-3) / 1e9;
    r.e2e("sim_gteps", gteps, "GTEPS", Clock::Sim);
    let pct = |v: &[f64], p: f64| percentile(v, p).unwrap_or(0.0);
    let (svc_p, svc_tail) = tail(&st.per_query_sim_ms);
    r.e2e("sim_service_p50_ms", pct(&st.per_query_sim_ms, 50.0), "ms", Clock::Sim);
    r.e2e("sim_service_tail_ms", svc_tail, "ms", Clock::Sim);
    notes.push(format!(
        "sim_service_tail_ms = p{svc_p:.1} of {} device-answered queries",
        st.per_query_sim_ms.len()
    ));
    let (sojourns, offered_sample, met) = match w.run {
        Loop::Traffic(_) => {
            let mut soj = Vec::new();
            let mut met = 0;
            let mut offered = 0;
            for (round, rep) in sample.traffic.iter().enumerate() {
                let before = met;
                offered += rep.offered;
                for o in &rep.outcomes {
                    if let Outcome::Exact { sojourn_ms, via, .. } = o {
                        // Cache hits answer at release, off the device
                        // timeline; their effect shows in the admitted
                        // queries' queueing and in slo_attainment.
                        if *via != AnswerSource::Cache {
                            soj.push(*sojourn_ms);
                        }
                        met += usize::from(*sojourn_ms <= w.slo_ms + 1e-9);
                    }
                }
                notes.push(format!(
                    "traffic round {round}: offered {}, shed {}, cache hits {}, within SLO {}",
                    rep.offered,
                    rep.shed,
                    rep.cache_hits,
                    met - before
                ));
            }
            (soj, offered, met)
        }
        _ => {
            let soj = st.per_query_sojourn_ms.clone();
            let met = soj.iter().filter(|&&s| s <= w.slo_ms + 1e-9).count();
            let offered = match w.run {
                Loop::Batch { size } | Loop::Verify { size } => size * w.sample_rounds,
                Loop::Traffic(_) => unreachable!(),
            };
            (soj, offered, met)
        }
    };
    let (soj_p, soj_tail) = tail(&sojourns);
    r.e2e("sojourn_p50_ms", pct(&sojourns, 50.0), "ms", Clock::Sim);
    r.e2e("sojourn_tail_ms", soj_tail, "ms", Clock::Sim);
    r.e2e("slo_attainment", ratio(met as f64, offered_sample as f64), "ratio", Clock::Sim);
    notes.push(format!(
        "sojourn_tail_ms = p{soj_p:.1} of {} answered queries; slo_attainment = within {} ms / \
         offered = {met} / {offered_sample}",
        sojourns.len(),
        w.slo_ms
    ));
    notes.push(format!("failed_ratio = failed / attempted = {failed} / {attempted}"));

    // ---- Per-layer metrics.
    r.layer("graph.generate_s", median(&gen_secs), "s", Clock::Host);
    r.layer("graph.pro_s", median(&pro_secs), "s", Clock::Host);
    r.layer("service.new_s", median(&new_secs), "s", Clock::Host);
    r.layer("service.h2d_words", h2d_words as f64, "words", Clock::Sim);
    r.layer("service.pool_allocs", st.pool_allocs as f64, "count", Clock::Sim);
    r.layer("service.pool_reuses", st.pool_reuses as f64, "count", Clock::Sim);
    let batch_calls = !matches!(w.run, Loop::Traffic(_));
    let call_s = median(&host.call_secs);
    r.layer("service.batch_s", if batch_calls { call_s } else { 0.0 }, "s", Clock::Host);
    r.layer("service.escalations", st.escalations as f64, "count", Clock::Sim);
    r.layer("service.fallbacks", st.fallbacks as f64, "count", Clock::Sim);
    r.layer("service.inflight_peak", st.inflight_peak as f64, "count", Clock::Sim);
    let util = ratio(sample.kernels.all_ns / 1e6, STREAMS as f64 * sample.makespan_ms);
    r.layer("service.stream_utilization", util, "ratio", Clock::Sim);
    notes.push(format!(
        "service.stream_utilization = kernel time / (streams x makespan) = {:.4} ms / ({STREAMS} x {:.4} ms)",
        sample.kernels.all_ns / 1e6,
        sample.makespan_ms
    ));

    let tr = &sample.traffic;
    let sum = |f: &dyn Fn(&TrafficReport) -> usize| tr.iter().map(f).sum::<usize>() as f64;
    let offered_t = sum(&|x| x.offered);
    let hits = sum(&|x| x.cache_hits);
    let queue_waits: Vec<f64> = tr
        .iter()
        .flat_map(|x| &x.outcomes)
        .filter_map(|o| match o {
            Outcome::Exact { queue_ms, via, .. } if *via != AnswerSource::Cache => Some(*queue_ms),
            _ => None,
        })
        .collect();
    r.layer("traffic.serve_s", if batch_calls { 0.0 } else { call_s }, "s", Clock::Host);
    r.layer("traffic.admitted", sum(&|x| x.device_answered + x.fallbacks), "count", Clock::Sim);
    r.layer("traffic.shed", sum(&|x| x.shed), "count", Clock::Sim);
    r.layer("traffic.deadline_violations", sum(&|x| x.deadline_violations), "count", Clock::Sim);
    r.layer("traffic.queue_wait_p50_ms", pct(&queue_waits, 50.0), "ms", Clock::Sim);
    r.layer("cache.hit_ratio", ratio(hits, offered_t), "ratio", Clock::Sim);
    if !tr.is_empty() {
        notes.push(format!("cache.hit_ratio = hits / offered = {hits} / {offered_t}"));
    }

    let k = &sample.kernels;
    let cfg = device();
    let d = |f: fn(&Counters) -> u64| (f(c1) - f(c0)) as f64;
    let launches = d(|c| c.kernel_launches);
    let children = d(|c| c.child_kernel_launches);
    let barriers = d(|c| c.barriers);
    let overhead_ms = (launches * cfg.kernel_launch_us
        + children * cfg.child_launch_us
        + barriers * cfg.barrier_us)
        / 1e3;
    let nq = sample.device_results.len() as f64;
    r.layer("rdbs.phase1_sim_ms", k.phase1_ns / 1e6, "ms", Clock::Sim);
    r.layer("rdbs.phase1_waves", k.phase1_waves as f64, "count", Clock::Sim);
    r.layer("rdbs.phase2_heavy_sim_ms", k.phase2_ns / 1e6, "ms", Clock::Sim);
    r.layer("rdbs.phase3_collect_sim_ms", k.phase3_ns / 1e6, "ms", Clock::Sim);
    r.layer("rdbs.heavy_offsets_sim_ms", k.heavy_offsets_ns / 1e6, "ms", Clock::Sim);
    r.layer("rdbs.launch_barrier_sim_ms", overhead_ms, "ms", Clock::Sim);
    let res = &sample.device_results;
    let buckets: f64 = res.iter().map(|u| u.stats.buckets() as f64).sum();
    let layers: f64 =
        res.iter().map(|u| u.stats.phase1_layers.iter().map(|&l| f64::from(l)).sum::<f64>()).sum();
    let total_updates: u64 = res.iter().map(|u| u.stats.total_updates).sum();
    let valid: u64 = res.iter().map(|u| u.valid).sum();
    let checks: u64 = res.iter().map(|u| u.stats.checks).sum();
    r.layer("rdbs.buckets_per_query", ratio(buckets, nq), "1/query", Clock::Sim);
    r.layer("rdbs.phase1_layers_per_query", ratio(layers, nq), "1/query", Clock::Sim);
    r.layer("rdbs.work_ratio", ratio(total_updates as f64, valid as f64), "ratio", Clock::Sim);
    r.layer("rdbs.checks", checks as f64, "count", Clock::Sim);
    notes.push(format!(
        "sample = {} device-run queries; rdbs.work_ratio = total / valid updates = \
         {total_updates} / {valid}",
        res.len()
    ));

    let atomics = d(|c| c.inst_executed_global_atomics);
    r.layer("frontier.global_atomics", atomics, "count", Clock::Sim);
    r.layer("frontier.atomic_conflicts", d(|c| c.atomic_conflicts), "count", Clock::Sim);
    let q_atomics = (sample.end.queue_atomics - sample.start.queue_atomics) as f64;
    r.layer("frontier.queue_atomics", q_atomics, "count", Clock::Sim);

    let warp_insts = d(|c| c.inst_executed);
    r.layer("gpu-sim.warp_insts", warp_insts, "count", Clock::Sim);
    r.layer("gpu-sim.gld_transactions", d(|c| c.gld_transactions), "count", Clock::Sim);
    r.layer("gpu-sim.gst_transactions", d(|c| c.gst_transactions), "count", Clock::Sim);
    r.layer("gpu-sim.atom_transactions", d(|c| c.atom_transactions), "count", Clock::Sim);
    r.layer("gpu-sim.dram_bytes", d(Counters::dram_bytes), "B-computed", Clock::Sim);
    let l1 = ratio(d(|c| c.l1_hits), d(|c| c.l1_accesses));
    let l2 = ratio(d(|c| c.l2_hits), d(|c| c.l2_accesses));
    r.layer("gpu-sim.l1_hit_rate", l1, "ratio", Clock::Sim);
    r.layer("gpu-sim.l2_hit_rate", l2, "ratio", Clock::Sim);
    let eff = ratio(d(|c| c.active_lane_sum), d(|c| c.lane_slot_sum));
    r.layer("gpu-sim.warp_efficiency", eff, "ratio", Clock::Sim);
    r.layer("gpu-sim.kernel_launches", launches, "count", Clock::Sim);
    r.layer("gpu-sim.child_launches", children, "count", Clock::Sim);
    r.layer("gpu-sim.barriers", barriers, "count", Clock::Sim);
    let call_total: f64 = host.call_secs.iter().sum();
    let ns_per_inst = ratio(call_total * 1e9, host.call_warp_insts as f64);
    let us_per_wave = ratio(call_total * 1e6, host.call_waves as f64);
    r.layer("gpu-sim.host_ns_per_warp_inst", ns_per_inst, "ns", Clock::Host);
    r.layer("gpu-sim.host_us_per_wave", us_per_wave, "us", Clock::Host);
    notes.push(format!(
        "gpu-sim.host_ns_per_warp_inst = traced call time / warp insts = {call_total:.4} s / {}; \
         host_us_per_wave = that time / {} kernel reports",
        host.call_warp_insts, host.call_waves
    ));

    let verify = matches!(w.run, Loop::Verify { .. });
    let san_batch_s = if verify { call_s } else { 0.0 };
    let slowdown = ratio(armed_round0_secs, unarmed_round0_secs);
    r.layer("san.batch_s", san_batch_s, "s", Clock::Host);
    r.layer("san.slowdown", slowdown, "ratio", Clock::Host);
    r.layer("san.violations", violations as f64, "count", Clock::Sim);
    if verify {
        notes.push(format!(
            "san.slowdown = armed / unarmed host time of round 0 = {armed_round0_secs:.4} s / \
             {unarmed_round0_secs:.4} s"
        ));
    }
    let analysis = sample.analysis.clone().unwrap_or_default();
    r.layer("ir.windows", analysis.windows as f64, "count", Clock::Sim);
    r.layer("ir.peak_window_words", analysis.peak_window_words as f64, "words", Clock::Sim);
    r.layer("statan.verify_s", median(&host.statan_secs), "s", Clock::Host);
    r.layer("statan.racy", red_certificates(&analysis).0 as f64, "count", Clock::Sim);
    r.layer("seq.dijkstra_ms_per_query", mean(&seq_secs) * 1e3, "ms", Clock::Host);
    r.layer("validate.audit_ms_per_query", mean(&audit_secs) * 1e3, "ms", Clock::Host);

    // ---- Tracing overhead and span coverage.
    let qps_untraced = ratio(offered_untraced as f64, untraced_s);
    let qps_traced = ratio(offered_traced as f64, traced_s);
    r.layer("trace.host_qps_untraced", qps_untraced, "1/s", Clock::Host);
    r.layer("trace.host_qps_traced", qps_traced, "1/s", Clock::Host);
    let overhead = ratio(qps_untraced, qps_traced);
    r.layer("trace.overhead_ratio", overhead, "ratio", Clock::Host);
    let (layer_s, round_s) = round_coverage(&tracer);
    let coverage = ratio(layer_s, round_s);
    r.layer("trace.span_coverage", coverage, "ratio", Clock::Host);
    if traced {
        notes.push(format!(
            "trace.overhead_ratio = untraced / traced host_qps = {qps_untraced:.4} / {qps_traced:.4} \
             ({offered_untraced} queries in {untraced_s:.3} s vs {offered_traced} in {traced_s:.3} s)"
        ));
        notes.push(format!(
            "trace.span_coverage = layer spans / traced round wall = {layer_s:.4} s / {round_s:.4} s; \
             layer spans per query {:.5} s vs untraced host time per query {:.5} s",
            ratio(layer_s, offered_traced as f64),
            ratio(untraced_s, offered_untraced as f64)
        ));
        premise = premise_check(w, seed, &r, nq, &sample, queue_waits.iter().copied());
    }
    let holds = premise.as_ref().is_none_or(|p| p.0);
    r.layer("premise.holds", f64::from(u8::from(holds)), "bool", Clock::Sim);
    if let Some((ok, line)) = premise {
        notes.push(format!("premise {}: {line}", if ok { "holds" } else { "FAILS" }));
    }

    Report {
        workload: w.name,
        seed,
        vertices: g.num_vertices(),
        edges,
        attempted,
        failed,
        end_to_end: r.e2e,
        per_layer: r.layers,
        notes,
        tracer,
    }
}

/// Seconds the layer spans cover inside the traced rounds, and those
/// rounds' total span time.
fn round_coverage(tracer: &Tracer) -> (f64, f64) {
    let (mut covered, mut total) = (0.0, 0.0);
    for (id, s) in tracer.spans().iter().enumerate().filter(|(_, s)| s.name == "round") {
        covered += s.secs() - tracer.self_secs(id);
        total += s.secs();
    }
    (covered, total)
}

/// The workload-premise check: does this seed still separate the
/// layers the workload exists for?
fn premise_check(
    w: &Workload,
    seed: u64,
    r: &Metrics,
    nq: f64,
    sample: &Sample,
    mut queue_waits: impl Iterator<Item = f64>,
) -> Option<(bool, String)> {
    let get = |name: &str| r.layers.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    let own = Profile {
        waves_per_query: ratio(get("rdbs.phase1_waves"), nq),
        phase2_share: ratio(sample.kernels.phase2_ns, sample.kernels.all_ns),
        atomics_per_check: ratio(get("frontier.global_atomics"), get("rdbs.checks")),
    };
    let other = |name| workload(name).expect("a listed workload");
    Some(match w.name {
        "kron-batch" | "road-batch" => {
            let (kron, road) = if w.name == "kron-batch" {
                (own, premise_probe(other("road-batch"), seed))
            } else {
                (premise_probe(other("kron-batch"), seed), own)
            };
            let ok = road.waves_per_query >= 10.0 * kron.waves_per_query
                && kron.phase2_share > road.phase2_share;
            (
                ok,
                format!(
                    "phase-1 waves/query road {:.1} >= 10 x kron {:.1}; phase-2 share of kernel \
                     time kron {:.3} > road {:.3}. Not required: frontier atomics per relaxed \
                     edge kron {:.4} > road {:.4} is {}",
                    road.waves_per_query,
                    kron.waves_per_query,
                    kron.phase2_share,
                    road.phase2_share,
                    kron.atomics_per_check,
                    road.atomics_per_check,
                    kron.atomics_per_check > road.atomics_per_check
                ),
            )
        }
        "kron-traffic" => {
            let shed: usize = sample.traffic.iter().map(|x| x.shed).sum();
            let hits: usize = sample.traffic.iter().map(|x| x.cache_hits).sum();
            let waited = queue_waits.any(|q| q > 0.0);
            (
                shed > 0 && hits > 0 && waited,
                format!("shed {shed} > 0, hits {hits} > 0, queue wait > 0: {waited}"),
            )
        }
        _ => {
            let s = get("san.slowdown");
            (s > 1.0, format!("san.slowdown {s:.2} > 1"))
        }
    })
}

#[derive(Default)]
struct Metrics {
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
}

impl Metrics {
    fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, clock: Clock) {
        self.e2e.push(Metric { name, value, unit, clock });
    }

    fn layer(&mut self, name: &'static str, value: f64, unit: &'static str, clock: Clock) {
        self.layers.push(Metric { name, value, unit, clock });
    }
}
