//! Open-loop traffic tier for [`SsspService`]: seeded arrival
//! processes, deadline-aware dispatch, admission control with typed
//! shedding, and the `(generation, source)` answer cache — and the
//! service's one scheduler.
//!
//! Closed-loop batches ([`SsspService::batch`]) measure *service*
//! latency under a workload that politely waits for the previous
//! answer. Real traffic does not wait: queries arrive on their own
//! clock, queue behind busy streams, and experience *sojourn* time —
//! queueing plus service — which is the number an SLO is written
//! against. This module drives the service the open-loop way:
//!
//! * **Arrivals** are generated over simulated time by a seeded
//!   Poisson or bursty two-state MMPP process
//!   ([`generate_arrivals`]), with a uniform or hot-set source mix.
//! * **Dispatch** runs on the shared wall timeline exposed by
//!   [`rdbs_gpu_sim::StreamSet`] (`wall_ns`/`advance_to`): the stream
//!   furthest behind steps next, a free stream waits idle until the
//!   next arrival instead of running work "in the past", and among
//!   waiting queries the earliest-deadline-first one is served. A
//!   closed-loop batch is the degenerate workload — every query
//!   arrives at t = 0 with an infinite deadline and the cache off — so
//!   no stream ever waits, the earliest wall frontier is the least
//!   busy stream, and EDF over equal deadlines is first-come.
//! * **Admission control** predicts each query's completion from an
//!   EWMA of observed service times; a query whose predicted sojourn
//!   blows its SLO deadline is refused with a typed
//!   [`Rejected`] — never a silently wrong, stale, or truncated
//!   answer. With [`TrafficConfig::approx_on_shed`] a refused query
//!   may instead receive a landmark triangle-inequality *upper bound*,
//!   explicitly flagged approximate ([`Outcome::Approx`]).
//! * **The answer cache** ([`super::cache::AnswerCache`]) serves
//!   repeat sources bit-identically without touching the device, keyed
//!   by `(generation, source)` so a graph swap can never leak a stale
//!   answer.
//!
//! Everything is deterministic: arrivals derive from
//! [`TrafficConfig::seed`] via splitmix64, the scheduler's event order
//! is a function of the simulated clocks, and the device is the same
//! deterministic simulator the rest of the workspace uses.

use super::cache::{AnswerCache, CacheConfig};
use super::{escalate_queues, note_query_parts, peak_overlap, run_on_lane, SsspService};
use crate::gpu::rdbs::RdbsDriver;
pub use crate::recover::AnswerSource;
use crate::recover::{recover, Detection, RecoveredRun, Rerun};
use crate::stats::{percentile, SsspResult, UpdateStats};
use crate::{Dist, VertexId};
use rdbs_gpu_sim::{splitmix64, StreamSet};
use std::sync::Arc;
use std::time::Instant;

/// Seeded arrival process over simulated time.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `qps` queries per simulated second.
    Poisson { qps: f64 },
    /// Bursty two-state Markov-modulated Poisson process: exponential
    /// dwell times of mean `mean_dwell_ms` alternate between a slow
    /// and a fast Poisson phase.
    Mmpp { slow_qps: f64, fast_qps: f64, mean_dwell_ms: f64 },
}

/// How query sources are drawn.
#[derive(Clone, Copy, Debug)]
pub enum SourceMix {
    /// Uniform over the graph's vertices.
    Uniform,
    /// With probability `hot_weight`, uniform over the first
    /// `hot_sources` vertex ids (the skewed mix the answer cache
    /// exists for); otherwise uniform over all vertices.
    Hot { hot_sources: u32, hot_weight: f64 },
}

/// Open-loop workload description.
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    pub arrivals: ArrivalProcess,
    /// Number of queries offered.
    pub offered: usize,
    /// Seed for the arrival/source/deadline draws.
    pub seed: u64,
    /// Sojourn SLO, simulated milliseconds from arrival.
    pub slo_ms: f64,
    pub sources: SourceMix,
    /// Safety factor multiplying the predicted service time in the
    /// admission test (≥ 1.0 sheds earlier, holding the answered tail
    /// further under the SLO).
    pub shed_margin: f64,
    /// Enable the answer cache with this sizing; `None` disables it.
    pub cache: Option<CacheConfig>,
    /// Serve a landmark upper bound (flagged approximate) instead of
    /// shedding when one is available. Only sound on symmetric graphs
    /// — every `build_undirected` graph qualifies — hence opt-in.
    pub approx_on_shed: bool,
}

impl TrafficConfig {
    /// Poisson arrivals at `qps` with a uniform source mix and the
    /// cache disabled.
    pub fn poisson(qps: f64, offered: usize, slo_ms: f64, seed: u64) -> Self {
        Self {
            arrivals: ArrivalProcess::Poisson { qps },
            offered,
            seed,
            slo_ms,
            sources: SourceMix::Uniform,
            shed_margin: 1.0,
            cache: None,
            approx_on_shed: false,
        }
    }

    /// Same, with the cache enabled at its default sizing.
    pub fn with_cache(mut self) -> Self {
        self.cache = Some(CacheConfig::default());
        self
    }
}

/// One offered query on the simulated wall timeline (times are
/// milliseconds since the serve call's start).
#[derive(Clone, Copy, Debug)]
pub struct Query {
    pub source: VertexId,
    pub arrival_ms: f64,
    /// Absolute deadline: `arrival_ms` + the query's SLO.
    pub deadline_ms: f64,
}

/// A typed admission refusal — the only way the tier declines a query.
#[derive(Clone, Debug, PartialEq)]
pub struct Rejected {
    pub source: VertexId,
    pub arrival_ms: f64,
    pub deadline_ms: f64,
    /// The completion the admission test predicted, ms — at or past
    /// the deadline by construction.
    pub predicted_completion_ms: f64,
}

/// Per-query outcome, in arrival order.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// An exact answer, certified by the recovery ladder (or replayed
    /// from the cache, which holds only certified answers).
    Exact {
        result: SsspResult,
        /// The rung that certified the answer, or the cache.
        via: AnswerSource,
        /// What the detectors saw on the device attempt (nothing for a
        /// cache replay).
        detection: Detection,
        arrival_ms: f64,
        /// Arrival → completion on the wall timeline.
        sojourn_ms: f64,
        /// Arrival → dispatch (zero for cache hits).
        queue_ms: f64,
    },
    /// A landmark triangle-inequality upper bound — every entry is
    /// ≥ the true distance, explicitly flagged by this variant.
    Approx { source: VertexId, upper: Vec<Dist>, arrival_ms: f64, sojourn_ms: f64 },
    /// Refused by admission control.
    Rejected(Rejected),
}

/// What one [`SsspService::serve_open_loop`] call did.
#[derive(Clone, Debug)]
pub struct TrafficReport {
    /// Per-query outcomes, in arrival order.
    pub outcomes: Vec<Outcome>,
    pub offered: usize,
    /// Exact answers (device + fallback + cache).
    pub exact: usize,
    /// Flagged approximate answers.
    pub approx: usize,
    /// Typed rejections.
    pub shed: usize,
    /// Exact answers the device produced: certified as they stood, by
    /// the repair sweep or by a rerun.
    pub device_answered: usize,
    /// Exact answers certified by host Dijkstra.
    pub fallbacks: usize,
    pub cache_hits: usize,
    /// The workload's base SLO, for reporting.
    pub slo_ms: f64,
    /// Wall time the serve call occupied, ms (idle waits included).
    pub makespan_ms: f64,
    /// Exact answers completed past their deadline (admission predicts;
    /// it does not guarantee).
    pub deadline_violations: usize,
}

impl Outcome {
    /// The answer of a closed-loop query, which is never shed or
    /// approximated.
    pub(super) fn into_exact(self) -> SsspResult {
        match self {
            Outcome::Exact { result, .. } => result,
            _ => unreachable!("a closed-loop query is never shed or approximated"),
        }
    }
}

impl TrafficReport {
    /// Sojourns of the exact answers, ms, completion untracked
    /// (arrival order).
    pub fn answered_sojourns_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Exact { sojourn_ms, .. } => Some(*sojourn_ms),
                _ => None,
            })
            .collect()
    }

    /// Nearest-rank percentile of answered (exact) sojourns, ms.
    pub fn answered_percentile_ms(&self, p: f64) -> Option<f64> {
        percentile(&self.answered_sojourns_ms(), p)
    }

    /// Exact-hit rate over offered queries.
    pub fn hit_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.offered as f64
        }
    }

    /// Internal-consistency audit of the accounting — the CLI smoke
    /// gate. `before`/`after` are the service's
    /// [`crate::stats::BatchStats`] bracketing the serve call.
    pub fn check_accounting(
        &self,
        before: &crate::stats::BatchStats,
        after: &crate::stats::BatchStats,
    ) -> Result<(), String> {
        let fail = |msg: String| Err(msg);
        if self.outcomes.len() != self.offered {
            return fail(format!("{} outcomes for {} offered", self.outcomes.len(), self.offered));
        }
        if self.exact + self.approx + self.shed != self.offered {
            return fail(format!(
                "exact {} + approx {} + shed {} != offered {}",
                self.exact, self.approx, self.shed, self.offered
            ));
        }
        if self.device_answered + self.fallbacks + self.cache_hits != self.exact {
            return fail(format!(
                "device {} + fallback {} + cache {} != exact {}",
                self.device_answered, self.fallbacks, self.cache_hits, self.exact
            ));
        }
        let executed = (self.device_answered + self.fallbacks) as u64;
        if after.queries - before.queries != executed {
            return fail(format!(
                "stats.queries grew by {} but {} queries executed",
                after.queries - before.queries,
                executed
            ));
        }
        if after.fallbacks - before.fallbacks != self.fallbacks as u64 {
            return fail("fallback counters disagree".to_string());
        }
        if after.shed - before.shed != self.shed as u64 {
            return fail("shed counters disagree".to_string());
        }
        if after.cache_exact_hits - before.cache_exact_hits != self.cache_hits as u64 {
            return fail("cache-hit counters disagree".to_string());
        }
        let sim_grew = after.per_query_sim_ms.len() - before.per_query_sim_ms.len();
        if sim_grew != self.device_answered {
            return fail(format!(
                "service-latency series grew by {sim_grew}, expected {} (device-answered only)",
                self.device_answered
            ));
        }
        let sojourn_grew = after.per_query_sojourn_ms.len() - before.per_query_sojourn_ms.len();
        if sojourn_grew as u64 != executed {
            return fail(format!(
                "sojourn series grew by {sojourn_grew}, expected {executed} \
                 (every executed query, fallbacks included)"
            ));
        }
        Ok(())
    }
}

/// Uniform draw in `[0, 1)`.
fn u01(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Exponential draw with the given rate (events per ms).
fn exp_ms(state: &mut u64, rate_per_ms: f64) -> f64 {
    assert!(rate_per_ms > 0.0, "arrival rates must be positive");
    -(1.0 - u01(state)).ln() / rate_per_ms
}

/// Generate the workload's arrival-ordered query list for an
/// `n`-vertex graph. Deterministic in [`TrafficConfig::seed`].
pub fn generate_arrivals(cfg: &TrafficConfig, n: u32) -> Vec<Query> {
    assert!(n > 0, "the resident graph has no vertices");
    let mut rng = cfg.seed ^ 0xA076_1D64_78BD_642F;
    let mut t = 0.0f64;
    // MMPP phase state (unused for Poisson).
    let mut fast = false;
    let mut phase_end = match cfg.arrivals {
        ArrivalProcess::Mmpp { mean_dwell_ms, .. } => {
            // A zero dwell makes every phase zero-length: the phase
            // would flip at t = 0 forever.
            assert!(
                mean_dwell_ms.is_finite() && mean_dwell_ms > 0.0,
                "the mean MMPP dwell must be finite and positive"
            );
            exp_ms(&mut rng, 1.0 / mean_dwell_ms)
        }
        ArrivalProcess::Poisson { .. } => f64::INFINITY,
    };
    let mut queries = Vec::with_capacity(cfg.offered);
    for _ in 0..cfg.offered {
        match cfg.arrivals {
            ArrivalProcess::Poisson { qps } => t += exp_ms(&mut rng, qps / 1e3),
            ArrivalProcess::Mmpp { slow_qps, fast_qps, mean_dwell_ms } => loop {
                let qps = if fast { fast_qps } else { slow_qps };
                let dt = exp_ms(&mut rng, qps / 1e3);
                // Exponentials are memoryless: restarting the draw at
                // the phase boundary is exact, not an approximation.
                if t + dt > phase_end {
                    t = phase_end;
                    fast = !fast;
                    phase_end = t + exp_ms(&mut rng, 1.0 / mean_dwell_ms);
                } else {
                    t += dt;
                    break;
                }
            },
        }
        let source = match cfg.sources {
            SourceMix::Uniform => (splitmix64(&mut rng) % u64::from(n)) as VertexId,
            SourceMix::Hot { hot_sources, hot_weight } => {
                let hot = hot_sources.clamp(1, n);
                if u01(&mut rng) < hot_weight {
                    (splitmix64(&mut rng) % u64::from(hot)) as VertexId
                } else {
                    (splitmix64(&mut rng) % u64::from(n)) as VertexId
                }
            }
        };
        queries.push(Query { source, arrival_ms: t, deadline_ms: t + cfg.slo_ms });
    }
    queries
}

/// The closed-loop workload over `sources`: every query arrives at
/// t = 0 with an infinite deadline, and the answer cache is off.
pub fn closed_loop(sources: &[VertexId]) -> (Vec<Query>, TrafficConfig) {
    let queries = sources
        .iter()
        .map(|&source| Query { source, arrival_ms: 0.0, deadline_ms: f64::INFINITY })
        .collect();
    // The arrival process is never drawn from: the queries are explicit.
    (queries, TrafficConfig::poisson(1.0, sources.len(), f64::INFINITY, 0))
}

/// EWMA service-time predictor for the admission test. Before the
/// first observation it predicts zero — the first query on an idle
/// system is always admitted.
struct Predictor {
    ewma_ns: Option<f64>,
}

impl Predictor {
    const ALPHA: f64 = 0.3;

    fn new() -> Self {
        Self { ewma_ns: None }
    }

    fn observe(&mut self, service_ns: f64) {
        self.ewma_ns = Some(match self.ewma_ns {
            None => service_ns,
            Some(e) => (1.0 - Self::ALPHA) * e + Self::ALPHA * service_ns,
        });
    }

    fn predicted_ns(&self) -> f64 {
        self.ewma_ns.unwrap_or(0.0)
    }
}

impl SsspService {
    /// Serve a seeded open-loop workload — see the module docs.
    pub fn serve_open_loop(&mut self, cfg: &TrafficConfig) -> TrafficReport {
        let n = self.num_vertices() as u32;
        let queries = generate_arrivals(cfg, n);
        self.serve_queries(&queries, cfg)
    }

    /// The scheduler: serve an explicit query list (the open-loop
    /// entry point generates one; [`SsspService::batch`] and
    /// [`SsspService::try_query`] pass a closed loop; tests
    /// hand-construct them to pin scheduler behaviour) across
    /// `min(streams, queries)` leased lanes. Queries must be in arrival
    /// order. An overflowed queue set escalates on the device; every
    /// answer — and every query that overflows past the escalation
    /// ceiling — is certified by [`recover`]'s ladder before it is
    /// returned or cached.
    pub fn serve_queries(&mut self, queries: &[Query], cfg: &TrafficConfig) -> TrafficReport {
        assert!(
            queries.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms),
            "queries must arrive in order"
        );
        let n = self.graph.num_vertices() as u32;
        if let Some(bad) = queries.iter().find(|q| q.source >= n) {
            panic!("source {} out of range for a {n}-vertex graph", bad.source);
        }
        let streams = self.config.streams.min(queries.len()).max(1);
        self.ensure_lanes(streams);
        let generation = self.generation;
        if let (Some(sizing), slot @ None) = (&cfg.cache, &mut self.traffic_cache) {
            *slot = Some(AnswerCache::new(*sizing));
        }
        let cache_enabled = cfg.cache.is_some();
        if let Some(c) = &mut self.traffic_cache {
            c.set_generation(generation);
        }

        let mut outcomes: Vec<Option<Outcome>> = vec![None; queries.len()];
        // Per-query (dispatch, completion or death) *wall* times for
        // the overlap sweep. Wall coordinates are comparable across
        // streams; per-stream busy clocks are not.
        let mut intervals: Vec<(f64, f64)> = Vec::new();
        let mut predictor = Predictor::new();
        let makespan_ms;

        {
            let Self { device, perm, arrays, graph, traffic_cache: cache, .. } = self;
            let lanes = &mut self.lanes[..streams];
            let kernel = self.config.rdbs;
            let mut set = StreamSet::new(device, streams);
            let base = set.base_ns();
            let arrival_ns = |q: &Query| base + q.arrival_ms * 1e6;
            let deadline_ns = |q: &Query| base + q.deadline_ms * 1e6;

            struct Inflight {
                qi: usize,
                driver: RdbsDriver,
                started: Instant,
                dispatched_wall: f64,
            }
            let mut running: Vec<Option<Inflight>> = Vec::new();
            running.resize_with(streams, || None);
            // Arrival cursor: queries[..released] have been released
            // into the waiting set (or answered from the cache).
            let mut released = 0usize;
            let mut waiting: Vec<usize> = Vec::new();

            loop {
                // The actionable stream with the earliest wall
                // frontier: running streams step one grain, idle ones
                // dispatch (waiting for the next arrival if none is
                // queued yet).
                let mut pick: Option<(usize, f64)> = None;
                for (s, slot) in running.iter().enumerate() {
                    let wall = set.wall_ns(s as u32);
                    let key = if slot.is_some() || !waiting.is_empty() {
                        wall
                    } else if released < queries.len() {
                        wall.max(arrival_ns(&queries[released]))
                    } else {
                        continue;
                    };
                    if pick.is_none_or(|(_, best)| key < best) {
                        pick = Some((s, key));
                    }
                }
                let Some((s, t_now)) = pick else { break };
                let sid = s as u32;

                // Release arrivals up to the decision time. Exact
                // cache hits are answered on release without touching
                // a stream; the rest join the waiting set.
                while released < queries.len() && arrival_ns(&queries[released]) <= t_now {
                    let qi = released;
                    released += 1;
                    let q = queries[qi];
                    // Cache stamps live on the device's absolute
                    // clock, which is monotonic across serve calls —
                    // answers from earlier calls stay visible.
                    let hit = cache
                        .as_ref()
                        .filter(|_| cache_enabled)
                        .and_then(|c| c.lookup(generation, q.source, t_now / 1e6));
                    if let Some(dist) = hit {
                        let sojourn_ms = (t_now - base) / 1e6 - q.arrival_ms;
                        self.stats.cache_exact_hits += 1;
                        outcomes[qi] = Some(Outcome::Exact {
                            result: SsspResult {
                                source: q.source,
                                dist: (*dist).clone(),
                                stats: UpdateStats::default(),
                            },
                            via: AnswerSource::Cache,
                            detection: Detection::default(),
                            arrival_ms: q.arrival_ms,
                            sojourn_ms,
                            queue_ms: sojourn_ms,
                        });
                    } else {
                        waiting.push(qi);
                    }
                }

                // A query whose device attempt ended on stream `s` this
                // iteration: (index, the answer with its monotonicity
                // hits or the overflow that ended it, dispatch wall
                // time, host start).
                let mut finished = None;
                if let Some(inflight) = running[s].as_mut() {
                    // Step the in-flight query one bucket.
                    let lane = &mut lanes[s];
                    let stepped = set.run(device, sid, |dev| {
                        inflight.driver.step(dev, graph, &mut lane.controller)
                    });
                    match stepped {
                        Ok(false) => {}
                        Ok(true) => {
                            let done = running[s].take().expect("stream was running");
                            let run = set.run(device, sid, |dev| done.driver.finish(dev));
                            let answer = Ok((run.result, run.audit.len()));
                            finished = Some((done.qi, answer, done.dispatched_wall, done.started));
                        }
                        Err(overflow) => {
                            let escalated = escalate_queues(
                                &mut self.pool,
                                device,
                                &mut lane.scratch,
                                graph.num_vertices(),
                            );
                            if escalated {
                                self.stats.escalations += 1;
                                let source = queries[inflight.qi].source;
                                let mapped = perm.as_ref().map_or(source, |p| p.new_id(source));
                                inflight.driver = set.run(device, sid, |dev| {
                                    super::start_rdbs_driver(
                                        dev, lane, *arrays, graph, mapped, kernel,
                                    )
                                });
                            } else {
                                let dead = running[s].take().expect("stream was running");
                                let answer = Err(overflow.to_string());
                                finished =
                                    Some((dead.qi, answer, dead.dispatched_wall, dead.started));
                            }
                        }
                    }
                } else {
                    // Idle stream: dispatch the earliest-deadline
                    // waiting query that passes admission; shed (or
                    // serve an approximate bound to) the ones that
                    // cannot make their deadline anymore.
                    while let Some(pos) = waiting
                        .iter()
                        .enumerate()
                        .min_by(|a, b| {
                            let da = queries[*a.1].deadline_ms;
                            let db = queries[*b.1].deadline_ms;
                            da.partial_cmp(&db).expect("deadlines are never NaN")
                        })
                        .map(|(pos, _)| pos)
                    {
                        let qi = waiting.remove(pos);
                        let q = queries[qi];
                        let t_free = set.wall_ns(sid);
                        let start_ns = t_free.max(arrival_ns(&q));
                        let predicted_done = start_ns + cfg.shed_margin * predictor.predicted_ns();
                        if start_ns > deadline_ns(&q) || predicted_done > deadline_ns(&q) {
                            let now_ms = (start_ns - base) / 1e6;
                            let bound = cache
                                .as_ref()
                                .filter(|_| cache_enabled && cfg.approx_on_shed)
                                .and_then(|c| c.upper_bound(generation, q.source, start_ns / 1e6));
                            outcomes[qi] = Some(match bound {
                                Some(upper) => {
                                    self.stats.cache_approx_hits += 1;
                                    Outcome::Approx {
                                        source: q.source,
                                        upper,
                                        arrival_ms: q.arrival_ms,
                                        sojourn_ms: now_ms - q.arrival_ms,
                                    }
                                }
                                None => {
                                    self.stats.shed += 1;
                                    Outcome::Rejected(Rejected {
                                        source: q.source,
                                        arrival_ms: q.arrival_ms,
                                        deadline_ms: q.deadline_ms,
                                        predicted_completion_ms: (predicted_done - base) / 1e6,
                                    })
                                }
                            });
                            continue;
                        }
                        // Admitted: wait idle until the arrival if the
                        // stream got here early, then run.
                        if start_ns > t_free {
                            set.advance_to(device, sid, start_ns);
                        }
                        let mapped = perm.as_ref().map_or(q.source, |p| p.new_id(q.source));
                        let lane = &mut lanes[s];
                        let dispatched_wall = set.wall_ns(sid);
                        let started = Instant::now();
                        let driver = set.run(device, sid, |dev| {
                            super::start_rdbs_driver(dev, lane, *arrays, graph, mapped, kernel)
                        });
                        running[s] = Some(Inflight { qi, driver, started, dispatched_wall });
                        break;
                    }
                }

                let Some((qi, answer, dispatched_wall, started)) = finished else { continue };
                let q = queries[qi];
                let mapped = perm.as_ref().map_or(q.source, |p| p.new_id(q.source));
                // Certify the answer before it is returned or cached. The
                // rerun rung reruns the query on its own lane and stream;
                // a query that overflowed at the escalation ceiling would
                // overflow again, so it climbs straight to the host.
                let lane = &mut lanes[s];
                let overflowed = answer.is_err();
                let mut rerun = || {
                    set.run(device, sid, |dev| {
                        run_on_lane(dev, lane, *arrays, graph, mapped, kernel)
                    })
                };
                let RecoveredRun { mut result, via, detection } =
                    recover(graph, mapped, answer, (!overflowed).then_some(&mut rerun as Rerun));
                if let Some(perm) = perm.as_ref() {
                    result.dist = perm.unapply_to_array(&result.dist);
                    result.source = q.source;
                }
                let end = set.wall_ns(sid);
                let sojourn_ms = (end - arrival_ns(&q)) / 1e6;
                intervals.push((dispatched_wall, end));
                match via {
                    AnswerSource::Repair => self.stats.repairs += 1,
                    AnswerSource::Rerun => self.stats.reruns += 1,
                    AnswerSource::Host => self.stats.fallbacks += 1,
                    AnswerSource::Device | AnswerSource::Cache => {}
                }
                self.stats.audit_failures += u64::from(detection.audit_failed());
                // Only answers the device produced have a service time:
                // a host answer's sojourn ends where its device attempt
                // did, and the host rung runs off the simulated clock.
                if via != AnswerSource::Host {
                    let service_ns = end - dispatched_wall;
                    self.stats.per_query_sim_ms.push(service_ns / 1e6);
                    predictor.observe(service_ns);
                }
                self.stats.per_query_sojourn_ms.push(sojourn_ms);
                note_query_parts(
                    &mut self.stats,
                    &mut self.queries_on_graph,
                    self.uploads_per_graph,
                    started,
                );
                if let Some(c) = cache.as_mut().filter(|_| cache_enabled) {
                    c.insert(generation, q.source, Arc::new(result.dist.clone()), end / 1e6);
                }
                outcomes[qi] = Some(Outcome::Exact {
                    result,
                    via,
                    detection,
                    arrival_ms: q.arrival_ms,
                    sojourn_ms,
                    queue_ms: (dispatched_wall - arrival_ns(&q)) / 1e6,
                });
            }
            makespan_ms = set.makespan_ns() / 1e6;
        }
        self.stats.inflight_peak = self.stats.inflight_peak.max(peak_overlap(&intervals));

        let outcomes: Vec<Outcome> =
            outcomes.into_iter().map(|o| o.expect("every offered query has an outcome")).collect();
        let mut report = TrafficReport {
            outcomes: Vec::new(),
            offered: queries.len(),
            exact: 0,
            approx: 0,
            shed: 0,
            device_answered: 0,
            fallbacks: 0,
            cache_hits: 0,
            slo_ms: cfg.slo_ms,
            makespan_ms,
            deadline_violations: 0,
        };
        for (o, q) in outcomes.iter().zip(queries) {
            match o {
                Outcome::Exact { via, sojourn_ms, .. } => {
                    report.exact += 1;
                    match via {
                        AnswerSource::Cache => report.cache_hits += 1,
                        AnswerSource::Host => report.fallbacks += 1,
                        _ => report.device_answered += 1,
                    }
                    if q.arrival_ms + *sojourn_ms > q.deadline_ms + 1e-9 {
                        report.deadline_violations += 1;
                    }
                }
                Outcome::Approx { .. } => report.approx += 1,
                Outcome::Rejected(_) => report.shed += 1,
            }
        }
        report.outcomes = outcomes;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::validate::check_against_dijkstra;
    use rdbs_gpu_sim::DeviceConfig;
    use rdbs_graph::builder::build_undirected;
    use rdbs_graph::generate::{erdos_renyi, uniform_weights};

    fn graph(seed: u64) -> crate::Csr {
        let mut el = erdos_renyi(120, 600, seed);
        uniform_weights(&mut el, seed + 9);
        build_undirected(&el)
    }

    fn svc(streams: usize) -> SsspService {
        SsspService::new(
            &graph(21),
            ServiceConfig::rdbs(DeviceConfig::test_tiny()).with_streams(streams),
        )
    }

    /// Service time of one cold query, ms — for calibrating qps.
    fn probe_service_ms() -> f64 {
        let mut s = svc(1);
        s.query(0);
        s.stats().per_query_sim_ms[0]
    }

    #[test]
    fn arrivals_are_seeded_and_ordered() {
        let cfg = TrafficConfig::poisson(100.0, 64, 5.0, 7);
        let a = generate_arrivals(&cfg, 120);
        let b = generate_arrivals(&cfg, 120);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.source, y.source);
            assert!((x.arrival_ms - y.arrival_ms).abs() < 1e-12);
        }
        assert!(a.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms));
        // Mean inter-arrival of Poisson(100 qps) is 10 ms; 64 draws
        // land well within a loose 3x band.
        let mean = a.last().unwrap().arrival_ms / 64.0;
        assert!(mean > 10.0 / 3.0 && mean < 30.0, "mean inter-arrival {mean} ms");
        let other = generate_arrivals(&TrafficConfig::poisson(100.0, 64, 5.0, 8), 120);
        assert!(
            a.iter().zip(&other).any(|(x, y)| (x.arrival_ms - y.arrival_ms).abs() > 1e-12),
            "different seeds must give different arrivals"
        );
    }

    #[test]
    fn mmpp_is_burstier_than_poisson_at_equal_mean_rate() {
        let mut cfg = TrafficConfig::poisson(0.0, 512, 5.0, 11);
        cfg.arrivals =
            ArrivalProcess::Mmpp { slow_qps: 20.0, fast_qps: 180.0, mean_dwell_ms: 50.0 };
        let bursty = generate_arrivals(&cfg, 120);
        assert!(bursty.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms));
        let poisson = generate_arrivals(&TrafficConfig::poisson(100.0, 512, 5.0, 11), 120);
        let cv2 = |qs: &[Query]| {
            let gaps: Vec<f64> = qs.windows(2).map(|w| w[1].arrival_ms - w[0].arrival_ms).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        // A Poisson stream's squared coefficient of variation is ~1;
        // the two-state MMPP's is strictly larger.
        assert!(
            cv2(&bursty) > cv2(&poisson),
            "MMPP cv² {} vs Poisson cv² {}",
            cv2(&bursty),
            cv2(&poisson)
        );
    }

    /// A zero mean dwell makes every MMPP phase zero-length, so the
    /// phase would flip at t = 0 forever: the generator refuses it.
    #[test]
    #[should_panic(expected = "dwell must be finite and positive")]
    fn zero_dwell_mmpp_panics_instead_of_spinning() {
        let mut cfg = TrafficConfig::poisson(0.0, 8, 5.0, 1);
        cfg.arrivals = ArrivalProcess::Mmpp { slow_qps: 20.0, fast_qps: 180.0, mean_dwell_ms: 0.0 };
        generate_arrivals(&cfg, 120);
    }

    #[test]
    fn light_load_answers_everything_exactly() {
        // Arrivals far slower than service: no queueing, no shedding.
        let service_ms = probe_service_ms();
        let qps = 1e3 / (20.0 * service_ms);
        let cfg = TrafficConfig::poisson(qps, 12, 50.0 * service_ms, 3);
        let mut s = svc(2);
        let before = s.stats();
        let report = s.serve_open_loop(&cfg);
        let after = s.stats();
        report.check_accounting(&before, &after).unwrap();
        assert_eq!(report.exact, 12);
        assert_eq!(report.shed, 0);
        assert_eq!(report.approx, 0);
        let g = graph(21);
        for o in &report.outcomes {
            let Outcome::Exact { result, sojourn_ms, queue_ms, .. } = o else {
                panic!("light load must answer exactly")
            };
            check_against_dijkstra(&g, result.source, &result.dist).unwrap();
            assert!(*sojourn_ms >= 0.0 && *queue_ms >= -1e9_f64.recip());
        }
        assert_eq!(report.deadline_violations, 0);
        // Idle waits put the makespan at least at the last arrival.
        let arrivals = generate_arrivals(&cfg, 120);
        assert!(report.makespan_ms >= arrivals.last().unwrap().arrival_ms - 1e-9);
    }

    #[test]
    fn overload_sheds_typed_and_holds_the_answered_tail() {
        // Arrivals ~8x faster than one stream can serve, tight SLO:
        // admission must shed, and what it answers must meet the tail.
        let service_ms = probe_service_ms();
        let qps = 8.0 * 1e3 / service_ms;
        let slo_ms = 3.0 * service_ms;
        let mut cfg = TrafficConfig::poisson(qps, 48, slo_ms, 5);
        cfg.shed_margin = 1.3;
        let mut s = svc(1);
        let before = s.stats();
        let report = s.serve_open_loop(&cfg);
        let after = s.stats();
        report.check_accounting(&before, &after).unwrap();
        assert!(report.shed > 0, "8x overload must shed");
        assert!(report.exact > 0, "admission must still answer someone");
        for o in &report.outcomes {
            if let Outcome::Rejected(r) = o {
                assert!(
                    r.predicted_completion_ms > r.deadline_ms,
                    "rejections must carry the blown prediction"
                );
            }
        }
        let p99 = report.answered_percentile_ms(99.0).unwrap();
        assert!(p99 <= slo_ms + 1e-9, "answered p99 {p99} ms vs SLO {slo_ms} ms");
    }

    #[test]
    fn edf_serves_the_tighter_deadline_first() {
        // One stream, both queries waiting while the first runs: the
        // later-arriving but tighter-deadline query must dispatch
        // before the earlier loose one.
        let service_ms = probe_service_ms();
        let mk = |source, arrival_ms: f64, slo_ms: f64| Query {
            source,
            arrival_ms,
            deadline_ms: arrival_ms + slo_ms,
        };
        let queries = vec![
            mk(3, 0.0, 100.0 * service_ms),
            mk(5, 0.1 * service_ms, 90.0 * service_ms), // loose
            mk(9, 0.2 * service_ms, 4.0 * service_ms),  // tight, last to arrive
        ];
        let cfg = TrafficConfig::poisson(1.0, 3, 100.0 * service_ms, 1);
        let mut s = svc(1);
        let report = s.serve_queries(&queries, &cfg);
        let sojourn = |i: usize| match &report.outcomes[i] {
            Outcome::Exact { sojourn_ms, arrival_ms, .. } => arrival_ms + sojourn_ms,
            _ => panic!("all three must be answered"),
        };
        assert!(
            sojourn(2) < sojourn(1),
            "EDF must complete the tight query (at {}) before the loose one (at {})",
            sojourn(2),
            sojourn(1)
        );
    }

    #[test]
    fn hot_sources_hit_the_cache_bit_identically() {
        let service_ms = probe_service_ms();
        let qps = 1e3 / (4.0 * service_ms);
        let mut cfg = TrafficConfig::poisson(qps, 32, 100.0 * service_ms, 13).with_cache();
        cfg.sources = SourceMix::Hot { hot_sources: 3, hot_weight: 0.8 };
        let mut s = svc(2);
        let before = s.stats();
        let report = s.serve_open_loop(&cfg);
        let after = s.stats();
        report.check_accounting(&before, &after).unwrap();
        assert!(report.cache_hits > 0, "a 3-source hot set must repeat");
        assert!(report.hit_rate() > 0.0);
        // Every cache answer is bit-identical to a fresh device run.
        let mut fresh = svc(1);
        for o in &report.outcomes {
            if let Outcome::Exact { result, via: AnswerSource::Cache, .. } = o {
                assert_eq!(result.dist, fresh.query(result.source).dist, "cache must replay bits");
            }
        }
        assert_eq!(after.cache_exact_hits - before.cache_exact_hits, report.cache_hits as u64);
    }

    #[test]
    fn shed_with_landmarks_serves_flagged_upper_bounds() {
        let service_ms = probe_service_ms();
        // Warm phase at trivial load builds landmarks, then an
        // overloaded burst forces admission to decline; with
        // approx_on_shed those queries get flagged upper bounds.
        let mut cfg = TrafficConfig::poisson(1e3 / (4.0 * service_ms), 8, 100.0 * service_ms, 17)
            .with_cache();
        cfg.approx_on_shed = true;
        let mut s = svc(1);
        let warm = s.serve_open_loop(&cfg);
        assert!(warm.exact >= 4, "the warm phase must populate landmarks");
        let mut burst = cfg.clone();
        burst.arrivals = ArrivalProcess::Poisson { qps: 20.0 * 1e3 / service_ms };
        burst.offered = 24;
        burst.slo_ms = 1.5 * service_ms;
        burst.seed = 18;
        let report = s.serve_open_loop(&burst);
        assert!(report.approx > 0, "an overloaded burst over landmarks must serve bounds");
        let g = graph(21);
        for o in &report.outcomes {
            if let Outcome::Approx { source, upper, .. } = o {
                let truth = crate::seq::dijkstra(&g, *source);
                for (v, (&ub, &d)) in upper.iter().zip(&truth.dist).enumerate() {
                    assert!(ub >= d, "upper[{v}] = {ub} below true {d}");
                }
            }
        }
    }

    #[test]
    fn generation_swap_empties_the_cache() {
        let service_ms = probe_service_ms();
        let mut cfg = TrafficConfig::poisson(1e3 / (4.0 * service_ms), 16, 100.0 * service_ms, 19)
            .with_cache();
        cfg.sources = SourceMix::Hot { hot_sources: 2, hot_weight: 0.9 };
        let mut s = svc(2);
        let first = s.serve_open_loop(&cfg);
        assert!(first.cache_hits > 0);
        let g2 = graph(22);
        s.load_graph(&g2);
        let report = s.serve_open_loop(&cfg);
        // Hits may re-occur (the hot set repeats), but every answer
        // must come from generation-2 state: bit-identical to a fresh
        // service on g2.
        let mut fresh = SsspService::new(&g2, ServiceConfig::rdbs(DeviceConfig::test_tiny()));
        for o in &report.outcomes {
            if let Outcome::Exact { result, .. } = o {
                assert_eq!(result.dist, fresh.query(result.source).dist);
            }
        }
    }
}
