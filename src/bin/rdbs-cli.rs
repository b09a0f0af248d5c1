//! `rdbs-cli` — run any SSSP implementation in the workspace on a
//! generated or loaded graph from the command line.
//!
//! ```text
//! rdbs-cli --gen kronecker:14:16 --algo rdbs --source 1
//! rdbs-cli --load graph.gr --format dimacs --algo adds --profile
//! rdbs-cli --gen dataset:soc-PK:6 --algo all --validate
//! rdbs-cli verify                 # full differential conformance matrix
//! rdbs-cli verify --impl gpu/full --graph kronecker
//! rdbs-cli verify --impl seq/dijkstra --witness witness.txt
//! rdbs-cli chaos                  # fault-injection matrix, no silent wrong answers
//! rdbs-cli chaos --model bit-flip --entry gpu/full --seed 3
//! rdbs-cli serve --sources 64     # resident service: one upload, many queries
//! ```
//!
//! Every mode parses its command line with the one loop in [`parse`]
//! into one [`Options`]: a mode names the shared flags it reads, takes
//! its own through a hook, and rejects any other flag with its usage
//! (exit 2).

use rdbs::baselines::{adds, default_threads, pq_delta_stepping};
use rdbs::conformance::SweepOptions;
use rdbs::graph::builder::{build_directed, build_undirected};
use rdbs::graph::generate::{
    erdos_renyi, grid_road, kronecker, preferential_attachment, uniform_weights, GridConfig,
    KroneckerConfig,
};
use rdbs::graph::{datasets, io, Csr, Dist, VertexId, Weight, INF};
use rdbs::sim::{Device, DeviceConfig};
use rdbs::sssp::gpu::{run_gpu, FrontierKind, RdbsConfig, Variant};
use rdbs::sssp::seq::{bellman_ford, delta_stepping, dijkstra};
use rdbs::sssp::{default_delta, validate};
use std::io::BufReader;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = || args[1..].to_vec();
    match args.first().map_or("", String::as_str) {
        "serve" => serve_main(rest()),
        "verify" => verify_main(rest()),
        "chaos" if args.iter().any(|a| a == "--adversarial") => adversary_main(rest()),
        "chaos" => chaos_main(rest()),
        "fuzz-schedules" => fuzz_main(rest()),
        "sanitize" => sanitize_main(rest()),
        "analyze" => analyze_main(rest()),
        _ => run_main(args),
    }
}

// ---------------------------------------------------------------------------
// One option set for every mode.
// ---------------------------------------------------------------------------

/// The flags the modes share, parsed and range-checked once by
/// [`parse`]. `--quick --entry --graph --frontier --seed --delta0`
/// land in the [`SweepOptions`] the sweeps take as they are.
#[derive(Default)]
struct Options {
    gen_spec: Option<String>,
    load_path: Option<String>,
    format: Option<String>,
    device: Option<DeviceConfig>,
    sources: Option<usize>,
    validate: bool,
    sweep: SweepOptions,
}

impl Options {
    /// Run and serve use the last `--seed` (default 42); the sweeps
    /// read every one.
    fn seed(&self) -> u64 {
        self.sweep.seeds.last().copied().unwrap_or(42)
    }

    /// The `--device` config: V100 by default, TINY with `--quick`.
    fn device(&self) -> DeviceConfig {
        let default = if self.sweep.quick { DeviceConfig::test_tiny } else { DeviceConfig::v100 };
        self.device.clone().unwrap_or_else(default)
    }
}

// The shared flags a mode reads, one bit per flag (or flag pair).
const GEN: u16 = 1; // --gen
const LOAD: u16 = 1 << 1; // --load --format
const SEED: u16 = 1 << 2; // --seed
const DEVICE: u16 = 1 << 3; // --device
const DELTA0: u16 = 1 << 4; // --delta0
const SOURCES: u16 = 1 << 5; // --sources
const VALIDATE: u16 = 1 << 6; // --validate
const QUICK: u16 = 1 << 7; // --quick
const FRONTIER: u16 = 1 << 8; // --frontier
const FILTERS: u16 = 1 << 9; // --entry (--impl) --graph

// What each mode reads; `verify` adds DELTA0, `chaos` (adversarial or
// not) and `fuzz-schedules` add SEED.
const RUN: u16 = GEN | LOAD | SEED | DEVICE | DELTA0 | VALIDATE;
const SERVE: u16 = GEN | SEED | DEVICE | DELTA0 | SOURCES | VALIDATE | QUICK | FRONTIER;
const SWEEP: u16 = QUICK | FRONTIER | FILTERS;

/// Parse a mode's command line: the shared flags in `reads` into one
/// [`Options`], anything else through `extra`, which returns `false`
/// for a flag the mode does not read. An unread flag, a missing or
/// malformed value and `--delta0 0` exit through `usage`.
fn parse(
    args: Vec<String>,
    usage: fn() -> !,
    reads: u16,
    mut extra: impl FnMut(&str, &mut dyn FnMut() -> String, &mut SweepOptions) -> bool,
) -> Options {
    let mut o = Options::default();
    let has = |flag: u16| reads & flag != 0;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--gen" if has(GEN) => o.gen_spec = Some(val()),
            "--load" if has(LOAD) => o.load_path = Some(val()),
            "--format" if has(LOAD) => o.format = Some(val()),
            "--seed" if has(SEED) => o.sweep.seeds.push(num(&val(), usage)),
            "--device" if has(DEVICE) => {
                o.device = Some(DeviceConfig::by_name(&val()).unwrap_or_else(|| usage()));
            }
            "--delta0" if has(DELTA0) => match num(&val(), usage) {
                0 => usage(),
                w => o.sweep.delta0 = Some(w),
            },
            "--sources" if has(SOURCES) => o.sources = Some(num(&val(), usage)),
            "--validate" if has(VALIDATE) => o.validate = true,
            "--quick" if has(QUICK) => o.sweep.quick = true,
            "--frontier" if has(FRONTIER) => {
                o.sweep.frontier = Some(FrontierKind::parse(&val()).unwrap_or_else(|| usage()));
            }
            "--entry" | "--impl" if has(FILTERS) => o.sweep.entry_filter = Some(val()),
            "--graph" if has(FILTERS) => o.sweep.graph_filter = Some(val()),
            other => {
                if !extra(other, &mut val, &mut o.sweep) {
                    usage()
                }
            }
        }
    }
    o
}

/// Parse a number or bail out through `usage`.
fn num<T: std::str::FromStr>(s: &str, usage: fn() -> !) -> T {
    s.parse().unwrap_or_else(|_| usage())
}

/// Parse a finite number that is positive (non-negative with
/// `zero_ok`), or bail out through `usage`.
fn finite(s: &str, usage: fn() -> !, zero_ok: bool) -> f64 {
    let x: f64 = num(s, usage);
    let in_range = if zero_ok { x >= 0.0 } else { x > 0.0 };
    if x.is_finite() && in_range {
        x
    } else {
        usage()
    }
}

/// The engines with no bucket width: `--delta0` for one of them is a
/// usage error, not a silent no-op. (`--algo all` still passes the
/// width to the engines that read it.)
const WIDTHLESS: [&str; 4] = ["bl", "dijkstra", "bellman-ford", "pq-delta"];

/// The RDBS kernels `--algo` and `serve --backend` share: full RDBS
/// and its ablations (BASYN+PRO, BASYN+ADWL, BASYN, sync Δ).
fn rdbs_named(name: &str, delta0: Option<Weight>) -> Option<RdbsConfig> {
    let cfg = match name {
        "rdbs" => RdbsConfig::full(),
        "basyn-pro" => RdbsConfig::basyn_pro(),
        "basyn-adwl" => RdbsConfig::basyn_adwl(),
        "basyn" => RdbsConfig::basyn_only(),
        "sync-delta" => RdbsConfig::sync_delta(),
        _ => return None,
    };
    Some(RdbsConfig { delta0, ..cfg })
}

/// The `--validate` check: each `(source, dist)` answer against the
/// Dijkstra oracle. The first disagreement prints `fail(source,
/// mismatch)` and exits 1.
fn validate_or_exit<'a>(
    g: &Csr,
    answers: impl IntoIterator<Item = (VertexId, &'a [Dist])>,
    fail: impl Fn(VertexId, validate::Mismatch) -> String,
) {
    for (source, dist) in answers {
        if let Err(m) = validate::check_against(&dijkstra(g, source).dist, dist) {
            println!("{}", fail(source, m));
            exit(1);
        }
    }
}

fn build_graph(o: &Options) -> Csr {
    let seed = o.seed();
    if let Some(spec) = &o.gen_spec {
        let parts: Vec<&str> = spec.split(':').collect();
        let num = |i: usize| -> u64 {
            parts.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| run_usage())
        };
        let mut el = match parts[0] {
            "kronecker" => kronecker(KroneckerConfig::new(num(1) as u32, num(2) as u32), seed),
            "rmat" => rdbs::graph::generate::rmat(
                rdbs::graph::generate::RmatConfig::graph500(num(1) as u32, num(2) as u32),
                seed,
            ),
            "grid" => grid_road(GridConfig::road(num(1) as usize, num(2) as usize), seed),
            "powerlaw" => preferential_attachment(num(1) as usize, num(2) as usize, seed),
            "erdos" => erdos_renyi(num(1) as usize, num(2) as usize, seed),
            "dataset" => {
                let name = parts.get(1).copied().unwrap_or_else(|| run_usage());
                let shift = num(2) as u32;
                let spec = if name.starts_with("k-n") {
                    datasets::kronecker_spec(21, 16)
                } else {
                    datasets::by_name(name).unwrap_or_else(|| {
                        eprintln!("unknown dataset '{name}'");
                        exit(2)
                    })
                };
                return spec.generate(shift, seed);
            }
            _ => run_usage(),
        };
        uniform_weights(&mut el, seed);
        build_undirected(&el)
    } else {
        let path = o.load_path.as_ref().unwrap();
        let file = std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            exit(1)
        });
        let reader = BufReader::new(file);
        let result = match o.format.as_deref().unwrap_or("edgelist") {
            "edgelist" => io::parse_edge_list(reader).map(|el| build_undirected(&el)),
            "dimacs" => io::parse_dimacs(reader).map(|el| build_undirected(&el)),
            "mtx" => io::parse_matrix_market(reader).map(|el| build_undirected(&el)),
            "binary" => io::read_binary_csr(reader),
            _ => run_usage(),
        };
        result.unwrap_or_else(|e| {
            eprintln!("failed to parse {path}: {e}");
            exit(1)
        })
    }
}

// ---------------------------------------------------------------------------
// Run mode: one graph, one or every algorithm, one source.
// ---------------------------------------------------------------------------

fn run_usage() -> ! {
    eprintln!(
        "usage: rdbs-cli [--gen SPEC | --load FILE] [options]

graph input (one of):
  --gen kronecker:SCALE:EF      Graph500 Kronecker
  --gen rmat:SCALE:EF           (same parameters, unpermuted R-MAT)
  --gen grid:ROWS:COLS          road-like mesh
  --gen powerlaw:N:M            preferential attachment
  --gen erdos:N:M               uniform random
  --gen dataset:NAME:SHIFT      Table-1 stand-in (road-TX, soc-PK, ...)
  --load FILE                   read a file (see --format)
  --format edgelist|dimacs|mtx|binary

run options:
  --algo rdbs|basyn-pro|basyn-adwl|basyn|sync-delta|bl|adds|
         dijkstra|bellman-ford|delta-stepping|pq-delta|all
  --source V          starting vertex (default 0)
  --seed S            rng seed (default 42)
  --device V100|T4|TINY  simulated GPU (default V100)
  --delta0 W          bucket width override (an error for bl, dijkstra,
                      bellman-ford and pq-delta, which take none)
  --profile           print nvprof-style counters (GPU algos)
  --validate          check against Dijkstra
  --print-dist N      print the first N distances"
    );
    exit(2)
}

/// Run mode's own flags.
struct Run {
    algo: String,
    source: VertexId,
    profile: bool,
    print_dist: usize,
}

fn run_main(args: Vec<String>) {
    let mut r = Run { algo: "rdbs".into(), source: 0, profile: false, print_dist: 0 };
    let o = parse(args, run_usage, RUN, |flag, val, _| {
        match flag {
            "--algo" => r.algo = val().to_lowercase(),
            "--source" => r.source = num(&val(), run_usage),
            "--profile" => r.profile = true,
            "--print-dist" => r.print_dist = num(&val(), run_usage),
            _ => return false,
        }
        true
    });
    if o.gen_spec.is_none() && o.load_path.is_none() {
        eprintln!("error: provide --gen or --load\n");
        run_usage();
    }
    if o.sweep.delta0.is_some() && WIDTHLESS.contains(&r.algo.as_str()) {
        eprintln!("error: --algo {} takes no bucket width; drop --delta0", r.algo);
        exit(2);
    }
    let g = build_graph(&o);
    println!(
        "graph: {} vertices, {} directed edges, max weight {}",
        g.num_vertices(),
        g.num_edges(),
        g.max_weight()
    );
    if (r.source as usize) >= g.num_vertices() {
        eprintln!("source {} out of range", r.source);
        exit(2);
    }
    let algos: Vec<String> = if r.algo == "all" {
        ["rdbs", "bl", "adds", "dijkstra", "pq-delta"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect()
    } else {
        vec![r.algo.clone()]
    };
    for algo in algos {
        run_algo(&o, &r, &g, &algo);
    }
}

fn run_algo(o: &Options, r: &Run, g: &Csr, algo: &str) {
    let delta = o.sweep.delta0.unwrap_or_else(|| default_delta(g));
    let device = o.device();
    let s = r.source;
    let started = std::time::Instant::now();

    // The device engines run one-shot: the RDBS kernels and BL.
    let variant = match algo {
        "bl" => Some(Variant::Baseline),
        _ => rdbs_named(algo, o.sweep.delta0).map(Variant::Rdbs),
    };
    let (dist, sim_ms, label) = match variant {
        Some(v) => {
            let run = run_gpu(g, s, v, device);
            if r.profile {
                let c = &run.counters;
                println!(
                    "  profile[{}]: insts {} loads {} stores {} atomics {} hit {:.1}% warps-eff {:.1}%",
                    run.label,
                    c.inst_executed,
                    c.inst_executed_global_loads,
                    c.inst_executed_global_stores,
                    c.inst_executed_atomics,
                    c.global_hit_rate(),
                    c.warp_execution_efficiency()
                );
            }
            (run.result.dist, Some(run.elapsed_ms), run.label)
        }
        None => match algo {
            "adds" => {
                let mut d = Device::new(device);
                (adds(&mut d, g, s, delta).dist, Some(d.elapsed_ms()), "ADDS".into())
            }
            "dijkstra" => (dijkstra(g, s).dist, None, "Dijkstra".into()),
            "bellman-ford" => (bellman_ford(g, s).dist, None, "Bellman-Ford".into()),
            "delta-stepping" => (delta_stepping(g, s, delta).dist, None, "Δ-stepping".into()),
            "pq-delta" => {
                let threads = default_threads();
                (pq_delta_stepping(g, s, threads, None).dist, None, format!("PQ-Δ* ({threads}t)"))
            }
            other => {
                eprintln!("unknown algorithm '{other}'");
                exit(2);
            }
        },
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let reached = dist.iter().filter(|&&d| d != INF).count();

    print!("{label:<22} reached {reached:>8}");
    if let Some(ms) = sim_ms {
        print!("  simulated {ms:>10.4} ms");
    }
    println!("  host {wall_ms:>9.2} ms");

    if o.validate {
        validate_or_exit(g, [(s, &dist[..])], |_, m| format!("  validation: FAILED — {m}"));
        println!("  validation: OK (matches Dijkstra)");
    }
    if r.print_dist > 0 {
        let shown: Vec<String> = dist
            .iter()
            .take(r.print_dist)
            .map(|&d| if d == INF { "INF".into() } else { d.to_string() })
            .collect();
        println!("  dist[0..{}] = [{}]", shown.len(), shown.join(", "));
    }
}

// ---------------------------------------------------------------------------
// `rdbs-cli serve` — the resident batched SSSP service.
// ---------------------------------------------------------------------------

fn serve_usage() -> ! {
    eprintln!(
        "usage: rdbs-cli serve [options]

Answer many sources against one resident graph upload through the
batched service (rdbs-core::service): graph arrays H2D once, per-query
buffers recycled from a size-class pool, Δ controller warm-started
across queries. With --streams N the batch is scheduled concurrently
across N simulated command streams (least-busy dispatch, on-device
queue escalation on overflow). The service audits every answer and
certifies it through the recovery ladder (device, repair sweep, rerun,
host Dijkstra). Prints per-batch amortization stats and how many
answers each rung certified, and exits non-zero if any answer failed
its audit (with no fault armed, a protocol bug), if the batch needed
more than one graph upload, or, with --validate, if any query disagrees
with Dijkstra.

  --sources K         sources in the batch (default 16, seeded-random;
                      with --arrivals, the number of offered queries)
  --streams N         concurrent command streams for the batch
                      (default 1 = sequential)
  --gen SPEC          graph spec, as in the run mode (default
                      kronecker:12:16; erdos:1500:6000 with --quick)
  --backend rdbs|basyn-pro|basyn-adwl|basyn|sync-delta
                      RDBS kernel (default rdbs = BASYN+PRO+ADWL)
  --frontier single|mlmq
                      device frontier layout (default single; mlmq
                      spills overflow to the next level instead of
                      escalating)
  --queue-capacity N  under- (or over-) provision each lane's frontier
                      queues at N logical slots instead of the vertex
                      count (stresses escalation / the MLMQ spill path)
  --seed S            rng seed for graph and source choice (default 42)
  --device V100|T4|TINY  simulated GPU (default V100; TINY with --quick)
  --delta0 W          bucket width override
  --validate          check every query against Dijkstra
  --quick             small graph + tiny device (CI smoke job)

open-loop traffic mode (simulated-time arrivals instead of a batch;
deadline-aware EDF dispatch, admission control with typed shedding,
optional answer cache):
  --arrivals poisson|mmpp
                      offered as a seeded arrival process over
                      simulated time
  --qps X             arrival rate (mmpp: the slow phase); default
                      auto-calibrates to ~2x the measured service rate
  --fast-qps X        mmpp fast-phase rate (default 8x --qps)
  --dwell-ms X        mmpp mean phase dwell (default 50)
  --slo-ms Y          sojourn SLO; default 4x the measured service time
  --shed-margin M     admission safety factor on predicted service
                      time (default 1.25)
  --hot K:W           draw sources from the first K vertices with
                      probability W (cache-friendly skew)
  --cache             enable the (generation, source) answer cache
  --approx-on-shed    serve flagged landmark upper bounds instead of
                      shedding when possible (implies --cache)

The traffic mode always audits its own accounting (exact + approx +
shed == offered; latency-series lengths reconcile with the stats
deltas) and exits non-zero on any inconsistency."
    );
    exit(2)
}

fn serve_main(args: Vec<String>) -> ! {
    use rdbs::sssp::service::{ServiceConfig, SsspService};
    let (mut streams, mut backend_spec, mut queue_capacity) = (1usize, "rdbs".to_string(), None);
    let (mut arrivals, mut qps, mut fast_qps, mut slo_ms) = (None::<String>, None, None, None);
    let (mut dwell_ms, mut shed_margin, mut hot) = (50.0f64, 1.25f64, None);
    let (mut use_cache, mut approx_on_shed) = (false, false);
    let mut o = parse(args, serve_usage, SERVE, |flag, val, _| {
        match flag {
            "--streams" => streams = num(&val(), serve_usage),
            "--backend" => backend_spec = val().to_lowercase(),
            "--queue-capacity" => match num(&val(), serve_usage) {
                0 => serve_usage(),
                c => queue_capacity = Some(c),
            },
            "--arrivals" => arrivals = Some(val().to_lowercase()),
            "--qps" => qps = Some(finite(&val(), serve_usage, false)),
            "--fast-qps" => fast_qps = Some(finite(&val(), serve_usage, false)),
            "--dwell-ms" => dwell_ms = finite(&val(), serve_usage, false),
            "--slo-ms" => slo_ms = Some(finite(&val(), serve_usage, false)),
            "--shed-margin" => shed_margin = finite(&val(), serve_usage, true),
            "--hot" => {
                let spec = val();
                let mut parts = spec.split(':');
                let k = parts.next().and_then(|s| s.parse().ok());
                let w = parts.next().and_then(|s| s.parse().ok());
                match (k, w) {
                    (Some(k), Some(w)) => hot = Some((k, w)),
                    _ => serve_usage(),
                }
            }
            "--cache" => use_cache = true,
            "--approx-on-shed" => (approx_on_shed, use_cache) = (true, true),
            _ => return false,
        }
        true
    });
    if o.gen_spec.is_none() {
        let spec = if o.sweep.quick { "erdos:1500:6000" } else { "kronecker:12:16" };
        o.gen_spec = Some(spec.into());
    }
    let (seed, sources, delta0) = (o.seed(), o.sources.unwrap_or(16), o.sweep.delta0);
    let g = build_graph(&o);
    let n = g.num_vertices();
    println!("graph: {} vertices, {} directed edges", n, g.num_edges());

    let rdbs = rdbs_named(&backend_spec, delta0).unwrap_or_else(|| serve_usage());
    if streams == 0 {
        serve_usage();
    }
    let mut config = ServiceConfig { rdbs, device: o.device(), streams, queue_capacity };
    if let Some(kind) = o.sweep.frontier {
        config = config.with_frontier(kind);
    }

    let built = std::time::Instant::now();
    let mut service = SsspService::new(&g, config);
    let uploads_per_graph = service.device_uploads();
    println!(
        "service: backend {backend_spec}, resident in {:.1} ms ({uploads_per_graph} uploads)",
        built.elapsed().as_secs_f64() * 1e3
    );
    let disagrees =
        |s: VertexId, m| format!("serve: FAILED — source {s} disagrees with Dijkstra: {m}");

    // Open-loop traffic mode: seeded simulated-time arrivals with
    // deadline-aware dispatch and admission control, instead of a
    // closed-loop batch.
    if let Some(kind) = arrivals {
        use rdbs::sssp::service::traffic::{ArrivalProcess, Outcome, SourceMix, TrafficConfig};
        // Calibrate rate/SLO defaults from one probe query's measured
        // service time so the workload stresses admission regardless
        // of graph or device scale.
        let _ = service.query((seed % n as u64) as VertexId);
        let service_ms = *service
            .stats()
            .per_query_sim_ms
            .last()
            .expect("the probe query records a service time");
        let qps = qps.unwrap_or(2.0 * streams as f64 * 1e3 / service_ms);
        let slo_ms = slo_ms.unwrap_or(4.0 * service_ms);
        let arrivals = match kind.as_str() {
            "poisson" => ArrivalProcess::Poisson { qps },
            "mmpp" => ArrivalProcess::Mmpp {
                slow_qps: qps,
                fast_qps: fast_qps.unwrap_or(8.0 * qps),
                mean_dwell_ms: dwell_ms,
            },
            _ => serve_usage(),
        };
        let cfg = TrafficConfig {
            arrivals,
            offered: sources,
            seed,
            slo_ms,
            sources: match hot {
                Some((k, w)) => SourceMix::Hot { hot_sources: k, hot_weight: w },
                None => SourceMix::Uniform,
            },
            shed_margin,
            cache: use_cache.then(rdbs::sssp::service::cache::CacheConfig::default),
            approx_on_shed,
        };
        println!(
            "traffic: {kind} arrivals, {qps:.1} qps, SLO {slo_ms:.3} ms, \
             {} offered, margin {shed_margin}, cache {}",
            sources,
            if use_cache { "on" } else { "off" }
        );
        let before = service.stats();
        let report = service.serve_open_loop(&cfg);
        let after = service.stats();
        println!(
            "outcomes: {} exact ({} device, {} fallback, {} cache hits), \
             {} approx, {} shed",
            report.exact,
            report.device_answered,
            report.fallbacks,
            report.cache_hits,
            report.approx,
            report.shed
        );
        if let (Some(p50), Some(p99)) =
            (report.answered_percentile_ms(50.0), report.answered_percentile_ms(99.0))
        {
            println!(
                "answered sojourn: p50 {p50:.3} ms, p99 {p99:.3} ms ({} past deadline), \
                 makespan {:.3} ms",
                report.deadline_violations, report.makespan_ms
            );
        }
        if use_cache {
            println!("cache: hit rate {:.1}% of offered", 100.0 * report.hit_rate());
        }
        report_rungs(&after);
        if o.validate {
            let exact = report.outcomes.iter().filter_map(|out| match out {
                Outcome::Exact { result, .. } => Some((result.source, &result.dist[..])),
                _ => None,
            });
            validate_or_exit(&g, exact, disagrees);
            println!("validation: OK — all {} exact answers match Dijkstra", report.exact);
        }
        if let Err(msg) = report.check_accounting(&before, &after) {
            println!("serve: FAILED — accounting inconsistency: {msg}");
            exit(1);
        }
        println!(
            "serve: OK — accounting consistent, {} of {} offered answered",
            report.exact + report.approx,
            report.offered
        );
        exit(0)
    }

    // Seeded source choice (splitmix64 over the vertex range).
    let picks: Vec<VertexId> = (0..sources as u64)
        .map(|i| {
            let mut x = seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((x ^ (x >> 31)) % n as u64) as VertexId
        })
        .collect();

    let results = service.batch(&picks);
    let stats = service.stats();
    for (i, r) in results.iter().enumerate().take(8) {
        let reached = r.dist.iter().filter(|&&d| d != INF).count();
        println!(
            "  query {i:>3}: source {:>8} reached {reached:>8}  host {:>8.3} ms",
            r.source, stats.per_query_ms[i]
        );
    }
    if results.len() > 8 {
        println!("  ... {} more", results.len() - 8);
    }
    println!(
        "amortization: {} uploads for {} queries ({} avoided), {} bytes recycled, \
         {} pool reuses / {} allocs, {} fallbacks",
        stats.graph_uploads,
        stats.queries,
        stats.uploads_avoided,
        stats.bytes_recycled,
        stats.pool_reuses,
        stats.pool_allocs,
        stats.fallbacks
    );
    if let Some(mean) = stats.mean_query_ms() {
        println!("mean query: {mean:.3} ms host");
    }
    println!(
        "concurrency: {} stream(s), in-flight peak {}, {} on-device escalation(s)",
        streams, stats.inflight_peak, stats.escalations
    );
    if let (Some(p50), Some(p99)) =
        (stats.sim_latency_percentile_ms(50.0), stats.sim_latency_percentile_ms(99.0))
    {
        println!(
            "sim latency: p50 {p50:.3} ms, p99 {p99:.3} ms, batch makespan {:.3} ms",
            stats.sim_batch_ms
        );
    }

    report_rungs(&stats);
    if service.device_uploads() != uploads_per_graph {
        println!(
            "serve: FAILED — the batch re-uploaded the graph ({} uploads, expected {})",
            service.device_uploads(),
            uploads_per_graph
        );
        exit(1);
    }
    if o.validate {
        validate_or_exit(&g, results.iter().map(|r| (r.source, &r.dist[..])), disagrees);
        println!("validation: OK — all {} queries match Dijkstra", results.len());
    }
    println!("serve: OK — one upload served {} queries", results.len());
    exit(0)
}

/// Print how many answers each recovery rung certified, and exit 1 if
/// any answer failed its audit: with no fault armed that is a protocol
/// bug, which the certified answer must not hide.
fn report_rungs(stats: &rdbs::sssp::stats::BatchStats) {
    let device = stats.queries - stats.repairs - stats.reruns - stats.fallbacks;
    println!(
        "certified: {device} device, {} repair, {} rerun, {} host, {} cache; {} failed audit(s)",
        stats.repairs, stats.reruns, stats.fallbacks, stats.cache_exact_hits, stats.audit_failures
    );
    if stats.audit_failures > 0 {
        println!(
            "serve: FAILED — {} answer(s) failed the audit; the recovery ladder certified them, \
             but with no fault armed a failed audit is a protocol bug",
            stats.audit_failures
        );
        exit(1);
    }
}

// ---------------------------------------------------------------------------
// The conformance sweeps — verify, chaos, chaos --adversarial,
// fuzz-schedules, sanitize, analyze — over the one registry: one
// `SweepOptions`, one "matched nothing" exit.
// ---------------------------------------------------------------------------

/// Print a sweep's usage: `about`, the shared flags, the sweep's own
/// `flags`, and its entries straight from the registry — with the
/// `--quick` set, for the sweeps whose `--quick` narrows entries.
fn sweep_usage(mode: &str, about: &str, flags: &str, cap: u16) -> ! {
    use rdbs::conformance::registry::{DIFFERENTIAL, QUICK};
    let ids = |extra: u16| {
        let picked = rdbs::conformance::with_faults().into_iter().filter(|e| e.has(cap | extra));
        picked.map(|e| e.id).collect::<Vec<_>>().join(" ")
    };
    let quick = match cap {
        DIFFERENTIAL => String::new(),
        _ => format!("\nquick entries:\n  {}", ids(QUICK)),
    };
    eprintln!(
        "usage: rdbs-cli {mode} [options]

{about}

  --quick             reduced sweep: quick families, one source, and the
                      quick entries where listed below
  --entry SUBSTR      only entries whose id contains SUBSTR (alias --impl)
  --graph SUBSTR      only families whose name contains SUBSTR
  --frontier single|mlmq
                      force this device frontier layout on every entry
                      that accepts one (entries with a fixed layout keep
                      theirs)
{flags}

entries:
  {all}{quick}",
        all = ids(0),
    );
    exit(2)
}

/// The one exit for a sweep whose filters selected nothing.
fn require_cells(cells: usize) {
    if cells == 0 {
        eprintln!("error: the filters matched no cells — nothing was run");
        exit(2);
    }
}

/// Run a sweep whose attempts may panic — a graded outcome, not noise —
/// without the default hook spraying backtraces over the report.
fn quietly<T>(sweep: impl FnOnce() -> T) -> T {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = sweep();
    std::panic::set_hook(prev_hook);
    out
}

fn verify_usage() -> ! {
    sweep_usage(
        "verify",
        "matrix mode (default): run every implementation x graph family x source
against the Dijkstra oracle; on failure, minimize a witness and localize
the first divergence. Exits non-zero on any mismatch, panic, or answer
that failed its audit before the recovery ladder certified it (with no
fault armed, a protocol bug).",
        "  --delta0 W          bucket-width override for the whole sweep
  --inject-fault      also run the registry's deliberate fault specimen
                      (demonstrates the shrink + localize pipeline)
  --no-shrink         report failures without minimizing
  --witness-out FILE  where to write the minimized witness
                      (default rdbs-witness.txt)

replay mode: re-run one implementation on a minimized witness file
  --witness FILE      witness produced by a previous verify run
  --impl ID           exact implementation id to replay (required)
  --delta0 W          bucket width the witness was minimized under",
        rdbs::conformance::registry::DIFFERENTIAL,
    )
}

fn verify_main(args: Vec<String>) -> ! {
    use rdbs::conformance as conf;
    let (mut shrink, mut witness_out, mut witness_in) =
        (true, "rdbs-witness.txt".to_string(), None);
    let o = parse(args, verify_usage, SWEEP | DELTA0, |flag, val, o| {
        match flag {
            "--inject-fault" => o.include_faults = true,
            "--no-shrink" => shrink = false,
            "--witness-out" => witness_out = val(),
            "--witness" => witness_in = Some(val()),
            _ => return false,
        }
        true
    })
    .sweep;
    let with_frontier = |imp: conf::Entry| o.frontier.map_or(imp, |kind| imp.with_frontier(kind));

    // Replay mode: one implementation on one witness file.
    if let Some(path) = &witness_in {
        let id = o.entry_filter.as_deref().unwrap_or_else(|| {
            eprintln!("error: --witness requires --impl with an exact implementation id\n");
            verify_usage()
        });
        let imp = with_frontier(conf::by_id(id).unwrap_or_else(|| {
            eprintln!("error: unknown implementation '{id}'\n");
            verify_usage()
        }));
        let file = std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            exit(1)
        });
        let w = io::read_witness(BufReader::new(file)).unwrap_or_else(|e| {
            eprintln!("failed to parse witness {path}: {e}");
            exit(1)
        });
        let g = if w.directed { build_directed(&w.edges) } else { build_undirected(&w.edges) };
        println!(
            "witness: {} vertices, {} edges, source {}{}",
            w.edges.num_vertices,
            w.edges.edges.len(),
            w.source,
            if w.directed { ", directed" } else { "" }
        );
        let oracle = dijkstra(&g, w.source);
        if let Err(failure) = conf::run_case(&imp, &g, &oracle.dist, w.source, o.delta0) {
            println!("{id}: FAIL — {failure}");
            if let Some(d) = conf::localize(&imp, &g, w.source, o.delta0) {
                println!("{d}");
            }
            exit(1)
        }
        println!("{id}: OK (matches Dijkstra on the witness)");
        exit(0)
    }

    // Matrix mode.
    let mut current_graph = String::new();
    let mut graph_cases = 0usize;
    let mut graph_failures = 0usize;
    let report = conf::run_matrix(&o, |_imp, graph, _source, ok| {
        if graph != current_graph {
            if !current_graph.is_empty() {
                println!("  {current_graph:<14} {graph_cases:>4} cases, {graph_failures} failures");
            }
            current_graph = graph.to_string();
            graph_cases = 0;
            graph_failures = 0;
        }
        graph_cases += 1;
        graph_failures += usize::from(!ok);
    });
    if !current_graph.is_empty() {
        println!("  {current_graph:<14} {graph_cases:>4} cases, {graph_failures} failures");
    }
    println!(
        "verify: {} implementations x {} families, {} cases, {} failures",
        report.impls_run,
        report.graphs_run,
        report.cases_run,
        report.failures.len()
    );
    require_cells(report.cases_run);
    if report.is_green() {
        println!("verify: OK — every implementation matches the Dijkstra oracle");
        exit(0);
    }

    for f in &report.failures {
        println!("FAIL {} on {} from source {}: {}", f.impl_id, f.graph, f.source, f.kind);
    }

    // Minimize the first failure into a replayable witness.
    if shrink {
        let first = &report.failures[0];
        let imp =
            with_frontier(conf::by_id(first.impl_id).expect("failure ids come from the registry"));
        let family = conf::families().into_iter().find(|g| g.name == first.graph);
        if let Some(family) = family {
            println!(
                "\nminimizing {} on {} (source {})...",
                first.impl_id, first.graph, first.source
            );
            let shrunk = conf::shrink(&imp, &family.edge_list(), first.source, o.delta0);
            let w = &shrunk.witness;
            println!(
                "minimal witness: {} vertices, {} edges, source {} ({} evaluations): {}",
                w.edges.num_vertices,
                w.edges.edges.len(),
                w.source,
                shrunk.evals,
                shrunk.failure
            );
            let file = std::fs::File::create(&witness_out).unwrap_or_else(|e| {
                eprintln!("cannot write {witness_out}: {e}");
                exit(1)
            });
            io::write_witness(w, file).unwrap_or_else(|e| {
                eprintln!("cannot write {witness_out}: {e}");
                exit(1)
            });
            println!("witness written to {witness_out}");
            println!("repro: {}", shrunk.repro_command(&witness_out));
            let g = build_undirected(&w.edges);
            if let Some(d) = conf::localize(&imp, &g, w.source, o.delta0) {
                println!("\n{d}");
            }
        }
    }
    exit(1)
}

fn chaos_usage() -> ! {
    sweep_usage(
        "chaos",
        "Sweep fault models x fault-swept entry points x graph families, grading
each cell's certified answer against the Dijkstra oracle. Each line names
the recovery rung that certified the answer (device, repair, rerun or
host); a cell may also error out loudly. A silently wrong answer fails
the sweep: exits non-zero on any. The sweep is deterministic: the same
flags replay the same fault schedules byte for byte.",
        &format!(
            "  --seed N            fault seed (repeatable; default 1,2 — or 1 with --quick)
  --model SUBSTR      only fault models whose name contains SUBSTR
  --rate R            injection rate override (default is per-model)
  --reports           print what the detectors saw for every cell, not
                      just the cells where a detector fired

adversarial mode (replaces the uniform sweep with a placement search):
  --adversarial       scout each entry's sanitizer access profile, then
                      search fault placements for the deepest recovery
                      rung at a fixed injection budget, racing an
                      equal-budget uniform baseline
  --seed N            search seed (default 1)
  --budget N          injections per (entry, graph) per arm (default 64)
  --evals N           candidate evaluations per arm (default 12)
  --corpus-out FILE   write the replayable worst-case corpus to FILE

fault models:
  {}",
            rdbs::sim::FaultModel::ALL.map(|m| m.name()).join(" ")
        ),
        rdbs::conformance::registry::FAULTS,
    )
}

/// A `--model` filter that matches no fault model is a typo, not an
/// empty sweep: name the valid models and bail before running anything.
fn check_model_filter(filter: &Option<String>) {
    if let Some(f) = filter {
        if !rdbs::sim::FaultModel::ALL.iter().any(|m| m.name().contains(f.as_str())) {
            eprintln!(
                "error: unknown fault model '{f}' — valid models: {}",
                rdbs::sim::FaultModel::ALL.map(|m| m.name()).join(" ")
            );
            exit(2);
        }
    }
}

fn chaos_main(args: Vec<String>) -> ! {
    use rdbs::conformance as conf;
    let mut show_all_reports = false;
    let o = parse(args, chaos_usage, SWEEP | SEED, |flag, val, o| {
        match flag {
            "--model" => o.model_filter = Some(val()),
            "--rate" => o.rate = Some(num(&val(), chaos_usage)),
            "--reports" => show_all_reports = true,
            _ => return false,
        }
        true
    })
    .sweep;
    check_model_filter(&o.model_filter);

    let report = quietly(|| {
        conf::run_chaos(&o, |cell| {
            println!(
                "  {:<14} {:<20} {:<14} seed {:<3} {:>5} inj  {:<9} {:<7} {}",
                cell.entry_id,
                cell.model.name(),
                cell.graph,
                cell.seed,
                cell.injections,
                if cell.detected() { "detected" } else { "quiet" },
                cell.via.map_or_else(|| "-".to_string(), |via| via.to_string()),
                cell.verdict
            );
            if show_all_reports || cell.detected() {
                println!("      detection: {}", cell.detection);
            }
        })
    });

    let (clean, recovered, degraded, errored, silent) = report.tally();
    println!(
        "chaos: {} cells — {clean} clean, {recovered} recovered, {degraded} degraded, \
         {errored} errored, {silent} silently wrong",
        report.cells.len()
    );
    require_cells(report.cells.len());
    if report.is_green() {
        println!("chaos: OK — no silent wrong answers");
        exit(0);
    }
    for c in report.silent_wrong() {
        println!(
            "FAIL {} under {} on {} (source {}, seed {}, rate {}): {}",
            c.entry_id, c.model, c.graph, c.source, c.seed, c.rate, c.verdict
        );
    }
    exit(1)
}

/// `rdbs-cli chaos --adversarial` — the budgeted placement search.
fn adversary_main(args: Vec<String>) -> ! {
    use rdbs::conformance as conf;
    let mut corpus_out: Option<String> = None;
    let o = parse(args, chaos_usage, SWEEP | SEED, |flag, val, o| {
        match flag {
            "--adversarial" => {}
            "--model" => o.model_filter = Some(val()),
            "--budget" => o.budget = num(&val(), chaos_usage),
            "--evals" => o.max_evals = num(&val(), chaos_usage),
            "--corpus-out" => corpus_out = Some(val()),
            _ => return false,
        }
        true
    })
    .sweep;
    // The search picks its own models from the scouted profile; a
    // `--model` filter still gets the typo check so `chaos --model nope
    // --adversarial` fails the same way the uniform sweep does.
    check_model_filter(&o.model_filter);

    let report = quietly(|| {
        conf::run_adversary(&o, |run| {
            println!(
                "  {:<14} {:<14} source {:<6} {} waves, {} targets — targeted {} ({}), \
                 uniform {} ({}){}",
                run.entry_id,
                run.graph,
                run.source,
                run.waves,
                run.pool_size,
                run.best_targeted,
                conf::depth_label(run.best_targeted),
                run.best_uniform,
                conf::depth_label(run.best_uniform),
                if run.silent_wrong > 0 { "  SILENT WRONG" } else { "" }
            );
        })
    });

    require_cells(report.runs.len());
    let corpus = conf::corpus_lines(&report);
    if let Some(path) = corpus_out {
        if let Some(parent) = std::path::Path::new(&path).parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        std::fs::write(&path, &corpus).unwrap_or_else(|e| {
            eprintln!("cannot write corpus to {path}: {e}");
            exit(1)
        });
        println!("adversary: corpus written to {path}");
    } else {
        print!("{corpus}");
    }
    let deepest = report.runs.iter().map(|r| r.best_targeted).max().unwrap_or(0);
    println!(
        "adversary: {} cells searched at budget {} — deepest rung {} ({}), targeted beat \
         uniform on {} cell(s)",
        report.runs.len(),
        o.budget,
        deepest,
        conf::depth_label(deepest),
        report.runs.iter().filter(|r| r.best_targeted > r.best_uniform).count()
    );
    if report.is_green() {
        println!("adversary: OK — no silent wrong answers under targeted placement");
        exit(0);
    }
    eprintln!("adversary: FAIL — a placement produced a silently wrong answer");
    exit(1)
}

fn fuzz_usage() -> ! {
    sweep_usage(
        "fuzz-schedules",
        "Re-execute every fuzzable entry's scenario (the service entries through
the service itself) under seeded lane/wave interleaving permutations with
the memory-model sanitizer armed, checking each permuted run against the
Dijkstra oracle. A planted-race specimen is re-checked under every
permutation seed to prove the detector stays alive when the schedule
shifts. Exits non-zero if any permuted run is wrong, fails its audit
(even when the recovery ladder then certified the answer), races, or the
specimen goes undetected. Deterministic in (--seed, --perms).",
        "  --perms N           permutation seeds per (entry, graph) (default 32)
  --seed N            base seed the permutations derive from (default 1)",
        rdbs::conformance::registry::FUZZ,
    )
}

fn fuzz_main(args: Vec<String>) -> ! {
    use rdbs::conformance as conf;
    let o = parse(args, fuzz_usage, SWEEP | SEED, |flag, val, o| {
        match flag {
            "--perms" => o.perms = num(&val(), fuzz_usage),
            _ => return false,
        }
        true
    })
    .sweep;

    let report = quietly(|| {
        conf::fuzz_schedules(&o, |cell| {
            if !cell.is_clean() {
                println!(
                    "  {:<14} {:<14} perm {:<20} correct={} violations={} panic={:?}",
                    cell.entry_id,
                    cell.graph,
                    cell.perm_seed,
                    cell.correct,
                    cell.violations,
                    cell.panic
                );
            }
        })
    });

    require_cells(report.cells.len());
    println!(
        "fuzz-schedules: {} permuted runs, specimen {}",
        report.cells.len(),
        if report.specimen_alive { "alive under every permutation" } else { "LOST" }
    );
    if report.is_green() {
        println!("fuzz-schedules: OK — every permuted schedule correct, race-free");
        exit(0);
    }
    let dirty = report.dirty_cells().count();
    eprintln!(
        "fuzz-schedules: FAIL — {dirty} dirty permuted run(s){}",
        if report.specimen_alive { "" } else { "; sanitizer went blind under permutation" }
    );
    exit(1)
}

fn sanitize_usage() -> ! {
    sweep_usage(
        "sanitize",
        "Run every GPU entry point over the graph families with the wave-level
memory-model sanitizer armed: races between lanes, snapshot-visibility
hazards of plain loads, reads of never-written words and gang
divergence all become typed violations. Each cell's answer is also
checked against the Dijkstra oracle, and an answer that failed its
audit before the recovery ladder certified it fails the cell. Before
the sweep, a planted-race specimen proves the detector fires. Exits
non-zero unless the specimen is detected AND every cell is correct with
zero violations. The sweep is deterministic: the same flags reproduce
the same reports byte for byte.",
        "  --max N             violations to print per dirty cell (default 5)",
        rdbs::conformance::registry::SANITIZE,
    )
}

fn sanitize_main(args: Vec<String>) -> ! {
    use rdbs::conformance as conf;
    let mut max_print = 5usize;
    let o = parse(args, sanitize_usage, SWEEP, |flag, val, _| {
        match flag {
            "--max" => max_print = num(&val(), sanitize_usage),
            _ => return false,
        }
        true
    })
    .sweep;

    // Liveness first: a green matrix from a dead detector is
    // meaningless.
    match conf::specimen_detected() {
        Ok(()) => {
            let v = conf::planted_race_specimen();
            println!("specimen: planted race detected ({} violation(s)); first:", v.len());
            println!("  {}", v[0]);
        }
        Err(e) => {
            eprintln!("FAIL specimen: {e}");
            exit(1);
        }
    }

    let report = conf::run_sanitize(&o, |cell| {
        println!(
            "  {:<16} {:<16} source {:<3} {:>6} violation(s)  {}",
            cell.entry_id,
            cell.graph,
            cell.source,
            cell.total,
            if cell.is_clean() { "clean" } else { "DIRTY" }
        );
        for v in cell.violations.iter().take(max_print) {
            println!("      {v}");
        }
        if let Some(m) = &cell.mismatch {
            println!("      mismatch: {m}");
        }
        if let Some(p) = &cell.panic {
            println!("      panic: {p}");
        }
    });

    println!(
        "sanitize: {} cells, {} violation(s) total",
        report.cells.len(),
        report.total_violations()
    );
    require_cells(report.cells.len());
    if report.is_green() {
        println!("sanitize: OK — zero violations, all answers correct");
        exit(0);
    }
    for c in report.dirty_cells() {
        println!(
            "FAIL {} on {} (source {}): {} violation(s){}{}",
            c.entry_id,
            c.graph,
            c.source,
            c.total,
            c.mismatch.as_deref().map(|m| format!(", mismatch: {m}")).unwrap_or_default(),
            c.panic.as_deref().map(|p| format!(", panic: {p}")).unwrap_or_default(),
        );
    }
    exit(1)
}

fn analyze_usage() -> ! {
    sweep_usage(
        "analyze",
        "Run every GPU entry point x frontier layout with the access-IR
recorder armed and verify the retained IR statically: per-kernel
race-freedom certificates (race-free | sanctioned-racy | racy) that
quantify over ALL lane interleavings, per-queue push-bound
certificates (bounded | spilling | overflowing), a gang-divergence
lint and a coalescing / atomic-contention report. Entries that accept a
forced frontier run on every layout unless --frontier picks one.
Before the sweep, two specimens prove the verifier fires: the planted
write-write race, and a schedule-hidden publish race the dynamic
sanitizer misses under every permutation. Exits non-zero unless both
specimens are caught AND no kernel is racy, no queue overflows, and
every answer is correct. Deterministic: the same flags reproduce the
same bytes.",
        "  --json              print the full report as JSON
  --write PATH        write the certificate baseline to PATH
  --check PATH        diff certificates against the baseline at PATH;
                      fail on lost/downgraded/new-red certificates",
        rdbs::conformance::registry::SANITIZE,
    )
}

fn analyze_main(args: Vec<String>) -> ! {
    use rdbs::conformance as conf;
    let mut json = false;
    let mut write_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let o = parse(args, analyze_usage, SWEEP, |flag, val, _| {
        match flag {
            "--json" => json = true,
            "--write" => write_path = Some(val()),
            "--check" => check_path = Some(val()),
            _ => return false,
        }
        true
    })
    .sweep;

    // With --json, stdout carries exactly one JSON document; all the
    // human-readable narration moves to stderr so the output pipes
    // straight into a parser.
    macro_rules! say {
        ($($arg:tt)*) => {
            if json { eprintln!($($arg)*) } else { println!($($arg)*) }
        };
    }

    // Liveness first: a green matrix from a dead verifier is
    // meaningless. This also proves the static pass sees strictly
    // more than the dynamic one — the hidden specimen is clean under
    // the default order and 32 fuzzed permutations, yet flagged here.
    match conf::specimens_caught_statically() {
        Ok(()) => {
            let hidden = conf::schedule_hidden_specimen();
            let cert = &hidden.analysis.kernels["hidden-publish"];
            say!(
                "specimen: planted race flagged statically; schedule-hidden race flagged \
                 ({} dynamic violation(s), {} across {} permutations); first finding:",
                hidden.dynamic_violations,
                hidden.fuzz_violations,
                hidden.fuzz_seeds
            );
            say!("  {}", cert.findings[0]);
        }
        Err(e) => {
            eprintln!("FAIL specimen: {e}");
            exit(1);
        }
    }

    let report = conf::run_analyze(&o, |cell| {
        say!(
            "  {:<24} {:>2} run(s) {:>3} kernel(s) {:>2} queue(s)  worst {:<16} {}",
            cell.key(),
            cell.runs,
            cell.analysis.kernels.len(),
            cell.analysis.queues.len(),
            cell.analysis.worst_verdict().name(),
            if cell.is_clean() { "clean" } else { "RED" }
        );
        for cert in cell.analysis.kernels.values() {
            for h in cert.findings.iter().take(3) {
                say!("      {h}");
            }
        }
        if let Some(m) = &cell.mismatch {
            say!("      mismatch: {m}");
        }
        if let Some(p) = &cell.panic {
            say!("      panic: {p}");
        }
    });

    require_cells(report.cells.len());
    if json {
        print!("{}", conf::report_json(&report));
    }
    if let Some(path) = &write_path {
        std::fs::write(path, conf::baseline_json(&report)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
        say!("analyze: baseline written to {path}");
    }
    let mut baseline_ok = true;
    if let Some(path) = &check_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        });
        let check = conf::check_baseline(&report, &text);
        for n in &check.notes {
            say!("note: {n}");
        }
        for f in &check.failures {
            say!("FAIL {f}");
        }
        baseline_ok = check.ok();
        say!(
            "analyze: baseline check {} ({} failure(s), {} note(s))",
            if baseline_ok { "OK" } else { "FAILED" },
            check.failures.len(),
            check.notes.len()
        );
    }

    say!("analyze: {} cells", report.cells.len());
    if report.is_green() && baseline_ok {
        say!("analyze: OK — every kernel certified, every queue bounded or spilling");
        exit(0);
    }
    for c in report.red_cells() {
        say!(
            "FAIL {}: worst verdict {}, worst queue {}{}{}",
            c.key(),
            c.analysis.worst_verdict().name(),
            c.analysis.worst_queue_class().name(),
            c.mismatch.as_deref().map(|m| format!(", mismatch: {m}")).unwrap_or_default(),
            c.panic.as_deref().map(|p| format!(", panic: {p}")).unwrap_or_default(),
        );
    }
    exit(1)
}
