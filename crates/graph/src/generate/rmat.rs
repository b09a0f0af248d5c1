//! R-MAT recursive-matrix generator (Chakrabarti et al., SDM 2004).
//!
//! Each edge is placed by recursively descending a 2×2 partition of the
//! adjacency matrix with probabilities `(a, b, c, d)`. The paper's
//! synthetic inputs use the Graph500 parameterization
//! `A=0.57, B=0.19, C=0.19, D=0.05` (§5.1.2).

use super::rng;
use crate::builder::EdgeList;
use crate::{par, VertexId};
use rand::Rng;

/// R-MAT generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct RmatConfig {
    /// log2 of the number of vertices (`n = 2^scale`).
    pub scale: u32,
    /// Average directed edges per vertex (`m = edgefactor * n`).
    pub edgefactor: u32,
    /// Quadrant probabilities; must sum to ~1.
    pub a: f64,
    pub b: f64,
    pub c: f64,
    /// Per-level probability noise, as in the Graph500 reference
    /// implementation ("smoothing" to avoid exact self-similarity).
    /// 0.0 disables it.
    pub noise: f64,
}

impl RmatConfig {
    /// The Graph500/paper parameterization (A=0.57, B=0.19, C=0.19).
    pub fn graph500(scale: u32, edgefactor: u32) -> Self {
        Self { scale, edgefactor, a: 0.57, b: 0.19, c: 0.19, noise: 0.0 }
    }

    fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

/// Generate an R-MAT edge list (unweighted: all weights 1; use
/// [`super::assign_uniform_weights`] afterwards).
///
/// Edge `i` draws keystream words `i * w .. (i + 1) * w` of the seed's
/// one ChaCha8 stream (`w = 2 * scale`, `10 * scale` with noise), so
/// the edges split into contiguous ranges, one per core, each sampled
/// by its own generator seeked to the range's first word: the list is
/// the one a single sequential generator draws, whatever the range
/// count.
///
/// # Panics
/// Panics if `scale >= 32` or the probabilities are invalid.
pub fn rmat(config: RmatConfig, seed: u64) -> EdgeList {
    assert!(config.scale < 32, "scale must fit u32 vertex ids");
    assert!(
        config.a > 0.0 && config.b >= 0.0 && config.c >= 0.0 && config.d() >= 0.0,
        "invalid R-MAT probabilities"
    );
    let m = (1usize << config.scale) * config.edgefactor as usize;
    rmat_in_ranges(config, seed, par::ranges_for(m * words_per_edge(&config) as usize))
}

/// [`rmat`] over `ranges` contiguous edge ranges, each written in place
/// into its own slice of one pre-sized list.
fn rmat_in_ranges(config: RmatConfig, seed: u64, ranges: usize) -> EdgeList {
    let n = 1usize << config.scale;
    let m = n * config.edgefactor as usize;
    let mut edges = vec![(0, 0, 1); m];
    let chunk = m.div_ceil(ranges).max(1);
    let words = words_per_edge(&config);
    par::run_each(edges.chunks_mut(chunk).enumerate(), |(i, out)| {
        let mut r = rng(seed);
        r.set_word_pos((i * chunk) as u128 * words as u128);
        for e in out {
            (e.0, e.1) = sample_edge(&config, &mut r);
        }
    });
    EdgeList { num_vertices: n, edges }
}

/// Keystream words one edge draws: an f64 (two words) per level, and
/// with noise four more per level for the jittered probabilities.
fn words_per_edge(config: &RmatConfig) -> u64 {
    let draws = if config.noise > 0.0 { 5 } else { 1 };
    2 * draws * config.scale as u64
}

/// One edge: per level, the quadrant bits come straight from the
/// comparisons of the uniform draw `x` with the cumulative
/// probabilities: `u` is set in the bottom half (`x >= a + b`), `v` in
/// the right column (`a <= x < a + b`, or `x >= a + b + c`). No branch
/// depends on `x`, so nothing mispredicts on it.
fn sample_edge(config: &RmatConfig, r: &mut impl Rng) -> (VertexId, VertexId) {
    let mut u = 0u32;
    let mut v = 0u32;
    for _ in 0..config.scale {
        let (mut a, mut b, mut c) = (config.a, config.b, config.c);
        if config.noise > 0.0 {
            // Multiplicative noise per level, then renormalize.
            let noise = config.noise;
            let mut jitter = |x: f64| x * (1.0 - noise + 2.0 * noise * r.gen::<f64>());
            (a, b, c) = (jitter(a), jitter(b), jitter(c));
            let s = a + b + c + jitter(config.d());
            (a, b, c) = (a / s, b / s, c / s);
        }
        let x: f64 = r.gen();
        let ab = a + b;
        u = u << 1 | (x >= ab) as u32;
        v = v << 1 | ((a <= x) & (x < ab) | (x >= ab + c)) as u32;
    }
    (u, v)
}

/// The sequential sampler [`rmat`] replaced, kept as the reference
/// its property test compares against: one generator, drawing edge
/// after edge, each level's quadrant taken by an `if` chain on the
/// draw.
#[cfg(test)]
fn rmat_reference(config: RmatConfig, seed: u64) -> EdgeList {
    let n = 1usize << config.scale;
    let mut r = rng(seed);
    let mut list = EdgeList::new(n);
    for _ in 0..n * config.edgefactor as usize {
        let mut u = 0u32;
        let mut v = 0u32;
        let d = config.d();
        for _ in 0..config.scale {
            let (mut a, mut b, mut c, mut dd) = (config.a, config.b, config.c, d);
            if config.noise > 0.0 {
                let jitter = |x: f64, r: &mut dyn rand::RngCore| {
                    x * (1.0 - config.noise + 2.0 * config.noise * rand::Rng::gen::<f64>(&mut *r))
                };
                a = jitter(a, &mut r);
                b = jitter(b, &mut r);
                c = jitter(c, &mut r);
                dd = jitter(dd, &mut r);
                let s = a + b + c + dd;
                a /= s;
                b /= s;
                c /= s;
            }
            let x: f64 = r.gen();
            u <<= 1;
            v <<= 1;
            if x < a {
                // top-left: no bits set
            } else if x < a + b {
                v |= 1;
            } else if x < a + b + c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        list.push(u, v, 1);
    }
    list
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Any range count samples the reference's list edge for edge:
        /// noisy or not, with ranges that start mid-block (an edge of
        /// an odd scale draws a word count that is no multiple of 16).
        #[test]
        fn ranges_sample_the_sequential_reference(
            scale in 1u32..15,
            edgefactor in 1u32..17,
            noisy in any::<bool>(),
            seed in any::<u64>(),
        ) {
            // Bound each case's draws (the tests run unoptimized).
            let edgefactor = edgefactor.min((1 << 11 >> scale).max(1));
            let mut cfg = RmatConfig::graph500(scale, edgefactor);
            cfg.noise = if noisy { 0.1 } else { 0.0 };
            let reference = rmat_reference(cfg, seed);
            for ranges in 1..=5 {
                prop_assert_eq!(&rmat_in_ranges(cfg, seed, ranges), &reference, "{} ranges", ranges);
            }
            prop_assert_eq!(&rmat(cfg, seed), &reference);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = RmatConfig::graph500(8, 4);
        let a = rmat(cfg, 42);
        let b = rmat(cfg, 42);
        assert_eq!(a, b);
        let c = rmat(cfg, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn edge_count_and_range() {
        let cfg = RmatConfig::graph500(6, 8);
        let el = rmat(cfg, 7);
        assert_eq!(el.num_vertices, 64);
        assert_eq!(el.len(), 64 * 8);
        assert!(el.edges.iter().all(|&(u, v, _)| u < 64 && v < 64));
    }

    #[test]
    fn skewed_distribution() {
        // With A=0.57 the low-id quadrant should attract clearly more
        // endpoints than the high-id quadrant.
        let cfg = RmatConfig::graph500(10, 16);
        let el = rmat(cfg, 1);
        let n = el.num_vertices as VertexId;
        let low = el.edges.iter().filter(|&&(u, _, _)| u < n / 2).count();
        let high = el.len() - low;
        assert!(low > high * 2, "low {low} high {high}");
    }

    #[test]
    fn noise_changes_output_but_not_counts() {
        let mut cfg = RmatConfig::graph500(7, 4);
        let base = rmat(cfg, 5);
        cfg.noise = 0.1;
        let noisy = rmat(cfg, 5);
        assert_eq!(base.len(), noisy.len());
        assert_ne!(base, noisy);
    }
}
