//! Stand-ins for the paper's evaluation datasets (Table 1).
//!
//! The paper evaluates on ten SNAP / network-repository graphs plus
//! Graph500 Kronecker graphs. Those downloads are not available here,
//! so each dataset is replaced by a **seeded synthetic stand-in** that
//! matches the properties the paper's analysis depends on — vertex/edge
//! ratio, degree skew (power-law hubs vs uniform road meshes) and
//! diameter class — at a configurable fraction of the original size
//! (`scale_shift`: the stand-in has `paper_vertices >> scale_shift`
//! vertices). Real files can be loaded via [`crate::io`] instead and
//! run through the same harness.
//!
//! Vertex labels of every stand-in are shuffled so that, as in real
//! data, vertex id carries no degree information — otherwise
//! property-driven reordering would get its work done for free.

use crate::builder::{build_undirected, EdgeList};
use crate::generate::powerlaw::windowed_preferential_attachment;
use crate::generate::{grid_road, kronecker, uniform_weights, GridConfig, KroneckerConfig};
use crate::{Csr, VertexId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Structural family of a stand-in generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Near-planar mesh, uniform tiny degree, huge diameter
    /// (roadNet-TX).
    Road,
    /// Power-law / heavy-tailed degree distribution; `m` is the
    /// preferential-attachment edge count chosen to match the paper's
    /// average degree.
    PowerLaw { m: u32 },
    /// Graph500 Kronecker (`k-n<scale>-<ef>`).
    Kronecker { scale: u32, edgefactor: u32 },
}

/// One dataset row of the paper's Table 1 plus its stand-in recipe.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// The paper's short name (road-TX, Amazon, ...).
    pub name: &'static str,
    /// Vertices in the real graph (Table 1).
    pub paper_vertices: usize,
    /// Directed edges in the real graph (Table 1).
    pub paper_edges: usize,
    /// Table 1 average degree.
    pub paper_avg_deg: f64,
    /// Table 1 max diameter.
    pub paper_diameter: u32,
    /// Stand-in generator family.
    pub family: Family,
}

impl DatasetSpec {
    /// Vertices the stand-in will have at a given shift.
    pub fn standin_vertices(&self, scale_shift: u32) -> usize {
        match self.family {
            Family::Kronecker { scale, .. } => 1usize << scale.saturating_sub(scale_shift).max(8),
            _ => (self.paper_vertices >> scale_shift).max(1 << 10),
        }
    }

    /// Generate the weighted, symmetrized, deduplicated CSR stand-in.
    ///
    /// `scale_shift` divides the paper's vertex count by `2^shift`
    /// (clamped to at least 1024 vertices / SCALE 8); `seed` controls
    /// all randomness, including the paper-style uniform 1..=1000
    /// weights.
    pub fn generate(&self, scale_shift: u32, seed: u64) -> Csr {
        let n = self.standin_vertices(scale_shift);
        let mut list = match self.family {
            Family::Road => {
                // A strip whose long side preserves the paper's hop
                // diameter: shrinking a road network uniformly would
                // shrink its diameter by sqrt(2^shift) and with it the
                // bucket/iteration counts that make road graphs the
                // adversarial case for bucketed SSSP. Keep rows at the
                // real diameter (as long as the vertex budget allows).
                // Keep the strip at least 8 columns wide: narrower
                // strips percolate into fragments under the deletion
                // probability.
                let rows = (self.paper_diameter as usize).min(n / 8).max(1);
                let cols = n.div_ceil(rows);
                // No long-range shortcuts: they would crush the
                // diameter that defines this dataset's behaviour.
                grid_road(GridConfig { rows, cols, deletion_prob: 0.25, shortcuts: 0 }, seed)
            }
            Family::PowerLaw { m } => {
                // Recency window sized so the community-chain depth
                // matches the paper graph's diameter at any scale
                // (calibrated against the double-sweep measurement:
                // hop diameter ≈ 2.2 · n / window).
                let m = m as usize;
                let window = if self.paper_diameter <= 12 {
                    n // shallow graph: plain preferential attachment
                } else {
                    (85 * n / (100 * self.paper_diameter as usize)).max(m + 1)
                };
                windowed_preferential_attachment(n, m, window, seed)
            }
            Family::Kronecker { edgefactor, .. } => {
                let scale = n.trailing_zeros();
                kronecker(KroneckerConfig::new(scale, edgefactor), seed)
            }
        };
        // Kronecker already permutes labels internally; shuffle the rest.
        if !matches!(self.family, Family::Kronecker { .. }) {
            shuffle_labels(&mut list, seed ^ 0xD1B5_4A32_D192_ED03);
        }
        uniform_weights(&mut list, seed ^ 0x94D0_49BB_1331_11EB);
        build_undirected(&list)
    }
}

fn shuffle_labels(list: &mut EdgeList, seed: u64) {
    let n = list.num_vertices;
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    perm.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    for e in &mut list.edges {
        e.0 = perm[e.0 as usize];
        e.1 = perm[e.1 as usize];
    }
}

/// The ten real-world rows of Table 1, in the paper's order.
pub fn table1() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "road-TX",
            paper_vertices: 1_379_917,
            paper_edges: 1_921_660,
            paper_avg_deg: 1.39,
            paper_diameter: 1054,
            family: Family::Road,
        },
        DatasetSpec {
            name: "Amazon",
            paper_vertices: 403_394,
            paper_edges: 3_387_388,
            paper_avg_deg: 8.39,
            paper_diameter: 21,
            family: Family::PowerLaw { m: 4 },
        },
        DatasetSpec {
            name: "web-GL",
            paper_vertices: 875_713,
            paper_edges: 5_105_039,
            paper_avg_deg: 5.82,
            paper_diameter: 21,
            family: Family::PowerLaw { m: 3 },
        },
        DatasetSpec {
            name: "com-LJ",
            paper_vertices: 3_997_962,
            paper_edges: 34_681_189,
            paper_avg_deg: 8.67,
            paper_diameter: 17,
            family: Family::PowerLaw { m: 4 },
        },
        DatasetSpec {
            name: "soc-PK",
            paper_vertices: 1_632_803,
            paper_edges: 30_622_564,
            paper_avg_deg: 18.75,
            paper_diameter: 11,
            family: Family::PowerLaw { m: 9 },
        },
        DatasetSpec {
            name: "com-OK",
            paper_vertices: 3_072_441,
            paper_edges: 117_185_083,
            paper_avg_deg: 38.14,
            paper_diameter: 9,
            family: Family::PowerLaw { m: 19 },
        },
        DatasetSpec {
            name: "as-Skt",
            paper_vertices: 1_696_415,
            paper_edges: 11_095_298,
            paper_avg_deg: 6.54,
            paper_diameter: 25,
            family: Family::PowerLaw { m: 3 },
        },
        DatasetSpec {
            name: "soc-LJ",
            paper_vertices: 4_847_571,
            paper_edges: 68_993_773,
            paper_avg_deg: 14.23,
            paper_diameter: 16,
            family: Family::PowerLaw { m: 7 },
        },
        DatasetSpec {
            name: "wiki-TK",
            paper_vertices: 2_394_385,
            paper_edges: 5_021_410,
            paper_avg_deg: 2.10,
            paper_diameter: 9,
            family: Family::PowerLaw { m: 1 },
        },
        DatasetSpec {
            name: "soc-TW",
            paper_vertices: 21_297_772,
            paper_edges: 265_025_545,
            paper_avg_deg: 12.44,
            paper_diameter: 18,
            family: Family::PowerLaw { m: 6 },
        },
    ]
}

/// The Kronecker dataset `k-n<scale>-<ef>` used throughout the paper's
/// evaluation (k-n21-16 in Figs. 8/12 and Table 2).
pub fn kronecker_spec(scale: u32, edgefactor: u32) -> DatasetSpec {
    let n = 1usize << scale;
    DatasetSpec {
        name: match (scale, edgefactor) {
            (21, 16) => "k-n21-16",
            _ => "kronecker",
        },
        paper_vertices: n,
        paper_edges: n * edgefactor as usize,
        paper_avg_deg: edgefactor as f64,
        paper_diameter: 7,
        family: Family::Kronecker { scale, edgefactor },
    }
}

/// The six graphs of Fig. 8 / Table 2 / Fig. 12, in paper order.
pub fn fig8_suite() -> Vec<DatasetSpec> {
    let t = table1();
    vec![
        t[0].clone(), // road-TX
        t[1].clone(), // Amazon
        t[2].clone(), // web-GL
        t[3].clone(), // com-LJ
        t[4].clone(), // soc-PK
        kronecker_spec(21, 16),
    ]
}

/// Find a Table 1 spec by paper name.
pub fn by_name(name: &str) -> Option<DatasetSpec> {
    table1().into_iter().find(|d| d.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::graph_stats;

    #[test]
    fn specs_cover_paper_rows() {
        let t = table1();
        assert_eq!(t.len(), 10);
        assert_eq!(t[0].name, "road-TX");
        assert_eq!(t[9].name, "soc-TW");
        assert!(by_name("amazon").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn road_standin_shape() {
        let spec = by_name("road-TX").unwrap();
        let g = spec.generate(7, 1);
        let st = graph_stats(&g);
        // Road networks: no hubs, large diameter relative to size.
        assert!(st.max_degree <= 6, "max degree {}", st.max_degree);
        assert!(
            st.pseudo_diameter as usize > (st.num_vertices as f64).sqrt() as usize / 2,
            "diameter {} too small for road-like mesh of {} vertices",
            st.pseudo_diameter,
            st.num_vertices
        );
    }

    #[test]
    fn powerlaw_standin_shape() {
        let spec = by_name("soc-PK").unwrap();
        let g = spec.generate(8, 1);
        let st = graph_stats(&g);
        // Undirected stand-in's directed avg degree ≈ 2m = paper avg.
        assert!(
            (st.avg_degree - spec.paper_avg_deg).abs() / spec.paper_avg_deg < 0.25,
            "avg {} vs paper {}",
            st.avg_degree,
            spec.paper_avg_deg
        );
        assert!(st.max_degree as f64 > 8.0 * st.avg_degree, "needs hubs");
        // Social graphs: tiny diameter.
        assert!(st.pseudo_diameter < 15, "diameter {}", st.pseudo_diameter);
    }

    #[test]
    fn deterministic() {
        let spec = by_name("Amazon").unwrap();
        assert_eq!(spec.generate(8, 5), spec.generate(8, 5));
    }

    #[test]
    fn kronecker_spec_name() {
        assert_eq!(kronecker_spec(21, 16).name, "k-n21-16");
        let g = kronecker_spec(21, 16).generate(7, 2);
        assert_eq!(g.num_vertices(), 1 << 14);
    }

    /// FNV-1a (64-bit) over the little-endian bytes of the CSR's row
    /// offsets, adjacency and weights, in that order: a fixed function,
    /// unlike `DefaultHasher`, so its values can be recorded.
    fn csr_fingerprint(g: &Csr) -> u64 {
        let arrays = [g.row_offsets(), g.adjacency(), g.weights()];
        let bytes = arrays.into_iter().flatten().flat_map(|w| w.to_le_bytes());
        bytes.fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01B3))
    }

    /// The benchmark's graphs (`perfbench`: the kron workloads at shift
    /// 8, road-batch's road-TX at shift 7) and Table 2's road crossover
    /// graph, pinned bit for bit: a generator or builder change that
    /// moved an input would move every benchmark comparison with it.
    #[test]
    fn benchmark_inputs_are_pinned() {
        let kron = kronecker_spec(21, 16);
        let road = by_name("road-TX").unwrap();
        let pins = [
            (kron.generate(8, 7), 0x009C_C8EE_909D_4F2F),
            (kron.generate(8, 41), 0x62D2_E529_6773_6A1B),
            (road.generate(7, 7), 0xBEC8_4EA3_53C1_89FB),
            (road.generate(7, 41), 0xDF13_15F5_85E0_0E5F),
            (road.generate(9, 42), 0x1D08_73B3_4669_B102),
        ];
        for (i, (g, pin)) in pins.iter().enumerate() {
            assert_eq!(csr_fingerprint(g), *pin, "input {i}: {:016x}", csr_fingerprint(g));
        }
    }

    #[test]
    fn fig8_suite_order() {
        let names: Vec<_> = fig8_suite().iter().map(|d| d.name).collect();
        assert_eq!(names, ["road-TX", "Amazon", "web-GL", "com-LJ", "soc-PK", "k-n21-16"]);
    }

    #[test]
    fn weights_in_paper_range() {
        let g = by_name("web-GL").unwrap().generate(8, 3);
        assert!(g.weights().iter().all(|&w| (1..=1000).contains(&w)));
    }
}
