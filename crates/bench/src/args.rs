//! Minimal flag parsing shared by every experiment binary.

use rdbs_gpu_sim::DeviceConfig;

/// Common harness flags.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Datasets are generated at `paper_vertices >> scale_shift`.
    pub scale_shift: u32,
    /// Number of random starting vertices to average over.
    pub sources: usize,
    /// Base seed for all randomness.
    pub seed: u64,
    /// Simulated device.
    pub device: DeviceConfig,
    /// Keep real-hardware launch/barrier overheads instead of scaling
    /// them down with the dataset shrink.
    pub raw_overheads: bool,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            scale_shift: 6,
            sources: 4,
            seed: 42,
            device: DeviceConfig::v100(),
            raw_overheads: false,
        }
    }
}

impl HarnessArgs {
    /// Parse `std::env::args`, exiting with usage on error.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale-shift" => out.scale_shift = expect_num(&mut it, &flag) as u32,
                "--sources" => out.sources = expect_num(&mut it, &flag) as usize,
                "--seed" => out.seed = expect_num(&mut it, &flag),
                "--device" => {
                    let v = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
                    out.device = DeviceConfig::by_name(&v)
                        .unwrap_or_else(|| usage(&format!("unknown device '{v}'")));
                }
                "--full" => {
                    out.scale_shift = 0;
                    out.sources = 64;
                }
                "--raw-overheads" => out.raw_overheads = true,
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag '{other}'")),
            }
        }
        // Time-scale-preserving shrink: datasets are 2^shift smaller,
        // so the fixed per-launch overheads and cache capacities
        // shrink by the same factor to keep kernel-vs-overhead ratios
        // and working-set-vs-cache ratios faithful to paper scale
        // (see DeviceConfig::with_overhead_scale / with_cache_scale).
        if !out.raw_overheads && out.scale_shift > 0 {
            let f = 1.0 / (1u64 << out.scale_shift) as f64;
            out.device = out.device.clone().with_overhead_scale(f).with_cache_scale(f);
        }
        out
    }
}

fn expect_num(it: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a numeric value")))
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <bin> [--scale-shift N] [--sources K] [--seed S] [--device V100|T4|TINY] [--full]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> HarnessArgs {
        HarnessArgs::parse_from(s.iter().map(std::string::ToString::to_string))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.scale_shift, 6);
        assert_eq!(a.sources, 4);
        assert_eq!(a.device.name, "V100");
    }

    #[test]
    fn flags_parse() {
        let a = parse(&["--scale-shift", "3", "--sources", "8", "--seed", "7", "--device", "T4"]);
        assert_eq!(a.scale_shift, 3);
        assert_eq!(a.sources, 8);
        assert_eq!(a.seed, 7);
        assert_eq!(a.device.name, "T4");
    }

    #[test]
    fn full_mode() {
        let a = parse(&["--full"]);
        assert_eq!(a.scale_shift, 0);
        assert_eq!(a.sources, 64);
    }
}
