//! Shared fixtures for the four bench harnesses — `slotloop`,
//! `phase_profile`, `selector` and `campaign` — which measure the engine
//! and write `BENCH_*.json` through `vg_exp::paired::Report` (the `vg-exp`
//! binaries regenerate the paper's artifacts). The fixtures keep the
//! platforms identical across targets so numbers are comparable.

use vg_des::rng::SeedPath;
use vg_markov::availability::AvailabilityChain;
use vg_platform::{AppConfig, PlatformConfig, ProcessorConfig, StartPolicy};

#[cfg(feature = "alloc-counter")]
pub mod alloc_counter;

/// A paper-style Markov platform: `p` processors, diagonals in
/// `[0.90, 0.99]`, speeds in `[wmin, 10·wmin]`.
#[must_use]
pub fn paper_platform(p: usize, ncom: usize, wmin: u64, seed: u64) -> PlatformConfig {
    let mut rng = SeedPath::root(seed).rng();
    PlatformConfig {
        processors: (0..p)
            .map(|_| {
                let chain = AvailabilityChain::sample_paper(&mut rng, 0.90, 0.99);
                let w = rng.u64_range_inclusive(wmin, 10 * wmin);
                ProcessorConfig::markov(w, chain, StartPolicy::Up)
            })
            .collect(),
        ncom,
    }
}

/// Matching application: `n` tasks, `iterations` iterations, paper ratios.
#[must_use]
pub fn paper_app(n: usize, iterations: u64, wmin: u64, comm_scale: u64) -> AppConfig {
    AppConfig {
        tasks_per_iteration: n,
        iterations,
        t_prog: 5 * wmin * comm_scale,
        t_data: wmin * comm_scale,
    }
}

/// A deterministic sampled chain for micro-benches.
#[must_use]
pub fn sample_chain(seed: u64) -> AvailabilityChain {
    let mut rng = SeedPath::root(seed).rng();
    AvailabilityChain::sample_paper(&mut rng, 0.90, 0.99)
}

/// Peak resident set size of the current process in bytes — the kernel's
/// high-water mark (`VmHWM` in `/proc/self/status`), so it is monotone
/// over the process lifetime: a reading taken after a cell reflects the
/// largest footprint of *any* work so far, which is exactly the bound the
/// platform-scale cells track. Returns 0 when the field is unavailable
/// (non-Linux, restricted `/proc`), so callers treat 0 as "unknown"
/// rather than "tiny".
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .unwrap_or(0);
                return kb * 1024;
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_valid() {
        let p = paper_platform(6, 2, 3, 1);
        assert!(p.validate().is_ok());
        let a = paper_app(10, 2, 3, 1);
        assert!(a.validate().is_ok());
        assert_eq!(a.t_prog, 15);
        let _ = sample_chain(1);
    }

    #[test]
    fn peak_rss_reads_a_plausible_high_water_mark() {
        let rss = peak_rss_bytes();
        #[cfg(target_os = "linux")]
        {
            // A running test binary has megabytes resident; anything in
            // [1 MiB, 1 TiB] is a plausible VmHWM, 0 means the parse broke.
            assert!(rss > 1 << 20, "VmHWM parse returned {rss}");
            assert!(rss < 1 << 40, "VmHWM parse returned {rss}");
            // Monotone: a later reading never shrinks.
            let again = peak_rss_bytes();
            assert!(again >= rss);
        }
        #[cfg(not(target_os = "linux"))]
        assert_eq!(rss, 0);
    }
}
