//! The catalog of all 17 heuristics evaluated in the paper (Table 2).

use crate::greedy::{GreedyObjective, GreedyScheduler};
use crate::random::{RandomScheduler, RandomWeight};
use crate::traits::Scheduler;
use vg_des::rng::StreamRng;

/// Every heuristic of Section 6, named exactly as in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // the variants are the paper's names
pub enum HeuristicKind {
    Random,
    Random1,
    Random2,
    Random3,
    Random4,
    Random1w,
    Random2w,
    Random3w,
    Random4w,
    Mct,
    MctStar,
    Emct,
    EmctStar,
    Lw,
    LwStar,
    Ud,
    UdStar,
}

impl HeuristicKind {
    /// All 17 heuristics, in Table-2 row-candidate order.
    pub const ALL: [HeuristicKind; 17] = [
        Self::Emct,
        Self::EmctStar,
        Self::Mct,
        Self::MctStar,
        Self::UdStar,
        Self::Ud,
        Self::LwStar,
        Self::Lw,
        Self::Random1w,
        Self::Random2w,
        Self::Random4w,
        Self::Random3w,
        Self::Random3,
        Self::Random4,
        Self::Random1,
        Self::Random2,
        Self::Random,
    ];

    /// The 8 greedy heuristics (Table 3 / Figure 2 focus).
    pub const GREEDY: [HeuristicKind; 8] = [
        Self::Mct,
        Self::MctStar,
        Self::Emct,
        Self::EmctStar,
        Self::Lw,
        Self::LwStar,
        Self::Ud,
        Self::UdStar,
    ];

    /// The six heuristics plotted in Figure 2.
    pub const FIGURE2: [HeuristicKind; 6] = [
        Self::Mct,
        Self::MctStar,
        Self::Emct,
        Self::EmctStar,
        Self::UdStar,
        Self::LwStar,
    ];

    /// Paper name (`"EMCT*"`, `"Random1w"`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Random => "Random",
            Self::Random1 => "Random1",
            Self::Random2 => "Random2",
            Self::Random3 => "Random3",
            Self::Random4 => "Random4",
            Self::Random1w => "Random1w",
            Self::Random2w => "Random2w",
            Self::Random3w => "Random3w",
            Self::Random4w => "Random4w",
            Self::Mct => "MCT",
            Self::MctStar => "MCT*",
            Self::Emct => "EMCT",
            Self::EmctStar => "EMCT*",
            Self::Lw => "LW",
            Self::LwStar => "LW*",
            Self::Ud => "UD",
            Self::UdStar => "UD*",
        }
    }

    /// Parses a paper name (case-insensitive; `*` required for starred
    /// variants).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let lower = s.to_ascii_lowercase();
        Self::ALL
            .into_iter()
            .find(|k| k.name().to_ascii_lowercase() == lower)
    }

    /// Instantiates the scheduler. `rng` seeds the random family's draws
    /// (ignored by the deterministic greedy heuristics, so all 17 can be
    /// built uniformly).
    #[must_use]
    pub fn build(self, rng: StreamRng) -> Box<dyn Scheduler> {
        match self {
            Self::Random => Box::new(RandomScheduler::new(
                RandomWeight::Uniform,
                false,
                rng,
                self.name(),
            )),
            Self::Random1 => Box::new(RandomScheduler::new(
                RandomWeight::LongTimeUp,
                false,
                rng,
                self.name(),
            )),
            Self::Random2 => Box::new(RandomScheduler::new(
                RandomWeight::LikelyToWorkMore,
                false,
                rng,
                self.name(),
            )),
            Self::Random3 => Box::new(RandomScheduler::new(
                RandomWeight::OftenUp,
                false,
                rng,
                self.name(),
            )),
            Self::Random4 => Box::new(RandomScheduler::new(
                RandomWeight::RarelyDown,
                false,
                rng,
                self.name(),
            )),
            Self::Random1w => Box::new(RandomScheduler::new(
                RandomWeight::LongTimeUp,
                true,
                rng,
                self.name(),
            )),
            Self::Random2w => Box::new(RandomScheduler::new(
                RandomWeight::LikelyToWorkMore,
                true,
                rng,
                self.name(),
            )),
            Self::Random3w => Box::new(RandomScheduler::new(
                RandomWeight::OftenUp,
                true,
                rng,
                self.name(),
            )),
            Self::Random4w => Box::new(RandomScheduler::new(
                RandomWeight::RarelyDown,
                true,
                rng,
                self.name(),
            )),
            Self::Mct => Box::new(GreedyScheduler::new(
                GreedyObjective::Mct,
                false,
                self.name(),
            )),
            Self::MctStar => Box::new(GreedyScheduler::new(
                GreedyObjective::Mct,
                true,
                self.name(),
            )),
            Self::Emct => Box::new(GreedyScheduler::new(
                GreedyObjective::Emct,
                false,
                self.name(),
            )),
            Self::EmctStar => Box::new(GreedyScheduler::new(
                GreedyObjective::Emct,
                true,
                self.name(),
            )),
            Self::Lw => Box::new(GreedyScheduler::new(
                GreedyObjective::Lw,
                false,
                self.name(),
            )),
            Self::LwStar => Box::new(GreedyScheduler::new(GreedyObjective::Lw, true, self.name())),
            Self::Ud => Box::new(GreedyScheduler::new(
                GreedyObjective::Ud,
                false,
                self.name(),
            )),
            Self::UdStar => Box::new(GreedyScheduler::new(GreedyObjective::Ud, true, self.name())),
        }
    }
}

impl std::fmt::Display for HeuristicKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_des::rng::SeedPath;

    #[test]
    fn all_contains_17_unique() {
        let mut names: Vec<&str> = HeuristicKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 17);
    }

    #[test]
    fn greedy_and_figure2_are_subsets() {
        for k in HeuristicKind::GREEDY {
            assert!(HeuristicKind::ALL.contains(&k));
        }
        for k in HeuristicKind::FIGURE2 {
            assert!(HeuristicKind::GREEDY.contains(&k));
        }
    }

    #[test]
    fn parse_roundtrip() {
        for k in HeuristicKind::ALL {
            assert_eq!(HeuristicKind::parse(k.name()), Some(k), "{k}");
        }
        assert_eq!(HeuristicKind::parse("emct*"), Some(HeuristicKind::EmctStar));
        assert_eq!(HeuristicKind::parse("nope"), None);
    }

    #[test]
    fn build_reports_paper_name() {
        for k in HeuristicKind::ALL {
            let s = k.build(SeedPath::root(1).rng());
            assert_eq!(s.name(), k.name());
        }
    }
}
