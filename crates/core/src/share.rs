//! Co-scheduling share policies: how the bindable capacity of one slot is
//! split between the applications sharing a volatile platform.
//!
//! Several iterative applications can run on one platform (Dynamic
//! Fractional Resource Scheduling, Casanova–Stillwell–Vivien): each slot the
//! engine counts the workers that can accept a new bind (`UP` with bind
//! room) and divides that capacity into per-application *quotas* — upper
//! bounds on how many pool placements each application may request this
//! slot. A [`SharePolicy`] names the division rule; [`share_quotas`]
//! computes it with integer-only largest-remainder apportionment, so quotas
//! are deterministic and sum to exactly the capacity.
//!
//! Shares only engage with **two or more** applications: the engine's one
//! schedule phase skips the split for a one-app roster, whose pool budget
//! is the placement budget's instead (see `docs/applications.md`).

/// How the slot's bindable capacity is split between co-scheduled
/// applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SharePolicy {
    /// Every unfinished application gets an equal quota (largest-remainder
    /// rounding; leftovers go to the lowest application indices).
    #[default]
    EqualSplit,
    /// Quotas proportional to each application's weight — the DFRS
    /// fractional-share rule, apportioned by largest remainder.
    Weighted,
    /// Application order is priority order: each application may request up
    /// to the *whole* remaining capacity, earlier applications first.
    StrictPriority,
}

impl SharePolicy {
    /// Every policy, in catalog order.
    pub const ALL: [SharePolicy; 3] = [
        SharePolicy::EqualSplit,
        SharePolicy::Weighted,
        SharePolicy::StrictPriority,
    ];

    /// Canonical name (stable CLI/report token).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SharePolicy::EqualSplit => "equal-split",
            SharePolicy::Weighted => "weighted",
            SharePolicy::StrictPriority => "strict-priority",
        }
    }

    /// Parses a canonical name, case-insensitively.
    #[must_use]
    pub fn parse(name: &str) -> Option<SharePolicy> {
        Self::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }
}

impl std::fmt::Display for SharePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Splits `capacity` placement slots between applications with the given
/// `weights`, writing one quota per application into `out` (cleared first).
///
/// A zero weight means the application requests nothing this slot (finished
/// applications are weighted 0 by the engine). For [`SharePolicy::
/// EqualSplit`] the weights only distinguish zero from non-zero. Quotas of
/// the proportional policies sum to exactly `capacity` when any weight is
/// non-zero (largest-remainder apportionment: per-application floors, then
/// one leftover slot each to the largest fractional remainders, ties to the
/// lowest index). [`SharePolicy::StrictPriority`] instead grants every
/// non-zero-weight application the full `capacity` as its bound — the
/// engine's in-order placement rounds make earlier applications consume the
/// real capacity first.
pub fn share_quotas(policy: SharePolicy, capacity: usize, weights: &[u32], out: &mut Vec<usize>) {
    out.clear();
    match policy {
        SharePolicy::StrictPriority => {
            out.extend(weights.iter().map(|&w| if w == 0 { 0 } else { capacity }));
        }
        SharePolicy::EqualSplit | SharePolicy::Weighted => {
            let unit = |w: u32| -> u64 {
                match policy {
                    SharePolicy::EqualSplit => u64::from(w != 0),
                    _ => u64::from(w),
                }
            };
            let total: u64 = weights.iter().map(|&w| unit(w)).sum();
            if total == 0 {
                out.resize(weights.len(), 0);
                return;
            }
            // Floors first; remainders decide who gets the leftover slots.
            let cap = capacity as u64;
            let mut assigned = 0u64;
            out.extend(weights.iter().map(|&w| {
                let q = cap * unit(w) / total;
                assigned += q;
                q as usize
            }));
            let mut leftover = cap - assigned;
            // One slot per pass to the largest remainder, lowest index on
            // ties. `leftover < n_nonzero_weights`, so a single sweep per
            // leftover terminates quickly for any realistic app count.
            while leftover > 0 {
                let mut best: Option<(u64, usize)> = None;
                for (i, &w) in weights.iter().enumerate() {
                    let u = unit(w);
                    if u == 0 {
                        continue;
                    }
                    let rem = (cap * u) % total;
                    let better = match best {
                        None => true,
                        Some((brem, _)) => rem > brem,
                    };
                    // Skip apps already topped up this apportionment: track
                    // via their remainder having been "spent".
                    if better && out[i] as u64 == cap * u / total {
                        best = Some((rem, i));
                    }
                }
                match best {
                    Some((_, i)) => {
                        out[i] += 1;
                        leftover -= 1;
                    }
                    None => break,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in SharePolicy::ALL {
            assert_eq!(SharePolicy::parse(k.name()), Some(k));
            assert_eq!(SharePolicy::parse(&k.name().to_uppercase()), Some(k));
        }
        assert_eq!(SharePolicy::parse("bogus"), None);
        assert_eq!(SharePolicy::default(), SharePolicy::EqualSplit);
        assert_eq!(SharePolicy::Weighted.to_string(), "weighted");
    }

    fn quotas(policy: SharePolicy, capacity: usize, weights: &[u32]) -> Vec<usize> {
        let mut out = Vec::new();
        share_quotas(policy, capacity, weights, &mut out);
        out
    }

    #[test]
    fn equal_split_rounds_to_lowest_indices() {
        assert_eq!(quotas(SharePolicy::EqualSplit, 7, &[1, 1, 1]), [3, 2, 2]);
        assert_eq!(quotas(SharePolicy::EqualSplit, 6, &[1, 1, 1]), [2, 2, 2]);
        // Weights only gate participation.
        assert_eq!(quotas(SharePolicy::EqualSplit, 5, &[9, 0, 1]), [3, 0, 2]);
    }

    #[test]
    fn weighted_is_proportional_and_exact() {
        assert_eq!(quotas(SharePolicy::Weighted, 10, &[3, 1]), [8, 2]);
        assert_eq!(quotas(SharePolicy::Weighted, 10, &[2, 1]), [7, 3]);
        let q = quotas(SharePolicy::Weighted, 11, &[5, 3, 2]);
        assert_eq!(q.iter().sum::<usize>(), 11);
        assert_eq!(q, [6, 3, 2]);
    }

    #[test]
    fn strict_priority_bounds_by_full_capacity() {
        assert_eq!(
            quotas(SharePolicy::StrictPriority, 4, &[1, 1, 0]),
            [4, 4, 0]
        );
    }

    #[test]
    fn zero_everything_is_all_zero() {
        assert_eq!(quotas(SharePolicy::EqualSplit, 9, &[0, 0]), [0, 0]);
        assert_eq!(quotas(SharePolicy::Weighted, 0, &[1, 2]), [0, 0]);
    }

    #[test]
    fn quotas_sum_to_capacity_across_a_sweep() {
        for cap in 0..40usize {
            for weights in [[1u32, 1, 1], [5, 3, 2], [1, 0, 4], [7, 7, 1]] {
                for policy in [SharePolicy::EqualSplit, SharePolicy::Weighted] {
                    let q = quotas(policy, cap, &weights);
                    let participants = weights.iter().filter(|&&w| w != 0).count();
                    if participants > 0 {
                        assert_eq!(q.iter().sum::<usize>(), cap, "{policy} {cap} {weights:?}");
                    }
                    for (qi, &w) in q.iter().zip(&weights) {
                        assert!(!(w == 0 && *qi != 0));
                    }
                }
            }
        }
    }
}
