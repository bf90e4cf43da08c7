//! Off-line problem instances (Section 4).
//!
//! In the off-line setting the availability vectors `S_q` are known in
//! advance. The paper first shows that `DOWN` states can be compiled away:
//! a processor that crashes is replaced by two 2-state processors (the
//! prefix before the crash and the suffix after it), because the crash's
//! only lasting effect — losing the program and partial work — is exactly
//! what a fresh processor models. [`OfflineInstance::split_down`] implements
//! that transform, so solvers only face `u`/`r` traces.

use vg_des::{Slot, SlotSpan};
use vg_markov::ProcState;
use vg_platform::Trace;

/// An off-line scheduling instance: complete one iteration of `m` tasks
/// before the horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineInstance {
    /// Number of tasks in the iteration.
    pub m: usize,
    /// Program transfer time `T_prog`.
    pub t_prog: SlotSpan,
    /// Data transfer time `T_data` (0 allowed; the Theorem-1 reduction uses
    /// it).
    pub t_data: SlotSpan,
    /// Per-processor task cost `w_q` (same length as `traces`).
    pub w: Vec<SlotSpan>,
    /// Master channel bound; `None` means unbounded (`ncom = +∞`, the
    /// polynomial case of Proposition 2).
    pub ncom: Option<usize>,
    /// Scheduling horizon `N`: activity is allowed in slots `0..horizon`.
    pub horizon: Slot,
    /// Known availability vectors, one per processor. Slots beyond a trace's
    /// recorded length count as `RECLAIMED`.
    pub traces: Vec<Trace>,
}

/// Instance validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceError(pub String);

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid off-line instance: {}", self.0)
    }
}

impl std::error::Error for InstanceError {}

impl OfflineInstance {
    /// Validates structural consistency.
    pub fn validate(&self) -> Result<(), InstanceError> {
        if self.m == 0 {
            return Err(InstanceError("no tasks".into()));
        }
        if self.traces.is_empty() {
            return Err(InstanceError("no processors".into()));
        }
        if self.w.len() != self.traces.len() {
            return Err(InstanceError(format!(
                "{} speeds for {} traces",
                self.w.len(),
                self.traces.len()
            )));
        }
        if self.w.contains(&0) {
            return Err(InstanceError("zero task cost".into()));
        }
        if self.ncom == Some(0) {
            return Err(InstanceError("ncom must be ≥ 1 (or None for ∞)".into()));
        }
        if self.horizon == 0 {
            return Err(InstanceError("empty horizon".into()));
        }
        Ok(())
    }

    /// Number of processors.
    #[must_use]
    pub fn p(&self) -> usize {
        self.traces.len()
    }

    /// State of processor `q` at slot `t` (`RECLAIMED` beyond the recorded
    /// trace).
    #[must_use]
    pub fn state(&self, q: usize, t: Slot) -> ProcState {
        self.traces[q].get(t).unwrap_or(ProcState::Reclaimed)
    }

    /// True if no trace contains a `DOWN` slot within the horizon.
    #[must_use]
    pub fn is_two_state(&self) -> bool {
        self.traces.iter().all(|tr| {
            tr.states()
                .iter()
                .take(self.horizon as usize)
                .all(|&s| s != ProcState::Down)
        })
    }

    /// The Section-4 transform: replaces every processor whose trace
    /// contains `DOWN` slots by one 2-state processor per maximal
    /// crash-free segment (`RECLAIMED` padding outside the segment).
    /// Segments with no `UP` slot are dropped — they can never contribute.
    ///
    /// The returned instance is equivalent: any schedule for one maps to a
    /// schedule for the other with the same completion slot.
    #[must_use]
    // tidy:allow(dead_pub): tests/offline_counterexample.rs::bnb_requires_down_splitting_first applies the transform
    pub fn split_down(&self) -> OfflineInstance {
        let horizon = self.horizon as usize;
        let mut w_out = Vec::new();
        let mut traces_out = Vec::new();
        for (q, tr) in self.traces.iter().enumerate() {
            // Materialize the horizon window (pad with r).
            let window: Vec<ProcState> = (0..horizon)
                .map(|t| tr.get(t as Slot).unwrap_or(ProcState::Reclaimed))
                .collect();
            let mut start = 0usize;
            while start < horizon {
                if window[start] == ProcState::Down {
                    start += 1;
                    continue;
                }
                let mut end = start;
                while end < horizon && window[end] != ProcState::Down {
                    end += 1;
                }
                // Segment [start, end): keep it only if it has an UP slot.
                if window[start..end].iter().any(|s| s.is_up()) {
                    let states: Vec<ProcState> = (0..horizon)
                        .map(|t| {
                            if (start..end).contains(&t) {
                                window[t]
                            } else {
                                ProcState::Reclaimed
                            }
                        })
                        .collect();
                    w_out.push(self.w[q]);
                    traces_out.push(Trace::new(states));
                }
                start = end;
            }
        }
        OfflineInstance {
            m: self.m,
            t_prog: self.t_prog,
            t_data: self.t_data,
            w: w_out,
            ncom: self.ncom,
            horizon: self.horizon,
            traces: traces_out,
        }
    }

    /// Convenience constructor for uniform-speed instances.
    #[must_use]
    pub fn uniform(
        m: usize,
        t_prog: SlotSpan,
        t_data: SlotSpan,
        w: SlotSpan,
        ncom: Option<usize>,
        horizon: Slot,
        traces: Vec<Trace>,
    ) -> Self {
        let p = traces.len();
        Self {
            m,
            t_prog,
            t_data,
            w: vec![w; p],
            ncom,
            horizon,
            traces,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Trace {
        Trace::parse(s).unwrap()
    }

    #[test]
    fn validation_catches_errors() {
        let ok = OfflineInstance::uniform(1, 1, 0, 1, Some(1), 4, vec![t("uuuu")]);
        assert!(ok.validate().is_ok());
        assert!(OfflineInstance { m: 0, ..ok.clone() }.validate().is_err());
        assert!(OfflineInstance {
            horizon: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(OfflineInstance {
            ncom: Some(0),
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(OfflineInstance {
            w: vec![],
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(OfflineInstance { w: vec![0], ..ok }.validate().is_err());
    }

    #[test]
    fn state_beyond_trace_is_reclaimed() {
        let inst = OfflineInstance::uniform(1, 1, 0, 1, None, 10, vec![t("uu")]);
        assert_eq!(inst.state(0, 1), ProcState::Up);
        assert_eq!(inst.state(0, 5), ProcState::Reclaimed);
    }

    #[test]
    fn split_down_splits_at_each_crash() {
        // u u d u u  -> two processors:
        //   u u r r r   and   r r r u u
        let inst = OfflineInstance::uniform(1, 1, 0, 1, Some(1), 5, vec![t("uudud")]);
        assert!(!inst.is_two_state());
        let split = inst.split_down();
        assert!(split.is_two_state());
        assert_eq!(split.p(), 2);
        assert_eq!(split.traces[0].to_compact_string(), "uurrr");
        assert_eq!(split.traces[1].to_compact_string(), "rrrur");
    }

    #[test]
    fn split_down_keeps_two_state_traces() {
        let inst = OfflineInstance::uniform(2, 1, 0, 1, Some(1), 4, vec![t("urur"), t("ruru")]);
        let split = inst.split_down();
        assert_eq!(split.p(), 2);
        assert_eq!(split.traces[0].to_compact_string(), "urur");
        assert_eq!(split.traces[1].to_compact_string(), "ruru");
    }

    #[test]
    fn split_down_drops_useless_segments() {
        // d r d u -> only the final 'u' segment survives.
        let inst = OfflineInstance::uniform(1, 1, 0, 1, Some(1), 4, vec![t("drdu")]);
        let split = inst.split_down();
        assert_eq!(split.p(), 1);
        assert_eq!(split.traces[0].to_compact_string(), "rrru");
    }

    #[test]
    fn split_down_preserves_speeds() {
        let mut inst = OfflineInstance::uniform(1, 1, 0, 1, Some(1), 4, vec![t("udud"), t("uuuu")]);
        inst.w = vec![3, 7];
        let split = inst.split_down();
        assert_eq!(split.w, vec![3, 3, 7]);
    }

    #[test]
    fn split_down_respects_horizon() {
        // The crash beyond the horizon is irrelevant.
        let inst = OfflineInstance::uniform(1, 1, 0, 1, Some(1), 2, vec![t("uud")]);
        let split = inst.split_down();
        assert_eq!(split.p(), 1);
        assert_eq!(split.traces[0].to_compact_string(), "uu");
    }
}
