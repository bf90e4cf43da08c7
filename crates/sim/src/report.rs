//! Simulation outputs: makespan, per-iteration times, and counters.

use crate::timeline::Timeline;
use vg_des::Slot;

/// Cumulative event counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Distinct tasks completed (over all iterations).
    pub tasks_completed: u64,
    /// Task copies that delivered the winning result (equals
    /// `tasks_completed`; kept separate for symmetry with the waste
    /// counters).
    pub copies_completed: u64,
    /// Copies that would have completed in the same slot as the winner and
    /// were canceled instead — purely wasted work.
    pub duplicate_results: u64,
    /// Pinned copies lost because their worker crashed.
    pub copies_lost_to_down: u64,
    /// Replica copies whose data transfer actually began.
    pub replicas_started: u64,
    /// Copies canceled because a sibling completed first.
    pub replicas_canceled: u64,
    /// Program transfers completed.
    pub programs_delivered: u64,
    /// Channel-slots spent on program transfers.
    pub prog_channel_slots: u64,
    /// Channel-slots spent on data transfers.
    pub data_channel_slots: u64,
    /// Worker-slots observed in each state (`u`, `r`, `d`).
    pub state_slots: [u64; 3],
    /// State flips forced by a scripted chaos overlay (0 when no overlay is
    /// installed, and for passthrough scripts — so un-scripted runs stay
    /// counter-identical to their base).
    pub injected_faults: u64,
}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Heuristic that produced this run (paper name).
    pub scheduler: String,
    /// Iterations completed before the run ended.
    pub completed_iterations: u64,
    /// Total slots to complete *all* requested iterations; `None` if the
    /// slot cap was hit first. A value of `k` means the last task finished
    /// during slot `k − 1` (slots are 0-based).
    pub makespan: Option<Slot>,
    /// Slots actually simulated.
    pub slots_run: Slot,
    /// Completion slot of each finished iteration (0-based slot index).
    pub iteration_completed_at: Vec<Slot>,
    /// Event counters.
    pub counters: Counters,
    /// Mean fraction of master channels in use per slot.
    pub mean_bandwidth_utilization: f64,
    /// Per-slot activity record, when
    /// [`SimOptions::record_timeline`](crate::SimOptions::record_timeline)
    /// was set.
    pub timeline: Option<Timeline>,
}

impl SimReport {
    /// Makespan if complete, otherwise the slot cap that was burned —
    /// a pessimistic-but-total metric for aggregation.
    #[must_use]
    pub fn makespan_or_cap(&self) -> Slot {
        self.makespan.unwrap_or(self.slots_run)
    }

    /// True when every requested iteration completed.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.makespan.is_some()
    }
}

/// Per-application slice of a co-scheduled run (see
/// [`Simulation::run_multi`](crate::Simulation::run_multi)).
#[derive(Debug, Clone, PartialEq)]
pub struct AppReport {
    /// Iterations this application completed before the run ended.
    pub completed_iterations: u64,
    /// Slots until this application's final barrier (same slot-count
    /// semantics as [`SimReport::makespan`]); `None` if the run ended
    /// before it finished.
    pub makespan: Option<Slot>,
    /// `tasks_per_iteration` of the application's last iteration — where a
    /// moldable resize landed, or the configured size for rigid apps.
    pub final_m: usize,
    /// Task completions credited to this application.
    pub tasks_completed: u64,
    /// Completion slot of each of this application's finished iterations.
    pub iteration_completed_at: Vec<Slot>,
}

impl AppReport {
    /// True when every requested iteration of this application completed.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.makespan.is_some()
    }
}

/// Result of a multi-application run: the combined (platform-wide) report
/// plus one [`AppReport`] per application, in engine app order. For a
/// single-application roster `combined` is field-identical to what the
/// single-app API returns.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiReport {
    /// Platform-wide report: merged barrier record, shared counters, total
    /// completed iterations; `makespan` is set iff *every* application
    /// finished.
    pub combined: SimReport,
    /// Per-application reports.
    pub apps: Vec<AppReport>,
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.makespan {
            Some(mk) => write!(
                f,
                "{}: {} iterations in {} slots ({} tasks, {:.1}% bw)",
                self.scheduler,
                self.completed_iterations,
                mk,
                self.counters.tasks_completed,
                self.mean_bandwidth_utilization * 100.0
            ),
            // The report does not carry the requested iteration count, so
            // only the completed ones are printed.
            None => write!(
                f,
                "{}: INCOMPLETE after {} slots ({} iterations completed)",
                self.scheduler, self.slots_run, self.completed_iterations
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(makespan: Option<Slot>) -> SimReport {
        SimReport {
            scheduler: "MCT".into(),
            completed_iterations: 2,
            makespan,
            slots_run: 100,
            iteration_completed_at: vec![40, 99],
            counters: Counters::default(),
            mean_bandwidth_utilization: 0.5,
            timeline: None,
        }
    }

    #[test]
    fn makespan_or_cap() {
        assert_eq!(report(Some(100)).makespan_or_cap(), 100);
        assert_eq!(report(None).makespan_or_cap(), 100);
        assert!(report(Some(100)).finished());
        assert!(!report(None).finished());
    }

    #[test]
    fn display_variants() {
        assert_eq!(
            report(Some(100)).to_string(),
            "MCT: 2 iterations in 100 slots (0 tasks, 50.0% bw)"
        );
        assert_eq!(
            report(None).to_string(),
            "MCT: INCOMPLETE after 100 slots (2 iterations completed)"
        );
    }
}
