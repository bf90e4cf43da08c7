//! The completion-time estimates of Section 6.3.1.
//!
//! Equation (1) — contention-free estimate for assigning the `n_q`-th task
//! to processor `P_q`:
//!
//! ```text
//! CT(P_q, n_q) = Delay(q) + T_data + max(n_q − 1, 0) · max(T_data, w_q) + w_q
//! ```
//!
//! Equation (2) — the contention-corrected variant replaces `T_data` by
//! `⌈n_active / ncom⌉ · T_data`, where `n_active` counts processors that have
//! been assigned at least one task in the current scheduling round. The
//! factor models the average slowdown a worker sees when the master's
//! channels are oversubscribed; the paper notes it is deliberately coarse.
//!
//! One detail the paper leaves open: at the moment the *first* task of a
//! round is evaluated, `n_active` is still zero and a literal reading of
//! Equation (2) would erase the data-transfer cost entirely. We therefore
//! count the candidate processor itself when it would be newly enrolled
//! (\[D13\] in `docs/readings.md`), so the factor is always ≥ 1 and
//! Equation (2) degrades gracefully to Equation (1) on an uncontended
//! master.

use crate::view::ProcSnapshot;
use vg_des::SlotSpan;

/// The data-transfer time after contention correction.
///
/// `n_active_incl` must already include the candidate processor when it is
/// newly enrolled; `contention = false` reproduces Equation (1).
#[must_use]
pub fn effective_t_data(
    t_data: SlotSpan,
    contention: bool,
    n_active_incl: usize,
    ncom: usize,
) -> SlotSpan {
    if !contention {
        return t_data;
    }
    let factor = (n_active_incl.max(1) as u64).div_ceil(ncom as u64);
    t_data * factor
}

/// `CT(P_q, n_q)` with a pre-computed effective `T_data`.
///
/// `n_q_incl` is the number of tasks assigned to `P_q` *including* the one
/// being evaluated (so it is ≥ 1; the paper's `n_q + 1` at selection time).
#[must_use]
pub fn completion_time(p: &ProcSnapshot, n_q_incl: usize, eff_t_data: SlotSpan) -> SlotSpan {
    assert!(n_q_incl >= 1, "evaluate with the candidate task included");
    // The engine only computes `Delay(q)` for UP processors; a non-UP
    // snapshot carries an unspecified delay (poisoned to `SlotSpan::MAX`
    // in debug builds), so scoring one is a heuristic bug — the paper's
    // heuristics all restrict placement to UP processors.
    debug_assert!(
        p.state.is_up(),
        "completion time of non-UP processor {}: its snapshot delay is unspecified",
        p.id
    );
    let pipelined = (n_q_incl as u64 - 1) * eff_t_data.max(p.w);
    p.delay + eff_t_data + pipelined + p.w
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_markov::ProcState;
    use vg_platform::ProcessorId;

    fn snap(w: SlotSpan, delay: SlotSpan) -> ProcSnapshot {
        ProcSnapshot {
            id: ProcessorId(0),
            state: ProcState::Up,
            w,
            has_program: true,
            delay,
        }
    }

    #[test]
    fn equation_one_first_task() {
        // CT = delay + Tdata + 0 + w
        let p = snap(3, 4);
        assert_eq!(completion_time(&p, 1, 2), 4 + 2 + 3);
    }

    #[test]
    fn equation_one_pipelines_additional_tasks() {
        // Each extra task adds max(Tdata, w).
        let p = snap(3, 0);
        let one = completion_time(&p, 1, 2);
        let two = completion_time(&p, 2, 2);
        let three = completion_time(&p, 3, 2);
        assert_eq!(two - one, 3); // w dominates Tdata
        assert_eq!(three - two, 3);

        let slow_net = completion_time(&p, 2, 7);
        assert_eq!(slow_net, 7 + 7 + 3); // Tdata dominates w
    }

    #[test]
    fn effective_t_data_without_contention_is_identity() {
        assert_eq!(effective_t_data(5, false, 100, 2), 5);
    }

    #[test]
    fn effective_t_data_scales_with_ceiling() {
        // 1..=ncom active -> ×1; ncom+1..=2ncom -> ×2, etc.
        assert_eq!(effective_t_data(5, true, 1, 4), 5);
        assert_eq!(effective_t_data(5, true, 4, 4), 5);
        assert_eq!(effective_t_data(5, true, 5, 4), 10);
        assert_eq!(effective_t_data(5, true, 8, 4), 10);
        assert_eq!(effective_t_data(5, true, 9, 4), 15);
    }

    #[test]
    fn effective_t_data_zero_active_counts_as_one() {
        // [D13]: the candidate itself is always in flight.
        assert_eq!(effective_t_data(5, true, 0, 4), 5);
    }

    #[test]
    fn zero_t_data_stays_zero_under_contention() {
        assert_eq!(effective_t_data(0, true, 9, 2), 0);
    }

    #[test]
    #[should_panic(expected = "candidate task included")]
    fn zero_tasks_is_a_bug() {
        let p = snap(1, 0);
        let _ = completion_time(&p, 0, 1);
    }
}
