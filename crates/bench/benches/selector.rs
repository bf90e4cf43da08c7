//! Per-placement cost of the argmin selectors, head to head — the
//! measurement behind `SelectorKind::choose`'s crossover thresholds and
//! the `WINNER_TREE_MIN_UPS` lane threshold. The winner tree only serves
//! rounds announced as lane rounds, so its cells hand every round a pool
//! lane `ViewDelta`: `winner_tree` skips a sequence number each round,
//! forcing the full `O(p)` lane rebuild a delta-less round would need,
//! while `winner_lane` announces the next sequence number with nothing
//! changed, so the lane only restores the previous round's winners.
//!
//! For a grid of `(u, count)` cells (UP candidates × placements per
//! round), an `EMCT*` scheduler pinned to each selector replays the same
//! placement rounds over a paper-style platform view; every selector
//! produces the identical placement sequence (asserted here, pinned by the
//! vg-core proptest), so the wall-clock ratio isolates the selector's
//! access pattern. Emits machine-readable JSON (`BENCH_selector.json`,
//! override with `BENCH_SELECTOR_OUT`) so CI can track the crossover's
//! trajectory next to the slotloop artifact.

use std::time::Instant;
use vg_bench::sample_chain;
use vg_core::greedy::{GreedyObjective, GreedyScheduler};
use vg_core::{
    Lane, OwnedSchedView, SchedView, SchedViewBuilder, Scheduler, SelectorKind, ViewDelta,
};
use vg_exp::paired::{Report, Row};
use vg_markov::ProcState;
use vg_platform::ProcessorId;

/// A paper-style view of `p` processors, `u` of them UP and spread evenly
/// (every `p / u`-th; the rest RECLAIMED), with heterogeneous speeds and
/// chains and a few distinct delays so rounds exercise real ties and
/// re-orderings.
fn view(p: usize, u: usize) -> OwnedSchedView {
    let stride = p / u;
    let mut b = SchedViewBuilder::new(10, 2, (p / 10).max(2));
    for i in 0..p {
        b = b.proc(
            if i % stride == 0 {
                ProcState::Up
            } else {
                ProcState::Reclaimed
            },
            2 + (i as u64 * 7) % 19,
            i % 5 != 0,
            (i as u64 * 3) % 11,
            sample_chain(i as u64),
        );
    }
    b.build()
}

/// The view of round `round`: lane cells announce it as a pool-lane round
/// whose sequence number advances by `seq_step` (1 keeps the lane in sync,
/// 2 leaves a gap that forces a rebuild); other cells send no delta.
fn round_view(owned: &OwnedSchedView, seq_step: Option<u64>, round: u64) -> SchedView<'_> {
    SchedView {
        delta: seq_step.map(|step| ViewDelta {
            lane: Lane::Pool,
            seq: step * round,
            changed: &[],
        }),
        ..owned.view()
    }
}

/// Nanoseconds per placement of `rounds` rounds of `count` placements.
fn run_cell(
    owned: &OwnedSchedView,
    count: usize,
    kind: Option<SelectorKind>,
    seq_step: Option<u64>,
    rounds: usize,
    expected: &[ProcessorId],
) -> f64 {
    let mut sched = GreedyScheduler::new(GreedyObjective::Emct, true, "EMCT*");
    sched.force_selector(kind);
    let mut out = Vec::with_capacity(count);
    // Warm the scratch (and verify the decisions once, outside the timed
    // window): every selector must reproduce the same placement sequence.
    out.clear();
    sched.place_into(&round_view(owned, seq_step, 0), count, &mut out);
    assert_eq!(out, expected, "selector diverged: count={count}");
    let start = Instant::now();
    for round in 1..=rounds {
        out.clear();
        sched.place_into(&round_view(owned, seq_step, round as u64), count, &mut out);
    }
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(out, expected, "selector diverged: count={count}");
    seconds * 1e9 / (rounds * count) as f64
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // u = 1000 keeps a non-power-of-two tournament in the measured set.
    // (p, u, counts): every processor UP unless p > u.
    let grid: &[(usize, usize, &[usize])] = &[
        (64, 64, &[16, 128]),
        (256, 256, &[16, 64, 512]),
        (1000, 1000, &[8, 64, 2000]),
        (1024, 1024, &[8, 64, 256, 2048]),
        // The lane band: at and above WINNER_TREE_MIN_UPS a lane round
        // builds the full-platform winner tree; these cells compare its
        // rebuild and its in-sync cost with the loser tree at identical u.
        (16_384, 16_384, &[64, 1024]),
        (65_536, 65_536, &[256]),
        // A quarter of the platform UP, as in a capped or multi-app round
        // at platform scale: the winner tree's rebuild still spans all p
        // leaves, the loser tree's only the u candidates.
        (65_536, 16_384, &[256, 1024]),
    ];
    let mut rows = Vec::new();
    for &(p, u, counts) in grid {
        let owned = view(p, u);
        for &count in counts {
            // Aim for a few tens of milliseconds per cell.
            let budget: usize = if quick { 2_000_000 } else { 20_000_000 };
            let rounds = (budget / (count * u.min(4 * count))).clamp(3, 20_000);
            let mut reference = GreedyScheduler::new(GreedyObjective::Emct, true, "EMCT*");
            reference.force_selector(Some(SelectorKind::Linear));
            let expected = reference.place(&owned.view(), count);
            for (selector, kind, seq_step) in [
                ("linear", Some(SelectorKind::Linear), None),
                ("loser_tree", Some(SelectorKind::LoserTree), None),
                ("winner_tree", Some(SelectorKind::WinnerTree), Some(2)),
                ("winner_lane", Some(SelectorKind::WinnerTree), Some(1)),
                ("policy", None, None),
            ] {
                let ns = run_cell(&owned, count, kind, seq_step, rounds, &expected);
                println!(
                    "selector p={p:<5} u={u:<5} count={count:<5} {selector:<11} {ns:>8.1} ns/placement"
                );
                rows.push(
                    Row::default()
                        .with("p", p)
                        .with("u", u)
                        .with("count", count)
                        .with("selector", selector)
                        .with("ns_per_placement", ns),
                );
            }
        }
    }

    let mut report = Report::default();
    report.rows("selector", &rows);
    // Default under the workspace target/ (anchored to the manifest — bench
    // binaries run with the package dir as cwd); CI overrides via the env
    // var, same pattern as the slotloop artifact.
    let default = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/BENCH_selector.json"
    );
    let out = report
        .write("BENCH_SELECTOR_OUT", default)
        .expect("write selector bench output");
    println!("wrote {out}");
}
