//! Per-placement cost of the argmin selectors, head to head — the
//! measurement behind `SelectorKind::choose`'s crossover thresholds
//! (including the `SHARD_MIN_UPS` monolithic/sharded boundary).
//!
//! For a grid of `(u, count)` cells (UP candidates × placements per
//! round), an `EMCT*` scheduler pinned to each selector replays the same
//! placement rounds over a paper-style platform view; every selector
//! produces the identical placement sequence (asserted here, pinned by the
//! vg-core proptest), so the wall-clock ratio isolates the selector's
//! access pattern. Emits machine-readable JSON (`BENCH_selector.json`,
//! override with `BENCH_SELECTOR_OUT`) so CI can track the crossover's
//! trajectory next to the slotloop artifact.

use std::fmt::Write as _;
use std::time::Instant;
use vg_bench::sample_chain;
use vg_core::greedy::{GreedyObjective, GreedyScheduler};
use vg_core::{OwnedSchedView, SchedViewBuilder, Scheduler, SelectorKind};
use vg_markov::ProcState;
use vg_platform::ProcessorId;

/// A paper-style view with `u` UP processors (heterogeneous speeds and
/// chains, a few distinct delays so rounds exercise real ties and
/// re-orderings).
fn view(u: usize) -> OwnedSchedView {
    let mut b = SchedViewBuilder::new(10, 2, (u / 10).max(2));
    for i in 0..u {
        b = b.proc(
            ProcState::Up,
            2 + (i as u64 * 7) % 19,
            i % 5 != 0,
            (i as u64 * 3) % 11,
            sample_chain(i as u64),
        );
    }
    b.build()
}

struct Cell {
    u: usize,
    count: usize,
    selector: &'static str,
    ns_per_placement: f64,
}

fn run_cell(
    owned: &OwnedSchedView,
    u: usize,
    count: usize,
    kind: Option<SelectorKind>,
    rounds: usize,
    expected: &[ProcessorId],
) -> Cell {
    let mut sched = GreedyScheduler::new(GreedyObjective::Emct, true, "EMCT*");
    sched.force_selector(kind);
    let mut out = Vec::with_capacity(count);
    // Warm the scratch (and verify the decisions once, outside the timed
    // window): every selector must reproduce the same placement sequence.
    out.clear();
    sched.place_into(&owned.view(), count, &mut out);
    assert_eq!(out, expected, "selector diverged: u={u} count={count}");
    let start = Instant::now();
    for _ in 0..rounds {
        out.clear();
        sched.place_into(&owned.view(), count, &mut out);
    }
    let seconds = start.elapsed().as_secs_f64();
    Cell {
        u,
        count,
        selector: match kind {
            None => "policy",
            Some(SelectorKind::Linear) => "linear",
            Some(SelectorKind::LoserTree) => "loser_tree",
            Some(SelectorKind::ShardedTree) => "sharded_tree",
        },
        ns_per_placement: seconds * 1e9 / (rounds * count) as f64,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // u = 1000 keeps a non-power-of-two tournament in the measured set.
    let grid: &[(usize, &[usize])] = &[
        (64, &[16, 128]),
        (256, &[16, 64, 512]),
        (1000, &[8, 64, 2000]),
        (1024, &[8, 64, 256, 2048]),
        // The sharded band: at and above SHARD_MIN_UPS the policy picks
        // per-shard trees; these cells measure the crossover directly
        // (monolithic vs sharded at identical u).
        (16_384, &[64, 1024]),
        (65_536, &[256]),
    ];
    let mut cells = Vec::new();
    for &(u, counts) in grid {
        let owned = view(u);
        for &count in counts {
            // Aim for a few tens of milliseconds per cell.
            let budget: usize = if quick { 2_000_000 } else { 20_000_000 };
            let rounds = (budget / (count * u.min(4 * count))).clamp(3, 20_000);
            let mut reference = GreedyScheduler::new(GreedyObjective::Emct, true, "EMCT*");
            reference.force_selector(Some(SelectorKind::Linear));
            let expected = reference.place(&owned.view(), count);
            for kind in [
                Some(SelectorKind::Linear),
                Some(SelectorKind::LoserTree),
                Some(SelectorKind::ShardedTree),
                None,
            ] {
                let cell = run_cell(&owned, u, count, kind, rounds, &expected);
                println!(
                    "selector u={:<5} count={:<5} {:<10} {:>8.1} ns/placement",
                    cell.u, cell.count, cell.selector, cell.ns_per_placement
                );
                cells.push(cell);
            }
        }
    }

    let mut json = String::from("{\n  \"selector\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"u\": {}, \"count\": {}, \"selector\": \"{}\", \"ns_per_placement\": {:.2}}}{}",
            c.u,
            c.count,
            c.selector,
            c.ns_per_placement,
            if i + 1 == cells.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    // Default under the workspace target/ (anchored to the manifest — bench
    // binaries run with the package dir as cwd); CI overrides via the env
    // var, same pattern as the slotloop artifact.
    let out = std::env::var("BENCH_SELECTOR_OUT").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_selector.json"
        )
        .into()
    });
    std::fs::write(&out, &json).expect("write selector bench output");
    println!("wrote {out}");
}
