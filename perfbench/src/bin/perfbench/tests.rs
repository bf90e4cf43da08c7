//! Determinism self-tests of the benchmark, on reduced grids so they run
//! in seconds:
//!
//! * the traced recomposition folds to exactly `run_campaign`'s
//!   `CellStats`, at 1 and 2 threads, on both campaign grids;
//! * the per-layer work counts repeat exactly for a seed, and do not
//!   depend on the thread count;
//! * the platform-scale traced run reproduces the untraced report and its
//!   counts repeat.

use std::time::Instant;

use crate::campaign::{pass_seed, Campaign, Grid, TracedPass};
use crate::report::LayerReport;
use crate::scale::Scale;
use crate::trace::{layer_times, Layer, Recorder, SchedTally, Span};
use vg_core::HeuristicKind;

/// Every 13th cell of `grid` (all three chaos families appear), four
/// heuristics.
fn small(grid: Grid, threads: usize) -> Campaign {
    Campaign {
        cells: grid.cells().into_iter().step_by(13).collect(),
        heuristics: vec![
            HeuristicKind::Mct,
            HeuristicKind::EmctStar,
            HeuristicKind::Random2w,
            HeuristicKind::Lw,
        ],
        threads,
    }
}

/// The counts of a traced pass that must repeat exactly.
fn counts(pass: &TracedPass) -> (SchedTally, [u64; 6], [u64; 8]) {
    let r = &pass.report;
    let sched = SchedTally {
        busy_ns: 0,
        ..r.sched
    };
    let work = [
        r.engine_runs,
        r.engine_slots,
        r.source_rows,
        r.source_replayed,
        r.source_quiet,
        r.source_compared,
    ];
    (sched, work, r.times.spans)
}

#[test]
fn traced_recomposition_equals_run_campaign_at_1_and_2_threads() {
    for grid in [Grid::Table2, Grid::Chaos] {
        for threads in [1, 2] {
            let campaign = small(grid, threads);
            let master = pass_seed(7, 0);
            let reference = campaign.run_pass(master);
            let traced = campaign.traced_pass(master);
            assert_eq!(
                traced.cell_stats, reference.cell_stats,
                "{grid:?} at {threads} thread(s)"
            );
            assert_eq!(traced.rerecord_mismatches, 0);
            let (_, fresh) = campaign.counter_pass(master);
            assert_eq!(
                fresh, traced.makespans,
                "fresh engines disagree with the arena"
            );
        }
    }
}

#[test]
fn per_layer_counts_repeat_exactly_and_ignore_thread_count() {
    let master = pass_seed(11, 0);
    let a = small(Grid::Chaos, 2).traced_pass(master);
    let b = small(Grid::Chaos, 2).traced_pass(master);
    let c = small(Grid::Chaos, 1).traced_pass(master);
    assert_eq!(counts(&a), counts(&b));
    assert_eq!(counts(&a), counts(&c));
    let r = &a.report;
    // Every row a run read was either sampled once or replayed.
    assert_eq!(r.source_rows + r.source_replayed, r.engine_slots);
    assert_eq!(r.times.spans(Layer::Fold), 10, "one instance per cell");
    assert_eq!(r.engine_runs, 10 * 4);
    assert!(r.sched.calls > 0 && r.sched.placed <= r.sched.requested);
}

#[test]
fn platform_scale_traced_run_matches_untraced_and_repeats() {
    let scale = Scale {
        p: 512,
        m: 64,
        iterations: 3,
    };
    let traced = || {
        let mut rec = Recorder::new(Instant::now(), 0);
        let mut report = LayerReport::default();
        let (sim, _) = scale
            .traced_run(5, 0, &mut rec, &mut report)
            .expect("valid platform");
        (sim, report, rec.spans.len())
    };
    let (untraced, _, _) = scale.run(5, 0).expect("valid platform");
    let (a, ra, spans_a) = traced();
    let (b, rb, spans_b) = traced();
    assert_eq!(a, untraced, "the timing wrapper changed the run");
    assert_eq!(a, b);
    assert!(a.finished());
    assert_eq!(spans_a, spans_b);
    let strip = |r: &LayerReport| {
        (
            SchedTally {
                busy_ns: 0,
                ..r.sched
            },
            [
                r.engine_slots,
                r.source_rows,
                r.source_quiet,
                r.source_compared,
            ],
        )
    };
    assert_eq!(strip(&ra), strip(&rb));
    assert_eq!(ra.source_rows, a.slots_run, "one isolated row per step");
}

#[test]
fn self_time_subtracts_children() {
    let span = |id, parent, layer, dur_ns| Span {
        id,
        parent,
        layer,
        instance: 0,
        start_ns: 0,
        dur_ns,
        count: 1,
        estimated: false,
    };
    let spans = [
        span(1, 0, Layer::Engine, 1_000),
        span(2, 1, Layer::Sched, 300),
        span(3, 1, Layer::Source, 200),
        span(4, 0, Layer::Engine, 500),
    ];
    let t = layer_times(&spans);
    assert!((t.self_s(Layer::Engine) - 1_000e-9).abs() < 1e-15);
    assert!((t.self_s(Layer::Sched) - 300e-9).abs() < 1e-15);
    assert!((t.self_s(Layer::Source) - 200e-9).abs() < 1e-15);
    assert_eq!(t.spans(Layer::Engine), 2);
}
