//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table2_grid|chaos_grid|platform_scale> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics for `--seconds`; `--trace 1`
//! does a fixed amount of traced work and reports the per-layer metrics,
//! writing its spans to `<target dir>/perfbench-spans/`. The last line of
//! standard output is the JSON result; the exit code is 0 whenever a
//! result was printed, also when the output check failed (that is what
//! `correct` and `failed` report).
//!
//! Every layer is timed from outside, around calls to public functions of
//! the workspace crates; no library code is instrumented. See
//! `perfbench/README.md` for the layer → metric → end-to-end map.
//!
//! * `campaign` — `table2_grid` and `chaos_grid`: `run_campaign` (untraced)
//!   and a span-recording recomposition from its public pieces (traced);
//! * `scale` — `platform_scale`: `Simulation::new_seeded` then a `step`
//!   loop on a p = 131072 platform;
//! * `trace` — spans, the timing `Scheduler` wrapper, self-time rollup;
//! * `report` — metrics and the result line.

use std::path::PathBuf;
use std::process::ExitCode;

mod campaign;
mod report;
mod scale;
#[cfg(test)]
mod tests;
mod trace;

use campaign::Grid;
use report::{bench_threads, nproc, Outcome, DEFAULT_SEED};
use scale::Scale;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn spans_path(args: &Args) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} (default {DEFAULT_SEED}) trace {} on {} cpu(s), {} campaign thread(s)",
        args.workload,
        args.seed,
        u8::from(args.trace),
        nproc(),
        bench_threads()
    );
    let (out, spans): (Outcome, Vec<trace::Span>) = match (args.workload.as_str(), args.trace) {
        ("table2_grid", false) => (
            campaign::measure(Grid::Table2, args.seed, args.seconds),
            Vec::new(),
        ),
        ("chaos_grid", false) => (
            campaign::measure(Grid::Chaos, args.seed, args.seconds),
            Vec::new(),
        ),
        ("platform_scale", false) => (
            scale::measure(Scale::WORKLOAD, args.seed, args.seconds),
            Vec::new(),
        ),
        ("table2_grid", true) => campaign::traced(Grid::Table2, args.seed),
        ("chaos_grid", true) => campaign::traced(Grid::Chaos, args.seed),
        ("platform_scale", true) => scale::traced(Scale::WORKLOAD, args.seed),
        (other, _) => {
            eprintln!(
                "perfbench: unknown workload {other:?} (table2_grid, chaos_grid, platform_scale)"
            );
            return ExitCode::from(2);
        }
    };
    if !spans.is_empty() {
        let path = spans_path(&args);
        match trace::write_spans(&path, &spans) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for problem in &out.problems {
        println!("CHECK FAILED: {problem}");
    }
    println!(
        "attempted {} failed {} failed_frac {}",
        out.attempted,
        out.failed,
        report::ratio(out.failed as f64, out.attempted as f64)
    );
    println!("{}", out.json());
    ExitCode::SUCCESS
}
