//! Metrics, the result line, and the per-layer report both workload kinds
//! emit.

use std::fmt::Write as _;

/// Seed used when `--seed` is absent; the pinned output digests in
/// `campaign` and `scale` are for this seed.
pub const DEFAULT_SEED: u64 = 1;

/// Worker threads of the campaign fan-out: `min(2, nproc)`, never `Auto`,
/// so a bigger box does not silently change the workload.
#[must_use]
pub fn bench_threads() -> usize {
    nproc().min(2)
}

/// Logical CPUs visible to the process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one benchmark run reports: the output check, the run tally and the
/// metrics of the requested kind (end-to-end or per-layer).
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Heuristic runs attempted.
    pub attempted: u64,
    /// Runs that were slot-capped, rejected with a `ConfigError`, or
    /// belonged to a pass whose output check failed.
    pub failed: u64,
    /// Output-check mismatches, printed before the result line.
    pub problems: Vec<String>,
    /// Human-readable derived lines (not metrics).
    pub notes: Vec<String>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// True when every attempted run succeeded and every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite value is not JSON; it can only come from an
            // empty denominator, which reads as 0 work.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Engine counters summed over runs (the public `SimReport` fields).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineCounters {
    /// Runs folded in.
    pub runs: u64,
    /// `tasks_completed`: copies that delivered a winning result.
    pub completed: u64,
    /// `copies_lost_to_down`.
    pub lost: u64,
    /// `replicas_started`.
    pub replicas_started: u64,
    /// `replicas_canceled`.
    pub canceled: u64,
    /// `duplicate_results`.
    pub duplicates: u64,
    /// Sum of `mean_bandwidth_utilization`.
    pub bw_sum: f64,
}

impl EngineCounters {
    /// Folds one report in.
    pub fn add(&mut self, r: &vg_sim::SimReport) {
        self.runs += 1;
        self.completed += r.counters.tasks_completed;
        self.lost += r.counters.copies_lost_to_down;
        self.replicas_started += r.counters.replicas_started;
        self.canceled += r.counters.replicas_canceled;
        self.duplicates += r.counters.duplicate_results;
        self.bw_sum += r.mean_bandwidth_utilization;
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        self.runs += other.runs;
        self.completed += other.completed;
        self.lost += other.lost;
        self.replicas_started += other.replicas_started;
        self.canceled += other.canceled;
        self.duplicates += other.duplicates;
        self.bw_sum += other.bw_sum;
    }
}

/// Everything a traced run measured, before it becomes metrics.
#[derive(Debug, Clone, Default)]
pub struct LayerReport {
    /// Self time and span count per layer.
    pub times: crate::trace::LayerTimes,
    /// Timing-wrapper tally over every run.
    pub sched: crate::trace::SchedTally,
    /// Availability rows sampled from a live source.
    pub source_rows: u64,
    /// Row reads served from a recording instead of sampled.
    pub source_replayed: u64,
    /// Rows identical to the row before them.
    pub source_quiet: u64,
    /// Rows that had a row before them (the quiet-fraction denominator).
    pub source_compared: u64,
    /// Engine runs.
    pub engine_runs: u64,
    /// Slots simulated.
    pub engine_slots: u64,
    /// Wall microseconds per slot: per `step` on `platform_scale`, per run
    /// (run wall ÷ its slots) on the campaigns.
    pub slot_us: Vec<f64>,
    /// Public `SimReport` counters.
    pub counters: EngineCounters,
    /// Fan-out threads.
    pub threads: usize,
    /// Process CPU seconds over the fan-out.
    pub cpu_s: f64,
    /// Wall seconds of the fan-out.
    pub wall_s: f64,
    /// Wall milliseconds per work unit.
    pub unit_ms: Vec<f64>,
    /// Seconds from the first worker running dry to the last unit's end.
    pub tail_s: f64,
    /// Traced wall time over untraced wall time of the same work.
    pub overhead_ratio: f64,
}

impl LayerReport {
    /// Emits every per-layer metric, in `BENCHMARK.json` order.
    pub fn emit(&self, out: &mut Outcome) {
        use crate::trace::Layer;
        let t = &self.times;
        let s = &self.sched;
        let c = &self.counters;
        let sched_s = t.self_s(Layer::Sched);
        let source_s = t.self_s(Layer::Source);
        let engine_s = t.self_s(Layer::Engine);
        out.metric("sched.calls", s.calls as f64, "count");
        out.metric("sched.requested", s.requested as f64, "count");
        out.metric("sched.placed", s.placed as f64, "count");
        out.metric(
            "sched.placed_frac",
            ratio(s.placed as f64, s.requested as f64),
            "ratio",
        );
        out.metric("sched.candidates", s.candidates as f64, "count");
        out.metric("sched.self_s", sched_s, "s");
        out.metric(
            "sched.ns_per_call",
            ratio(sched_s * 1e9, s.calls as f64),
            "ns",
        );
        out.metric(
            "sched.ns_per_candidate",
            ratio(sched_s * 1e9, s.candidates as f64),
            "ns",
        );
        out.metric("source.rows", self.source_rows as f64, "count");
        out.metric("source.replayed_rows", self.source_replayed as f64, "count");
        let reads = (self.source_rows + self.source_replayed) as f64;
        out.metric(
            "source.replay_ratio",
            ratio(self.source_replayed as f64, reads),
            "ratio",
        );
        out.metric("source.self_s", source_s, "s");
        out.metric(
            "source.ns_per_row",
            ratio(source_s * 1e9, self.source_rows as f64),
            "ns",
        );
        let quiet = ratio(self.source_quiet as f64, self.source_compared as f64);
        out.metric("source.quiet_row_frac", quiet, "ratio");
        out.metric("engine.runs", self.engine_runs as f64, "count");
        out.metric("engine.slots", self.engine_slots as f64, "count");
        out.metric("engine.self_s", engine_s, "s");
        out.metric(
            "engine.ns_per_slot",
            ratio(engine_s * 1e9, self.engine_slots as f64),
            "ns",
        );
        out.metric("engine.slot_us.p50", quantile(&self.slot_us, 0.5), "us");
        out.metric("engine.slot_us.p99", quantile(&self.slot_us, 0.99), "us");
        out.metric("engine.copies_lost", c.lost as f64, "count");
        out.metric(
            "engine.replicas_started",
            c.replicas_started as f64,
            "count",
        );
        out.metric("engine.replicas_canceled", c.canceled as f64, "count");
        let ended = (c.completed + c.canceled + c.duplicates + c.lost) as f64;
        out.metric(
            "engine.replica_useful_frac",
            ratio(c.completed as f64, ended),
            "ratio",
        );
        out.metric("engine.bw_util", ratio(c.bw_sum, c.runs as f64), "ratio");
        out.metric("chains.calls", t.spans(Layer::Chains) as f64, "count");
        out.metric("chains.self_s", t.self_s(Layer::Chains), "s");
        out.metric("scenario.calls", t.spans(Layer::Scenario) as f64, "count");
        out.metric("scenario.self_s", t.self_s(Layer::Scenario), "s");
        out.metric("fold.instances", t.spans(Layer::Fold) as f64, "count");
        out.metric("fold.self_s", t.self_s(Layer::Fold), "s");
        out.metric("par.threads", self.threads as f64, "count");
        let cpu_util = ratio(self.cpu_s, self.wall_s * self.threads as f64);
        out.metric("par.cpu_util", cpu_util, "ratio");
        out.metric("par.unit_ms.p50", quantile(&self.unit_ms, 0.5), "ms");
        out.metric("par.unit_ms.p90", quantile(&self.unit_ms, 0.9), "ms");
        out.metric("par.tail_s", self.tail_s, "s");
        out.metric("mem.peak_rss_mib", peak_rss_mib(), "MiB");
        out.metric("trace.overhead_ratio", self.overhead_ratio, "ratio");
        out.metric("box.nproc", nproc() as f64, "count");
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `samples`; 0 for an empty
/// slice.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    vg_des::stats::quantile(samples, q).unwrap_or(0.0)
}

/// Median of `samples`; 0 for an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The set-up samples of a run as a printed line. The metric is their
/// minimum: repetitions spread over the run land in a fast and a slow
/// regime of the VM's page-fault cost, and the share of each drifts, so a
/// median jumps between them while the minimum stays put.
#[must_use]
pub fn setup_note(samples: &[f64]) -> String {
    format!(
        "setup_s over {} repetitions: min {:.4e} p25 {:.4e} median {:.4e} max {:.4e}",
        samples.len(),
        quantile(samples, 0.0),
        quantile(samples, 0.25),
        median(samples),
        quantile(samples, 1.0)
    )
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
/// Ticks are converted at the kernel's fixed `USER_HZ` of 100. Returns 0
/// where the file is unavailable.
#[must_use]
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 12 and 13 after `) `.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    vg_bench::peak_rss_bytes() as f64 / (1u64 << 20) as f64
}

/// FNV-1a over 64-bit words: the pinned-output digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a float in by its bits.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}
