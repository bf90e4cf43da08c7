//! Persistence for platform trace sets.
//!
//! A *trace set* bundles per-processor speeds with recorded availability
//! traces — everything needed to replay a platform deterministically (e.g.
//! logs converted from the Failure Trace Archive, or a simulated campaign's
//! availability archived for later inspection). The format is line-oriented
//! text, RLE-compressed, diff-friendly and versioned:
//!
//! ```text
//! # volatile-grid traces v1
//! slots 86400
//! proc 0 w 4
//! u3600 r120 u7200 d600 …
//! proc 1 w 12
//! u86400
//! ```
//!
//! An empty trace is written as a single `-` (a blank line would be
//! indistinguishable from formatting). Comments (`#`) and blank lines are
//! ignored outside of run lines.
//!
//! [`TraceSet::from_fta_text`] additionally imports Failure Trace
//! Archive-style event logs (`node_id interval_start interval_end` per
//! line, each interval an availability window) into the same structure, so
//! recorded real-world volatility feeds the replay path unchanged.

use crate::processor::ProcessorSpec;
use crate::trace::{RleTrace, Trace};
use vg_des::SlotSpan;
use vg_markov::ProcState;

/// A persisted platform recording: speeds plus availability traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSet {
    /// Nominal trace length in slots (traces may individually be shorter;
    /// replay pads per [`crate::source::TailBehavior`]).
    pub slots: u64,
    /// Per-processor `(spec, trace)` in processor order.
    pub entries: Vec<(ProcessorSpec, Trace)>,
}

/// Parse error with exact position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSetParseError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token (0 when the error concerns
    /// the whole line, e.g. a missing trailing line).
    pub col: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for TraceSetParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.col == 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "line {}, col {}: {}", self.line, self.col, self.message)
        }
    }
}

impl std::error::Error for TraceSetParseError {}

const HEADER: &str = "# volatile-grid traces v1";

/// Marker for an empty trace on a run line.
const EMPTY_TRACE: &str = "-";

/// Tokenizes a line into `(1-based byte column, token)` pairs.
fn tokens(line: &str) -> impl Iterator<Item = (usize, &str)> + '_ {
    let base = line.as_ptr() as usize;
    line.split_whitespace()
        .map(move |tok| (tok.as_ptr() as usize - base + 1, tok))
}

impl TraceSet {
    /// Builds a trace set; `slots` defaults to the longest trace.
    #[must_use]
    pub fn new(entries: Vec<(ProcessorSpec, Trace)>) -> Self {
        let slots = entries
            .iter()
            .map(|(_, t)| t.len() as u64)
            .max()
            .unwrap_or(0);
        Self { slots, entries }
    }

    /// Number of processors.
    #[must_use]
    pub fn p(&self) -> usize {
        self.entries.len()
    }

    /// Serializes to the versioned text format.
    #[must_use]
    // tidy:allow(dead_pub): the writer that tests/trace_replay_roundtrip.rs and this file's round-trip proptests parse back
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("slots {}\n", self.slots));
        for (q, (spec, trace)) in self.entries.iter().enumerate() {
            out.push_str(&format!("proc {q} w {}\n", spec.w));
            if trace.is_empty() {
                // A blank line would vanish in parsing; mark emptiness.
                out.push_str(EMPTY_TRACE);
            } else {
                out.push_str(&trace.to_rle().to_compact_string());
            }
            out.push('\n');
        }
        out
    }

    /// Parses the text format. Errors carry the exact 1-based line and
    /// column of the offending token.
    // tidy:allow(dead_pub): the hostile-input parser that tests/trace_replay_roundtrip.rs and this file's proptests fuzz
    pub fn from_text(text: &str) -> Result<Self, TraceSetParseError> {
        let err =
            |line: usize, col: usize, message: String| TraceSetParseError { line, col, message };
        let mut lines = text.lines().enumerate().peekable();

        // Header.
        let (n, first) = lines
            .next()
            .ok_or_else(|| err(1, 0, "empty input".into()))?;
        if first.trim() != HEADER {
            return Err(err(n + 1, 1, format!("expected header {HEADER:?}")));
        }

        let mut slots: Option<u64> = None;
        let mut entries: Vec<(ProcessorSpec, Trace)> = Vec::new();
        while let Some((n, raw)) = lines.next() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut toks = tokens(raw);
            let Some((dcol, directive)) = toks.next() else {
                continue;
            };
            match directive {
                "slots" => {
                    let (vcol, v) = toks
                        .next()
                        .ok_or_else(|| err(n + 1, dcol, "slots needs a value".into()))?;
                    let v: u64 = v
                        .parse()
                        .map_err(|_| err(n + 1, vcol, "slots expects an integer".into()))?;
                    slots = Some(v);
                }
                "proc" => {
                    let (icol, itok) = toks
                        .next()
                        .ok_or_else(|| err(n + 1, dcol, "proc needs an index".into()))?;
                    let idx: usize = itok
                        .parse()
                        .map_err(|_| err(n + 1, icol, "proc index must be an integer".into()))?;
                    if idx != entries.len() {
                        return Err(err(
                            n + 1,
                            icol,
                            format!("proc {idx} out of order (expected {})", entries.len()),
                        ));
                    }
                    let w: SlotSpan = match (toks.next(), toks.next()) {
                        (Some((_, "w")), Some((wcol, v))) => v
                            .parse()
                            .map_err(|_| err(n + 1, wcol, "w expects an integer".into()))?,
                        (Some((c, _)), _) | (None, Some((c, _))) => {
                            return Err(err(n + 1, c, "expected `w <speed>`".into()))
                        }
                        (None, None) => {
                            return Err(err(n + 1, dcol, "expected `w <speed>`".into()))
                        }
                    };
                    if w == 0 {
                        let wcol = tokens(raw).nth(3).map_or(dcol, |(c, _)| c);
                        return Err(err(n + 1, wcol, "w must be ≥ 1".into()));
                    }
                    // Next non-comment line is the RLE trace (`-` = empty).
                    let (rn, run_raw) = loop {
                        match lines.next() {
                            Some((rn, l)) => {
                                let t = l.trim();
                                if t.is_empty() || t.starts_with('#') {
                                    continue;
                                }
                                break (rn, l);
                            }
                            None => {
                                return Err(err(n + 1, 0, format!("proc {idx} has no trace line")))
                            }
                        }
                    };
                    let run_line = run_raw.trim();
                    let trace = if run_line == EMPTY_TRACE {
                        Trace::default()
                    } else {
                        let lead = run_raw.len() - run_raw.trim_start().len();
                        let rle = RleTrace::parse(run_line)
                            .map_err(|e| err(rn + 1, lead + e.at + 1, format!("bad trace: {e}")))?;
                        rle.to_dense()
                    };
                    entries.push((ProcessorSpec::new(w), trace));
                }
                other => {
                    return Err(err(n + 1, dcol, format!("unknown directive {other:?}")));
                }
            }
        }
        let slots = slots.ok_or_else(|| err(1, 0, "missing `slots` directive".into()))?;
        Ok(Self { slots, entries })
    }

    /// Imports a Failure Trace Archive-style availability log.
    ///
    /// Each non-comment line is `node_id interval_start interval_end`: one
    /// availability interval (slots, half-open `[start, end)`) during which
    /// `node_id` was `UP`. Gaps between intervals are `DOWN`. Node ids are
    /// arbitrary tokens, mapped to processor indices in first-appearance
    /// order; a node's intervals must be chronological and non-overlapping.
    /// Every trace spans the global horizon (the largest interval end), and
    /// speeds default to `w = 1` (the archive records availability, not
    /// performance).
    // tidy:allow(dead_pub): the Failure Trace Archive reader that this file's parser tests and proptests fuzz
    pub fn from_fta_text(text: &str) -> Result<Self, TraceSetParseError> {
        let err =
            |line: usize, col: usize, message: String| TraceSetParseError { line, col, message };
        let mut order: Vec<String> = Vec::new();
        let mut intervals: Vec<Vec<(u64, u64)>> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let n = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut toks = tokens(raw);
            let Some((idcol, id)) = toks.next() else {
                continue;
            };
            let (scol, stok) = toks
                .next()
                .ok_or_else(|| err(n, idcol, "expected `node start end`".into()))?;
            let start: u64 = stok.parse().map_err(|_| {
                err(
                    n,
                    scol,
                    format!("interval start expects an integer, got {stok:?}"),
                )
            })?;
            let (ecol, etok) = toks
                .next()
                .ok_or_else(|| err(n, scol, "interval needs an end".into()))?;
            let end: u64 = etok.parse().map_err(|_| {
                err(
                    n,
                    ecol,
                    format!("interval end expects an integer, got {etok:?}"),
                )
            })?;
            if let Some((c, extra)) = toks.next() {
                return Err(err(n, c, format!("trailing token {extra:?}")));
            }
            if start >= end {
                return Err(err(n, ecol, format!("empty interval {start}..{end}")));
            }
            let node = match order.iter().position(|o| o == id) {
                Some(i) => i,
                None => {
                    order.push(id.to_string());
                    intervals.push(Vec::new());
                    order.len() - 1
                }
            };
            if let Some(&(_, prev_end)) = intervals[node].last() {
                if start < prev_end {
                    return Err(err(
                        n,
                        scol,
                        format!(
                            "node {id:?}: interval {start}..{end} overlaps or precedes \
                             the previous interval ending at {prev_end}"
                        ),
                    ));
                }
            }
            intervals[node].push((start, end));
        }
        let horizon = intervals
            .iter()
            .flatten()
            .map(|&(_, e)| e)
            .max()
            .unwrap_or(0);
        let entries = intervals
            .into_iter()
            .map(|ivs| {
                let mut runs: Vec<(ProcState, u64)> = Vec::new();
                let mut cursor = 0u64;
                for (start, end) in ivs {
                    if start > cursor {
                        runs.push((ProcState::Down, start - cursor));
                    }
                    runs.push((ProcState::Up, end - start));
                    cursor = end;
                }
                if cursor < horizon {
                    runs.push((ProcState::Down, horizon - cursor));
                }
                (ProcessorSpec::new(1), RleTrace::new(runs).to_dense())
            })
            .collect();
        Ok(Self {
            slots: horizon,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vg_markov::ProcState;

    fn t(s: &str) -> Trace {
        Trace::parse(s).unwrap()
    }

    fn sample() -> TraceSet {
        TraceSet::new(vec![
            (ProcessorSpec::new(4), t("uuurrduu")),
            (ProcessorSpec::new(12), t("uuuuuuuu")),
        ])
    }

    #[test]
    fn text_roundtrip() {
        let ts = sample();
        let text = ts.to_text();
        let back = TraceSet::from_text(&text).unwrap();
        assert_eq!(back, ts);
    }

    #[test]
    fn empty_traces_roundtrip() {
        // Regression: an empty trace used to serialize as a blank line,
        // which the parser skipped — `proc 0 has no trace line` (or worse,
        // it consumed the next proc's run line). The `-` marker pins it.
        let ts = TraceSet::new(vec![
            (ProcessorSpec::new(3), Trace::default()),
            (ProcessorSpec::new(4), t("ur")),
            (ProcessorSpec::new(5), Trace::default()),
        ]);
        let text = ts.to_text();
        assert!(
            text.contains("\n-\n"),
            "empty traces need a marker:\n{text}"
        );
        let back = TraceSet::from_text(&text).unwrap();
        assert_eq!(back, ts);
        assert_eq!(back.slots, 2);
    }

    #[test]
    fn format_is_human_readable() {
        let text = sample().to_text();
        assert!(text.starts_with(HEADER));
        assert!(text.contains("slots 8"));
        assert!(text.contains("proc 0 w 4"));
        assert!(text.contains("u3 r2 d1 u2"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text =
            format!("{HEADER}\n# a comment\n\nslots 4\nproc 0 w 2\n# trace follows\nu2 r2\n");
        let ts = TraceSet::from_text(&text).unwrap();
        assert_eq!(ts.p(), 1);
        assert_eq!(ts.entries[0].1, t("uurr"));
    }

    #[test]
    fn missing_header_rejected() {
        let e = TraceSet::from_text("slots 4\n").unwrap_err();
        assert!(e.message.contains("header"), "{e}");
        assert_eq!((e.line, e.col), (1, 1));
    }

    #[test]
    fn missing_slots_rejected() {
        let e = TraceSet::from_text(&format!("{HEADER}\nproc 0 w 1\nu4\n")).unwrap_err();
        assert!(e.message.contains("slots"), "{e}");
    }

    #[test]
    fn out_of_order_proc_rejected() {
        let e = TraceSet::from_text(&format!("{HEADER}\nslots 4\nproc 1 w 1\nu4\n")).unwrap_err();
        assert!(e.message.contains("out of order"), "{e}");
        assert_eq!((e.line, e.col), (3, 6), "{e}");
    }

    #[test]
    fn bad_speed_rejected() {
        let e = TraceSet::from_text(&format!("{HEADER}\nslots 4\nproc 0 w 0\nu4\n")).unwrap_err();
        assert!(e.message.contains('w'), "{e}");
        assert_eq!((e.line, e.col), (3, 10), "{e}");
    }

    #[test]
    fn missing_trace_line_rejected() {
        let e = TraceSet::from_text(&format!("{HEADER}\nslots 4\nproc 0 w 1\n")).unwrap_err();
        assert!(e.message.contains("no trace"), "{e}");
        assert_eq!((e.line, e.col), (3, 0), "{e}");
    }

    #[test]
    fn garbage_directive_rejected() {
        let e = TraceSet::from_text(&format!("{HEADER}\nslots 4\nbogus\n")).unwrap_err();
        assert!(e.message.contains("unknown directive"), "{e}");
        assert_eq!(e.line, 3);
        assert_eq!(e.col, 1);
    }

    #[test]
    fn malformed_lines_pin_exact_columns() {
        // (body after header, line, col, message fragment)
        let cases = [
            ("slots x", 2, 7, "integer"),
            ("slots", 2, 1, "needs a value"),
            ("slots 4\nproc zero w 1\nu4", 3, 6, "must be an integer"),
            ("slots 4\nproc 0 q 1\nu4", 3, 8, "expected `w <speed>`"),
            ("slots 4\nproc 0 w x\nu4", 3, 10, "integer"),
            ("slots 4\nproc 0 w 1\n  u3 z9", 4, 6, "bad trace"),
        ];
        for (body, line, col, frag) in cases {
            let e = TraceSet::from_text(&format!("{HEADER}\n{body}\n")).unwrap_err();
            assert_eq!((e.line, e.col), (line, col), "{body:?}: {e}");
            assert!(e.message.contains(frag), "{body:?}: {e}");
        }
    }

    #[test]
    fn slots_default_is_longest_trace() {
        let ts = TraceSet::new(vec![
            (ProcessorSpec::new(1), t("uu")),
            (ProcessorSpec::new(1), t("uuuuu")),
        ]);
        assert_eq!(ts.slots, 5);
        let empty = TraceSet::new(vec![]);
        assert_eq!(empty.slots, 0);
    }

    #[test]
    fn fta_import_builds_gap_filled_traces() {
        let ts = TraceSet::from_fta_text(
            "# node start end\n\
             alpha 0 3\n\
             beta 2 5\n\
             alpha 4 6\n\
             # trailing comment\n",
        )
        .unwrap();
        assert_eq!(ts.slots, 6);
        assert_eq!(ts.p(), 2);
        // alpha: up [0,3), down [3,4), up [4,6).
        assert_eq!(ts.entries[0].1, t("uuuduu"));
        // beta: down [0,2), up [2,5), down [5,6).
        assert_eq!(ts.entries[1].1, t("dduuud"));
        assert!(ts.entries.iter().all(|(spec, _)| spec.w == 1));
    }

    #[test]
    fn fta_import_roundtrips_through_the_text_format() {
        let ts = TraceSet::from_fta_text("n1 0 4\nn2 1 2\n").unwrap();
        let back = TraceSet::from_text(&ts.to_text()).unwrap();
        assert_eq!(back, ts);
    }

    #[test]
    fn fta_import_rejects_malformed_lines_with_positions() {
        let cases = [
            ("alpha 5", 1, 7, "needs an end"),
            ("alpha", 1, 1, "expected `node start end`"),
            ("alpha x 5", 1, 7, "integer"),
            ("alpha 0 y", 1, 9, "integer"),
            ("alpha 5 5", 1, 9, "empty interval"),
            ("alpha 0 5\nalpha 3 8", 2, 7, "overlaps"),
            ("alpha 0 5 extra", 1, 11, "trailing"),
        ];
        for (text, line, col, frag) in cases {
            let e = TraceSet::from_fta_text(text).unwrap_err();
            assert_eq!((e.line, e.col), (line, col), "{text:?}: {e}");
            assert!(e.message.contains(frag), "{text:?}: {e}");
        }
        // Touching intervals are chronological, not overlapping.
        assert!(TraceSet::from_fta_text("a 0 5\na 5 9\n").is_ok());
        // An empty log is an empty (zero-horizon) set, not an error.
        let empty = TraceSet::from_fta_text("# nothing\n").unwrap();
        assert_eq!((empty.slots, empty.p()), (0, 0));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            specs in proptest::collection::vec((1u64..50, proptest::collection::vec(0usize..3, 0..100)), 0..6)
        ) {
            // Trace lengths start at 0: the empty-trace `-` marker is part
            // of the round-trip contract.
            let entries: Vec<(ProcessorSpec, Trace)> = specs
                .iter()
                .map(|(w, codes)| {
                    let trace: Trace = codes.iter().map(|&c| ProcState::from_index(c)).collect();
                    (ProcessorSpec::new(*w), trace)
                })
                .collect();
            let ts = TraceSet::new(entries);
            let back = TraceSet::from_text(&ts.to_text()).unwrap();
            prop_assert_eq!(back, ts);
        }
    }
}
