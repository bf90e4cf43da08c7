//! Scripted fault injection: a tiny deterministic chaos DSL.
//!
//! Chaos-mesh-style campaigns stress-test a scheduler with *scripted*
//! volatility — "kill 30% of the workers at slot 100 for 50 slots" — instead
//! of (or on top of) stochastic chains. The script is a line-oriented text
//! format, parsed by a hand-rolled parser with exact line/column error
//! positions:
//!
//! ```text
//! # declare a named worker group (half-open index range)
//! group rack0 = 0..8
//!
//! kill 30% at 100 for 50       # force 30% of workers DOWN
//! kill 3 at 200                # 3 workers, default duration 1 slot
//! kill group rack0 at 300 for 25
//! degrade group rack0 at 400 for 10   # force RECLAIMED
//! recover group rack0 at 410 for 5    # force UP
//! ```
//!
//! Percent and count targets pick workers by a deterministic even spread
//! (`⌊i·p/k⌋` for the `i`-th of `k` victims), so a script is reproducible
//! on any platform of the same size without an RNG. A parsed
//! [`FaultScript`] is compiled against a concrete platform size into a
//! [`CompiledScript`] — a flat span list that the engine's overlay (or the
//! per-source wrappers from [`CompiledScript::wrap_sources`]) applies after
//! the base availability row is sampled. An **empty script compiles to a
//! passthrough**: it forces nothing, and the overlay contract pins the
//! resulting runs byte-identical to the unwrapped base.

use vg_markov::availability::ProcState;

use crate::source::AvailabilitySource;

/// Parse or compile error with exact position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultScriptError {
    /// 1-based line number (0 for whole-script compile errors).
    pub line: usize,
    /// 1-based column of the offending token (0 when not applicable).
    pub col: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for FaultScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "fault script: {}", self.message)
        } else {
            write!(f, "line {}, col {}: {}", self.line, self.col, self.message)
        }
    }
}

impl std::error::Error for FaultScriptError {}

/// What a scripted event forces its victims into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Force `DOWN` (crash: running work on the victims is lost).
    Kill,
    /// Force `RECLAIMED` (the owner takes the machine back; work survives).
    Degrade,
    /// Force `UP` (scripted recovery window).
    Recover,
}

impl FaultAction {
    /// The forced processor state.
    #[must_use]
    fn forced_state(self) -> ProcState {
        match self {
            Self::Kill => ProcState::Down,
            Self::Degrade => ProcState::Reclaimed,
            Self::Recover => ProcState::Up,
        }
    }
}

/// Which workers an event hits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTarget {
    /// A percentage of the platform, `0..=100`, rounded half-up to a count.
    Fraction(u32),
    /// An absolute worker count.
    Count(u64),
    /// A named group declared with `group <name> = <lo>..<hi>`.
    Group(String),
}

/// One scripted event: `<action> <target> at <slot> [for <duration>]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// What state the victims are forced into.
    pub action: FaultAction,
    /// Who is hit.
    pub target: FaultTarget,
    /// First affected slot.
    pub at: u64,
    /// Number of affected slots (≥ 1; the grammar default is 1).
    pub duration: u64,
}

/// A parsed (but not yet platform-bound) fault script.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultScript {
    /// Declared groups, in declaration order: `(name, lo..hi)` half-open.
    groups: Vec<(String, std::ops::Range<u32>)>,
    /// Events in script order.
    events: Vec<FaultEvent>,
}

/// One compiled forcing window: `workers` are forced into `state` for every
/// slot in `start..end`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForcedSpan {
    /// First affected slot.
    pub start: u64,
    /// One past the last affected slot.
    pub end: u64,
    /// The forced state.
    pub state: ProcState,
    /// Victim worker indices, strictly increasing.
    pub workers: Vec<u32>,
}

/// A fault script bound to a platform of `p` workers: a flat list of
/// forcing spans ready to apply to sampled state rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledScript {
    p: usize,
    spans: Vec<ForcedSpan>,
}

impl FaultScript {
    /// Parses the script text. Errors carry the exact 1-based line and
    /// column of the offending token.
    pub fn parse(text: &str) -> Result<Self, FaultScriptError> {
        let mut script = Self::default();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let mut toks = Tokens::new(raw, line_no);
            let Some((col, word)) = toks.next() else {
                continue; // blank or comment-only line
            };
            match word {
                "group" => script.parse_group(&mut toks)?,
                "kill" | "degrade" | "recover" => {
                    let action = match word {
                        "kill" => FaultAction::Kill,
                        "degrade" => FaultAction::Degrade,
                        _ => FaultAction::Recover,
                    };
                    script.parse_event(action, &mut toks)?;
                }
                other => {
                    return Err(FaultScriptError {
                        line: line_no,
                        col,
                        message: format!(
                            "unknown directive {other:?} (expected group/kill/degrade/recover)"
                        ),
                    })
                }
            }
        }
        Ok(script)
    }

    /// `group <name> = <lo>..<hi>` (indices half-open, `lo < hi`).
    fn parse_group(&mut self, toks: &mut Tokens<'_>) -> Result<(), FaultScriptError> {
        let (ncol, name) = toks.expect_any("group name")?;
        if name == "=" || name.contains("..") {
            return Err(toks.err(ncol, "expected a group name before `=`".into()));
        }
        toks.expect_word("=")?;
        let (rcol, range) = toks.expect_any("index range `<lo>..<hi>`")?;
        let Some((lo, hi)) = range.split_once("..") else {
            return Err(toks.err(rcol, format!("expected `<lo>..<hi>`, got {range:?}")));
        };
        let lo: u32 = parse_int(toks, rcol, lo, "range start")?;
        let hi: u32 = parse_int(toks, rcol, hi, "range end")?;
        if lo >= hi {
            return Err(toks.err(rcol, format!("empty range {lo}..{hi}")));
        }
        if self.groups.iter().any(|(n, _)| n == name) {
            return Err(toks.err(ncol, format!("group {name:?} declared twice")));
        }
        toks.expect_end()?;
        self.groups.push((name.to_string(), lo..hi));
        Ok(())
    }

    /// `<action> <target> at <slot> [for <duration>]`.
    fn parse_event(
        &mut self,
        action: FaultAction,
        toks: &mut Tokens<'_>,
    ) -> Result<(), FaultScriptError> {
        let (tcol, tword) = toks.expect_any("target (count, percent or `group <name>`)")?;
        let target = if tword == "group" {
            let (_, name) = toks.expect_any("group name")?;
            if !self.groups.iter().any(|(n, _)| n == name) {
                return Err(toks.err(tcol, format!("undeclared group {name:?}")));
            }
            FaultTarget::Group(name.to_string())
        } else if let Some(pct) = tword.strip_suffix('%') {
            let pct: u32 = parse_int(toks, tcol, pct, "percentage")?;
            if pct > 100 {
                return Err(toks.err(tcol, format!("{pct}% exceeds 100%")));
            }
            FaultTarget::Fraction(pct)
        } else {
            FaultTarget::Count(parse_int(toks, tcol, tword, "worker count")?)
        };
        toks.expect_word("at")?;
        let (scol, sword) = toks.expect_any("slot number")?;
        let at: u64 = parse_int(toks, scol, sword, "slot number")?;
        let duration = match toks.next() {
            None => 1,
            Some((_, "for")) => {
                let (dcol, dword) = toks.expect_any("duration in slots")?;
                let d: u64 = parse_int(toks, dcol, dword, "duration")?;
                if d == 0 {
                    return Err(toks.err(dcol, "duration must be ≥ 1".into()));
                }
                toks.expect_end()?;
                d
            }
            Some((c, other)) => {
                return Err(toks.err(c, format!("expected `for` or end of line, got {other:?}")))
            }
        };
        self.events.push(FaultEvent {
            action,
            target,
            at,
            duration,
        });
        Ok(())
    }

    /// Declared groups (name, half-open index range).
    #[must_use]
    pub fn groups(&self) -> &[(String, std::ops::Range<u32>)] {
        &self.groups
    }

    /// True when the script forces nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Binds the script to a platform of `p` workers, resolving every
    /// target to concrete indices. Fails loudly on out-of-range groups or
    /// counts exceeding `p`.
    pub fn compile(&self, p: usize) -> Result<CompiledScript, FaultScriptError> {
        let whole = |message: String| FaultScriptError {
            line: 0,
            col: 0,
            message,
        };
        if p == 0 || p > u32::MAX as usize {
            return Err(whole(format!("platform size {p} out of range")));
        }
        let mut spans = Vec::with_capacity(self.events.len());
        for ev in &self.events {
            let workers = match &ev.target {
                FaultTarget::Group(name) => {
                    let Some((_, range)) = self.groups.iter().find(|(n, _)| n == name) else {
                        return Err(whole(format!("undeclared group {name:?}")));
                    };
                    if range.end as usize > p {
                        return Err(whole(format!(
                            "group {name:?} spans {}..{} but the platform has only {p} workers",
                            range.start, range.end
                        )));
                    }
                    range.clone().collect()
                }
                FaultTarget::Count(k) => {
                    if *k > p as u64 {
                        return Err(whole(format!(
                            "event targets {k} workers but the platform has only {p}"
                        )));
                    }
                    spread(p, *k as usize)
                }
                FaultTarget::Fraction(pct) => {
                    // Round half-up: 30% of 20 → 6, 1% of 20 → 0 (too small
                    // to hit anyone on this platform).
                    let k = (*pct as usize * p + 50) / 100;
                    spread(p, k)
                }
            };
            if workers.is_empty() {
                continue; // a 0-victim event forces nothing
            }
            spans.push(ForcedSpan {
                start: ev.at,
                end: ev.at.saturating_add(ev.duration),
                state: ev.action.forced_state(),
                workers,
            });
        }
        spans.sort_by_key(|s| (s.start, s.end));
        Ok(CompiledScript { p, spans })
    }
}

/// `k` victims spread evenly across `p` workers: the `i`-th victim is
/// `⌊i·p/k⌋`. Deterministic, strictly increasing, RNG-free.
fn spread(p: usize, k: usize) -> Vec<u32> {
    (0..k).map(|i| (i * p / k.max(1)) as u32).collect()
}

impl CompiledScript {
    /// The passthrough script for a `p`-worker platform: forces nothing.
    #[must_use]
    pub fn empty(p: usize) -> Self {
        Self {
            p,
            spans: Vec::new(),
        }
    }

    /// Platform size this script was compiled against.
    #[must_use]
    pub fn p(&self) -> usize {
        self.p
    }

    /// The compiled forcing spans, sorted by start slot.
    #[must_use]
    pub fn spans(&self) -> &[ForcedSpan] {
        &self.spans
    }

    /// True when the script forces nothing — the overlay contract pins this
    /// case byte-identical to the unwrapped base source.
    #[must_use]
    pub fn is_passthrough(&self) -> bool {
        self.spans.is_empty()
    }

    /// One past the last scripted slot (0 for a passthrough).
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.spans.iter().map(|s| s.end).max().unwrap_or(0)
    }

    /// Wraps one boxed source per worker so that each emits the scripted
    /// states over its base stream — the out-of-engine composition path
    /// (the engine's `ScriptedOverlay` is the row-level equivalent).
    ///
    /// # Panics
    /// Panics when `sources.len()` differs from the compiled platform size.
    #[must_use]
    // tidy:allow(dead_pub): vg-sim's tests/chaos_equivalence.rs pins the engine overlay against this path
    pub fn wrap_sources(
        &self,
        sources: Vec<Box<dyn AvailabilitySource>>,
    ) -> Vec<Box<dyn AvailabilitySource>> {
        assert_eq!(
            sources.len(),
            self.p,
            "script compiled for {} workers, got {} sources",
            self.p,
            sources.len()
        );
        sources
            .into_iter()
            .enumerate()
            .map(|(q, inner)| {
                let spans: Vec<(u64, u64, ProcState)> = self
                    .spans
                    .iter()
                    .filter(|s| s.workers.binary_search(&(q as u32)).is_ok())
                    .map(|s| (s.start, s.end, s.state))
                    .collect();
                Box::new(ScriptedSource {
                    inner,
                    spans,
                    slot: 0,
                }) as Box<dyn AvailabilitySource>
            })
            .collect()
    }
}

/// A per-worker wrapper: samples the base source every slot (keeping its
/// RNG stream aligned with the unwrapped run), then forces the scripted
/// state when a span covers the current slot.
struct ScriptedSource {
    inner: Box<dyn AvailabilitySource>,
    /// This worker's forcing windows: `(start, end, state)`, sorted.
    spans: Vec<(u64, u64, ProcState)>,
    slot: u64,
}

impl AvailabilitySource for ScriptedSource {
    fn next_state(&mut self) -> ProcState {
        let base = self.inner.next_state();
        let slot = self.slot;
        self.slot += 1;
        for &(start, end, state) in &self.spans {
            if start > slot {
                break;
            }
            if slot < end {
                return state;
            }
        }
        base
    }
}

/// Whitespace tokenizer with 1-based byte-column tracking; `#` starts a
/// comment running to end of line.
struct Tokens<'a> {
    rest: &'a str,
    /// Byte offset of `rest` within the original line.
    offset: usize,
    line: usize,
    /// Column of the most recently produced token (for trailing errors).
    last_col: usize,
}

impl<'a> Tokens<'a> {
    fn new(line: &'a str, line_no: usize) -> Self {
        Self {
            rest: line,
            offset: 0,
            line: line_no,
            last_col: 1,
        }
    }

    fn err(&self, col: usize, message: String) -> FaultScriptError {
        FaultScriptError {
            line: self.line,
            col,
            message,
        }
    }

    fn expect_any(&mut self, what: &str) -> Result<(usize, &'a str), FaultScriptError> {
        match self.next() {
            Some(t) => Ok(t),
            None => Err(self.err(
                self.last_col,
                format!("unexpected end of line, expected {what}"),
            )),
        }
    }

    fn expect_word(&mut self, word: &str) -> Result<(), FaultScriptError> {
        let (col, got) = self.expect_any(&format!("`{word}`"))?;
        if got == word {
            Ok(())
        } else {
            Err(self.err(col, format!("expected `{word}`, got {got:?}")))
        }
    }

    fn expect_end(&mut self) -> Result<(), FaultScriptError> {
        match self.next() {
            None => Ok(()),
            Some((col, tok)) => Err(self.err(col, format!("trailing token {tok:?}"))),
        }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let trimmed = self.rest.trim_start();
        self.offset += self.rest.len() - trimmed.len();
        self.rest = trimmed;
        if self.rest.is_empty() || self.rest.starts_with('#') {
            return None;
        }
        let end = self
            .rest
            .find(char::is_whitespace)
            .unwrap_or(self.rest.len());
        let (tok, rest) = self.rest.split_at(end);
        let col = self.offset + 1;
        self.offset += end;
        self.rest = rest;
        self.last_col = col + tok.len();
        Some((col, tok))
    }
}

/// Parses an integer token, reporting the token's column on failure.
fn parse_int<T: std::str::FromStr>(
    toks: &Tokens<'_>,
    col: usize,
    text: &str,
    what: &str,
) -> Result<T, FaultScriptError> {
    text.parse()
        .map_err(|_| toks.err(col, format!("{what} expects an integer, got {text:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::markov_source;
    use crate::StartPolicy;
    use vg_des::rng::SeedPath;
    use vg_markov::AvailabilityChain;
    use ProcState::{Down as D, Reclaimed as R, Up as U};

    #[test]
    fn parses_the_doc_example() {
        let s = FaultScript::parse(
            "# header comment\n\
             group rack0 = 0..8\n\
             \n\
             kill 30% at 100 for 50   # mass kill\n\
             kill 3 at 200\n\
             degrade group rack0 at 400 for 10\n\
             recover group rack0 at 410 for 5\n",
        )
        .unwrap();
        assert_eq!(s.groups(), &[("rack0".to_string(), 0..8)]);
        assert_eq!(s.events.len(), 4);
        assert_eq!(
            s.events[0],
            FaultEvent {
                action: FaultAction::Kill,
                target: FaultTarget::Fraction(30),
                at: 100,
                duration: 50,
            }
        );
        assert_eq!(s.events[1].duration, 1, "default duration");
        assert_eq!(s.events[2].action, FaultAction::Degrade);
        assert_eq!(s.events[3].action, FaultAction::Recover);
    }

    #[test]
    fn error_positions_are_exact() {
        // (script, line, col, message fragment)
        let cases = [
            ("bogus 3 at 1", 1, 1, "unknown directive"),
            ("kill 30% at 100\nkill x at 5", 2, 6, "integer"),
            ("kill 130% at 0", 1, 6, "exceeds 100%"),
            ("kill 3 al 100", 1, 8, "expected `at`"),
            ("kill 3 at 100 for 0", 1, 19, "duration must be"),
            ("kill 3 at 100 maybe", 1, 15, "expected `for`"),
            ("kill group ghosts at 4", 1, 6, "undeclared group"),
            ("group a = 5..5", 1, 11, "empty range"),
            ("group a = 0..4\ngroup a = 4..8", 2, 7, "declared twice"),
            ("kill 3 at", 1, 10, "slot number"),
            (
                "group a = 0..2\nkill group a at 7 for 2 extra",
                2,
                25,
                "trailing",
            ),
        ];
        for (text, line, col, frag) in cases {
            let e = FaultScript::parse(text).unwrap_err();
            assert_eq!((e.line, e.col), (line, col), "{text:?}: {e}");
            assert!(e.message.contains(frag), "{text:?}: {e}");
        }
    }

    #[test]
    fn compile_resolves_targets_deterministically() {
        let s =
            FaultScript::parse("group left = 0..3\nkill 50% at 10 for 2\nkill group left at 20")
                .unwrap();
        let c = s.compile(6).unwrap();
        assert_eq!(c.p(), 6);
        assert_eq!(c.spans().len(), 2);
        // 50% of 6 → 3 victims spread as ⌊i·6/3⌋ = 0, 2, 4.
        assert_eq!(c.spans()[0].workers, vec![0, 2, 4]);
        assert_eq!((c.spans()[0].start, c.spans()[0].end), (10, 12));
        assert_eq!(c.spans()[1].workers, vec![0, 1, 2]);
        assert_eq!(c.horizon(), 21);
        // Same script, same platform → identical compilation.
        assert_eq!(c, s.compile(6).unwrap());
    }

    #[test]
    fn compile_rejects_oversized_targets() {
        let s = FaultScript::parse("group big = 0..10\nkill group big at 0").unwrap();
        let e = s.compile(4).unwrap_err();
        assert!(e.message.contains("only 4 workers"), "{e}");
        let s = FaultScript::parse("kill 9 at 0").unwrap();
        assert!(s.compile(4).is_err());
        assert!(s.compile(9).is_ok());
        assert!(s.compile(0).is_err());
    }

    #[test]
    fn empty_script_is_passthrough() {
        let c = FaultScript::parse("# nothing\n\n")
            .unwrap()
            .compile(5)
            .unwrap();
        assert!(c.is_passthrough());
        assert_eq!(c, CompiledScript::empty(5));
        assert_eq!(c.horizon(), 0);
        // Zero-victim fractions compile away entirely.
        let tiny = FaultScript::parse("kill 1% at 5")
            .unwrap()
            .compile(20)
            .unwrap();
        assert!(tiny.is_passthrough());
    }

    fn test_chain() -> AvailabilityChain {
        AvailabilityChain::new([[0.9, 0.05, 0.05], [0.1, 0.85, 0.05], [0.05, 0.05, 0.9]]).unwrap()
    }

    #[test]
    fn wrapped_sources_force_scripted_states_and_keep_base_stream() {
        let p = 4;
        let script = FaultScript::parse("kill 2 at 3 for 2\nrecover 100% at 8 for 1")
            .unwrap()
            .compile(p)
            .unwrap();
        let build = || -> Vec<Box<dyn AvailabilitySource>> {
            (0..p)
                .map(|q| {
                    markov_source(
                        test_chain(),
                        StartPolicy::Up,
                        SeedPath::root(5).child(q as u64).rng(),
                    )
                })
                .collect()
        };
        let base: Vec<Vec<ProcState>> = build()
            .into_iter()
            .map(|mut s| (0..12).map(|_| s.next_state()).collect())
            .collect();
        let wrapped = script.wrap_sources(build());
        let got: Vec<Vec<ProcState>> = wrapped
            .into_iter()
            .map(|mut s| (0..12).map(|_| s.next_state()).collect())
            .collect();
        // Victims of `kill 2` on p=4: spread(4, 2) = {0, 2}.
        for q in 0..p {
            for t in 0..12 {
                let expect = if (3..5).contains(&t) && (q == 0 || q == 2) {
                    D
                } else if t == 8 {
                    U
                } else {
                    base[q][t]
                };
                assert_eq!(got[q][t], expect, "proc {q} slot {t}");
            }
        }
        // Forcing is an overlay: off-span slots equal the base stream, so
        // the wrapper provably advanced the base RNG every slot.
        assert!(base.iter().flatten().any(|&s| s == R || s == D));
    }

    #[test]
    fn passthrough_wrap_is_byte_identical() {
        let script = CompiledScript::empty(3);
        let build = || -> Vec<Box<dyn AvailabilitySource>> {
            (0..3)
                .map(|q| {
                    markov_source(
                        test_chain(),
                        StartPolicy::Up,
                        SeedPath::root(2).child(q).rng(),
                    )
                })
                .collect()
        };
        let mut plain = build();
        let mut wrapped = script.wrap_sources(build());
        for _ in 0..200 {
            for (a, b) in plain.iter_mut().zip(wrapped.iter_mut()) {
                assert_eq!(a.next_state(), b.next_state());
            }
        }
    }
}
