//! The lint rules, run over the token stream of one file at a time.
//!
//! Scope vocabulary (decided by the walker, consumed here):
//!
//! - **library code**: files under a `src/` directory that are not in a
//!   `src/bin/` subtree. Integration tests, benches, examples, and binary
//!   targets are *not* library code — a progress `Instant::now()` in a CLI
//!   is fine; one in the engine is not.
//! - **test region**: the token range of any item annotated `#[cfg(test)]`
//!   (or any `cfg(...)` attribute mentioning `test`, e.g. `all(test, ...)`).
//!   Determinism / allocation / panic rules skip test regions.
//!
//! Every rule except the panic-surface ratchet honors inline waivers:
//!
//! ```text
//! // tidy:allow(rule_name): reason the invariant holds here anyway
//! ```
//!
//! on the offending line or the line directly above. The reason is
//! mandatory, unknown rule names are findings, and *unused* waivers are
//! findings too — a waiver must never outlive the code it excuses. The
//! ratchet instead uses the committed baseline (`tidy_baseline.toml`) as
//! its only escape hatch.

use crate::config::Config;
use crate::lexer::{lex, Lexed, Token, TokenKind};
use std::collections::BTreeSet;

/// Rule identifiers, as used in waivers and reports.
const RULES: &[&str] = &[
    "default_hasher",
    "wall_clock",
    "float_cmp",
    "hot_alloc",
    "unsafe_safety",
    "dead_pub",
];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier: a waivable rule's name, `waiver` for waiver
    /// hygiene, or `panic_ratchet` for baseline violations.
    pub rule: &'static str,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// What the walker knows about a file before the rules run.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Ratchet bucket: `crates/<name>` for crate code, `src` for the root
    /// package's library.
    pub crate_dir: String,
    /// True for non-binary `src/` code (see module docs).
    pub is_lib: bool,
}

/// Per-file rule output.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations (waivers already applied).
    pub findings: Vec<Finding>,
    /// Lines of `unwrap`/`expect`/panic-macro sites in non-test library
    /// code, for the ratchet tally.
    pub panic_sites: Vec<u32>,
    /// Bare-`pub` fn/const/static items of non-test library code, for the
    /// workspace's `dead_pub` pass.
    pub pub_items: Vec<PubItem>,
    /// Every identifier in the file's non-test code: what `dead_pub`
    /// counts as naming an item.
    pub names: BTreeSet<String>,
}

/// A bare-`pub` fn, const or static declared in non-test library code.
#[derive(Debug, Clone)]
pub struct PubItem {
    /// The item's name.
    pub name: String,
    /// Line of its `pub` keyword.
    pub line: u32,
    /// Line of the `dead_pub` waiver on this line or the one above, if
    /// any. Whether it is needed is only known once every file is read.
    pub waiver: Option<u32>,
}

struct Waiver {
    /// Line the waiver comment ends on.
    line: u32,
    rule: String,
    used: bool,
}

/// Runs every rule over one file.
#[must_use]
pub fn check_file(meta: &FileMeta, src: &str, config: &Config) -> FileReport {
    let lexed = lex(src);
    let sig: Vec<usize> = lexed
        .tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .map(|(i, _)| i)
        .collect();
    let in_test = test_regions(&lexed, &sig);
    let mut report = FileReport::default();
    let waivers = collect_waivers(&lexed, meta, &mut report.findings);
    let mut check = FileCheck {
        meta,
        lexed,
        sig,
        in_test,
        waivers,
        report,
    };

    check.rule_default_hasher();
    check.rule_wall_clock(config);
    check.rule_float_cmp(config);
    check.rule_hot_alloc(config);
    check.rule_unsafe_safety();
    check.count_panic_sites();
    check.collect_pub_items();
    check.flag_unused_waivers();

    let mut report = check.report;
    report.findings.sort();
    report
}

/// Parses `tidy:allow(rule): reason` waivers out of comments. Malformed
/// waivers (unknown rule, missing reason) become findings directly.
fn collect_waivers(lexed: &Lexed<'_>, meta: &FileMeta, findings: &mut Vec<Finding>) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for t in &lexed.tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = lexed.text(t);
        // Doc comments never carry waivers — they are documentation, and may
        // legitimately *describe* the waiver syntax (this crate's own docs
        // do). Waivers live in plain `//` / `/* */` comments only.
        if text.starts_with("///")
            || text.starts_with("//!")
            || text.starts_with("/**")
            || text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = text.find("tidy:allow(") else {
            continue;
        };
        let end_line = t.line + text.matches('\n').count() as u32;
        let rest = &text[at + "tidy:allow(".len()..];
        let Some(close) = rest.find(')') else {
            findings.push(Finding {
                file: meta.rel.clone(),
                line: t.line,
                rule: "waiver",
                msg: "malformed waiver: missing `)`".to_string(),
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if !RULES.contains(&rule.as_str()) {
            findings.push(Finding {
                file: meta.rel.clone(),
                line: t.line,
                rule: "waiver",
                msg: format!(
                    "waiver names unknown rule `{rule}` (known: {}; the panic \
                     ratchet is governed by tidy_baseline.toml, not waivers)",
                    RULES.join(", ")
                ),
            });
            continue;
        }
        if reason.is_empty() {
            findings.push(Finding {
                file: meta.rel.clone(),
                line: t.line,
                rule: "waiver",
                msg: format!(
                    "waiver for `{rule}` has no reason — write \
                     `tidy:allow({rule}): why this is sound`"
                ),
            });
            continue;
        }
        waivers.push(Waiver {
            line: end_line,
            rule,
            used: false,
        });
    }
    waivers
}

/// Marks, for each significant token, whether it lies inside an item
/// annotated with a `cfg` attribute that mentions `test`.
fn test_regions(lexed: &Lexed<'_>, sig: &[usize]) -> Vec<bool> {
    let n = sig.len();
    let mut mask = vec![false; n];
    let tok = |k: usize| &lexed.tokens[sig[k]];
    let text = |k: usize| lexed.text(tok(k));
    // Finds the index of the `]` matching the `[` at `open`.
    let close_bracket = |open: usize| -> usize {
        let mut depth = 0usize;
        let mut j = open;
        while j < n {
            match text(j) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        n
    };
    let mut k = 0;
    while k < n {
        // Outer attribute `#[ ... ]` (`#![...]` inner forms never wrap an
        // item region — skip them).
        if !(tok(k).kind == TokenKind::Punct && text(k) == "#") {
            k += 1;
            continue;
        }
        if k + 1 < n && text(k + 1) == "!" {
            k += 2;
            continue;
        }
        if !(k + 1 < n && text(k + 1) == "[") {
            k += 1;
            continue;
        }
        let attr_end = close_bracket(k + 1);
        if attr_end >= n {
            break;
        }
        let is_cfg_test = k + 2 < n && text(k + 2) == "cfg" && {
            let mut saw_test = false;
            for j in k + 3..attr_end {
                if tok(j).kind == TokenKind::Ident && text(j) == "test" {
                    saw_test = true;
                }
            }
            saw_test
        };
        if !is_cfg_test {
            k = attr_end + 1;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut item = attr_end + 1;
        while item + 1 < n && text(item) == "#" && text(item + 1) == "[" {
            item = close_bracket(item + 1) + 1;
        }
        // The item extends to the first `;` at brace depth 0, or to the
        // matching `}` of the first `{` it opens.
        let mut brace = 0usize;
        let mut m = item;
        let mut opened = false;
        while m < n {
            match text(m) {
                "{" => {
                    brace += 1;
                    opened = true;
                }
                "}" => {
                    brace -= 1;
                    if opened && brace == 0 {
                        break;
                    }
                }
                ";" if brace == 0 => break,
                _ => {}
            }
            m += 1;
        }
        let item_end = if n == 0 { 0 } else { m.min(n - 1) };
        for slot in mask.iter_mut().take(item_end + 1).skip(k) {
            *slot = true;
        }
        k = item_end + 1;
    }
    mask
}

struct FileCheck<'a> {
    meta: &'a FileMeta,
    lexed: Lexed<'a>,
    /// Indices into `lexed.tokens` of non-comment tokens.
    sig: Vec<usize>,
    /// Parallel to `sig`: true when the token sits inside a `#[cfg(test)]`
    /// item.
    in_test: Vec<bool>,
    waivers: Vec<Waiver>,
    report: FileReport,
}

impl FileCheck<'_> {
    fn tok(&self, k: usize) -> &Token {
        &self.lexed.tokens[self.sig[k]]
    }

    fn text(&self, k: usize) -> &str {
        self.lexed.text(&self.lexed.tokens[self.sig[k]])
    }

    fn is_ident(&self, k: usize, name: &str) -> bool {
        k < self.sig.len() && self.tok(k).kind == TokenKind::Ident && self.text(k) == name
    }

    fn is_punct(&self, k: usize, op: &str) -> bool {
        k < self.sig.len() && self.tok(k).kind == TokenKind::Punct && self.text(k) == op
    }

    /// Marks the `rule` waiver on `line` or the line above as used and
    /// returns the waiver's line.
    fn take_waiver(&mut self, rule: &str, line: u32) -> Option<u32> {
        let w = self
            .waivers
            .iter_mut()
            .find(|w| w.rule == rule && (w.line == line || w.line + 1 == line))?;
        w.used = true;
        Some(w.line)
    }

    /// Emits a finding unless a matching waiver covers its line.
    fn finding(&mut self, rule: &'static str, line: u32, msg: String) {
        if self.take_waiver(rule, line).is_some() {
            return;
        }
        self.report.findings.push(Finding {
            file: self.meta.rel.clone(),
            line,
            rule,
            msg,
        });
    }

    fn flag_unused_waivers(&mut self) {
        let mut unused: Vec<(u32, String)> = Vec::new();
        for w in &self.waivers {
            if !w.used {
                unused.push((w.line, w.rule.clone()));
            }
        }
        for (line, rule) in unused {
            self.report.findings.push(Finding {
                file: self.meta.rel.clone(),
                line,
                rule: "waiver",
                msg: format!(
                    "unused waiver for `{rule}`: nothing on this or the next \
                     line triggers it — delete the waiver"
                ),
            });
        }
    }

    /// True when rule scanning should skip this token for "non-test library
    /// code" rules.
    fn skip_lib_rule(&self, k: usize) -> bool {
        !self.meta.is_lib || self.in_test[k]
    }

    // ----- determinism rules ------------------------------------------------

    fn rule_default_hasher(&mut self) {
        for k in 0..self.sig.len() {
            if self.skip_lib_rule(k) {
                continue;
            }
            if self.tok(k).kind == TokenKind::Ident {
                let name = self.text(k);
                if name == "HashMap" || name == "HashSet" {
                    let line = self.tok(k).line;
                    let msg = format!(
                        "`{name}` uses the per-process randomized default hasher; \
                         iteration order (and any order-dependent downstream) \
                         varies run to run — use `vg_des::det::Det{name}` \
                         (fixed-seed) or a BTree collection"
                    );
                    self.finding("default_hasher", line, msg);
                }
            }
        }
    }

    fn rule_wall_clock(&mut self, config: &Config) {
        if config
            .wall_clock_allow_crates
            .contains(&self.meta.crate_dir)
        {
            return;
        }
        for k in 0..self.sig.len() {
            if self.skip_lib_rule(k) {
                continue;
            }
            if self.tok(k).kind == TokenKind::Ident {
                let name = self.text(k);
                if name == "Instant" || name == "SystemTime" {
                    let line = self.tok(k).line;
                    let msg = format!(
                        "`{name}` reads the wall clock — simulated time must come \
                         from slots, not the host; timing belongs in vg-bench \
                         or binary targets"
                    );
                    self.finding("wall_clock", line, msg);
                }
            }
        }
    }

    fn rule_float_cmp(&mut self, config: &Config) {
        if config.float_cmp_allow.contains(&self.meta.rel) {
            return;
        }
        for k in 0..self.sig.len() {
            if self.skip_lib_rule(k) {
                continue;
            }
            if self.tok(k).kind != TokenKind::Punct {
                continue;
            }
            let op = self.text(k);
            if op != "==" && op != "!=" {
                continue;
            }
            let float_neighbor = |j: usize| {
                j < self.sig.len() && matches!(self.tok(j).kind, TokenKind::NumLit { float: true })
            };
            if (k > 0 && float_neighbor(k - 1)) || float_neighbor(k + 1) {
                let line = self.tok(k).line;
                let msg = format!(
                    "float `{op}` against a literal — exact float equality is a \
                     bit-identity hazard; use `total_cmp`, packed integer keys, \
                     or add the file to tidy.toml's [float_cmp] allowlist with \
                     a comment"
                );
                self.finding("float_cmp", line, msg);
            }
        }
    }

    // ----- hot-path allocation rule -----------------------------------------

    fn rule_hot_alloc(&mut self, config: &Config) {
        if !config.hot_paths.contains(&self.meta.rel) {
            return;
        }
        let mut hits: Vec<(u32, String)> = Vec::new();
        for k in 0..self.sig.len() {
            if self.in_test[k] {
                continue;
            }
            let t = self.tok(k);
            let line = t.line;
            match t.kind {
                TokenKind::Ident => {
                    let name = self.text(k);
                    if (name == "vec" || name == "format") && self.is_punct(k + 1, "!") {
                        hits.push((line, format!("`{name}!` allocates")));
                    } else if name == "Box"
                        && self.is_punct(k + 1, "::")
                        && self.is_ident(k + 2, "new")
                    {
                        hits.push((line, "`Box::new` allocates".to_string()));
                    } else if name == "String"
                        && self.is_punct(k + 1, "::")
                        && self.is_ident(k + 2, "from")
                    {
                        hits.push((line, "`String::from` allocates".to_string()));
                    }
                }
                TokenKind::Punct if self.text(k) == "." => {
                    if self.is_ident(k + 1, "collect") || self.is_ident(k + 1, "to_vec") {
                        hits.push((
                            self.tok(k + 1).line,
                            format!("`.{}()` allocates", self.text(k + 1)),
                        ));
                    } else if self.is_ident(k + 1, "clone")
                        && self.is_punct(k + 2, "(")
                        && self.is_punct(k + 3, ")")
                    {
                        hits.push((
                            self.tok(k + 1).line,
                            "`.clone()` may deep-copy heap storage".to_string(),
                        ));
                    }
                }
                _ => {}
            }
        }
        for (line, what) in hits {
            let msg = format!(
                "{what}, and this file is declared hot in tidy.toml — the slot \
                 loop must stay allocation-free (the runtime alloc-counter only \
                 covers three configs); hoist into scratch/setup or waive with \
                 the reason it is outside the hot loop"
            );
            self.finding("hot_alloc", line, msg);
        }
    }

    // ----- panic-surface ratchet (count only; runner compares) --------------

    fn count_panic_sites(&mut self) {
        for k in 0..self.sig.len() {
            if self.skip_lib_rule(k) {
                continue;
            }
            let t = self.tok(k);
            match t.kind {
                TokenKind::Punct
                    if self.text(k) == "."
                        && (self.is_ident(k + 1, "unwrap") || self.is_ident(k + 1, "expect"))
                        && self.is_punct(k + 2, "(") =>
                {
                    let line = self.tok(k + 1).line;
                    self.report.panic_sites.push(line);
                }
                TokenKind::Ident => {
                    let name = self.text(k);
                    if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
                        && self.is_punct(k + 1, "!")
                    {
                        self.report.panic_sites.push(t.line);
                    }
                }
                _ => {}
            }
        }
    }

    // ----- dead public surface (collect only; runner resolves) --------------

    /// Records the file's non-test identifiers and, in library code, its
    /// bare-`pub` fn/const/static items. A `dead_pub` waiver above an item
    /// is consumed here; the runner reports it stale if another file names
    /// the item after all.
    fn collect_pub_items(&mut self) {
        for k in 0..self.sig.len() {
            if !self.in_test[k] && self.tok(k).kind == TokenKind::Ident {
                self.report.names.insert(self.text(k).to_string());
            }
        }
        if !self.meta.is_lib {
            return;
        }
        for k in 0..self.sig.len() {
            if self.in_test[k] || !self.is_ident(k, "pub") {
                continue;
            }
            let Some(at) = self.pub_item_name(k) else {
                continue;
            };
            let line = self.tok(k).line;
            let waiver = self.take_waiver("dead_pub", line);
            let name = self.text(at).to_string();
            self.report.pub_items.push(PubItem { name, line, waiver });
        }
    }

    /// For a `pub` at `k`, the token index of the name of the fn, const or
    /// static it declares. `None` for scoped visibility (`pub(crate)`),
    /// types, modules, `use` and macro-generated names.
    fn pub_item_name(&self, k: usize) -> Option<usize> {
        let mut j = k + 1;
        let mut is_const = false;
        loop {
            if self.is_ident(j, "const") {
                is_const = true;
            } else if self.is_ident(j, "extern") {
                // The ABI string of `extern "C" fn`.
                if j + 1 < self.sig.len() && self.tok(j + 1).kind == TokenKind::StrLit {
                    j += 1;
                }
            } else if !(self.is_ident(j, "unsafe") || self.is_ident(j, "async")) {
                break;
            }
            j += 1;
        }
        if self.is_ident(j, "fn") {
            j += 1;
        } else if self.is_ident(j, "static") {
            j += 1;
            if self.is_ident(j, "mut") {
                j += 1;
            }
        } else if !is_const {
            return None;
        }
        (j < self.sig.len() && self.tok(j).kind == TokenKind::Ident && self.text(j) != "_")
            .then_some(j)
    }

    // ----- unsafe hygiene ---------------------------------------------------

    fn rule_unsafe_safety(&mut self) {
        // Comment spans (end line, has SAFETY marker). A multi-line `//`
        // explanation is one logical comment: merge runs of comments on
        // consecutive lines, so `// SAFETY: ...` followed by continuation
        // lines covers the code directly below the run.
        let mut comments: Vec<(u32, bool)> = Vec::new();
        for t in &self.lexed.tokens {
            if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                let text = self.lexed.text(t);
                let end = t.line + text.matches('\n').count() as u32;
                match comments.last_mut() {
                    Some((prev_end, prev_safety)) if *prev_end + 1 >= t.line => {
                        *prev_end = end;
                        *prev_safety |= text.contains("SAFETY:");
                    }
                    _ => comments.push((end, text.contains("SAFETY:"))),
                }
            }
        }
        let mut pending: Vec<(u32, &'static str)> = Vec::new();
        for k in 0..self.sig.len() {
            if !self.is_ident(k, "unsafe") {
                continue;
            }
            let line = self.tok(k).line;
            let form = if self.is_punct(k + 1, "{") {
                "unsafe block"
            } else if self.is_ident(k + 1, "impl") {
                "unsafe impl"
            } else {
                // `unsafe fn` / `unsafe trait` / `unsafe extern`: the
                // obligation is on callers/implementors and belongs in doc
                // comments; rustdoc + clippy police those.
                continue;
            };
            // Adjacent SAFETY comment: ends on this line (legal for block
            // comments) or on the line directly above. A SAFETY comment
            // stranded above a run of attributes does NOT count — keep the
            // justification next to the unsafety.
            let covered = comments
                .iter()
                .any(|&(end, safety)| safety && (end == line || end + 1 == line));
            if !covered {
                pending.push((line, form));
            }
        }
        for (line, form) in pending {
            let msg = format!(
                "{form} without an adjacent `// SAFETY:` comment — state the \
                 invariant that makes this sound on the line above"
            );
            self.finding("unsafe_safety", line, msg);
        }
    }
}
