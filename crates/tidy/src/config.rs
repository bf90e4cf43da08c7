//! Configuration (`tidy.toml`) and ratchet baseline (`tidy_baseline.toml`).
//!
//! The workspace builds offline, so there is no `toml` crate to lean on;
//! this module hand-parses the **small TOML subset** the two files actually
//! use — `[section]` headers, `key = "string"`, `key = integer`, and
//! `key = [ "a", "b" ]` string arrays (multi-line allowed), with `#`
//! comments. Keys may be bare or double-quoted. Anything fancier is a parse
//! error, loudly: the config is part of the lint contract and must not be
//! half-read.
//!
//! `BTreeMap` throughout — tidy holds itself to its own determinism rules,
//! and sorted iteration gives stable reports and baselines for free.

use std::collections::BTreeMap;
use std::fmt;

/// A value in the supported TOML subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `key = "text"`
    Str(String),
    /// `key = 42`
    Int(u64),
    /// `key = ["a", "b"]`
    StrList(Vec<String>),
}

/// One parsed file: section name → key → value. The implicit top-level
/// section is named `""`.
pub type Doc = BTreeMap<String, BTreeMap<String, Value>>;

/// Parse failure: 1-based line plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, msg: impl Into<String>) -> ParseError {
    ParseError {
        line,
        msg: msg.into(),
    }
}

/// Strips a trailing `#` comment that is not inside a double-quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// Parses one double-quoted string starting at `s[0] == '"'`. Returns the
/// unescaped content and the number of chars consumed (quotes included).
fn parse_quoted(s: &str, line: usize) -> Result<(String, usize), ParseError> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    let _ = chars.next(); // opening quote
    let mut escaped = false;
    for (i, c) in chars {
        if escaped {
            out.push(match c {
                'n' => '\n',
                't' => '\t',
                '\\' => '\\',
                '"' => '"',
                other => other,
            });
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            return Ok((out, i + c.len_utf8()));
        } else {
            out.push(c);
        }
    }
    Err(err(line, "unterminated string"))
}

/// Parses a `[ "a", "b", ... ]` body (brackets included) into strings.
fn parse_array(body: &str, line: usize) -> Result<Vec<String>, ParseError> {
    let inner = body
        .strip_prefix('[')
        .and_then(|r| r.trim_end().strip_suffix(']'))
        .ok_or_else(|| err(line, "malformed array"))?;
    let mut out = Vec::new();
    let mut rest = inner.trim_start();
    while !rest.is_empty() {
        if !rest.starts_with('"') {
            return Err(err(line, format!("expected string in array, got `{rest}`")));
        }
        let (s, used) = parse_quoted(rest, line)?;
        out.push(s);
        rest = rest[used..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(err(line, "expected `,` or `]` in array"));
        }
    }
    Ok(out)
}

/// Parses the supported TOML subset. See the module docs for the grammar.
pub fn parse(text: &str) -> Result<Doc, ParseError> {
    let mut doc: Doc = BTreeMap::new();
    let mut section = String::new();
    doc.entry(section.clone()).or_default();

    let mut lines = text.lines().enumerate();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| err(lineno, "malformed section header"))?;
            section = name.trim().to_string();
            doc.entry(section.clone()).or_default();
            continue;
        }
        let eq = line
            .find('=')
            .ok_or_else(|| err(lineno, format!("expected `key = value`, got `{line}`")))?;
        let key_raw = line[..eq].trim();
        let key = if key_raw.starts_with('"') {
            parse_quoted(key_raw, lineno)?.0
        } else {
            key_raw.to_string()
        };
        let mut val = line[eq + 1..].trim().to_string();
        if val.starts_with('[') {
            // Multi-line array: accumulate until brackets balance outside
            // strings (strings in these files never contain brackets, so a
            // simple count is enough — and is validated by parse_array).
            while val.matches('[').count() > val.matches(']').count() {
                let (cont_idx, cont) = lines
                    .next()
                    .ok_or_else(|| err(lineno, "unterminated array"))?;
                let _ = cont_idx;
                val.push(' ');
                val.push_str(strip_comment(cont).trim());
            }
        }
        let value = if val.starts_with('[') {
            Value::StrList(parse_array(&val, lineno)?)
        } else if val.starts_with('"') {
            Value::Str(parse_quoted(&val, lineno)?.0)
        } else {
            let n: u64 = val
                .parse()
                .map_err(|_| err(lineno, format!("expected integer, got `{val}`")))?;
            Value::Int(n)
        };
        let dup = doc
            .entry(section.clone())
            .or_default()
            .insert(key.clone(), value);
        if dup.is_some() {
            return Err(err(lineno, format!("duplicate key `{key}`")));
        }
    }
    Ok(doc)
}

/// The rule configuration read from `tidy.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Files (workspace-relative) where the hot-path allocation rule runs.
    pub hot_paths: Vec<String>,
    /// Files where float `==`/`!=` is allowed (the committed allowlist).
    pub float_cmp_allow: Vec<String>,
    /// Crate directories (e.g. `crates/bench`) where wall-clock types are
    /// allowed.
    pub wall_clock_allow_crates: Vec<String>,
}

fn take_list(doc: &Doc, section: &str, key: &str) -> Result<Vec<String>, ParseError> {
    match doc.get(section).and_then(|s| s.get(key)) {
        Some(Value::StrList(v)) => Ok(v.clone()),
        Some(_) => Err(err(0, format!("[{section}] {key} must be a string array"))),
        None => Ok(Vec::new()),
    }
}

impl Config {
    /// Reads a [`Config`] out of parsed `tidy.toml` contents.
    fn from_doc(doc: &Doc) -> Result<Self, ParseError> {
        Ok(Config {
            hot_paths: take_list(doc, "hot_alloc", "paths")?,
            float_cmp_allow: take_list(doc, "float_cmp", "allow")?,
            wall_clock_allow_crates: take_list(doc, "wall_clock", "allow_crates")?,
        })
    }

    /// Parses `tidy.toml` text.
    pub fn parse_str(text: &str) -> Result<Self, ParseError> {
        Self::from_doc(&parse(text)?)
    }
}

/// The panic-surface ratchet baseline: crate directory → allowed count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// `crates/sim` → number of permitted `unwrap`/`expect`/panic sites.
    pub panic_surface: BTreeMap<String, u64>,
}

impl Baseline {
    /// Parses `tidy_baseline.toml` text.
    pub fn parse_str(text: &str) -> Result<Self, ParseError> {
        let doc = parse(text)?;
        let mut panic_surface = BTreeMap::new();
        if let Some(section) = doc.get("panic_surface") {
            for (k, v) in section {
                match v {
                    Value::Int(n) => {
                        panic_surface.insert(k.clone(), *n);
                    }
                    _ => {
                        return Err(err(0, format!("[panic_surface] {k} must be an integer")));
                    }
                }
            }
        }
        Ok(Baseline { panic_surface })
    }

    /// Renders the baseline back to `tidy_baseline.toml` text (used by
    /// `--write-baseline`).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Panic-surface ratchet baseline — maintained by `vg-tidy`.\n\
             #\n\
             # Counts of `.unwrap()` / `.expect(` / `panic!` / `unreachable!` /\n\
             # `todo!` / `unimplemented!` in each crate's non-test library code.\n\
             # The gate fails if a crate's count RISES above its entry (new panic\n\
             # surface) and also if it DROPS below (ratchet: regenerate with\n\
             # `cargo run -p vg-tidy -- --write-baseline` so the win is locked in).\n\
             # Entries may only ever go down over time.\n\n[panic_surface]\n",
        );
        for (k, v) in &self.panic_surface {
            out.push_str(&format!("\"{k}\" = {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_strings_ints_arrays() {
        let doc = parse(
            "top = 3\n[a]\nx = \"hi # not a comment\" # real comment\n\
             y = [\"p\", \"q\"]\n[b.c]\n\"quoted/key.rs\" = 7\n",
        )
        .unwrap();
        assert_eq!(doc[""]["top"], Value::Int(3));
        assert_eq!(doc["a"]["x"], Value::Str("hi # not a comment".into()));
        assert_eq!(doc["a"]["y"], Value::StrList(vec!["p".into(), "q".into()]));
        assert_eq!(doc["b.c"]["quoted/key.rs"], Value::Int(7));
    }

    #[test]
    fn parses_multiline_arrays_with_comments() {
        let doc = parse("[s]\npaths = [\n  \"a.rs\", # one\n  \"b.rs\",\n]\n").unwrap();
        assert_eq!(
            doc["s"]["paths"],
            Value::StrList(vec!["a.rs".into(), "b.rs".into()])
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("[unclosed\n").is_err());
        assert!(parse("novalue\n").is_err());
        assert!(parse("x = nope\n").is_err());
        assert!(parse("x = [1, 2]\n").is_err());
        assert!(parse("x = 1\nx = 2\n").is_err());
    }

    #[test]
    fn baseline_roundtrips() {
        let b = Baseline::parse_str("[panic_surface]\n\"crates/sim\" = 4\n\"src\" = 0\n").unwrap();
        assert_eq!(b.panic_surface["crates/sim"], 4);
        let again = Baseline::parse_str(&b.render()).unwrap();
        assert_eq!(b, again);
    }
}
