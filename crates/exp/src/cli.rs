//! Minimal flag parsing shared by the experiment binaries.
//!
//! Hand-rolled on purpose: the binaries need five flags, not a dependency.
//! Supported forms: `--flag value` and `--flag` (boolean).

use vg_des::par::ParallelismConfig;

use crate::campaign::CampaignResult;

/// Common experiment options parsed from `std::env::args`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpArgs {
    /// Scenarios per grid cell.
    pub scenarios: usize,
    /// Trials per scenario.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (`None` = auto).
    pub threads: Option<usize>,
    /// Paper-scale run (247 scenarios × 10 trials).
    pub paper_scale: bool,
    /// Quick run for smoke tests (2 × 1).
    pub quick: bool,
    /// Also emit CSV to stdout after the table.
    pub csv: bool,
}

impl Default for ExpArgs {
    fn default() -> Self {
        Self {
            scenarios: 8,
            trials: 2,
            seed: 42,
            threads: None,
            paper_scale: false,
            quick: false,
            csv: false,
        }
    }
}

/// Parse error with the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "argument error: {}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl ExpArgs {
    /// Parses from an iterator of tokens (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        let next_value = |name: &str, it: &mut dyn Iterator<Item = String>| {
            it.next()
                .ok_or_else(|| ArgError(format!("{name} needs a value")))
        };
        while let Some(tok) = it.next() {
            match tok.as_str() {
                "--scenarios" => {
                    out.scenarios = next_value("--scenarios", &mut it)?
                        .parse()
                        .map_err(|_| ArgError("--scenarios expects an integer".into()))?;
                }
                "--trials" => {
                    out.trials = next_value("--trials", &mut it)?
                        .parse()
                        .map_err(|_| ArgError("--trials expects an integer".into()))?;
                }
                "--seed" => {
                    out.seed = next_value("--seed", &mut it)?
                        .parse()
                        .map_err(|_| ArgError("--seed expects an integer".into()))?;
                }
                "--threads" => {
                    out.threads = Some(
                        next_value("--threads", &mut it)?
                            .parse()
                            .map_err(|_| ArgError("--threads expects an integer".into()))?,
                    );
                }
                "--paper-scale" => out.paper_scale = true,
                "--quick" => out.quick = true,
                "--csv" => out.csv = true,
                "--help" | "-h" => {
                    return Err(ArgError(USAGE.trim().to_string()));
                }
                other => return Err(ArgError(format!("unknown flag {other}\n{USAGE}"))),
            }
        }
        if out.paper_scale {
            out.scenarios = 247;
            out.trials = 10;
        } else if out.quick {
            out.scenarios = 2;
            out.trials = 1;
        }
        Ok(out)
    }

    /// Parses the process arguments, exiting with usage on error.
    #[must_use]
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// The parallelism configuration implied by `--threads`.
    #[must_use]
    pub fn parallelism(&self) -> ParallelismConfig {
        match self.threads {
            Some(n) => ParallelismConfig::fixed(n),
            None => ParallelismConfig::Auto,
        }
    }
}

/// Usage text shared by the binaries.
pub const USAGE: &str = "
Options:
  --scenarios K    random scenarios per grid cell (default 8)
  --trials T       trials per scenario (default 2)
  --seed S         master seed (default 42)
  --threads N      worker threads (default: all cores)
  --paper-scale    247 scenarios x 10 trials (the paper's campaign size)
  --quick          2 scenarios x 1 trial (smoke test)
  --csv            also print CSV after the table
";

/// Says on stderr how many of `result`'s runs were rejected, and exits
/// with status 1 if any were: a rejected run is scored as capped, so the
/// campaign's statistics would not describe the requested grid.
pub fn exit_on_rejected(result: &CampaignResult) {
    if result.rejected_runs > 0 {
        eprintln!(
            "error: {} of {} runs were rejected (invalid volatility spec or engine \
             configuration) and scored as capped",
            result.rejected_runs,
            result.instances * result.heuristics.len()
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<ExpArgs, ArgError> {
        ExpArgs::parse(tokens.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, ExpArgs::default());
    }

    #[test]
    fn explicit_values() {
        let a = parse(&[
            "--scenarios",
            "5",
            "--trials",
            "3",
            "--seed",
            "9",
            "--threads",
            "2",
            "--csv",
        ])
        .unwrap();
        assert_eq!(a.scenarios, 5);
        assert_eq!(a.trials, 3);
        assert_eq!(a.seed, 9);
        assert_eq!(a.threads, Some(2));
        assert!(a.csv);
    }

    #[test]
    fn paper_scale_overrides_counts() {
        let a = parse(&["--scenarios", "3", "--paper-scale"]).unwrap();
        assert_eq!(a.scenarios, 247);
        assert_eq!(a.trials, 10);
    }

    #[test]
    fn quick_overrides_counts() {
        let a = parse(&["--quick"]).unwrap();
        assert_eq!(a.scenarios, 2);
        assert_eq!(a.trials, 1);
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--scenarios"]).is_err());
        assert!(parse(&["--scenarios", "abc"]).is_err());
    }

    #[test]
    fn parallelism_mapping() {
        assert_eq!(parse(&[]).unwrap().parallelism(), ParallelismConfig::Auto);
        assert_eq!(
            parse(&["--threads", "3"]).unwrap().parallelism(),
            ParallelismConfig::fixed(3)
        );
    }
}
