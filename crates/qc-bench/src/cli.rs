//! Minimal command-line options shared by every figure binary.
//!
//! No external parser: the only dependencies allowed in this workspace are
//! the sanctioned offline crates, and the needs here are two flags and a
//! handful of `--key=value` overrides.

/// Options common to all figure binaries.
#[derive(Clone, Debug)]
pub struct Options {
    /// Shrink stream sizes / run counts for smoke-testing (`--quick`).
    pub quick: bool,
    /// Override the per-point run count (`--runs=N`).
    pub runs: Option<usize>,
    /// Override the stream size (`--n=N`).
    pub n: Option<u64>,
    /// Override the thread sweep (`--threads=1,2,4`).
    pub threads: Option<Vec<usize>>,
    /// Output directory for CSV series (`--out=DIR`, default `results`).
    pub out_dir: std::path::PathBuf,
    /// Print the §5.5 headline comparison (fig10 only, `--headline`).
    pub headline: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            quick: false,
            runs: None,
            n: None,
            threads: None,
            out_dir: "results".into(),
            headline: false,
        }
    }
}

impl Options {
    /// Parse from `std::env::args`, exiting with usage on errors.
    pub fn from_env() -> Self {
        let mut opts = Self::default();
        for arg in std::env::args().skip(1) {
            if let Err(msg) = opts.apply(&arg) {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: <fig> [--quick] [--runs=N] [--n=N] [--threads=a,b,c] \
                     [--out=DIR] [--headline]"
                );
                std::process::exit(2);
            }
        }
        opts
    }

    /// Apply a single argument.
    pub fn apply(&mut self, arg: &str) -> Result<(), String> {
        if arg == "--quick" {
            self.quick = true;
        } else if arg == "--headline" {
            self.headline = true;
        } else if let Some(v) = arg.strip_prefix("--runs=") {
            self.runs = Some(v.parse().map_err(|_| format!("bad --runs value {v:?}"))?);
        } else if let Some(v) = arg.strip_prefix("--n=") {
            self.n = Some(parse_human_u64(v)?);
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            let list: Result<Vec<usize>, _> = v.split(',').map(str::parse).collect();
            self.threads = Some(list.map_err(|_| format!("bad --threads list {v:?}"))?);
        } else if let Some(v) = arg.strip_prefix("--out=") {
            self.out_dir = v.into();
        } else {
            return Err(format!("unknown argument {arg:?}"));
        }
        Ok(())
    }

    /// Stream size: explicit override, else `full` (or `full/10` in quick
    /// mode, floored at 100k).
    pub fn stream_size(&self, full: u64) -> u64 {
        self.n.unwrap_or(if self.quick { (full / 10).max(100_000) } else { full })
    }

    /// Run count: explicit override, else `full` (or 3 in quick mode).
    pub fn run_count(&self, full: usize) -> usize {
        self.runs.unwrap_or(if self.quick { 3.min(full) } else { full })
    }

    /// Thread sweep: explicit override, else the given default.
    pub fn thread_sweep(&self, default: &[usize]) -> Vec<usize> {
        self.threads.clone().unwrap_or_else(|| default.to_vec())
    }

    /// Path for a figure's CSV output.
    pub fn csv_path(&self, name: &str) -> std::path::PathBuf {
        self.out_dir.join(format!("{name}.csv"))
    }
}

/// Accept `10000000`, `10M`, `500k`, `1G`.
fn parse_human_u64(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last() {
        Some('k') | Some('K') => (&s[..s.len() - 1], 1_000),
        Some('m') | Some('M') => (&s[..s.len() - 1], 1_000_000),
        Some('g') | Some('G') => (&s[..s.len() - 1], 1_000_000_000),
        _ => (s, 1),
    };
    digits.parse::<u64>().map(|v| v * mult).map_err(|_| format!("bad numeric value {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let o = Options::default();
        assert!(!o.quick);
        assert_eq!(o.stream_size(10_000_000), 10_000_000);
        assert_eq!(o.run_count(15), 15);
    }

    #[test]
    fn quick_shrinks() {
        let mut o = Options::default();
        o.apply("--quick").unwrap();
        assert_eq!(o.stream_size(10_000_000), 1_000_000);
        assert_eq!(o.run_count(15), 3);
    }

    #[test]
    fn overrides() {
        let mut o = Options::default();
        o.apply("--runs=7").unwrap();
        o.apply("--n=2M").unwrap();
        o.apply("--threads=1,2,4").unwrap();
        o.apply("--out=/tmp/x").unwrap();
        assert_eq!(o.run_count(15), 7);
        assert_eq!(o.stream_size(10_000_000), 2_000_000);
        assert_eq!(o.thread_sweep(&[8]), vec![1, 2, 4]);
        assert_eq!(o.csv_path("fig1"), std::path::PathBuf::from("/tmp/x/fig1.csv"));
    }

    #[test]
    fn human_numbers() {
        assert_eq!(parse_human_u64("10M").unwrap(), 10_000_000);
        assert_eq!(parse_human_u64("500k").unwrap(), 500_000);
        assert_eq!(parse_human_u64("1G").unwrap(), 1_000_000_000);
        assert_eq!(parse_human_u64("123").unwrap(), 123);
        assert!(parse_human_u64("x").is_err());
    }

    #[test]
    fn unknown_arg_is_error() {
        let mut o = Options::default();
        assert!(o.apply("--bogus").is_err());
    }
}
