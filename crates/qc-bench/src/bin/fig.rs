//! Regenerate the paper's figures: `fig <name>` runs one entry of
//! [`qc_bench::figures::FIGURES`], `fig all` runs every entry in this
//! process and records each outcome in `<out>/manifest.txt`.
//!
//! ```sh
//! cargo run --release -p qc-bench --bin fig -- fig6a --quick
//! cargo run --release -p qc-bench --bin fig -- all --quick   # every figure
//! cargo run --release -p qc-bench --bin fig -- all           # paper scale
//! ```
//!
//! A bad flag or an unknown name exits 2; a figure that panics or cannot
//! write its CSV exits non-zero.

use qc_bench::figures::{run_all, select, FIGURES};
use qc_bench::Options;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = Options::parse_args(&args)
        .and_then(|(name, opts)| select(name).map(|figures| (name, figures, opts)));
    let (name, figures, opts) = parsed.unwrap_or_else(|msg| {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        eprintln!("error: {msg}");
        eprintln!(
            "usage: fig <all|{}> [--quick] [--runs=N] [--n=N] [--threads=a,b,c] \
             [--out=DIR] [--headline]",
            names.join("|")
        );
        std::process::exit(2);
    });
    if name == "all" {
        let flags: Vec<String> = args.iter().filter(|a| a.starts_with("--")).cloned().collect();
        let failures = run_all(figures, &opts, &flags).expect("write the manifest");
        if !failures.is_empty() {
            std::process::exit(1);
        }
    } else {
        figures[0].regenerate(&opts).expect("write csv");
    }
}
