//! The paper's evaluation (§5) as one program.
//!
//! Every figure of the evaluation is one entry of [`figures::FIGURES`]; the
//! `fig` binary runs one entry by name (or `all` of them), prints the same
//! series the paper plots and writes `<out>/<name>.csv` next to it:
//!
//! | name    | paper result |
//! |---------|--------------|
//! | `fig2`  | estimated quantiles vs exact CDF (normal, k=1024) |
//! | `fig6a` | update-only throughput vs threads, vs sequential |
//! | `fig6b` | query-only throughput vs threads |
//! | `fig6c` | mixed update/query throughput, ρ ∈ {0, 1.05} |
//! | `fig7a` | update throughput vs k |
//! | `fig7b` | update throughput vs b |
//! | `fig7c` | query throughput & miss rate vs ρ |
//! | `fig8`  | standard error of estimation vs k (quiescent) |
//! | `fig9`  | quantiles vs exact CDF, uniform & normal, k ∈ {32, 256} |
//! | `fig10` | Quancurrent vs FCDS at equal relaxation (`--headline` for §5.5) |
//! | `holes` | §4.1 empirical holes-per-batch bound |
//! | `ablation_*` | Gather&Sort sharding, snapshot cost, DCAS accounting, global lock |
//!
//! Run e.g. `cargo run --release -p qc-bench --bin fig -- fig6a --quick`,
//! or `fig -- all --quick` for every figure plus `<out>/manifest.txt`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod cli;
pub mod figures;
pub mod runners;

pub use cli::Options;
pub use runners::QcSetup;
