//! `qcb` — the benchmark's one command.
//!
//! ```text
//! qcb --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last stdout line is the result JSON
//!     (end-to-end metrics with --trace 0, per-layer metrics with 1)
//! qcb [--seed <n>] [--seconds <s>] [--quick] [--aa]
//!     every workload, untraced then traced; prints every metric as
//!     `name value unit`, writes bench/out/results.json.
//!     --quick: 3 s per workload (smoke entry point)
//!     --aa:    every workload untraced twice, back to back, on the same
//!              build and seed; prints |a−b| / min(a,b) per metric
//!              against its bound
//! qcb layers
//!     the in-process probes alone, a second each
//! qcb manifest
//!     print BENCHMARK.json, generated from the metric tables
//! qcb sut …
//!     the system under test (spawned by the driver, not by hand)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use qcb::report::{environment, nproc, Json};
use qcb::run::{traced, untraced, Better, Outcome, END_TO_END, PROBE_SLICE_PER_S};
use qcb::stats::relative_gap;
use qcb::workload::Context;
use qcb::workloads::Workload;

const DEFAULT_SECONDS: u64 = qcb::manifest::RUN_SECONDS;
const QUICK_SECONDS: u64 = 3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    aa: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        aa: false,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                out.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => out.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => out.trace = value("--trace")? == "1",
            "--quick" => out.quick = true,
            "--aa" => out.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.quick && !seconds_given {
        out.seconds = QUICK_SECONDS;
    }
    if out.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(out)
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn context(seed: u64) -> Context {
    // Per-process scratch: concurrent invocations cannot share a data dir.
    Context {
        seed,
        scratch: bench_dir().join("scratch").join(format!("run-{}", std::process::id())),
    }
}

fn print_outcome(outcome: &Outcome) {
    let kind = if outcome.traced { "traced" } else { "untraced" };
    println!("## {} ({kind})", outcome.workload.name());
    for def in outcome.defs() {
        if let Some(value) = outcome.metrics.get(def.name) {
            println!("{} {value} {}", def.name, def.unit);
        }
    }
    for l in &outcome.latencies {
        let (name, n, p50) = (l.class.name(), l.samples, l.p50_us);
        match l.tail {
            Some(t) => println!(
                "# latency {name}: {n} samples, p50 {p50:.1} us, p{} {:.1} us ({} samples beyond)",
                t.p * 100.0,
                t.value as f64 / 1e3,
                t.beyond
            ),
            None => println!("# latency {name}: {n} samples, p50 {p50:.1} us, too few for a tail"),
        }
    }
    for gate in &outcome.gates {
        println!(
            "# gate {} {}: {}",
            gate.name,
            if gate.pass { "pass" } else { "FAIL" },
            gate.detail
        );
    }
    println!("# attempted {} failed {}", outcome.attempted, outcome.failed);
    for note in &outcome.failure_notes {
        println!("# failure: {note}");
    }
}

/// The in-process probes, once per invocation: `slice` per repetition.
fn probes(ctx: &Context, slice: Duration) -> Result<qcb::layers::Results, String> {
    let results = qcb::layers::run_all(slice, &ctx.scratch);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    results
}

/// Contract mode: one run, result JSON on the last line.
fn one(workload: Workload, args: &Args) -> Result<bool, String> {
    let ctx = context(args.seed);
    let seconds = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        traced(workload, &ctx, seconds, &bench_dir().join("out"))?
            .with_probes(&probes(&ctx, PROBE_SLICE_PER_S * args.seconds as u32)?)?
    } else {
        untraced(workload, &ctx, seconds)?
    };
    print_outcome(&outcome);
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

/// `sets` untraced sets, in workload order, each workload's runs back to
/// back (so a slow minute of the sandbox falls on every set alike).
fn untraced_sets(args: &Args, sets: usize) -> Result<Vec<Vec<Outcome>>, String> {
    let ctx = context(args.seed);
    let mut out: Vec<Vec<Outcome>> = (0..sets).map(|_| Vec::new()).collect();
    for w in Workload::ALL {
        for set in &mut out {
            let outcome = untraced(w, &ctx, Duration::from_secs(args.seconds))?;
            print_outcome(&outcome);
            set.push(outcome);
        }
    }
    Ok(out)
}

fn write_results(args: &Args, mode: &str, sets: &[&[Outcome]], extra: Json) -> Result<(), String> {
    let out_dir = bench_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let sample_counts = |set: &[Outcome]| {
        let mut counts = Json::object();
        for o in set.iter().filter(|o| !o.traced) {
            let n: usize = o.latencies.iter().map(|l| l.samples).sum();
            counts = counts.field(o.workload.name(), n);
        }
        counts
    };
    let doc = Json::object()
        .field(
            "environment",
            environment(args.seed, &bench_dir().join("scratch"))
                .field("seconds_per_run", args.seconds)
                .field("latency_samples", sample_counts(sets[0])),
        )
        .field("mode", mode)
        // `--quick` is a smoke run: its numbers are not comparable and no
        // bound is applied to them.
        .field("bounds_apply", !args.quick)
        .field("claim", Json::Null)
        .field(
            "runs",
            sets.iter()
                .map(|set| Json::from(set.iter().map(Outcome::to_json).collect::<Vec<_>>()))
                .collect::<Vec<_>>(),
        )
        .field("aa", extra);
    let path = out_dir.join("results.json");
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(())
}

/// Every workload untraced, then traced.
fn full(args: &Args) -> Result<bool, String> {
    let mut outcomes = untraced_sets(args, 1)?.remove(0);
    let ctx = context(args.seed);
    let seconds = Duration::from_secs(args.seconds);
    let traced = Workload::ALL
        .into_iter()
        .map(|w| traced(w, &ctx, seconds, &bench_dir().join("out")))
        .collect::<Result<Vec<_>, _>>()?;
    let probes = probes(&ctx, PROBE_SLICE_PER_S * args.seconds as u32)?;
    for outcome in traced {
        let outcome = outcome.with_probes(&probes)?;
        print_outcome(&outcome);
        outcomes.push(outcome);
    }
    write_results(args, if args.quick { "quick" } else { "full" }, &[&outcomes], Json::Null)?;
    Ok(outcomes.iter().all(Outcome::correct))
}

/// A/A: the untraced set twice on the same build and seed. Any end-to-end
/// metric whose two values disagree by more than its bound is a breach.
fn aa(args: &Args) -> Result<bool, String> {
    let mut sets = untraced_sets(args, 2)?;
    let (second, first) = (sets.remove(1), sets.remove(0));
    let mut rows = Vec::new();
    let mut breaches = 0;
    println!("## A/A: |a-b| / min(a,b) against each metric's bound");
    for (a, b) in first.iter().zip(&second) {
        for def in END_TO_END {
            let (va, vb) = (a.metrics[def.name], b.metrics[def.name]);
            let gap = relative_gap(va, vb);
            let breach = gap > def.bound;
            breaches += breach as usize;
            println!(
                "{}.{} {va} vs {vb} {}: gap {gap:.4} bound {} {}",
                a.workload.name(),
                def.name,
                def.unit,
                def.bound,
                if breach { "BREACH" } else { "ok" }
            );
            rows.push(
                Json::object()
                    .field("workload", a.workload.name())
                    .field("metric", def.name)
                    .field("a", va)
                    .field("b", vb)
                    .field("gap", gap)
                    .field("bound", def.bound)
                    .field("better", if def.better == Better::Lower { "lower" } else { "higher" })
                    .field("breach", breach),
            );
        }
    }
    write_results(args, "aa", &[&first, &second], Json::from(rows))?;
    Ok(breaches == 0 && first.iter().chain(&second).all(Outcome::correct))
}

/// The probes alone: five repetitions of 200 ms, a second per probe.
fn layers_only() -> Result<bool, String> {
    let results = probes(&context(0), Duration::from_millis(200))?;
    for def in qcb::run::PER_LAYER {
        if let Some(value) = results.get(def.name) {
            println!("{} {value} {}", def.name, def.unit);
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("sut") => return ExitCode::from(qcb::sut::serve(&args[1..]) as u8),
        Some("layers") => layers_only(),
        Some("manifest") => {
            print!("{}", qcb::manifest::manifest());
            Ok(true)
        }
        _ => parse(&args).and_then(|args| {
            if nproc() < 2 {
                eprintln!("qcb: one core visible — generator and server time-slice it; results are flagged single_core");
            } else if qcb::sut::separate_cores().is_none() {
                eprintln!("qcb: taskset unavailable — generator and server share cores; expect bimodal round trips");
            }
            match args.workload {
                Some(workload) => one(workload, &args),
                None if args.aa => aa(&args),
                None => full(&args),
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("qcb: {e}");
            ExitCode::from(2)
        }
    }
}
