//! A command-line quantiles tool: stream numbers in on stdin, get the
//! distribution out — the "sketch as a unix filter" use case.
//!
//! ```sh
//! seq 1 1000000 | shuf | cargo run --release --example stdin_quantiles
//! cargo run --release --example stdin_quantiles -- 0.5 0.99 < data.txt
//! ```
//!
//! Ingestion is pipelined across a small thread pool (reader thread
//! parses, worker threads ingest via their own `Updater` handles), so the
//! example also demonstrates the handle-per-thread API under a realistic
//! I/O-bound pipeline. At end of input every worker has stopped, so the
//! answer covers every ingested value: the quiescent summary (levels plus
//! Gather&Sort buffers) and each worker's thread-local tail.

use qc_common::summary::{Summary, UnionView};
use qc_common::OrderedBits;
use quancurrent::Quancurrent;
use std::io::{BufRead, Write};
use std::sync::mpsc;

const WORKERS: usize = 2;
const CHUNK: usize = 8192;

fn main() {
    // Quantiles requested on the command line (defaults below).
    let mut phis: Vec<f64> = std::env::args()
        .skip(1)
        .map(|a| a.parse::<f64>().unwrap_or_else(|_| panic!("bad quantile {a:?}")))
        .collect();
    if phis.is_empty() {
        phis = vec![0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99];
    }
    phis.sort_by(f64::total_cmp);

    let sketch = Quancurrent::<f64>::builder().k(1024).b(64).build();

    let (parsed, lines_read, skipped, tails) = std::thread::scope(|s| {
        let mut senders = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..WORKERS {
            let (tx, rx) = mpsc::sync_channel::<Vec<f64>>(4);
            let mut updater = sketch.updater();
            senders.push(tx);
            workers.push(s.spawn(move || {
                while let Ok(chunk) = rx.recv() {
                    for x in chunk {
                        updater.update(x);
                    }
                }
                // Values still in the thread-local buffer (fewer than b).
                updater.pending()
            }));
        }

        // Reader/parser on this thread.
        let stdin = std::io::stdin();
        let mut lines = 0u64;
        let mut parsed = 0u64;
        let mut skipped = 0u64;
        let mut chunk = Vec::with_capacity(CHUNK);
        let mut next = 0usize;
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            lines += 1;
            match line.trim().parse::<f64>() {
                Ok(x) if !x.is_nan() => {
                    parsed += 1;
                    chunk.push(x);
                    if chunk.len() == CHUNK {
                        senders[next].send(std::mem::take(&mut chunk)).unwrap();
                        chunk.reserve(CHUNK);
                        next = (next + 1) % WORKERS;
                    }
                }
                _ => skipped += 1,
            }
        }
        if !chunk.is_empty() {
            senders[next].send(chunk).unwrap();
        }
        drop(senders); // workers drain and exit
        let tails: Vec<f64> = workers.into_iter().flat_map(|w| w.join().unwrap()).collect();
        (parsed, lines, skipped, tails)
    });

    // Every worker has joined: answer over the levels, the Gather&Sort
    // buffers and the workers' tails together.
    let summary = sketch.quiescent_summary();
    let mut tail: Vec<u64> = tails.iter().map(|x| x.to_ordered_bits()).collect();
    tail.sort_unstable();
    let mut view = UnionView::new();
    view.push_weighted(&summary);
    view.push_sorted(&tail, 1);

    let mut out = std::io::stdout().lock();
    writeln!(out, "# lines: {lines_read}, ingested: {parsed}, skipped: {skipped}").unwrap();
    writeln!(out, "# visible to sketch: {}", view.stream_len()).unwrap();

    for &phi in &phis {
        match view.quantile::<f64>(phi) {
            Some(v) => writeln!(out, "q{phi:<6} {v}").unwrap(),
            None => writeln!(out, "q{phi:<6} (empty)").unwrap(),
        }
    }
}
