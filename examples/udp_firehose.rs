//! Fire batched UDP datagrams at a running ingest daemon.
//!
//! ```sh
//! # terminal 1: a server with UDP ingest (prints the ingest address)
//! cargo run --release --example serve -- 127.0.0.1:7071 8 127.0.0.1:7072
//!
//! # terminal 2: the firehose
//! cargo run --release --example udp_firehose -- 127.0.0.1:7072
//!
//! # terminal 3: watch the daemon's counters move
//! cargo run --release --example metrics_watch -- 127.0.0.1:7071
//! ```
//!
//! Arguments: `[udp_addr] [datagrams] [records_per_datagram]
//! [values_per_record]`. Sends fire-and-forget: UDP gives no
//! acknowledgement, so the ground truth for what landed is the daemon's
//! own counters (`ingest_applied_datagrams` and friends in the
//! `metrics_watch` output) — that asymmetry is the point of the demo.
//! For calibrated open-loop load with latency percentiles and a JSON
//! verdict, use `qcb --workload ingest_mix` (see `bench/README.md`).

use std::net::UdpSocket;

use quancurrent_suite::ingest::DatagramBuilder;
use quancurrent_suite::workloads::streams::{Distribution, StreamGen};

fn main() {
    let mut args = std::env::args().skip(1);
    let addr = args.next().unwrap_or_else(|| "127.0.0.1:7072".to_string());
    let datagrams: u64 = args.next().map(|s| s.parse().expect("datagram count")).unwrap_or(10_000);
    let records: usize = args.next().map(|s| s.parse().expect("records")).unwrap_or(4);
    let values: usize = args.next().map(|s| s.parse().expect("values")).unwrap_or(32);

    let socket = UdpSocket::bind("0.0.0.0:0").expect("bind sender");
    socket.connect(&addr).expect("connect sender");

    let mut gen = StreamGen::new(Distribution::Uniform, 0xF14E);
    let mut builder = DatagramBuilder::new(1400); // one MTU-ish packet
    let mut batch = vec![0.0f64; values];
    let mut sent = 0u64;
    let mut bytes_out = 0u64;
    let start = std::time::Instant::now();
    while sent < datagrams {
        for r in 0..records {
            for v in batch.iter_mut() {
                *v = gen.next_f64() * 1000.0;
            }
            let key = format!("firehose-{}", (sent as usize + r) % 8);
            if !builder.push(&key, &batch) {
                break; // budget full: ship what fits
            }
        }
        let Some(packet) = builder.finish() else { continue };
        bytes_out += packet.len() as u64;
        socket.send(&packet).expect("send");
        sent += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "fired {sent} datagrams ({bytes_out} bytes) at {addr} in {elapsed:.3}s \
         ({:.0} datagrams/s, {:.0} values/s offered)",
        sent as f64 / elapsed,
        (sent * records as u64 * values as u64) as f64 / elapsed
    );
    println!("UDP is fire-and-forget: check the server's ingest_* counters for what landed");
}
