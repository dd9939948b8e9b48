//! Golden bytes for the summary wire format (`QCWS` v1): the encoder
//! must produce exactly these frames and the decoder must read them
//! back, so a codec refactor cannot move a byte unnoticed. (The WAL and
//! checkpoint images are pinned next to their private writers, in
//! `persist.rs`'s unit tests.) The store's reads are pinned below the
//! same way, so a read-path refactor cannot move an answer or a summary
//! bit unnoticed, and so are the checkpoint files whole stores write.

use qc_common::summary::{Summary, WeightedItem, WeightedSummary};
use qc_store::wire::{decode_summary, encode_summary};

fn unhex(hex: &str) -> Vec<u8> {
    let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert_eq!(digits.len() % 2, 0, "odd hex fixture");
    digits
        .chunks_exact(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// magic, version 1, flags 0, count 4, deltas (3, 87, 1, MAX-91),
/// weights (1, 4, 2, 8), CRC-32.
const FOUR_ITEMS: &str = "51435753 0100 0000 04 03 57 01 a4ffffffffffffffff01 01 04 02 08 e558f471";

/// magic, version 1, flags 0, count 0, CRC-32.
const EMPTY: &str = "51435753 0100 0000 00 45003a75";

fn four_items() -> WeightedSummary {
    WeightedSummary::from_items(vec![
        WeightedItem { value_bits: 3, weight: 1 },
        WeightedItem { value_bits: 90, weight: 4 },
        WeightedItem { value_bits: 91, weight: 2 },
        WeightedItem { value_bits: u64::MAX, weight: 8 },
    ])
}

#[test]
fn four_item_summary_frame_is_pinned_both_ways() {
    assert_eq!(hex(&encode_summary(&four_items())), hex(&unhex(FOUR_ITEMS)));
    let back = decode_summary(&unhex(FOUR_ITEMS)).unwrap();
    assert_eq!(back.items(), four_items().items());
    assert_eq!(back.stream_len(), 15);
}

#[test]
fn empty_summary_frame_is_pinned_both_ways() {
    assert_eq!(hex(&encode_summary(&WeightedSummary::empty())), hex(&unhex(EMPTY)));
    let back = decode_summary(&unhex(EMPTY)).unwrap();
    assert_eq!(back.num_retained(), 0);
    assert_eq!(back.stream_len(), 0);
}

// ---------------------------------------------------------------------------
// Store reads, pinned: every summary a read hands out and every answer it
// gives, on single-threaded stores at fixed seeds, as FNV-1a digests. A
// refactor of the read path must leave all of them where they are.
// ---------------------------------------------------------------------------

use std::time::Duration;

use qc_common::OrderedBits;
use qc_store::{SketchStore, StoreConfig, WindowConfig};

/// FNV-1a, 64-bit.
fn digest(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn digest_words(words: impl IntoIterator<Item = u64>) -> u64 {
    digest(words.into_iter().flat_map(u64::to_le_bytes))
}

/// A fixed pseudo-random stream (SplitMix64), mostly distinct values.
fn stream(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64 * 1000.0
        })
        .collect()
}

fn write(store: &SketchStore, key: &str, values: &[f64]) {
    for batch in values.chunks(64) {
        store.update_many(key, batch);
    }
}

/// The 99-point φ grid, and the same points scaled into the value range.
fn grid() -> Vec<f64> {
    (1..100).map(|i| f64::from(i) / 100.0).collect()
}

fn probes() -> Vec<f64> {
    grid().iter().map(|p| p * 1000.0).collect()
}

/// `query`, `rank` and `cdf` of one key on the grid, plus its
/// `snapshot_bytes` and its whole-span `merged_range_summary`.
fn pin_key(store: &SketchStore, key: &str, out: &mut Vec<(String, u64)>) {
    let quantiles = grid().into_iter().map(|phi| store.query(key, phi).unwrap().to_ordered_bits());
    out.push((format!("{key}.query"), digest_words(quantiles)));
    let ranks = probes().into_iter().map(|x| store.rank(key, x).unwrap().to_bits());
    out.push((format!("{key}.rank"), digest_words(ranks)));
    let cdf = store.cdf(key, &probes()).unwrap();
    out.push((format!("{key}.cdf"), digest_words(cdf.iter().map(|p| p.to_bits()))));
    let frame = store.snapshot_bytes(key).unwrap();
    out.push((format!("{key}.snapshot_bytes"), digest(frame)));
    let range = encode_summary(&store.merged_range_summary(&[key], 0, u64::MAX));
    out.push((format!("{key}.merged_range_summary"), digest(range)));
}

fn store_reads() -> Vec<(String, u64)> {
    let mut out = Vec::new();

    // Default tiering: a cold key and a key promoted mid-stream that then
    // absorbs a remote frame.
    let tiered = SketchStore::new(StoreConfig::default().stripes(4).seed(11));
    write(&tiered, "cold", &stream(2_000, 1));
    write(&tiered, "promoted", &stream(20_000, 2));
    tiered.ingest_bytes("promoted", &tiered.snapshot_bytes("cold").unwrap()).unwrap();
    assert_eq!(tiered.stats().hot_keys, 1, "one key promoted");
    pin_key(&tiered, "cold", &mut out);
    pin_key(&tiered, "promoted", &mut out);
    let both = tiered.merged_range_summary(&["cold", "promoted"], 0, u64::MAX);
    out.push(("cold+promoted.merged_range_summary".into(), digest(encode_summary(&both))));

    // Hot from the first write.
    let hot = SketchStore::new(StoreConfig::default().stripes(4).seed(12).promotion_threshold(0));
    write(&hot, "t0", &stream(20_000, 3));
    pin_key(&hot, "t0", &mut out);

    // A windowed key with downsampled windows: 24 one-second windows of
    // 300 values, two housekeeping sweeps over two downsampling levels.
    let windowed = SketchStore::new(
        StoreConfig::default().stripes(4).seed(13).window(
            WindowConfig::default()
                .width(Duration::from_secs(1))
                .downsample_levels(2)
                .retention(Duration::from_secs(32))
                .lateness(Duration::from_secs(120)),
        ),
    );
    for (w, values) in stream(24 * 300, 4).chunks(300).enumerate() {
        windowed.update_at("w", w as u64 * 1000 + 250, values);
    }
    windowed.cool_down();
    windowed.cool_down();
    let snap = windowed.window_snapshot("w").unwrap();
    assert!(snap.sealed.iter().any(|&(_, level, _)| level > 0), "some window downsampled");
    pin_key(&windowed, "w", &mut out);
    for (t0, t1) in [(0, 8_000), (3_500, 9_100), (16_000, 24_000)] {
        let range = encode_summary(&windowed.merged_range_summary(&["w"], t0, t1));
        out.push((format!("w[{t0},{t1}).merged_range_summary"), digest(range)));
        let quantiles = grid().into_iter().map(|phi| windowed.query_range("w", t0, t1, phi));
        let bits = quantiles.map(|x| x.unwrap().to_ordered_bits());
        out.push((format!("w[{t0},{t1}).query_range"), digest_words(bits)));
    }
    out
}

const STORE_READS: &[(&str, u64)] = &[
    ("cold.query", 0x4535fee32d9d1f93),
    ("cold.rank", 0x59712149a9ea1d20),
    ("cold.cdf", 0x59712149a9ea1d20),
    ("cold.snapshot_bytes", 0x99fbd170ca5495ae),
    ("cold.merged_range_summary", 0x99fbd170ca5495ae),
    ("promoted.query", 0x2bc1b61e5962d1ee),
    ("promoted.rank", 0x2a100b4fe3941cff),
    ("promoted.cdf", 0x2a100b4fe3941cff),
    ("promoted.snapshot_bytes", 0x4d4290ea82ba3919),
    ("promoted.merged_range_summary", 0x4d4290ea82ba3919),
    ("cold+promoted.merged_range_summary", 0x7aadeda5dcc3c1e3),
    ("t0.query", 0xdaacf714218b7048),
    ("t0.rank", 0x44772314683ddbd4),
    ("t0.cdf", 0x44772314683ddbd4),
    ("t0.snapshot_bytes", 0xc02c2a04ea71650c),
    ("t0.merged_range_summary", 0xc02c2a04ea71650c),
    ("w.query", 0x0ba648611fbffbf9),
    ("w.rank", 0x713870ae7969de98),
    ("w.cdf", 0x713870ae7969de98),
    ("w.snapshot_bytes", 0x1bba9889c7e8d726),
    ("w.merged_range_summary", 0x81276b268277d3c1),
    ("w[0,8000).merged_range_summary", 0x5f95814b6e15809a),
    ("w[0,8000).query_range", 0x87dd33a0065cb59c),
    ("w[3500,9100).merged_range_summary", 0x636e65f1782f7817),
    ("w[3500,9100).query_range", 0x953dbfe2d216d005),
    ("w[16000,24000).merged_range_summary", 0x6be3140d02237f05),
    ("w[16000,24000).query_range", 0x3c12da6a04e70301),
];

#[test]
fn store_reads_are_pinned() {
    let got = store_reads();
    let table: Vec<String> =
        got.iter().map(|(name, d)| format!("    (\"{name}\", {d:#018x}),")).collect();
    let expected: Vec<(String, u64)> =
        STORE_READS.iter().map(|&(name, d)| (name.to_string(), d)).collect();
    assert_eq!(got, expected, "store read digests moved; now:\n{}", table.join("\n"));
}

// ---------------------------------------------------------------------------
// Checkpoint images, pinned: the file `checkpoint()` writes and the one a
// durable `cool_down()` sweep writes, over fixed-seed durable stores, as
// FNV-1a digests. A refactor of the housekeeping sweep must leave every
// image where it is, and neither call may count as a read.
// ---------------------------------------------------------------------------

use qc_store::FsyncPolicy;
use qc_workloads::tempdir::TempDir;

/// The digest of the newest checkpoint file `sweep` leaves in a fresh
/// durable store that `fill` loaded; `sweep` must move no read counter.
fn image(
    name: &str,
    cfg: StoreConfig,
    fill: impl Fn(&SketchStore),
    sweep: impl Fn(&SketchStore),
) -> u64 {
    let dir = TempDir::new(name);
    let cfg = cfg.fsync(FsyncPolicy::Off).data_dir(dir.path());
    let (store, _) = SketchStore::recover(cfg).unwrap();
    fill(&store);
    let reads = |s: &SketchStore| {
        let stats = s.stats();
        (stats.reads, stats.cache_hits, stats.cache_misses)
    };
    let before = reads(&store);
    sweep(&store);
    assert_eq!(reads(&store), before, "{name}: a checkpoint counts no read");
    let mut images: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ck"))
        .collect();
    images.sort();
    digest(std::fs::read(images.last().expect("a checkpoint was written")).unwrap())
}

/// Loads a durable store before its checkpoint.
type Fill<'a> = &'a dyn Fn(&SketchStore);

fn checkpoint_images() -> Vec<(String, u64)> {
    // A cold key, read once so its form is cached, and a key promoted
    // mid-stream that absorbs a remote frame and is read again.
    let tiered = |s: &SketchStore| {
        write(s, "cold", &stream(2_000, 1));
        write(s, "promoted", &stream(20_000, 2));
        s.ingest_bytes("promoted", &s.snapshot_bytes("cold").unwrap()).unwrap();
        assert_eq!(s.stats().hot_keys, 1, "one key promoted");
        s.query("promoted", 0.5).unwrap();
    };
    // Hot from the first write, then idle for one sweep: the next sweep
    // demotes it, while a plain checkpoint captures it hot.
    let hot = |s: &SketchStore| {
        write(s, "t0", &stream(20_000, 3));
        s.cool_down();
        write(s, "t1", &stream(100, 5));
    };
    // A windowed key with sealed and downsampled windows, one more window
    // written after two sweeps, and its live form read.
    let windowed = |s: &SketchStore| {
        for (w, values) in stream(25 * 300, 4).chunks(300).enumerate() {
            s.update_at("w", w as u64 * 1000 + 250, values);
            if w == 23 {
                s.cool_down();
                s.cool_down();
                let snap = s.window_snapshot("w").unwrap();
                assert!(snap.sealed.iter().any(|&(_, level, _)| level > 0), "some downsampled");
            }
        }
        s.query_range("w", 0, u64::MAX, 0.5).unwrap();
    };
    let window = WindowConfig::default()
        .width(Duration::from_secs(1))
        .downsample_levels(2)
        .retention(Duration::from_secs(32))
        .lateness(Duration::from_secs(120));
    let stores: [(&str, StoreConfig, Fill); 3] = [
        ("tiered", StoreConfig::default().stripes(4).seed(11), &tiered),
        ("hot", StoreConfig::default().stripes(4).seed(12).promotion_threshold(0), &hot),
        ("windowed", StoreConfig::default().stripes(4).seed(13).window(window), &windowed),
    ];
    let mut out = Vec::new();
    for (name, cfg, fill) in stores {
        let by_checkpoint = image(name, cfg.clone(), fill, |s| {
            s.checkpoint().unwrap().expect("appends since the last checkpoint");
        });
        out.push((format!("{name}.checkpoint"), by_checkpoint));
        let by_cool_down = image(name, cfg, fill, |s| {
            s.cool_down();
        });
        out.push((format!("{name}.cool_down"), by_cool_down));
    }
    out
}

const CHECKPOINT_IMAGES: &[(&str, u64)] = &[
    ("tiered.checkpoint", 0x6ee1596d42d02a8b),
    ("tiered.cool_down", 0x6ee1596d42d02a8b),
    ("hot.checkpoint", 0xf99ee9c9b7d7d76b),
    ("hot.cool_down", 0x3bdb9944bb531f34),
    ("windowed.checkpoint", 0x59fea705eeeb68d5),
    ("windowed.cool_down", 0xc858d8afaf60ca39),
];

#[test]
fn checkpoint_images_are_pinned() {
    let got = checkpoint_images();
    let table: Vec<String> =
        got.iter().map(|(name, d)| format!("    (\"{name}\", {d:#018x}),")).collect();
    let expected: Vec<(String, u64)> =
        CHECKPOINT_IMAGES.iter().map(|&(name, d)| (name.to_string(), d)).collect();
    assert_eq!(got, expected, "checkpoint image digests moved; now:\n{}", table.join("\n"));
}
