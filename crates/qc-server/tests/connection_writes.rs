//! Writes over a connection: repeated `update`/`update_many` frames on a
//! hot key must ride the store's shared-lock path (a writer borrowed from
//! the hot engine per frame), survive a `remove` or demotion of the key between frames,
//! and keep the store's accounting exact to the element.

use std::time::{Duration, Instant};

use qc_server::{Client, Server, ServerConfig};
use qc_store::StoreConfig;

fn serve(
    seed: u64,
    promotion_threshold: u64,
    cool_down: Option<Duration>,
) -> qc_server::ServerHandle {
    let cfg = ServerConfig {
        pool_threads: 4,
        store: StoreConfig::default()
            .stripes(4)
            .k(64)
            .b(4)
            .seed(seed)
            .promotion_threshold(promotion_threshold),
        cool_down_interval: cool_down,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port")
}

/// Repeated hot-key writes from one connection ride the shared path,
/// with exact end-to-end accounting.
#[test]
fn hot_key_frames_ride_the_shared_path() {
    let handle = serve(91, 50, None);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Promote, then stream many batches over the same connection.
    let mut total = 0u64;
    for i in 0..40u64 {
        let batch: Vec<f64> = (0..64).map(|j| (i * 64 + j) as f64).collect();
        client.update_many("hot", &batch).expect("update rpc");
        total += 64;
    }
    for i in 0..100u64 {
        client.update("hot", (total + i) as f64).expect("update rpc");
    }
    total += 100;

    let stats = handle.store().stats();
    assert_eq!(stats.updates, total);
    assert_eq!(stats.stream_len, total, "shared-path frames stay exact at quiescence");
    assert!(
        stats.shared_writes > 30,
        "hot-key frames must ride the shared path (shared {} / fallback {})",
        stats.shared_writes,
        stats.fallback_writes
    );
    let median = client.query("hot", 0.5).expect("query rpc").expect("non-empty");
    assert!((0.25 * total as f64..0.75 * total as f64).contains(&median), "median {median}");
    handle.shutdown();
}

/// A `remove` from another connection mid-stream: the writer's next
/// frames re-create the key, and the successor sees exactly the
/// post-removal weight.
#[test]
fn remove_from_another_connection_goes_unnoticed_by_the_writer() {
    let handle = serve(92, 0, None);
    let mut writer = Client::connect(handle.local_addr()).expect("connect writer");
    let mut admin = Client::connect(handle.local_addr()).expect("connect admin");

    for i in 0..20u64 {
        let batch: Vec<f64> = (0..32).map(|j| (i * 32 + j) as f64).collect();
        writer.update_many("k", &batch).expect("update rpc");
    }
    assert!(admin.remove("k").expect("remove rpc"));

    // The next frames must be delivered anyway — exactly once each.
    for i in 0..10u64 {
        let batch: Vec<f64> = (0..32).map(|j| (i * 32 + j) as f64).collect();
        writer.update_many("k", &batch).expect("update rpc after remove");
    }
    let resident = handle.store().summary_of("k").expect("key re-created");
    assert_eq!(
        qc_common::Summary::stream_len(&*resident),
        320,
        "successor must hold exactly the post-removal weight"
    );
    let stats = handle.store().stats();
    assert_eq!(stats.updates, 20 * 32 + 10 * 32);
    handle.shutdown();
}

/// A key that housekeeping demotes mid-connection keeps accepting writes
/// (fallback → re-promotion → shared path) without losing an element.
#[test]
fn demotion_mid_connection_keeps_writes_exact() {
    let handle = serve(93, 100, Some(Duration::from_millis(30)));
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let batch: Vec<f64> = (0..500).map(f64::from).collect();
    client.update_many("wave", &batch).expect("first burst");
    assert_eq!(handle.store().stats().hot_keys, 1);

    // Go idle until housekeeping demotes the key.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.store().stats().hot_keys != 0 {
        assert!(Instant::now() < deadline, "housekeeping never demoted the idle key");
        std::thread::sleep(Duration::from_millis(15));
    }

    // Write again through the same connection: fallback → re-promotion;
    // nothing may be lost on either side of the wave.
    client.update_many("wave", &batch).expect("second burst");
    let stats = handle.store().stats();
    assert_eq!(stats.updates, 1000);
    assert_eq!(stats.stream_len, 1000, "no element lost across demotion of a hot key");
    handle.shutdown();
}
