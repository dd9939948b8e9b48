//! The four workloads. Names are normative: every later issue quotes
//! them.

pub mod durable_write;
pub mod ingest_mix;
pub mod read_fanout;
pub mod windowed_range;

use qc_store::{SketchStore, StoreConfig};

use crate::workload::{Context, Drive, Gate, Plan, Stage};

/// One of the benchmark's traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop UDP ingest beside open-loop TCP queries, memory only.
    IngestMix,
    /// Closed-loop acked writes to a durable store; set-up recovers it.
    DurableWrite,
    /// Closed-loop range reads beside sealing writes on windowed keys.
    WindowedRange,
    /// Closed-loop read mix over a preloaded store.
    ReadFanout,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::IngestMix,
        Workload::DurableWrite,
        Workload::WindowedRange,
        Workload::ReadFanout,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestMix => "ingest_mix",
            Workload::DurableWrite => "durable_write",
            Workload::WindowedRange => "windowed_range",
            Workload::ReadFanout => "read_fanout",
        }
    }

    /// One line: why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::IngestMix => "open-loop UDP ingest beside open-loop queries on Zipf keys: hot head on quancurrent, every hot read a cache miss; ingest + store + engine work, persist and window idle",
            Workload::DurableWrite => "closed-loop acked update_many(64) on a durable store, fsync off: WAL encode+append on the ack path (ROADMAP 4a), checkpoints under load, recovery in set-up; ingest and window idle",
            Workload::WindowedRange => "closed-loop sliding full-span and recent query_range beside sealing, late and dropped update_at: window + merge work (ROADMAP 4b, 4c); a sealing tax shows in lat.write_p50_us, not ops_per_s",
            Workload::ReadFanout => "closed-loop read mix on a preloaded store, ~95% read-cache hits, snapshots sweeping the keys: server, proto and sockets dominate; a WAL or window change must leave it unmoved",
        }
    }

    /// Operations into the measured interval at which the server's
    /// resident set is read (`sut_rss_mib`): about two fifths of what a
    /// 20 s run completes today, so a server half as fast still gets there.
    pub fn rss_at_ops(self) -> u64 {
        match self {
            Workload::IngestMix => 60_000,
            Workload::DurableWrite => 200_000,
            Workload::WindowedRange => 8_000,
            Workload::ReadFanout => 120_000,
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Spawn the server and bring it to the state the measured phase
    /// starts from. The caller times this: it is `setup_s`.
    pub fn setup(self, ctx: &Context) -> Result<Stage, String> {
        match self {
            Workload::IngestMix => ingest_mix::setup(ctx),
            Workload::DurableWrite => durable_write::setup(ctx),
            Workload::WindowedRange => windowed_range::setup(ctx),
            Workload::ReadFanout => read_fanout::setup(ctx),
        }
    }

    /// One drive (warm-up + measured interval) and its gates: the
    /// workload's exact counts, no failed request, and the accuracy of the
    /// drive's sampled answers — judged here, before a later drive on the
    /// same stage grows the log they were computed over.
    pub fn run(
        self,
        ctx: &Context,
        stage: &mut Stage,
        plan: Plan,
    ) -> Result<(Drive, Vec<Gate>), String> {
        let (mut drive, mut gates) = match self {
            Workload::IngestMix => ingest_mix::run(ctx, stage, plan),
            Workload::DurableWrite => durable_write::run(ctx, stage, plan),
            Workload::WindowedRange => windowed_range::run(ctx, stage, plan),
            Workload::ReadFanout => read_fanout::run(ctx, stage, plan),
        }?;
        let verdict = stage.judge(&drive);
        drive.rank_err_max = verdict.worst;
        gates.push(Gate::accuracy(&verdict));
        gates.push(Gate::equal("no_failed_requests", "failed requests and sends", drive.failed, 0));
        Ok((drive, gates))
    }

    /// An in-process store holding the workload's preloaded shape, for the
    /// replay (memory only: the replay prices codec and store calls, the
    /// log has its own probes).
    pub fn replay_store(self) -> SketchStore {
        match self {
            Workload::IngestMix => ingest_mix::replay_store(),
            Workload::DurableWrite => durable_write::replay_store(),
            Workload::WindowedRange => windowed_range::replay_store(),
            Workload::ReadFanout => read_fanout::replay_store(),
        }
    }
}

/// A default-config memory store with `values` values in each of `keys`.
fn filled(cfg: StoreConfig, keys: &[String], values: usize) -> SketchStore {
    let store = SketchStore::new(cfg);
    let mut gen = crate::gen::Values::new(0x5EED);
    let mut buf = vec![0.0; values];
    for (i, key) in keys.iter().enumerate() {
        gen.fill(i, 0.0, &mut buf);
        store.update_many(key, &buf);
    }
    store
}
