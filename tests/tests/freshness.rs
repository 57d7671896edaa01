//! The freshness contract, differentially: watermarked read-your-writes
//! must be observationally identical to the old publish-before-ack server.
//!
//! With a single writer, both contracts pin the same answer: after the ack
//! of batch `i`, a read must reflect exactly batches `0..=i` — no more
//! exists, and the watermark forbids less. So the differential reference is
//! an in-process [`Engine`] fed the same prefix (engine ≡ `fews-core` is
//! pinned by `engine_equivalence.rs`), and every mid-stream answer must
//! match it **byte-for-byte** — at K ∈ {1, 2, 4}, through the cluster
//! router, and across a `--data-dir` restart.
//!
//! The last test is the torn-view regression: a deliberately slow refresher
//! (`ServerOptions::refresh_debounce`) must delay watermarked answers, not
//! corrupt them — a query at an acked watermark may never observe half a
//! batch.

use fews_core::insertion_deletion::IdConfig;
use fews_core::insertion_only::FewwConfig;
use fews_engine::{Engine, EngineConfig, GlobalView};
use fews_net::{
    Client, ErrorCode, ReadMode, Request, Response, ScopedQuery, Server, ServerOptions,
};
use fews_stream::update::as_insertions;
use fews_stream::{Edge, Update};
use std::time::{Duration, Instant};

const SEED: u64 = 2021;
const PARTITIONS: usize = 8;
const CHUNK: usize = 97;

fn io_workload() -> (EngineConfig, Vec<Update>) {
    let s = fews_stream::gen::zipf::zipf_stream(
        192,
        1.2,
        6_000,
        &mut fews_common::rng::rng_for(SEED, 11),
    );
    let d = (*s.frequencies.iter().max().expect("n >= 1")).max(1);
    let cfg = EngineConfig::insert_only(FewwConfig::new(192, d, 2), SEED)
        .with_partitions(PARTITIONS)
        .with_batch(64);
    (cfg, as_insertions(&s.edges))
}

fn id_workload() -> (EngineConfig, Vec<Update>) {
    let log = fews_stream::gen::dblog::db_log(
        32,
        1 << 10,
        12,
        4,
        0.5,
        &mut fews_common::rng::rng_for(SEED, 12),
    );
    let cfg = EngineConfig::insert_delete(IdConfig::with_scale(32, 1 << 10, 12, 2, 0.02), SEED)
        .with_partitions(PARTITIONS)
        .with_batch(64);
    (cfg, log.updates)
}

/// Drive `updates` through `client` chunk by chunk; after every acked chunk
/// the (watermarked) answers must equal the in-process reference engine fed
/// the same prefix. Returns the reference for the caller's final checks.
fn assert_prefix_equivalence(
    client: &mut Client,
    reference: &mut Engine,
    updates: &[Update],
    label: &str,
) {
    for (i, chunk) in updates.chunks(CHUNK).enumerate() {
        assert_eq!(
            client.ingest_batch(chunk).expect("ingest"),
            chunk.len() as u64
        );
        reference.ingest(chunk.iter().copied());
        let view = reference.view();
        let probe = chunk[0].edge.a;
        assert_eq!(
            client.certified().expect("certified"),
            view.certified(),
            "{label}: certified diverged after chunk {i}"
        );
        assert_eq!(
            client.certify(probe).expect("certify"),
            view.certify(probe),
            "{label}: certify({probe}) diverged after chunk {i}"
        );
        assert_eq!(
            client.top(3).expect("top"),
            view.top(3),
            "{label}: top-3 diverged after chunk {i}"
        );
    }
}

/// Watermarked reads equal the reference at every prefix, for both models,
/// at every shard count. Publish-before-ack would serve exactly these
/// answers, so this is the old contract pinned byte-for-byte.
#[test]
fn watermarked_reads_match_reference_at_every_prefix() {
    for (name, (cfg, updates)) in [("io", io_workload()), ("id", id_workload())] {
        for shards in [1usize, 2, 4] {
            let server = Server::start(cfg.with_shards(shards), "127.0.0.1:0").expect("bind");
            let mut client = Client::connect(server.local_addr()).expect("connect");
            let mut reference = Engine::start(cfg.with_shards(1));
            let label = format!("{name}, K={shards}");
            assert_prefix_equivalence(&mut client, &mut reference, &updates, &label);
            client.shutdown().expect("shutdown");
            server.join();
        }
    }
}

/// The same prefix differential through a cluster router: the ack watermark
/// is the router's, and the reads it pushes down must wait on the
/// per-worker watermarks it implies.
#[test]
fn watermarked_reads_match_reference_through_router() {
    let (cfg, updates) = io_workload();
    let workers: Vec<Server> = (0..3)
        .map(|i| Server::start(cfg, "127.0.0.1:0").unwrap_or_else(|e| panic!("worker {i}: {e}")))
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let opts = fews_cluster::RouterOptions {
        client: fews_net::ClientOptions::bounded(Duration::from_secs(5), 0),
        heartbeat: None,
        refresh_updates: 1_024,
        forward_shutdown: false,
        replicas: 2,
        pipeline: true,
        data_dir: None,
        retained_budget: 1 << 20,
    };
    let router = fews_cluster::Router::start(cfg, "127.0.0.1:0", &addrs, opts).expect("router");
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let mut reference = Engine::start(cfg.with_shards(1));
    assert_prefix_equivalence(&mut client, &mut reference, &updates, "router");
    router.shutdown();
    router.join();
    for w in workers {
        w.shutdown();
        w.join();
    }
}

/// Router reads keep the router's lock off their path: while a fresh `top`
/// through the router waits on the workers' slow refreshers, an ingest on a
/// second connection acks and a `?stale` read answers, each within 100 ms —
/// and the fresh read still answers at least the acked prefix.
#[test]
fn router_reads_waiting_on_workers_block_neither_ingest_nor_stale_reads() {
    let (cfg, updates) = io_workload();
    let slow = ServerOptions {
        refresh_debounce: Some(Duration::from_millis(300)),
        ..ServerOptions::default()
    };
    let workers: Vec<Server> = (0..2)
        .map(|i| {
            Server::start_with(cfg, "127.0.0.1:0", slow.clone())
                .unwrap_or_else(|e| panic!("worker {i}: {e}"))
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let opts = fews_cluster::RouterOptions {
        client: fews_net::ClientOptions::bounded(Duration::from_secs(5), 0),
        heartbeat: None,
        replicas: 1,
        forward_shutdown: false,
        ..fews_cluster::RouterOptions::default()
    };
    let router = fews_cluster::Router::start(cfg, "127.0.0.1:0", &addrs, opts).expect("router");
    let (first, second) = (&updates[..CHUNK], &updates[CHUNK..2 * CHUNK]);
    let mut writer = Client::connect(router.local_addr()).expect("connect writer");
    let mut stale = Client::connect(router.local_addr()).expect("connect stale reader");
    stale.set_stale(true);
    let mut reader = Client::connect(router.local_addr()).expect("connect reader");
    reader.ingest_batch(first).expect("ingest");

    // The fresh read waits ~300 ms for the workers to publish `first`.
    let fresh = std::thread::spawn(move || {
        let top = reader.top(3).expect("fresh top");
        (top, Instant::now())
    });
    std::thread::sleep(Duration::from_millis(50));
    let t = Instant::now();
    writer.ingest_batch(second).expect("ingest beside the read");
    let ingest = t.elapsed();
    let t = Instant::now();
    stale.top(3).expect("stale top beside the read");
    let stale_read = t.elapsed();
    let beside = Instant::now();
    let (top, answered) = fresh.join().expect("fresh reader");

    assert!(
        answered > beside,
        "the fresh read must still have been waiting on the workers"
    );
    assert!(
        ingest < Duration::from_millis(100),
        "ingest waited {ingest:?} behind a fresh read"
    );
    assert!(
        stale_read < Duration::from_millis(100),
        "?stale read waited {stale_read:?} behind a fresh read"
    );
    // The refresher may publish `second` too before the fresh read wakes.
    let mut reference = Engine::start(cfg.with_shards(1));
    reference.ingest(first.iter().copied());
    let after_first = reference.view().top(3);
    reference.ingest(second.iter().copied());
    let after_second = reference.view().top(3);
    assert!(
        top == after_first || top == after_second,
        "fresh top through the router diverged from the acked prefix"
    );
    router.shutdown();
    router.join();
    for w in workers {
        w.shutdown();
        w.join();
    }
}

/// A worker's pushed-down reads racing a rejoin of that (live) worker.
/// The rejoin is the router's slice push, sent by hand here: restore the
/// slice from the router's payload, replay the retained log, re-assign.
/// The restore publishes checkpoint-only state at once, and the published
/// watermark never goes down. So a read must never answer from that state,
/// whether it was already waiting when the restore landed (it is refused,
/// and a router fails it over) or arrives after the assignment with the
/// router's older watermark or `?stale` (it waits for the replay).
#[test]
fn scoped_reads_never_answer_from_a_rejoin_before_its_replay() {
    let (cfg, updates) = io_workload();
    let slow = ServerOptions {
        refresh_debounce: Some(Duration::from_millis(300)),
        ..ServerOptions::default()
    };
    let worker = Server::start_with(cfg, "127.0.0.1:0", slow).expect("worker");
    let addr = worker.local_addr();
    let all: Vec<u32> = (0..PARTITIONS as u32).collect();
    let top = move |mode| Request::ScopedQuery {
        parts: (0..PARTITIONS as u32).collect(),
        query: ScopedQuery::Top(3),
        mode,
    };
    let answer = |got: Response| match got {
        Response::Hits(hits) => GlobalView::merge_top(vec![hits], 3),
        other => panic!("scoped top answered {other:?}"),
    };
    // The router's payload for the slice predates the batch, so the batch
    // sits in its retained log.
    let baseline = Engine::start(cfg).checkpoint_slice(&all);
    let batch = &updates[..4 * CHUNK];
    let mut reference = Engine::start(cfg.with_shards(1));
    reference.ingest(batch.iter().copied());
    let want = reference.view().top(3);
    assert!(!want.is_empty(), "the batch must certify something");

    let mut router = Client::connect(addr).expect("connect router link");
    router.slice_assign(&all).expect("assign");
    router.ingest_batch(batch).expect("ingest");
    let acked = router.watermark();
    // A fresh read waits ~300 ms for the refresher to publish the batch.
    let waiting = std::thread::spawn(move || {
        let mut link = Client::connect(addr).expect("connect query link");
        link.roundtrip(&top(ReadMode::AtLeast(acked)))
    });
    std::thread::sleep(Duration::from_millis(50));
    router.slice_restore(&baseline).expect("slice restore");
    for chunk in batch.chunks(CHUNK) {
        router.ingest_batch(chunk).expect("replay");
    }
    router.slice_assign(&all).expect("re-assign");
    match waiting.join().expect("waiting reader") {
        Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::NodeUnavailable),
        Ok(got) => assert_eq!(answer(got), want, "read answered mid-rejoin"),
        Err(e) => panic!("waiting read failed: {e}"),
    }
    // After the assignment, a read at the pre-rejoin watermark and a
    // `?stale` read both see the replayed batch.
    let mut link = Client::connect(addr).expect("connect query link");
    for mode in [ReadMode::AtLeast(acked), ReadMode::Stale] {
        let got = link.roundtrip(&top(mode)).expect("read after the rejoin");
        assert_eq!(answer(got), want, "{mode:?} read after the rejoin");
    }
    worker.shutdown();
    worker.join();
}

/// Watermarks survive a `--data-dir` restart: recovery replays the WAL into
/// the same ingest sequence, so a watermark acked before the restart is
/// still honoured after it, and the prefix differential keeps holding for
/// the second half of the stream.
#[test]
fn watermarked_reads_survive_data_dir_restart() {
    let (cfg, updates) = io_workload();
    let dir = std::env::temp_dir().join(format!("fews-freshness-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServerOptions {
        data_dir: Some(dir.clone()),
        compact_bytes: 64 << 20,
        refresh_debounce: None,
        ..ServerOptions::default()
    };
    let mut reference = Engine::start(cfg.with_shards(1));
    let half = updates.len() / 2;

    let server = Server::start_with(cfg, "127.0.0.1:0", opts.clone()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_prefix_equivalence(&mut client, &mut reference, &updates[..half], "pre-restart");
    let acked = client.watermark();
    assert!(acked > 0, "ingest acks must carry a watermark");
    client.shutdown().expect("shutdown");
    server.join();

    let server = Server::start_with(cfg, "127.0.0.1:0", opts).expect("rebind");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    // A client holding a pre-restart watermark is served, not timed out:
    // recovery restored the ingest sequence, so the restarted server's
    // published watermark already covers every pre-restart ack.
    client.set_watermark(acked);
    assert_eq!(
        client
            .certified()
            .expect("certified at pre-restart watermark"),
        reference.view().certified(),
        "post-restart certified diverged from the acked prefix"
    );
    assert_prefix_equivalence(
        &mut client,
        &mut reference,
        &updates[half..],
        "post-restart",
    );
    client.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn-view regression: with the refresher slowed to a crawl, a query at
/// an acked watermark must still see every acked batch **whole**. Each
/// batch is a full star for a fresh vertex and the engine hand-off is
/// smaller than the batch, so any snapshot taken at half a batch would
/// certify the star with missing witnesses.
#[test]
fn slow_refresher_never_serves_torn_views() {
    const D: u32 = 24;
    let cfg = EngineConfig::insert_only(FewwConfig::new(64, D, 1), SEED)
        .with_partitions(PARTITIONS)
        // Hand-off batches much smaller than one star: a snapshot barrier
        // that could slip between them would tear the star apart.
        .with_batch(8);
    let server = Server::start_with(
        cfg,
        "127.0.0.1:0",
        ServerOptions {
            data_dir: None,
            compact_bytes: 64 << 20,
            refresh_debounce: Some(Duration::from_millis(25)),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for v in 0..32u32 {
        let star: Vec<Update> = (0..D)
            .map(|b| Update::insert(Edge::new(v, 1_000 + b as u64)))
            .collect();
        assert_eq!(client.ingest_batch(&star).expect("ingest"), D as u64);
        // α = 1 ⇒ d₂ = D: the certify answer holds the whole star or the
        // view is torn. The slow refresher means this read *waits*; it must
        // never return early with a partial batch.
        let nb = client
            .certify(v)
            .expect("certify")
            .unwrap_or_else(|| panic!("vertex {v}: acked star invisible to watermarked read"));
        assert_eq!(
            nb.size(),
            D as usize,
            "vertex {v}: watermarked read observed a torn batch"
        );
    }
    client.shutdown().expect("shutdown");
    server.join();
}
