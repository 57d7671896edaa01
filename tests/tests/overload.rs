//! Overload protection end-to-end: admission control, connection caps,
//! lag-budget query shedding, router backpressure, and the client's typed
//! retry semantics — every shed is an [`ErrorCode::Overloaded`] frame
//! carrying a retry-after hint, never a hang and never a silent drop.
//!
//! The structural property pinned by the proptest: the per-space in-flight
//! admission budget **never leaks**. Whatever mix of admitted, shed, and
//! failed batches a schedule produces, the in-flight gauges return to zero
//! once the traffic drains — the RAII `Admitted` ticket releases on every
//! exit path of the ingest arm or the test fails.

use fews_common::rng::rng_for;
use fews_core::insertion_only::FewwConfig;
use fews_engine::EngineConfig;
use fews_net::{
    Client, ClientError, ClientOptions, ErrorCode, FaultPlan, FaultProfile, OverloadLimits, Server,
    ServerOptions,
};
use fews_stream::update::as_insertions;
use fews_stream::Update;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 4131;

fn base_cfg() -> EngineConfig {
    EngineConfig::insert_only(FewwConfig::new(96, 24, 2), SEED)
        .with_partitions(4)
        .with_shards(1)
        .with_batch(64)
}

fn workload(len_pow: u32) -> Vec<Update> {
    let g =
        fews_stream::gen::planted::planted_star(96, 1 << len_pow, 24, 3, &mut rng_for(SEED, 31));
    as_insertions(&g.edges)
}

/// A scratch data dir, cleared on entry so reruns start fresh.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fews-overload-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn overloaded_with_hint(e: &ClientError) -> bool {
    matches!(e, ClientError::Server { code, .. } if *code == ErrorCode::Overloaded)
        && e.retry_after().is_some()
}

/// A refresher held back by a long debounce makes the published snapshot
/// trail acked ingest past the lag budget: watermarked reads must fail
/// *fast* with a typed Overloaded + hint, `?stale` reads must keep
/// answering, and a client opted into overload retries must ride the hint
/// to a successful read once the refresher catches up.
#[test]
fn lag_budget_sheds_watermarked_reads_while_stale_answers() {
    let updates = workload(10);
    let server = Server::start_with(
        base_cfg(),
        "127.0.0.1:0",
        ServerOptions {
            refresh_debounce: Some(Duration::from_millis(500)),
            limits: OverloadLimits {
                lag_budget: 1,
                ..OverloadLimits::default()
            },
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // Three acked batches, published snapshot still at watermark 0: the
    // lag (3) exceeds the budget (1), so this client's read-your-writes
    // query sheds instead of parking on the watermark wait.
    let mut writer = Client::connect(addr).expect("connect writer");
    for chunk in updates.chunks(97).take(3) {
        writer.ingest_batch(chunk).expect("ingest");
    }
    let err = writer.certified().expect_err("lagging read must shed");
    assert!(
        overloaded_with_hint(&err),
        "want typed Overloaded with a retry hint, got {err:?}"
    );

    // Degraded, not down: a stale reader answers from the snapshot that
    // *is* published, while the fresh path is shedding.
    let mut stale = Client::connect(addr).expect("connect stale");
    stale.set_stale(true);
    stale.certified().expect("stale read answers during lag");
    let shed = stale.stats().expect("stats").overload;
    assert!(
        shed.shed_reads >= 1,
        "shed counter must record the rejection"
    );

    // A client that opted into overload retries rides the hint: the
    // refresher publishes after the debounce and the retried read lands.
    let retry_opts = ClientOptions {
        overload_retries: 30,
        backoff: Duration::from_millis(20),
        ..ClientOptions::default()
    };
    let mut patient = Client::connect_with(addr.to_string(), &retry_opts).expect("connect");
    patient.ingest_batch(&updates[..97]).expect("ingest");
    patient
        .certified()
        .expect("overload retries must outlast the refresher debounce");

    writer.shutdown().expect("shutdown");
    server.join();
}

/// Past `max_conns`, accepts are shed with a best-effort typed frame: the
/// excess client reads Overloaded + retry hint instead of hanging, and the
/// slot freed by a departing connection is reusable.
#[test]
fn connection_cap_sheds_at_accept_with_a_typed_frame() {
    let server = Server::start_with(
        base_cfg(),
        "127.0.0.1:0",
        ServerOptions {
            max_conns: 1,
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut holder = Client::connect(addr).expect("first connection");
    holder.ping().expect("held connection serves");

    // The second connection is accepted just long enough to be told why
    // it is being turned away: the server pushes one typed frame and
    // closes. Read it raw — a request written into the closing socket
    // could race the frame with a reset.
    {
        use std::io::Read;
        let mut shed = std::net::TcpStream::connect(addr).expect("tcp connect");
        shed.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let mut frame = Vec::new();
        shed.read_to_end(&mut frame).expect("read shed frame");
        assert!(frame.len() > 4, "the shed connection must be told why");
        let resp = fews_net::Response::decode(&frame[4..]).expect("shed frame decodes");
        match resp {
            fews_net::Response::Error {
                code,
                retry_after_ms,
                ..
            } => {
                assert_eq!(code, ErrorCode::Overloaded);
                assert!(retry_after_ms > 0, "accept shed must carry a hint");
            }
            other => panic!("want an Overloaded error frame, got {other:?}"),
        }
    }

    // Freeing the slot makes room: retry until the acceptor's counter has
    // caught up with the closed connection.
    drop(holder);
    let mut admitted = None;
    for _ in 0..100 {
        let mut c = Client::connect(addr).expect("tcp connect");
        if c.ping().is_ok() {
            admitted = Some(c);
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut client = admitted.expect("a freed slot must admit a new connection");
    assert!(
        client.stats().expect("stats").overload.shed_conns >= 1,
        "accept-time sheds must be counted"
    );
    client.shutdown().expect("shutdown");
    server.join();
}

/// Hammer a tiny in-flight budget from many threads; every shed must be a
/// typed Overloaded with a hint, every shed batch must land on a manual
/// hint-paced retry, and when the traffic drains the in-flight gauges must
/// be exactly zero — the admission ticket released on every path.
fn hammer_admission(threads: usize, batch_len: usize, budget: u64, batches_per_thread: usize) {
    // A process-wide counter keeps concurrent hammers (the fixed-shape test
    // and a property case that drew the same shape) off each other's dirs.
    static RUN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let run = RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = scratch(&format!("admit-{run}-{threads}-{batch_len}-{budget}"));
    let server = Server::start_with(
        base_cfg(),
        "127.0.0.1:0",
        ServerOptions {
            // Durable: the group-commit fsync widens the in-flight window,
            // so concurrent batches actually contend for the budget.
            data_dir: Some(dir.clone()),
            limits: OverloadLimits {
                inflight_updates: budget,
                ..OverloadLimits::default()
            },
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let per_thread = batch_len * batches_per_thread;
    // Synthetic distinct edges: the hammer cares about batch counts and
    // bytes, not graph structure, and must scale to any shape the property
    // picks.
    let updates: Vec<Update> = (0..(threads * per_thread) as u64)
        .map(|i| Update::insert(fews_stream::Edge::new((i % 96) as u32, i / 96)))
        .collect();

    let sheds: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let slice = &updates[t * per_thread..(t + 1) * per_thread];
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut sheds = 0u64;
                    for chunk in slice.chunks(batch_len) {
                        loop {
                            match client.ingest_batch(chunk) {
                                Ok(_) => break,
                                Err(e) => {
                                    let hint = e
                                        .retry_after()
                                        .unwrap_or_else(|| panic!("non-overload failure: {e:?}"));
                                    sheds += 1;
                                    std::thread::sleep(hint.min(Duration::from_millis(20)));
                                }
                            }
                        }
                    }
                    sheds
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("thread")).sum()
    });

    let mut client = Client::connect(addr).expect("reconnect");
    // `ingested` is publish-consistent: give the refresher a beat to
    // publish the last acked batch before reading the ledger.
    let total = (threads * per_thread) as u64;
    prop_assert_eq!(
        settle_ingested(&mut client, total),
        total,
        "every shed batch must eventually land"
    );
    let stats = client.stats().expect("stats");
    prop_assert_eq!(
        stats.overload.shed_ingest,
        sheds,
        "server-side shed count must match the typed errors clients saw"
    );
    prop_assert_eq!(
        (
            stats.overload.inflight_updates,
            stats.overload.inflight_bytes
        ),
        (0u64, 0u64),
        "in-flight budget leaked after traffic drained"
    );
    client.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_budget_sheds_typed_and_drains_to_zero() {
    hammer_admission(4, 16, 16, 12);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The leak-freedom property over random shapes: thread count, batch
    /// size, and budget vary; the gauges must always drain to zero and the
    /// shed ledger must always balance.
    #[test]
    fn inflight_budget_never_leaks(
        threads in 2usize..5,
        batch_len in 4usize..24,
        budget in 4u64..32,
    ) {
        hammer_admission(threads, batch_len, budget, 6);
    }
}

/// The indeterminate transport failure: a frame delivered in full with the
/// connection cut before the ack. By default the client surfaces the error
/// (the server applied the batch exactly once); with `ingest_resend` opted
/// in, the blind resend double-applies — which is exactly why it is opt-in
/// and documented as idempotent-only.
/// Poll `stats().ingested` up to `want`: a frame delivered just before a
/// connection cut is applied by the server's handler *concurrently* with
/// the client's next connection, so the count needs a beat to settle.
fn settle_ingested(client: &mut Client, want: u64) -> u64 {
    for _ in 0..200 {
        let got = client.stats().expect("stats").ingested;
        if got >= want {
            return got;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    client.stats().expect("stats").ingested
}

#[test]
fn deliver_then_cut_surfaces_by_default_and_resend_double_applies() {
    let updates = workload(8);
    let batch = &updates[..97];
    let cut_profile = FaultProfile {
        refuse_permille: 0,
        cut_permille: 0,
        stall_permille: 0,
        deliver_cut_permille: 1000,
        stall: Duration::ZERO,
        slow_start: Duration::ZERO,
        slow_ops: 0,
    };

    // Default: the error surfaces, the state is exact — applied once.
    let server = Server::start(base_cfg(), "127.0.0.1:0").expect("bind");
    let opts = ClientOptions {
        faults: Some(Arc::new(FaultPlan::new(7, cut_profile, 1))),
        ..ClientOptions::default()
    };
    let mut client = Client::connect_with(server.local_addr().to_string(), &opts).expect("connect");
    let err = client
        .ingest_batch(batch)
        .expect_err("a cut before the ack must surface without resend");
    assert!(
        matches!(err, ClientError::Io(_)),
        "indeterminate failures are transport errors, got {err:?}"
    );
    client.reconnect().expect("reconnect");
    assert_eq!(
        settle_ingested(&mut client, batch.len() as u64),
        batch.len() as u64,
        "the delivered frame was applied exactly once"
    );
    client.shutdown().expect("shutdown");
    server.join();

    // Opt-in resend: the blind retry double-applies on a server that
    // cannot deduplicate — the hazard the opt-in flag signs up for.
    let server = Server::start(base_cfg(), "127.0.0.1:0").expect("bind");
    let opts = ClientOptions {
        faults: Some(Arc::new(FaultPlan::new(7, cut_profile, 1))),
        ingest_resend: true,
        ..ClientOptions::default()
    };
    let mut client = Client::connect_with(server.local_addr().to_string(), &opts).expect("connect");
    client
        .ingest_batch(batch)
        .expect("resend must recover the ack");
    assert_eq!(
        settle_ingested(&mut client, 2 * batch.len() as u64),
        2 * batch.len() as u64,
        "the blind resend double-applied the batch"
    );
    client.shutdown().expect("shutdown");
    server.join();
}

/// A read a worker sheds past its lag budget passes through the router
/// typed (Overloaded + retry hint) and is counted in the router's
/// `shed_reads`, while `?stale` reads through the router keep answering.
#[test]
fn router_passes_worker_read_sheds_through_and_counts_them() {
    let cfg = base_cfg();
    let lagging = ServerOptions {
        refresh_debounce: Some(Duration::from_millis(500)),
        limits: OverloadLimits {
            lag_budget: 1,
            ..OverloadLimits::default()
        },
        ..ServerOptions::default()
    };
    let worker = Server::start_with(cfg, "127.0.0.1:0", lagging).expect("worker");
    let addrs = vec![worker.local_addr().to_string()];
    let opts = fews_cluster::RouterOptions {
        client: ClientOptions::bounded(Duration::from_secs(2), 0),
        heartbeat: None,
        forward_shutdown: false,
        replicas: 1,
        ..fews_cluster::RouterOptions::default()
    };
    let router = fews_cluster::Router::start(cfg, "127.0.0.1:0", &addrs, opts).expect("router");
    let mut client = Client::connect(router.local_addr()).expect("connect");

    // Three acked batches while the worker's snapshot stays at watermark
    // 0: its lag (3) is past the budget (1), so the pushed-down fresh read
    // sheds at the worker.
    for chunk in workload(10).chunks(97).take(3) {
        client.ingest_batch(chunk).expect("ingest");
    }
    let err = client
        .certified()
        .expect_err("lagging worker sheds the read");
    assert!(
        overloaded_with_hint(&err),
        "want typed Overloaded with a retry hint, got {err:?}"
    );
    let mut stale = Client::connect(router.local_addr()).expect("connect stale");
    stale.set_stale(true);
    stale
        .certified()
        .expect("stale read answers through the router");
    let shed = stale.stats().expect("router stats").overload;
    assert_eq!(shed.shed_reads, 1, "the router counts the shed read");
    client.shutdown().expect("shutdown");
    router.shutdown();
    router.join();
    worker.shutdown();
    worker.join();
}

/// Router reads share one pool of query links per worker, so front-end
/// connections do not multiply the router's connections to its workers:
/// eight open router clients reading one after another fit under a worker
/// connection cap of three (the router's own link, one query link, spare).
#[test]
fn router_query_links_are_pooled_across_front_end_connections() {
    let cfg = base_cfg();
    let capped = ServerOptions {
        max_conns: 3,
        ..ServerOptions::default()
    };
    let worker = Server::start_with(cfg, "127.0.0.1:0", capped).expect("worker");
    let addrs = vec![worker.local_addr().to_string()];
    let opts = fews_cluster::RouterOptions {
        client: ClientOptions::bounded(Duration::from_secs(2), 0),
        heartbeat: None,
        forward_shutdown: false,
        replicas: 1,
        ..fews_cluster::RouterOptions::default()
    };
    let router = fews_cluster::Router::start(cfg, "127.0.0.1:0", &addrs, opts).expect("router");
    let mut clients: Vec<Client> = (0..8)
        .map(|_| Client::connect(router.local_addr()).expect("connect"))
        .collect();
    clients[0]
        .ingest_batch(&workload(10)[..97])
        .expect("ingest");
    for (i, client) in clients.iter_mut().enumerate() {
        client
            .top(3)
            .unwrap_or_else(|e| panic!("router client {i}: {e}"));
    }
    let overload = clients[0].stats().expect("router stats").overload;
    assert_eq!(overload.shed_reads, 0, "a worker shed a router read");
    router.shutdown();
    router.join();
    worker.shutdown();
    worker.join();
}

/// The router maps its own retained-log growth into backpressure: with
/// every owner of a partition down, retained updates pile up until the
/// budget trips, and further ingest sheds with a typed Overloaded + hint
/// instead of growing without bound.
#[test]
fn router_sheds_ingest_once_retained_logs_exceed_budget() {
    let cfg = base_cfg();
    let worker = Server::start(cfg, "127.0.0.1:0").expect("worker");
    let addrs = vec![worker.local_addr().to_string()];
    let opts = fews_cluster::RouterOptions {
        client: ClientOptions::bounded(Duration::from_secs(2), 0),
        heartbeat: None,
        refresh_updates: 1_024,
        forward_shutdown: false,
        replicas: 1,
        pipeline: true,
        data_dir: None,
        retained_budget: 150,
    };
    let router = fews_cluster::Router::start(cfg, "127.0.0.1:0", &addrs, opts).expect("router");
    let mut client = Client::connect(router.local_addr()).expect("connect");

    // Kill the only owner: acked ingest is retained for replay.
    worker.crash();
    worker.join();
    let updates = workload(9);
    client
        .ingest_batch(&updates[..97])
        .expect("first batch fits the retained budget");
    let err = client
        .ingest_batch(&updates[97..194])
        .expect_err("retained growth past the budget must shed");
    assert!(
        overloaded_with_hint(&err),
        "want typed Overloaded with a retry hint, got {err:?}"
    );
    let stats = client.stats().expect("stats");
    assert!(stats.overload.shed_ingest >= 1, "router counts its sheds");
    assert_eq!(
        stats.overload.inflight_updates, 97,
        "retained updates are the router's in-flight gauge"
    );
    client.shutdown().expect("shutdown");
    router.shutdown();
    router.join();
}
