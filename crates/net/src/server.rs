//! The threaded TCP server: one acceptor, one worker thread per connection,
//! and a *space registry* — every tenant space owns its own [`Engine`]
//! behind its own mutex, plus a published, lock-free query snapshot.
//!
//! **Spaces are isolation domains.** The registry is a
//! `RwLock<HashMap<SpaceId, Arc<SpaceHandle>>>`: request dispatch takes the
//! read lock just long enough to clone one space's `Arc`, so traffic in one
//! space never contends with another space's engine lock, and
//! `create-space` / `drop-space` (write lock) are the only registry writers.
//! Each space's engine is seeded independently
//! ([`SpaceId::seed_for`]), so two spaces never share randomness.
//!
//! **Query serving never touches an engine.** State-changing requests
//! (ingest, restore) hold the space's engine mutex just long enough to
//! log-append and apply; a dedicated *refresher* thread publishes a fresh
//! `Arc<GlobalView>` + statistics snapshot continuously in the background —
//! the engine's epoch-cached incremental `refresh` makes each publish cost
//! O(changes since the last publish), not O(total state), and the ingest
//! ack path never pays for it. Query requests (`certified` / `certify` /
//! `top` / `stats`) clone the space's published `Arc` (a pointer copy
//! behind a micro-mutex, the std-only stand-in for an atomic `Arc` swap)
//! and answer from it: they never take the engine lock, never block
//! ingest, and never block each other.
//!
//! **Durability (`--data-dir`).** With [`ServerOptions::data_dir`] set,
//! every space keeps a write-ahead log ([`fews_engine::wal`]): an ingest
//! batch is appended to the log and applied under the space lock, and the
//! acknowledgement then waits — outside the lock — for an fsync that covers
//! the record (**fsync before ack**), so every acknowledged update survives
//! `kill -9`. The wait is a *group commit* ([`WalSync`]): the first waiter
//! fsyncs once for every record appended before it started, so concurrent
//! batches share a flush instead of paying one each, and a query may
//! observe an applied-but-not-yet-durable batch (its writer simply has not
//! been acknowledged yet). Once a space's log
//! passes [`ServerOptions::compact_bytes`], the server checkpoints the
//! engine into a space-tagged envelope, atomically replaces
//! `checkpoint.fck`, and resets the log. Startup recovers every space found
//! under the data dir: restore the checkpoint, replay the log tail beyond
//! its envelope watermark ([`Server::recovery_log`] reports what happened).
//! Graceful shutdown (client `shutdown` request or [`Server::shutdown`])
//! writes a final compacted checkpoint per space; [`Server::crash`] skips
//! that finalization to simulate a hard kill in tests.
//!
//! **Freshness contract (bounded staleness + watermarks).** An ingest ack
//! carries a *watermark*: the space's ingest sequence number after the
//! batch (its WAL sequence number under durability, so watermarks stay
//! meaningful across a restart). Queries carry a
//! [`crate::proto::ReadMode`]: the default `AtLeast(watermark)` blocks
//! until the refresher has published a snapshot covering that watermark —
//! read-your-writes for everything the client has been acked, with
//! [`ErrorCode::WatermarkTimeout`] if the refresher cannot catch up in
//! time — while `Stale` answers immediately from the latest published
//! snapshot, which may trail ingest by a publish interval. Every published
//! snapshot is a consistent point-in-time prefix of the stream, never a
//! torn one: the watermark is captured under the same lock as the apply,
//! and the refresher's barrier covers every apply at or below it. Once
//! ingest has quiesced and the refresher has caught up, every query answer
//! is byte-identical to the single-threaded reference
//! (`tests/tests/net_stress.rs`, `tests/tests/freshness.rs`). (`stats`
//! counters are publish-consistent; its uptime field reports real elapsed
//! time since the space started serving.)
//!
//! Ingest requests are validated *before* any update reaches the engine
//! (vertex ranges as [`ErrorCode::BadUpdate`], deletions into an
//! insertion-only space as [`ErrorCode::ModelMismatch`], quota exhaustion
//! as [`ErrorCode::QuotaExceeded`]), so a hostile or buggy client can never
//! panic a shard worker — every rejection is an error frame and the
//! connection keeps serving. Header-level damage (truncated frame,
//! oversized declared length, non-frame garbage) closes the offending
//! connection after a best-effort error frame; the acceptor and every other
//! connection are unaffected.

use crate::proto::{
    check_frame_len, ErrorCode, FrameError, ReadMode, Request, Response, ScopedQuery, WireNodeInfo,
    WireShardStats, WireSpaceInfo, WireStats, WireView,
};
use fews_common::{SpaceConfig, SpaceId};
use fews_engine::checkpoint::{unwrap_envelope, wrap_envelope};
use fews_engine::wal::{wal_path, SpaceDir, Wal, WalHandle};
use fews_engine::{partition_of, Engine, EngineConfig, EngineStats, GlobalView, ModelSpec};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection worker blocks in `read` before re-checking the
/// shutdown flag. Bounds how late a worker can notice server shutdown.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Upper bound on one response write. A peer that requests a large reply
/// and then never drains its socket would otherwise pin its worker in
/// `write_all` forever — and with it the acceptor's shutdown join.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Once a frame's first byte arrives, the rest of it (header and payload)
/// must land within this deadline. A slowloris peer trickling one byte per
/// poll interval would otherwise hold a worker — and, under
/// [`ServerOptions::max_conns`], a connection slot — forever. Idle time
/// *between* frames is unbounded: a quiet, well-formed connection is cheap.
const FRAME_DEADLINE: Duration = Duration::from_secs(30);

/// Base unit of the `retry_after_ms` hint on shed requests; scaled by how
/// far past its budget the space is, so harder overload spreads retries
/// over a wider window.
const RETRY_BASE_MS: u64 = 50;

/// Retry hint handed to connections shed at accept time.
const CONN_RETRY_MS: u64 = 200;

/// Upper bound on a watermarked query's wait for the refresher to catch
/// up. Normally the refresher publishes within a millisecond of ingest, so
/// this only fires if a client presents a watermark the server never acked
/// (or a publish is pathologically stalled) — the reply is a typed
/// [`ErrorCode::WatermarkTimeout`], never a hang.
const WATERMARK_WAIT: Duration = Duration::from_secs(10);

/// How long the refresher sleeps between registry sweeps when nobody has
/// signalled new ingest. A safety net only: ingest signals the refresher
/// directly, so the steady-state publish lag is the sweep cost, not this.
const REFRESH_IDLE: Duration = Duration::from_millis(50);

/// Sweeps cheaper than this don't trigger pacing — insert-only views and
/// near-idle spaces republish as fast as the doorbell rings.
const REFRESH_PACE_FLOOR: Duration = Duration::from_micros(500);

/// Upper bound on the pacing sleep after an expensive sweep. Together with
/// [`REFRESH_PACE_FLOOR`] this bounds watermarked-read latency at roughly
/// `sweep + REFRESH_PACE_CAP` even when view rebuilds are slow.
const REFRESH_PACE_CAP: Duration = Duration::from_millis(100);

/// Overload-protection budgets. Every limit defaults to `0` = *off* — the
/// historic accept-everything behaviour; `fews listen` and the stress
/// harnesses opt in.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverloadLimits {
    /// Per-space cap on updates admitted to the ingest path and not yet
    /// acknowledged. A batch that arrives with the budget exhausted is shed
    /// with [`ErrorCode::Overloaded`] *before* it touches the WAL — nothing
    /// was applied, so the client may retry blindly after the hint.
    pub inflight_updates: u64,
    /// Per-space cap on in-flight ingest payload bytes (same shedding).
    pub inflight_bytes: u64,
    /// Shed `AtLeast` queries once the published snapshot trails the acked
    /// watermark by more than this many WAL records (batches): under that
    /// much refresher lag a watermarked read would only stack condvar
    /// waiters, so it fails fast with a retry hint while `?stale` reads
    /// keep answering from the snapshot that *is* published.
    pub lag_budget: u64,
}

/// Serving options beyond the engine config and bind address.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Root of the durability tree (one subdirectory per space). `None`
    /// serves from memory only — no WAL, no recovery, v1-era behaviour.
    pub data_dir: Option<PathBuf>,
    /// Compact a space's write-ahead log once it reaches this many bytes.
    pub compact_bytes: u64,
    /// Artificial delay the refresher inserts before every publish sweep.
    /// `None` (the default) publishes as fast as ingest signals. Tests set
    /// this to simulate a slow refresher and prove watermarked reads still
    /// never observe a torn or early view.
    pub refresh_debounce: Option<Duration>,
    /// Cap on concurrent connections (0 = unlimited). Connections past the
    /// cap are shed *at accept time* with a best-effort typed
    /// [`ErrorCode::Overloaded`] frame instead of being left to rot in the
    /// SYN queue.
    pub max_conns: usize,
    /// Ingest admission and query-shedding budgets.
    pub limits: OverloadLimits,
    /// Storage fault lab: a seeded plan consulted by every WAL flush/fsync
    /// and checkpoint replace ([`fews_engine::diskfault::DiskFaultPlan`]).
    /// `None` (the default) runs the real disk untouched.
    pub disk_faults: Option<Arc<fews_engine::diskfault::DiskFaultPlan>>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            data_dir: None,
            compact_bytes: 8 << 20,
            refresh_debounce: None,
            max_conns: 0,
            limits: OverloadLimits::default(),
            disk_faults: None,
        }
    }
}

/// One consistent point-in-time snapshot: the global query view plus the
/// engine counters gathered in the same barrier.
struct Published {
    view: Arc<GlobalView>,
    stats: EngineStats,
    /// Monotonic publish counter — the *epoch* a cluster router stores
    /// with a pulled view. It counts publishes, not updates, so
    /// `version == since` proves the view the router already holds is
    /// still exact.
    version: u64,
    /// The space's ingest sequence number this snapshot covers: every
    /// batch acked with a watermark ≤ this value is visible in `view`.
    watermark: u64,
    /// When this snapshot was installed — the age of the published view,
    /// and (while ingest is ahead of it) the refresher's current lag.
    at: Instant,
}

impl Published {
    fn space_bytes(&self) -> u64 {
        self.stats.shards.iter().map(|s| s.space_bytes as u64).sum()
    }
}

/// The mutable half of a space: its engine, plus the sequence number of the
/// last WAL record applied to it — the watermark a compaction checkpoint
/// records so replay is exactly-once. Log-append and engine-apply happen
/// under this one lock, so the log order and the engine order of a space can
/// never disagree.
struct SpaceState {
    engine: Engine,
    /// Sequence number of this space's most recent WAL record (0 = none).
    last_seq: u64,
    /// The watermark acked to ingest clients: bumped under this lock with
    /// every applied batch. Under durability it rides the WAL sequence
    /// number (monotonic across restarts — recovery re-seeds it from the
    /// replay watermark, so pre-restart watermarks stay satisfiable);
    /// in memory-only mode it is a plain batch counter.
    ingest_seq: u64,
}

/// A batch's durability target: it may be acknowledged once the log of
/// `epoch` is fsynced through byte `target` (or the epoch has been closed by
/// a compaction, whose checkpoint is fsynced by construction).
#[derive(Clone, Copy)]
struct SyncTicket {
    epoch: u64,
    target: u64,
}

/// Group-commit coordination for the server's shared WAL.
///
/// Appends happen under the space state lock (which fixes the log order and
/// the matching engine-apply order), but the fsync that makes them
/// acknowledgeable happens *here*, outside that lock: the first waiter
/// becomes the sync leader, fsyncs once, and that single fsync covers every
/// record appended before it started — concurrent batches share the flush
/// instead of paying one fsync each, and the space keeps ingesting while the
/// disk works.
#[derive(Default)]
struct WalSync {
    point: Mutex<SyncPoint>,
    cv: Condvar,
}

#[derive(Default)]
struct SyncPoint {
    /// Bumped by every log reset (compaction). Tickets from closed epochs
    /// are durable via the fsynced checkpoint that closed them.
    epoch: u64,
    /// Bytes of the current epoch's log known appended.
    appended: u64,
    /// Bytes of the current epoch's log covered by a completed fsync.
    synced: u64,
    /// A leader's fsync is in flight.
    syncing: bool,
    /// Ingest workers that have announced an append ([`WalSync::begin_append`])
    /// but not yet registered it: their records are an apply away, so a
    /// scooping leader holds its fsync for them.
    appenders: u32,
    /// How many registers the most recent completed fsync covered — the
    /// leader's evidence of concurrency when deciding whether a grace hold
    /// is worth it.
    prev_group: u64,
    /// Appends registered since the log was opened (monotonic).
    registers: u64,
    /// Value of `registers` when the last fsync's coverage was snapshotted.
    r_mark: u64,
    /// An fsync failed: the log can no longer vouch for anything, so every
    /// present and future durability wait on this space fails.
    poisoned: bool,
}

impl WalSync {
    fn poisoned(&self) -> bool {
        self.point.lock().expect("wal sync point").poisoned
    }

    /// An ingest worker is about to take the space lock and append. The
    /// announcement is what lets a group-commit leader *scoop*: it holds
    /// its fsync until every announced appender has registered, so the
    /// whole concurrent wave shares one flush instead of paying one each.
    fn begin_append(&self) {
        let mut p = self.point.lock().expect("wal sync point");
        p.appenders += 1;
        if p.syncing {
            // Wake a leader in its grace hold: the wave it held for is here.
            self.cv.notify_all();
        }
    }

    /// The announced append is not going to happen (validation under the
    /// lock failed): release any leader waiting on it.
    fn abort_append(&self) {
        let mut p = self.point.lock().expect("wal sync point");
        p.appenders = p.appenders.saturating_sub(1);
        if p.syncing {
            self.cv.notify_all();
        }
    }

    /// Record an append at log length `target` and hand back its ticket.
    fn register(&self, target: u64) -> SyncTicket {
        let mut p = self.point.lock().expect("wal sync point");
        p.appenders = p.appenders.saturating_sub(1);
        p.registers += 1;
        p.appended = p.appended.max(target);
        if p.syncing {
            self.cv.notify_all();
        }
        SyncTicket {
            epoch: p.epoch,
            target,
        }
    }

    /// A compaction durably checkpointed everything logged so far and reset
    /// the log: close the epoch and release every waiter on it.
    fn close_epoch(&self) {
        let mut p = self.point.lock().expect("wal sync point");
        p.epoch += 1;
        p.appended = 0;
        p.synced = 0;
        self.cv.notify_all();
    }

    /// Block until `ticket` is durable, flushing and fsyncing the log (as
    /// group leader) if nobody else is. A flush or fsync failure poisons the
    /// space.
    fn wait_durable(&self, wal: &WalHandle, ticket: SyncTicket) -> std::io::Result<()> {
        let mut p = self.point.lock().expect("wal sync point");
        loop {
            if p.poisoned {
                return Err(std::io::Error::other(
                    "write-ahead log fsync failed earlier",
                ));
            }
            if p.epoch != ticket.epoch || p.synced >= ticket.target {
                return Ok(());
            }
            if p.syncing {
                p = self.cv.wait(p).expect("wal sync point");
                continue;
            }
            // Leader: one flush + fsync covers everything appended up to
            // here. The flush is a page-cache write under the log's own
            // buffer lock — the space state lock is never touched, so the
            // engine keeps applying batches while the disk works — and the
            // fsync, the expensive part, runs with no lock held at all.
            p.syncing = true;
            let epoch = p.epoch;
            // Scoop the wave: every appender that announced itself is
            // mid-apply under the space lock, one register-notify away.
            // Waiting for the count to drain means a single fsync covers
            // the whole wave — and runs on an otherwise idle ack path. The
            // wait is event-driven (no polling); the round cap and timeout
            // keep a slow or stuck appender from stalling acknowledged
            // batches behind it.
            const SCOOP_WAIT: Duration = Duration::from_millis(2);
            const SCOOP_ROUNDS: u32 = 8;
            let mut rounds = 0;
            while p.appenders > 1 && p.epoch == epoch && rounds < SCOOP_ROUNDS {
                let (q, timeout) = self.cv.wait_timeout(p, SCOOP_WAIT).expect("wal sync point");
                p = q;
                if timeout.timed_out() {
                    break;
                }
                rounds += 1;
            }
            // Grace hold: nobody is announced, but the previous fsync
            // covered a wave — its acks are in flight and the next wave is
            // about an RTT away. Holding one beat merges this record into
            // that wave instead of buying it a private fsync; with a single
            // steady client the previous group is 1 and the hold never
            // happens, so an unconcurrent stream pays nothing.
            const GRACE_WAIT: Duration = Duration::from_micros(750);
            if p.appenders == 0 && p.prev_group >= 2 && p.epoch == epoch {
                let (q, _) = self.cv.wait_timeout(p, GRACE_WAIT).expect("wal sync point");
                p = q;
                rounds = 0;
                while p.appenders > 1 && p.epoch == epoch && rounds < SCOOP_ROUNDS {
                    let (q, timeout) = self.cv.wait_timeout(p, SCOOP_WAIT).expect("wal sync point");
                    p = q;
                    if timeout.timed_out() {
                        break;
                    }
                    rounds += 1;
                }
            }
            let covered = p.appended;
            p.prev_group = p.registers - p.r_mark;
            p.r_mark = p.registers;
            drop(p);
            let result = wal.sync();
            p = self.point.lock().expect("wal sync point");
            p.syncing = false;
            match result {
                Ok(()) => {
                    if p.epoch == epoch {
                        p.synced = p.synced.max(covered);
                    }
                    self.cv.notify_all();
                }
                Err(e) => {
                    p.poisoned = true;
                    self.cv.notify_all();
                    return Err(e);
                }
            }
        }
    }
}

/// A space's live load picture: the in-flight admission gauges and the
/// overload counters `stats` reports. All lock-free — the admission check
/// sits on the hot ingest path and the shed paths must stay cheap when the
/// server is busiest.
#[derive(Default)]
struct SpaceLoad {
    /// Updates admitted to the ingest path and not yet released.
    inflight_updates: AtomicU64,
    /// Approximate payload bytes admitted and not yet released.
    inflight_bytes: AtomicU64,
    /// Ingest batches shed with [`ErrorCode::Overloaded`] (monotone).
    shed_ingest: AtomicU64,
    /// Watermarked queries shed for refresher lag (monotone).
    shed_reads: AtomicU64,
    /// Lock-free mirror of the space's acked ingest watermark, for lag
    /// probes that must not touch the state lock.
    acked_seq: AtomicU64,
}

/// An admission ticket: the in-flight budget it holds is released exactly
/// once, on drop — whichever of the ingest arm's many exit paths runs
/// (validation failure, WAL poison, fsync error, clean ack), the gauges
/// come back down. That structural guarantee is what the budget-leak
/// proptest pins.
struct Admitted<'a> {
    load: &'a SpaceLoad,
    updates: u64,
    bytes: u64,
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.load
            .inflight_updates
            .fetch_sub(self.updates, Ordering::SeqCst);
        self.load
            .inflight_bytes
            .fetch_sub(self.bytes, Ordering::SeqCst);
    }
}

impl SpaceLoad {
    /// Admit `updates`/`bytes` of ingest against the budget, or return the
    /// `retry_after_ms` hint to shed with. A batch is only rejected when
    /// *other* work is in flight — a lone batch bigger than the whole
    /// budget still admits (the budget bounds concurrency, not batch size;
    /// frames already cap the latter).
    fn admit<'a>(
        &'a self,
        updates: u64,
        bytes: u64,
        limits: &OverloadLimits,
    ) -> Result<Admitted<'a>, u64> {
        let u = self.inflight_updates.fetch_add(updates, Ordering::SeqCst) + updates;
        let b = self.inflight_bytes.fetch_add(bytes, Ordering::SeqCst) + bytes;
        let over_u = limits.inflight_updates > 0 && u > limits.inflight_updates && u > updates;
        let over_b = limits.inflight_bytes > 0 && b > limits.inflight_bytes && b > bytes;
        if over_u || over_b {
            self.inflight_updates.fetch_sub(updates, Ordering::SeqCst);
            self.inflight_bytes.fetch_sub(bytes, Ordering::SeqCst);
            self.shed_ingest.fetch_add(1, Ordering::SeqCst);
            // Scale the hint with how far past budget the space is: deeper
            // overload spreads the retry wave over a wider window.
            let pressure = if over_u {
                u / limits.inflight_updates.max(1)
            } else {
                b / limits.inflight_bytes.max(1)
            };
            return Err(RETRY_BASE_MS.saturating_mul(pressure.clamp(1, 10)));
        }
        Ok(Admitted {
            load: self,
            updates,
            bytes,
        })
    }
}

/// A space's cluster assignment, as its router last set it.
#[derive(Default)]
struct Slice {
    /// The assigned partitions, ascending (`None` = never assigned). Bounds
    /// what [`Request::ViewPull`] ships (unassigned: every partition) and
    /// what [`Request::ScopedQuery`] may ask about (unassigned: nothing). A
    /// [`Request::SliceRestore`] empties it until the router's closing
    /// [`Request::SliceAssign`]: mid-handoff the space answers for nothing.
    parts: Option<Vec<u32>>,
    /// Bumped by every restore and assignment. A scoped read that sees it
    /// change while it waits for its snapshot raced a handoff and is
    /// refused, so the router fails it over instead of taking the
    /// checkpoint-only state the restore published.
    generation: u64,
    /// The ingest watermark at the last assignment. The router replays the
    /// slice's retained log before assigning it, so scoped reads — `?stale`
    /// ones too — answer only from snapshots that cover the replay.
    floor: u64,
}

/// Everything the server knows about one live space.
struct SpaceHandle {
    space: SpaceId,
    /// Authoritative model parameters, including the quota.
    spec: SpaceConfig,
    /// The engine config actually serving (spec + runtime shape).
    cfg: EngineConfig,
    /// The space's durability directory, when the server has one.
    dir: Option<SpaceDir>,
    state: Mutex<SpaceState>,
    /// The latest [`Published`] snapshot. The mutex guards a pointer
    /// clone/swap only — it is never held across engine or network work, so
    /// query connections scale with cores instead of serializing.
    published: Mutex<Arc<Published>>,
    /// Signalled on every publish; watermarked queries wait here until the
    /// published watermark covers their request.
    publish_cv: Condvar,
    /// When this space started serving — the live uptime `stats` reports.
    started: Instant,
    /// Bytes this space has appended to the shared WAL since its last
    /// checkpoint — the lock-free stats mirror of its share of the log.
    wal_bytes: AtomicU64,
    /// The partition slice a cluster router assigned to this space.
    slice: Mutex<Slice>,
    /// In-flight admission gauges and shed counters.
    load: SpaceLoad,
}

impl SpaceHandle {
    fn new(
        space: SpaceId,
        spec: SpaceConfig,
        cfg: EngineConfig,
        dir: Option<SpaceDir>,
        mut state: SpaceState,
    ) -> Arc<SpaceHandle> {
        let (view, stats) = state.engine.refresh();
        let watermark = state.ingest_seq;
        let load = SpaceLoad::default();
        load.acked_seq.store(watermark, Ordering::SeqCst);
        Arc::new(SpaceHandle {
            space,
            spec,
            cfg,
            dir,
            state: Mutex::new(state),
            published: Mutex::new(Arc::new(Published {
                view,
                stats,
                version: 1,
                watermark,
                at: Instant::now(),
            })),
            publish_cv: Condvar::new(),
            started: Instant::now(),
            wal_bytes: AtomicU64::new(0),
            slice: Mutex::default(),
            load,
        })
    }

    /// Swap in a fresh snapshot from the engine and wake watermark waiters
    /// (caller holds the state lock, so the watermark captured here covers
    /// exactly the applies ordered before it).
    fn publish_state(&self, state: &mut SpaceState) {
        let watermark = state.ingest_seq;
        let (view, stats) = state.engine.refresh();
        self.publish(view, stats, watermark);
    }

    /// Install `(view, stats)` as the published snapshot at `watermark` and
    /// wake watermark waiters. The published watermark never regresses: a
    /// barrier that raced an inline publish (restore) installs its view but
    /// keeps the higher coverage claim, so `wait_published` stays monotone.
    fn publish(&self, view: Arc<GlobalView>, stats: EngineStats, watermark: u64) {
        let mut slot = self.published.lock().expect("published slot");
        let version = slot.version + 1;
        let watermark = watermark.max(slot.watermark);
        *slot = Arc::new(Published {
            view,
            stats,
            version,
            watermark,
            at: Instant::now(),
        });
        drop(slot);
        self.publish_cv.notify_all();
    }

    /// The latest snapshot — the whole query-path synchronization cost.
    fn snapshot(&self) -> Arc<Published> {
        Arc::clone(&self.published.lock().expect("published slot"))
    }

    /// The watermark the latest snapshot covers.
    fn published_watermark(&self) -> u64 {
        self.published.lock().expect("published slot").watermark
    }

    /// Block until a published snapshot covers `want` (read-your-writes
    /// for a client holding that ack watermark), or `Err` after `timeout`.
    fn wait_published(&self, want: u64, timeout: Duration) -> Result<Arc<Published>, ()> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.published.lock().expect("published slot");
        loop {
            if slot.watermark >= want {
                return Ok(Arc::clone(&slot));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(());
            }
            let (s, _) = self
                .publish_cv
                .wait_timeout(slot, deadline - now)
                .expect("published slot");
            slot = s;
        }
    }

    /// Durably checkpoint this space at its current applied watermark. Part
    /// of compaction and of restore-persistence; the caller holds the state
    /// lock.
    fn write_checkpoint(&self, state: &mut SpaceState) -> std::io::Result<()> {
        let Some(dir) = self.dir.as_ref() else {
            return Ok(());
        };
        let inner = state.engine.checkpoint();
        let envelope = wrap_envelope(self.space.as_str(), state.last_seq, &inner);
        dir.write_checkpoint(&envelope)
    }
}

/// Stop-the-world compaction of the shared log: checkpoint every space at
/// its applied watermark, then reset the log and release every group-commit
/// waiter (the checkpoints just written cover their records). The caller
/// holds the registry lock (read or write) and the compaction gate; every
/// space lock is taken, in name order, for the duration — no append may land
/// between a space's checkpoint and the reset, or it would vanish with it.
/// On failure the log simply keeps growing — correctness does not depend on
/// compaction succeeding, only on append's fsync.
fn compact_spaces(wal: &Wal, sync: &WalSync, spaces: &SpaceRegistry) -> std::io::Result<()> {
    let mut handles: Vec<&Arc<SpaceHandle>> = spaces.values().collect();
    handles.sort_by(|a, b| a.space.cmp(&b.space));
    let mut states = Vec::with_capacity(handles.len());
    for h in &handles {
        states.push(h.state.lock().expect("space state"));
    }
    for (h, st) in handles.iter().zip(states.iter_mut()) {
        h.write_checkpoint(st)?;
    }
    wal.reset()?;
    sync.close_epoch();
    for h in &handles {
        h.wal_bytes.store(0, Ordering::Relaxed);
    }
    Ok(())
}

/// The server's space roster, keyed by name.
type SpaceRegistry = HashMap<SpaceId, Arc<SpaceHandle>>;

/// Ingest-to-refresher doorbell. Ingest workers ring it (a counter bump +
/// notify) after applying a batch; the refresher sleeps on it between
/// sweeps, so publish lag is one condvar wakeup, not a poll interval.
#[derive(Default)]
struct RefreshSignal {
    rung: Mutex<u64>,
    cv: Condvar,
}

impl RefreshSignal {
    fn ring(&self) {
        *self.rung.lock().expect("refresh signal") += 1;
        self.cv.notify_all();
    }

    /// Wait until the bell has been rung past `seen` (or the idle timeout
    /// elapses, as a safety net) and return the new count.
    fn wait(&self, seen: u64) -> u64 {
        let mut rung = self.rung.lock().expect("refresh signal");
        if *rung == seen {
            let (r, _) = self
                .cv
                .wait_timeout(rung, REFRESH_IDLE)
                .expect("refresh signal");
            rung = r;
        }
        *rung
    }
}

struct Shared {
    spaces: RwLock<SpaceRegistry>,
    /// The default space's engine config — also the template (seed, runtime
    /// shape) for created spaces.
    base: EngineConfig,
    data_dir: Option<PathBuf>,
    /// The server-wide write-ahead log, shared by every space (`None`
    /// without a data dir). Sharing one log is what makes group commit
    /// multi-tenant: concurrent batches ride one fsync whatever space they
    /// address.
    wal: Option<Wal>,
    /// Group-commit barrier for the shared log.
    sync: WalSync,
    /// Held by whichever thread is running a compaction; `try_lock` keeps
    /// ingest workers from piling up behind one.
    compact_gate: Mutex<()>,
    compact_bytes: u64,
    /// Doorbell from ingest workers to the refresher thread.
    refresh: RefreshSignal,
    /// Test-only publish delay ([`ServerOptions::refresh_debounce`]).
    refresh_debounce: Option<Duration>,
    /// Overload budgets ([`ServerOptions::limits`]).
    limits: OverloadLimits,
    /// Connection cap ([`ServerOptions::max_conns`]; 0 = unlimited).
    max_conns: usize,
    /// Live connection workers.
    conns: AtomicU64,
    /// Connections shed at accept time (monotone, server-wide).
    shed_conns: AtomicU64,
    /// Storage fault lab ([`ServerOptions::disk_faults`]), attached to
    /// every created space's checkpoint writer.
    disk_faults: Option<Arc<fews_engine::diskfault::DiskFaultPlan>>,
    shutdown: AtomicBool,
    /// Set by [`Server::crash`]: skip graceful finalization on join.
    crash: AtomicBool,
}

impl Shared {
    fn space(&self, id: &SpaceId) -> Option<Arc<SpaceHandle>> {
        self.spaces.read().expect("space registry").get(id).cloned()
    }
}

/// A running `fews-net` server. Dropping it (or calling [`Server::join`]
/// after a client sent [`Request::Shutdown`]) tears everything down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    refresher: Option<JoinHandle<()>>,
    recovery_log: Vec<String>,
    finalized: bool,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), start the
    /// default space's engine and the acceptor thread, and return the
    /// running server. Serves from memory only — see [`Server::start_with`]
    /// for durability.
    pub fn start(cfg: EngineConfig, addr: &str) -> std::io::Result<Server> {
        Self::start_with(cfg, addr, ServerOptions::default())
    }

    /// [`Server::start`] with explicit [`ServerOptions`]. With a data dir,
    /// every space found on disk is recovered (checkpoint restore + WAL
    /// tail replay) before the listener accepts its first connection, and
    /// the default space is created on disk if absent. Refuses to start
    /// (`InvalidInput`) if the on-disk default space was created with a
    /// different config or seed than `cfg` — silently serving a different
    /// model than the flags asked for would corrupt both.
    pub fn start_with(
        cfg: EngineConfig,
        addr: &str,
        opts: ServerOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let mut recovery_log = Vec::new();
        let (spaces, wal) = build_spaces(cfg, &opts, &mut recovery_log)?;
        let shared = Arc::new(Shared {
            spaces: RwLock::new(spaces),
            base: cfg,
            data_dir: opts.data_dir,
            wal,
            sync: WalSync::default(),
            compact_gate: Mutex::new(()),
            compact_bytes: opts.compact_bytes.max(1),
            refresh: RefreshSignal::default(),
            refresh_debounce: opts.refresh_debounce,
            limits: opts.limits,
            max_conns: opts.max_conns,
            conns: AtomicU64::new(0),
            shed_conns: AtomicU64::new(0),
            disk_faults: opts.disk_faults,
            shutdown: AtomicBool::new(false),
            crash: AtomicBool::new(false),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fews-net-acceptor".into())
                .spawn(move || run_acceptor(listener, shared))
                .expect("spawn acceptor")
        };
        let refresher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fews-net-refresher".into())
                .spawn(move || run_refresher(shared))
                .expect("spawn refresher")
        };
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            refresher: Some(refresher),
            recovery_log,
            finalized: false,
        })
    }

    /// The address the server actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// What startup recovery did, one line per recovered space (empty when
    /// the server started without a data dir or with a fresh one).
    pub fn recovery_log(&self) -> &[String] {
        &self.recovery_log
    }

    /// Whether a shutdown request has been received.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Request shutdown from the owning side (equivalent to a client's
    /// [`Request::Shutdown`], minus the response frame).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept, and the refresher
        // out of its doorbell wait.
        let _ = TcpStream::connect(self.addr);
        self.shared.refresh.ring();
    }

    /// Shut down *without* graceful finalization — no final checkpoint, the
    /// WAL left exactly as the last acknowledged batch wrote it. This is the
    /// in-process stand-in for `kill -9`, letting recovery tests exercise
    /// real crash states deterministically.
    pub fn crash(&self) {
        self.shared.crash.store(true, Ordering::SeqCst);
        self.shutdown();
    }

    /// Block until the server has shut down (acceptor and every connection
    /// worker joined). Returns the number of updates ingested over the
    /// server's lifetime, across all spaces.
    pub fn join(mut self) -> u64 {
        self.join_inner()
    }

    fn join_inner(&mut self) -> u64 {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.refresh.ring();
        if let Some(handle) = self.refresher.take() {
            let _ = handle.join();
        }
        let spaces: Vec<Arc<SpaceHandle>> = {
            let registry = self.shared.spaces.read().expect("space registry");
            registry.values().cloned().collect()
        };
        // Graceful shutdown flushes every space to a compacted checkpoint
        // and resets the log — unless this was a simulated crash, whose
        // entire point is to leave the disk mid-flight. Runs once even if
        // join is re-entered via Drop.
        if !self.finalized && !self.shared.crash.load(Ordering::SeqCst) {
            self.finalized = true;
            if let Some(wal) = &self.shared.wal {
                let registry = self.shared.spaces.read().expect("space registry");
                let _gate = self.shared.compact_gate.lock().expect("compaction gate");
                let _ = compact_spaces(wal, &self.shared.sync, &registry);
            }
        }
        spaces
            .iter()
            .map(|h| h.state.lock().expect("space state").engine.stats().ingested)
            .sum()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shutdown();
            self.join_inner();
        }
    }
}

/// The engine config for a (non-default) space: its model and partitions
/// from the spec, runtime shape (shards, batch, queue depth) inherited from
/// the server's base config.
fn space_engine_cfg(base: &EngineConfig, spec: &SpaceConfig, seed: u64) -> EngineConfig {
    EngineConfig::from_space(spec, seed)
        .with_shards(base.shards)
        .with_batch(base.batch)
        .with_queue_depth(base.queue_depth)
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg)
}

/// Restore one space from its durability directory: the checkpoint envelope
/// if present, otherwise a fresh engine. Returns the state with its replay
/// watermark in `last_seq`; the shared WAL tail is replayed by the caller.
fn restore_space(
    space: &SpaceId,
    cfg: EngineConfig,
    dir: &SpaceDir,
) -> std::io::Result<(SpaceState, bool)> {
    let mut engine = Engine::start(cfg);
    let mut applied_seq = 0u64;
    let mut restored = false;
    if let Some(envelope) = dir.read_checkpoint()? {
        let env = unwrap_envelope(&envelope)
            .map_err(|e| invalid(format!("space {space}: checkpoint envelope: {e}")))?;
        if env.space != space.as_str() {
            return Err(invalid(format!(
                "space {space}: checkpoint envelope is tagged for space '{}'",
                env.space
            )));
        }
        engine
            .restore_checkpoint(&envelope)
            .map_err(|e| invalid(format!("space {space}: checkpoint restore: {e}")))?;
        applied_seq = env.wal_seq;
        restored = true;
    }
    Ok((
        SpaceState {
            engine,
            last_seq: applied_seq,
            // Re-seed the ack watermark from the replay watermark: every
            // batch acked before the restart carried a WAL sequence ≤ this,
            // so surviving clients' watermarks stay satisfiable.
            ingest_seq: applied_seq,
        },
        restored,
    ))
}

/// Build the startup space registry: just the default space in memory-only
/// mode; otherwise the default space plus every space recovered from disk
/// (checkpoint restore, then one demultiplexed replay of the shared WAL
/// tail, then a startup compaction so the next boot replays nothing).
fn build_spaces(
    base: EngineConfig,
    opts: &ServerOptions,
    log: &mut Vec<String>,
) -> std::io::Result<(SpaceRegistry, Option<Wal>)> {
    let mut spaces = HashMap::new();
    let default = SpaceId::default_space();
    let Some(data_dir) = &opts.data_dir else {
        let state = SpaceState {
            engine: Engine::start(base),
            last_seq: 0,
            ingest_seq: 0,
        };
        spaces.insert(
            default.clone(),
            SpaceHandle::new(default, base.to_space(0), base, None, state),
        );
        return Ok((spaces, None));
    };
    std::fs::create_dir_all(data_dir)?;
    // The default space's model comes from the serve flags; the data dir
    // must agree with them or the stream would be fed into the wrong model.
    let default_dir = SpaceDir::new(data_dir, &default).with_faults(opts.disk_faults.clone());
    let default_spec = if default_dir.exists() {
        let (stored, seed) = default_dir.load_config()?;
        if seed != base.seed || stored != base.to_space(stored.quota_bytes) {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                format!(
                    "data dir {} was initialised with a different default-space \
                     config or seed than the current flags",
                    data_dir.display()
                ),
            ));
        }
        stored
    } else {
        let spec = base.to_space(0);
        default_dir.init(&spec, base.seed)?;
        spec
    };
    // Pass 1: restore every space's checkpoint (or start it fresh). The
    // `Option<u64>` is the checkpoint's own watermark, for the log line.
    let mut restored: Vec<(
        SpaceId,
        SpaceConfig,
        EngineConfig,
        SpaceDir,
        SpaceState,
        Option<u64>,
    )> = Vec::new();
    for space in SpaceDir::list_spaces(data_dir)? {
        let dir = SpaceDir::new(data_dir, &space).with_faults(opts.disk_faults.clone());
        let (spec, cfg) = if space.is_default() {
            (default_spec, base)
        } else {
            let (spec, seed) = dir.load_config()?;
            spec.validate()
                .map_err(|e| invalid(format!("space {space}: stored config: {e}")))?;
            (spec, space_engine_cfg(&base, &spec, seed))
        };
        let (state, from_checkpoint) = restore_space(&space, cfg, &dir)?;
        let watermark = from_checkpoint.then_some(state.last_seq);
        restored.push((space, spec, cfg, dir, state, watermark));
    }
    // Pass 2: one scan of the shared log, demultiplexed by space tag. The
    // floor keeps new sequence numbers above every checkpoint watermark.
    let floor = restored.iter().map(|r| r.4.last_seq).max().unwrap_or(0);
    let (wal, recovery) = Wal::open_with(&wal_path(data_dir), floor, opts.disk_faults.clone())?;
    let mut replayed = vec![(0usize, 0usize); restored.len()];
    let mut skipped = 0usize;
    for (seq, name, updates) in &recovery.replay {
        let Some(idx) = restored
            .iter()
            .position(|(space, ..)| space.as_str() == *name)
        else {
            skipped += 1; // debris from a dropped space
            continue;
        };
        let state = &mut restored[idx].4;
        if *seq <= state.last_seq {
            continue; // already inside this space's checkpoint
        }
        replayed[idx].0 += 1;
        replayed[idx].1 += updates.len();
        state.engine.ingest(updates.clone());
        state.last_seq = *seq;
        state.ingest_seq = *seq;
    }
    for (idx, (space, _, _, _, _, watermark)) in restored.iter().enumerate() {
        let (batches, updates) = replayed[idx];
        log.push(format!(
            "space {space}: {} replayed {batches} wal batches ({updates} updates)",
            match watermark {
                Some(seq) => format!("restored checkpoint (seq {seq}),"),
                None => "no checkpoint,".to_string(),
            }
        ));
    }
    if let Some(damage) = recovery.damage {
        log.push(format!("wal: discarded damaged tail: {damage}"));
    }
    if skipped > 0 {
        log.push(format!("wal: skipped {skipped} records of dropped spaces"));
    }
    // Pass 3: startup compaction. Replayed state becomes the checkpoints,
    // the log restarts empty — the next recovery replays nothing, and any
    // dropped-space debris is gone before its name can be reused.
    let had_tail = wal.bytes() > 0;
    for (space, _, _, dir, state, _) in &mut restored {
        if had_tail {
            let inner = state.engine.checkpoint();
            let envelope = wrap_envelope(space.as_str(), state.last_seq, &inner);
            dir.write_checkpoint(&envelope)?;
        }
    }
    if had_tail {
        wal.reset()?;
    }
    for (space, spec, cfg, dir, state, _) in restored {
        spaces.insert(
            space.clone(),
            SpaceHandle::new(space, spec, cfg, Some(dir), state),
        );
    }
    Ok((spaces, Some(wal)))
}

fn run_acceptor(listener: TcpListener, shared: Arc<Shared>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            // Accept failures (e.g. fd exhaustion from too many concurrent
            // connections) tend to persist; back off instead of spinning.
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        // Accept-time shedding: past the connection cap, answer with a
        // typed Overloaded frame and close — the peer learns to back off
        // instead of discovering a dead socket (or a full SYN queue) later.
        if shared.max_conns > 0 && shared.conns.load(Ordering::SeqCst) >= shared.max_conns as u64 {
            shared.shed_conns.fetch_add(1, Ordering::SeqCst);
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = stream.write_all(
                &Response::overloaded(
                    format!("server is at its connection limit ({})", shared.max_conns),
                    CONN_RETRY_MS,
                )
                .encode(),
            );
            continue;
        }
        shared.conns.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("fews-net-conn".into())
            .spawn(move || serve_connection(stream, shared))
            .expect("spawn connection worker");
        workers.push(worker);
        // Reap finished workers so the handle list stays bounded.
        workers.retain(|w| !w.is_finished());
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// The background snapshot refresher: sleep on the ingest doorbell, then
/// sweep the registry and publish every space whose applied state has
/// moved past its published watermark. One thread serves every space — a
/// sweep is O(spaces) lock probes plus O(changes) refresh work, and the
/// doorbell keeps the steady-state publish lag at one condvar wakeup.
fn run_refresher(shared: Arc<Shared>) {
    let mut seen = 0u64;
    loop {
        seen = shared.refresh.wait(seen);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Some(delay) = shared.refresh_debounce {
            std::thread::sleep(delay);
        }
        let pass = Instant::now();
        let handles: Vec<Arc<SpaceHandle>> = {
            let registry = shared.spaces.read().expect("space registry");
            registry.values().cloned().collect()
        };
        for handle in handles {
            // Cheap probe first: skip the state lock entirely when the
            // published snapshot already covers everything applied.
            let published = handle.published_watermark();
            let (barrier, watermark) = {
                let mut state = handle.state.lock().expect("space state");
                if state.ingest_seq <= published {
                    continue;
                }
                (state.engine.refresh_begin(), state.ingest_seq)
            };
            // The expensive part — waiting for every shard to decode and
            // answer the barrier — happens with the state lock RELEASED, so
            // ingest acks keep flowing while the snapshot is being built.
            // Updates applied meanwhile may even make it into the snapshot
            // (the barrier drains whatever each shard has queued), which only
            // widens coverage: `watermark` stays a valid lower bound.
            let done = barrier.wait();
            let (view, stats) = {
                let mut state = handle.state.lock().expect("space state");
                state.engine.refresh_install(done)
            };
            handle.publish(view, stats, watermark);
        }
        // Adaptive pacing: a sweep's cost is the shard time it steals from
        // ingest (every barrier makes the shards re-decode their dirty
        // partitions). Sleeping ~3× the sweep duration caps snapshot
        // rebuilds at roughly a quarter of shard time, so sustained ingest
        // keeps most of the machine while cheap sweeps (insert-only views,
        // idle spaces) still republish near-continuously. The cap bounds
        // watermarked-read latency even when a sweep is pathologically slow.
        let took = pass.elapsed();
        if took > REFRESH_PACE_FLOOR && !shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep((took * 3).min(REFRESH_PACE_CAP));
        }
    }
}

/// What `read_full` observed at a frame boundary.
enum ReadOutcome {
    /// Buffer filled completely.
    Full,
    /// Clean EOF before the first byte — the peer is done.
    CleanEof,
    /// EOF or error partway through — the frame is truncated.
    Truncated,
    /// The server is shutting down.
    ShuttingDown,
    /// The frame's read deadline expired before the buffer filled — a
    /// slowloris peer trickling bytes, or one that wandered off mid-frame.
    DeadlineExpired,
}

/// Fill `buf` from `stream`, tolerating read timeouts (used as a shutdown
/// poll) without ever losing bytes: the fill position survives timeouts.
/// With a `deadline`, the fill must complete before it — the slowloris
/// guard on a started frame; without one, the wait is unbounded (the idle
/// wait between frames).
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shared: &Shared,
    deadline: Option<Instant>,
) -> ReadOutcome {
    let mut filled = 0usize;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::Truncated
                };
            }
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return ReadOutcome::ShuttingDown;
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return ReadOutcome::DeadlineExpired;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Truncated,
        }
    }
    ReadOutcome::Full
}

/// Best-effort error reply; the peer may already be gone.
fn send_error(stream: &mut TcpStream, code: ErrorCode, message: String) {
    let _ = stream.write_all(&Response::error(code, message).encode());
}

fn error_code_for(err: &FrameError) -> ErrorCode {
    match err {
        FrameError::Oversized(_) => ErrorCode::Oversized,
        FrameError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
        FrameError::UnknownTag(_) => ErrorCode::UnknownTag,
        FrameError::Malformed(_) => ErrorCode::Malformed,
    }
}

/// Releases a connection's slot in [`Shared::conns`] however its worker
/// exits.
struct ConnSlot<'a>(&'a Shared);

impl Drop for ConnSlot<'_> {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::SeqCst);
    }
}

fn serve_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _slot = ConnSlot(&shared);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut header = [0u8; 4];
    // Request payloads and response frames are read/encoded into buffers
    // that live for the whole connection — no per-frame allocations on the
    // steady-state path. One outsized frame (checkpoint/restore, up to
    // MAX_FRAME = 64 MiB) must not pin that capacity for the connection's
    // life, so capacities above this are released after the frame.
    const BUF_RETAIN: usize = 1 << 20;
    let mut payload: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    loop {
        if payload.capacity() > BUF_RETAIN {
            payload.shrink_to(BUF_RETAIN);
        }
        if out.capacity() > BUF_RETAIN {
            out.shrink_to(BUF_RETAIN);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Idle wait (unbounded) for a frame's first byte; once it lands,
        // the whole frame — header and payload — must complete within
        // FRAME_DEADLINE, or the connection is closed with a typed error.
        match read_full(&mut stream, &mut header[..1], &shared, None) {
            ReadOutcome::Full => {}
            ReadOutcome::CleanEof | ReadOutcome::ShuttingDown => return,
            ReadOutcome::Truncated | ReadOutcome::DeadlineExpired => return,
        }
        let deadline = Some(Instant::now() + FRAME_DEADLINE);
        match read_full(&mut stream, &mut header[1..], &shared, deadline) {
            ReadOutcome::Full => {}
            ReadOutcome::ShuttingDown => return,
            ReadOutcome::CleanEof | ReadOutcome::Truncated => return,
            ReadOutcome::DeadlineExpired => {
                send_error(
                    &mut stream,
                    ErrorCode::Truncated,
                    format!(
                        "frame header did not complete within {}s",
                        FRAME_DEADLINE.as_secs()
                    ),
                );
                return;
            }
        }
        let declared = u32::from_le_bytes(header) as u64;
        let len = match check_frame_len(declared) {
            Ok(len) => len,
            Err(e) => {
                // Cannot resync a stream with a bogus length: answer, close.
                send_error(&mut stream, ErrorCode::Oversized, e.to_string());
                return;
            }
        };
        payload.clear();
        payload.resize(len, 0);
        match read_full(&mut stream, &mut payload, &shared, deadline) {
            ReadOutcome::Full => {}
            ReadOutcome::ShuttingDown => return,
            ReadOutcome::CleanEof | ReadOutcome::Truncated => {
                send_error(
                    &mut stream,
                    ErrorCode::Truncated,
                    "frame truncated before declared length".into(),
                );
                return;
            }
            ReadOutcome::DeadlineExpired => {
                send_error(
                    &mut stream,
                    ErrorCode::Truncated,
                    format!(
                        "frame payload did not complete within {}s",
                        FRAME_DEADLINE.as_secs()
                    ),
                );
                return;
            }
        }
        // The frame is complete, so any decode failure leaves the stream in
        // sync: report it and keep serving this connection.
        let (space, request) = match Request::decode(&payload) {
            Ok(decoded) => decoded,
            Err(e) => {
                send_error(&mut stream, error_code_for(&e), e.to_string());
                continue;
            }
        };
        let response = handle_request(space, request, &shared);
        let bye = matches!(response, Response::Bye);
        if bye {
            // Commit the shutdown before answering: a peer that dies without
            // reading its Bye must not un-shutdown the server.
            shared.shutdown.store(true, Ordering::SeqCst);
        }
        out.clear();
        response.encode_into(&mut out);
        let write_ok = stream.write_all(&out).is_ok();
        if bye {
            // Wake the acceptor; its own listener address is the only
            // guaranteed-listening endpoint.
            if let Ok(addr) = stream.local_addr() {
                let _ = TcpStream::connect(addr);
            }
            return;
        }
        if !write_ok {
            return;
        }
    }
}

/// Validate an ingest batch against the serving model. Returns the first
/// violation with its wire code; on `Ok` every update is safe to push. A
/// cluster router applies this same check, so a cluster rejects exactly
/// what one node rejects.
pub fn validate_batch(
    cfg: &EngineConfig,
    updates: &[fews_stream::Update],
) -> Result<(), (ErrorCode, String)> {
    match cfg.model {
        ModelSpec::InsertOnly(c) => {
            for u in updates {
                if u.delta < 0 {
                    return Err((
                        ErrorCode::ModelMismatch,
                        format!(
                            "deletion of ({}, {}) into an insertion-only model",
                            u.edge.a, u.edge.b
                        ),
                    ));
                }
                if u.edge.a >= c.n {
                    return Err((
                        ErrorCode::BadUpdate,
                        format!("vertex {} out of range n={}", u.edge.a, c.n),
                    ));
                }
            }
        }
        ModelSpec::InsertDelete(c) => {
            for u in updates {
                if u.edge.a >= c.n {
                    return Err((
                        ErrorCode::BadUpdate,
                        format!("vertex {} out of range n={}", u.edge.a, c.n),
                    ));
                }
                if u.edge.b >= c.m {
                    return Err((
                        ErrorCode::BadUpdate,
                        format!("witness {} out of range m={}", u.edge.b, c.m),
                    ));
                }
            }
        }
    }
    Ok(())
}

fn handle_request(space: SpaceId, request: Request, shared: &Shared) -> Response {
    match request {
        Request::CreateSpace(spec) => create_space(shared, space, spec),
        Request::DropSpace => drop_space(shared, &space),
        Request::ListSpaces => list_spaces(shared),
        Request::Shutdown => Response::Bye,
        // Liveness needs no space: a dead-space probe must still pong.
        Request::Ping => Response::Pong,
        Request::JoinWorker(_) => Response::error(
            ErrorCode::Malformed,
            "join-worker must be addressed to a cluster router, not a worker".into(),
        ),
        request => {
            let Some(handle) = shared.space(&space) else {
                return Response::error(
                    ErrorCode::UnknownSpace,
                    format!("unknown space '{space}'"),
                );
            };
            handle_space_request(&handle, request, shared)
        }
    }
}

fn create_space(shared: &Shared, space: SpaceId, spec: SpaceConfig) -> Response {
    let mut registry = shared.spaces.write().expect("space registry");
    if registry.contains_key(&space) {
        return Response::error(
            ErrorCode::SpaceExists,
            format!("space '{space}' already exists"),
        );
    }
    let seed = space.seed_for(shared.base.seed);
    let cfg = space_engine_cfg(&shared.base, &spec, seed);
    let mut dir = None;
    if let Some(data_dir) = &shared.data_dir {
        let sd = SpaceDir::new(data_dir, &space).with_faults(shared.disk_faults.clone());
        if let Err(e) = sd.init(&spec, seed) {
            // Don't leave a half-initialised directory behind.
            let _ = sd.remove();
            return Response::error(
                ErrorCode::Durability,
                format!("space '{space}' could not be initialised on disk: {e}"),
            );
        }
        dir = Some(sd);
    }
    let state = SpaceState {
        engine: Engine::start(cfg),
        last_seq: 0,
        ingest_seq: 0,
    };
    registry.insert(
        space.clone(),
        SpaceHandle::new(space, spec, cfg, dir, state),
    );
    Response::SpaceOk
}

fn drop_space(shared: &Shared, space: &SpaceId) -> Response {
    if space.is_default() {
        return Response::error(
            ErrorCode::Malformed,
            "the default space cannot be dropped".into(),
        );
    }
    let mut registry = shared.spaces.write().expect("space registry");
    let Some(handle) = registry.remove(space) else {
        return Response::error(ErrorCode::UnknownSpace, format!("unknown space '{space}'"));
    };
    if let Some(dir) = &handle.dir {
        if let Err(e) = dir.remove() {
            return Response::error(
                ErrorCode::Durability,
                format!("space '{space}' dropped but its directory remains: {e}"),
            );
        }
    }
    // The shared log may still hold the dropped space's records. Compact
    // before the registry write lock is released: the survivors are
    // checkpointed, the log resets, and the name can be reused without a
    // crash replaying the old tenant's records into the new one.
    if let Some(wal) = &shared.wal {
        let _gate = shared.compact_gate.lock().expect("compaction gate");
        let _ = compact_spaces(wal, &shared.sync, &registry);
    }
    Response::SpaceOk
}

fn list_spaces(shared: &Shared) -> Response {
    let mut rows: Vec<WireSpaceInfo> = shared
        .spaces
        .read()
        .expect("space registry")
        .values()
        .map(|handle| WireSpaceInfo {
            name: handle.space.as_str().to_string(),
            spec: handle.spec,
            space_bytes: handle.snapshot().space_bytes(),
            wal_bytes: handle.wal_bytes.load(Ordering::Relaxed),
        })
        .collect();
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    Response::Spaces(rows)
}

/// Resolve a query's snapshot under its [`ReadMode`]: the latest published
/// one for `Stale`, or the first one covering the requested watermark for
/// `AtLeast` — with a typed timeout error if the refresher cannot catch up.
/// When the refresher's lag is past the configured budget, `AtLeast`
/// queries shed immediately with [`ErrorCode::Overloaded`] + retry-after
/// instead of stacking condvar waiters behind a snapshot that is many
/// publishes away; `Stale` never sheds — answering from the snapshot that
/// *is* published is the graceful-degradation path.
fn read_snapshot(
    handle: &SpaceHandle,
    mode: &ReadMode,
    limits: &OverloadLimits,
) -> Result<Arc<Published>, Box<Response>> {
    match mode {
        ReadMode::Stale => Ok(handle.snapshot()),
        ReadMode::AtLeast(want) => {
            let snap = handle.snapshot();
            if snap.watermark >= *want {
                return Ok(snap);
            }
            if limits.lag_budget > 0 {
                let acked = handle.load.acked_seq.load(Ordering::SeqCst);
                let lag = acked.saturating_sub(snap.watermark);
                if lag > limits.lag_budget {
                    handle.load.shed_reads.fetch_add(1, Ordering::SeqCst);
                    let hint = RETRY_BASE_MS.saturating_mul((lag / limits.lag_budget).clamp(1, 10));
                    return Err(Box::new(Response::overloaded(
                        format!(
                            "published snapshot trails acked ingest by {lag} records \
                             (lag budget {}); retry after the hint, or read ?stale",
                            limits.lag_budget
                        ),
                        hint,
                    )));
                }
            }
            wait_published(handle, *want)
        }
    }
}

/// [`SpaceHandle::wait_published`] for [`WATERMARK_WAIT`], typed on timeout.
fn wait_published(handle: &SpaceHandle, want: u64) -> Result<Arc<Published>, Box<Response>> {
    handle.wait_published(want, WATERMARK_WAIT).map_err(|()| {
        Box::new(Response::error(
            ErrorCode::WatermarkTimeout,
            format!(
                "published watermark did not reach {want} within {}s \
                 (the write is durable; retry, or read ?stale)",
                WATERMARK_WAIT.as_secs()
            ),
        ))
    })
}

fn handle_space_request(handle: &SpaceHandle, request: Request, shared: &Shared) -> Response {
    match request {
        // State-changing requests: space state lock, WAL-then-apply, then
        // publish-before-ack.
        Request::IngestBatch(updates) => {
            if let Err((code, message)) = validate_batch(&handle.cfg, &updates) {
                return Response::error(code, message);
            }
            // Admission control, *before* the WAL sees a byte: if the
            // space's in-flight budget is exhausted, shed with a typed
            // Overloaded + retry hint. The rejection is determinate —
            // nothing was logged or applied — so clients retry blindly.
            // The ticket rides to the end of the arm; its Drop releases
            // the budget on every exit path below.
            let count = updates.len() as u64;
            let batch_bytes = (updates.len() * std::mem::size_of::<fews_stream::Update>()) as u64;
            let _admitted = match handle.load.admit(count, batch_bytes, &shared.limits) {
                Ok(ticket) => ticket,
                Err(retry_after_ms) => {
                    return Response::overloaded(
                        format!(
                            "space '{}' ingest budget exhausted ({} updates / {} bytes in flight)",
                            handle.space,
                            handle.load.inflight_updates.load(Ordering::SeqCst),
                            handle.load.inflight_bytes.load(Ordering::SeqCst),
                        ),
                        retry_after_ms,
                    );
                }
            };
            // Quota is a soft limit on measured state: admit while under it.
            if handle.spec.quota_bytes > 0 {
                let used = handle.snapshot().space_bytes();
                if used >= handle.spec.quota_bytes {
                    return Response::error(
                        ErrorCode::QuotaExceeded,
                        format!(
                            "space '{}' holds {used} bytes, quota is {}",
                            handle.space, handle.spec.quota_bytes
                        ),
                    );
                }
            }
            // Under the state lock: log-append (an in-memory buffer push),
            // engine-apply (a shard enqueue), watermark bump. No snapshot
            // publish — the refresher thread does that in the background,
            // so the ack path is O(batch), not O(witness decode). The
            // flush + fsync that make the batch acknowledgeable happen
            // *after* the lock is released, through the group-commit
            // barrier — concurrent batches share one write and one fsync.
            // Announce the append *before* queueing on the space lock, so a
            // group-commit leader elected while this batch is applying knows
            // to hold its fsync for it.
            let announced = shared.wal.is_some();
            if announced {
                shared.sync.begin_append();
            }
            let (watermark, durability) = {
                let mut state = handle.state.lock().expect("space state");
                let mut ticket = None;
                if let Some(wal) = shared.wal.as_ref() {
                    if shared.sync.poisoned() {
                        shared.sync.abort_append();
                        return Response::error(
                            ErrorCode::Durability,
                            "durability disabled: a write-ahead log fsync failed".into(),
                        );
                    }
                    // Log before applying, so the log order and the engine
                    // order of this space can never disagree.
                    let a = wal.append(handle.space.as_str(), &updates);
                    state.last_seq = a.seq;
                    handle.wal_bytes.fetch_add(a.len, Ordering::Relaxed);
                    ticket = Some((wal.handle(), shared.sync.register(a.end)));
                }
                state.engine.ingest(updates);
                // The ack watermark rides the WAL sequence when there is
                // one (monotonic across restarts); otherwise it is a plain
                // per-space batch counter.
                state.ingest_seq = if ticket.is_some() {
                    state.last_seq
                } else {
                    state.ingest_seq + 1
                };
                (state.ingest_seq, ticket)
            };
            // Mirror the acked watermark where lag probes can read it
            // without the state lock.
            handle.load.acked_seq.fetch_max(watermark, Ordering::SeqCst);
            // Ring the refresher outside the lock: it will publish a
            // snapshot covering this watermark as soon as it gets the CPU.
            shared.refresh.ring();
            // Compaction runs outside the space lock: the shared log spans
            // every space, so folding it away needs every space's state.
            if let Some(wal) = shared.wal.as_ref() {
                if wal.bytes() >= shared.compact_bytes {
                    let registry = shared.spaces.read().expect("space registry");
                    if let Ok(_gate) = shared.compact_gate.try_lock() {
                        if wal.bytes() >= shared.compact_bytes {
                            let _ = compact_spaces(wal, &shared.sync, &registry);
                        }
                    }
                }
            }
            if let Some((wal, ticket)) = durability {
                // Fsync-before-ack: the batch is applied, but the
                // acknowledgement waits for a covering flush + fsync.
                if let Err(e) = shared.sync.wait_durable(&wal, ticket) {
                    return Response::error(
                        ErrorCode::Durability,
                        format!("write-ahead log fsync failed: {e}"),
                    );
                }
            }
            Response::Ingested { count, watermark }
        }
        Request::Restore(bytes) => {
            // The envelope must be addressed to this space: a v2 envelope by
            // name, a bare v1 container implicitly to the default space.
            match unwrap_envelope(&bytes) {
                Ok(env) if env.space != handle.space.as_str() => {
                    return Response::error(
                        ErrorCode::Checkpoint,
                        format!(
                            "checkpoint space mismatch: container is for '{}', request \
                             addressed '{}'",
                            env.space, handle.space
                        ),
                    );
                }
                Ok(_) => {}
                Err(e) => {
                    return Response::error(ErrorCode::Checkpoint, e.to_string());
                }
            }
            let mut state = handle.state.lock().expect("space state");
            match state.engine.restore_checkpoint(&bytes) {
                Ok(()) => {
                    // Under durability a restore is a checkpoint point: the
                    // restored state goes straight to disk at this space's
                    // current watermark, so surviving log records older than
                    // the restore can never replay over it.
                    if shared.wal.is_some() {
                        if let Err(e) = handle.write_checkpoint(&mut state) {
                            return Response::error(
                                ErrorCode::Durability,
                                format!("restore applied but could not be persisted: {e}"),
                            );
                        }
                    }
                    // A restore is immediately visible: publish inline (the
                    // restored state replaces the stream wholesale, so
                    // waiting for the refresher would let a query observe
                    // the pre-restore world after a Restored ack).
                    handle.publish_state(&mut state);
                    Response::Restored
                }
                Err(e) => Response::error(ErrorCode::Checkpoint, e.to_string()),
            }
        }
        // Query requests: answered from a published snapshot — no engine
        // lock, no shard barrier, no blocking against ingest or each other.
        // `AtLeast` waits (condvar, not engine work) for the refresher to
        // cover the client's watermark; `Stale` answers immediately.
        Request::Certified(mode) => match read_snapshot(handle, &mode, &shared.limits) {
            Ok(snap) => Response::Answer(snap.view.certified()),
            Err(resp) => *resp,
        },
        Request::Certify(v, mode) => match read_snapshot(handle, &mode, &shared.limits) {
            Ok(snap) => Response::Answer(snap.view.certify(v)),
            Err(resp) => *resp,
        },
        Request::Top(k, mode) => match read_snapshot(handle, &mode, &shared.limits) {
            Ok(snap) => Response::Top(snap.view.top(k.min(u32::MAX as u64) as usize)),
            Err(resp) => *resp,
        },
        Request::Stats(mode) => {
            let snap = match read_snapshot(handle, &mode, &shared.limits) {
                Ok(snap) => snap,
                Err(resp) => return *resp,
            };
            // The overload block is live (gauges + monotone counters), not
            // publish-consistent: its whole point is to describe the load
            // the server is under *now*. Lag is measured against the
            // latest published snapshot, whatever snapshot the read mode
            // resolved.
            let latest = handle.snapshot();
            let acked = handle.load.acked_seq.load(Ordering::SeqCst);
            let lag_updates = acked.saturating_sub(latest.watermark);
            let overload = crate::proto::WireOverload {
                shed_ingest: handle.load.shed_ingest.load(Ordering::SeqCst),
                shed_reads: handle.load.shed_reads.load(Ordering::SeqCst),
                shed_conns: shared.shed_conns.load(Ordering::SeqCst),
                inflight_updates: handle.load.inflight_updates.load(Ordering::SeqCst),
                inflight_bytes: handle.load.inflight_bytes.load(Ordering::SeqCst),
                lag_updates,
                lag_ms: if lag_updates > 0 {
                    latest.at.elapsed().as_millis() as u64
                } else {
                    0
                },
            };
            Response::Stats(WireStats {
                ingested: snap.stats.ingested,
                // Counters are publish-consistent; uptime is live. A
                // quiesced server's clock keeps running — the snapshot's
                // engine uptime froze at publish time.
                uptime_micros: handle.started.elapsed().as_micros() as u64,
                witness_target: handle.cfg.witness_target() as u64,
                space_bytes: snap.space_bytes(),
                wal_bytes: handle.wal_bytes.load(Ordering::Relaxed),
                quota_bytes: handle.spec.quota_bytes,
                overload,
                shards: snap
                    .stats
                    .shards
                    .iter()
                    .map(|s| WireShardStats {
                        partitions: s.partitions as u64,
                        processed: s.processed,
                        batches: s.batches,
                        space_bytes: s.space_bytes as u64,
                    })
                    .collect(),
            })
        }
        // Checkpoint reads engine state without changing it: state lock, no
        // publish. The container leaves tagged with the space name and the
        // WAL watermark (0 without durability), so what a client downloads
        // is exactly what compaction would have written to disk.
        Request::Checkpoint => {
            let mut state = handle.state.lock().expect("space state");
            let seq = state.last_seq;
            let inner = state.engine.checkpoint();
            let envelope = wrap_envelope(handle.space.as_str(), seq, &inner);
            if !crate::proto::body_fits(envelope.len()) {
                return Response::error(
                    ErrorCode::Oversized,
                    format!(
                        "checkpoint is {} bytes, larger than one frame can carry",
                        envelope.len()
                    ),
                );
            }
            Response::Checkpoint(envelope)
        }
        // Cluster-facing requests: what a router speaks to its workers.
        Request::NodeHello => Response::NodeInfo(WireNodeInfo::for_config(
            &handle.cfg,
            handle.snapshot().stats.ingested,
        )),
        Request::SliceAssign(parts) => {
            if let Some(&p) = parts.iter().find(|&&p| p as usize >= handle.cfg.partitions) {
                return Response::error(
                    ErrorCode::Malformed,
                    format!(
                        "slice names partition {p}, space has {}",
                        handle.cfg.partitions
                    ),
                );
            }
            let floor = handle.state.lock().expect("space state").ingest_seq;
            let mut slice = handle.slice.lock().expect("slice slot");
            slice.parts = Some(parts);
            slice.generation += 1;
            slice.floor = floor;
            Response::SpaceOk
        }
        Request::ViewPull {
            since,
            min_watermark,
        } => {
            // A router pulls to answer a query that must cover everything
            // it has routed: wait for the refresher to publish past the
            // node's acked watermark before deciding anything.
            let snap =
                match read_snapshot(handle, &ReadMode::AtLeast(min_watermark), &shared.limits) {
                    Ok(snap) => snap,
                    Err(resp) => return *resp,
                };
            if snap.version == since {
                // The puller's watermark is current: nothing to ship (the
                // quiesced-cluster fast path).
                return Response::View(WireView::Unchanged { epoch: since });
            }
            let slice = handle.slice.lock().expect("slice slot").parts.clone();
            let view = match snap.view.as_ref() {
                GlobalView::InsertOnly { parts, .. } => {
                    let owned: Vec<(u32, Vec<u8>)> = parts
                        .iter()
                        .enumerate()
                        .filter(|(p, _)| slice.as_ref().is_none_or(|s| s.contains(&(*p as u32))))
                        .map(|(p, state)| (p as u32, state.encode()))
                        .collect();
                    WireView::InsertOnly {
                        epoch: snap.version,
                        parts: owned,
                    }
                }
                GlobalView::InsertDelete { pooled, .. } => {
                    let owned: Vec<(u32, Vec<u64>)> = pooled
                        .iter()
                        .filter(|(a, _)| {
                            let p = partition_of(*a, handle.cfg.partitions) as u32;
                            slice.as_ref().is_none_or(|s| s.contains(&p))
                        })
                        .cloned()
                        .collect();
                    WireView::InsertDelete {
                        epoch: snap.version,
                        pooled: owned,
                    }
                }
            };
            // Worst-case wire size (varints at max width) — checked before
            // encoding because an oversized frame is a panic, not an error,
            // at the codec layer.
            let bound = 21
                + match &view {
                    WireView::Unchanged { .. } => 0,
                    WireView::InsertOnly { parts, .. } => {
                        parts.iter().map(|(_, b)| 15 + b.len()).sum::<usize>()
                    }
                    WireView::InsertDelete { pooled, .. } => {
                        pooled.iter().map(|(_, w)| 15 + 10 * w.len()).sum::<usize>()
                    }
                };
            if !crate::proto::body_fits(bound) {
                return Response::error(
                    ErrorCode::Oversized,
                    format!("view is ~{bound} bytes, larger than one frame"),
                );
            }
            Response::View(view)
        }
        // A router's pushed-down read: the query over the partitions this
        // worker reads for, from the snapshot the read mode selects — with
        // the watermark wait and lag-budget shedding a client read gets.
        Request::ScopedQuery { parts, query, mode } => {
            // Only partitions the router assigned here: a worker restarted
            // empty, or mid-handoff, must not answer for state it does not
            // hold.
            let (unassigned, generation, floor) = {
                let slice = handle.slice.lock().expect("slice slot");
                let unassigned = parts.iter().copied().find(|p| {
                    slice
                        .parts
                        .as_ref()
                        .is_none_or(|s| s.binary_search(p).is_err())
                });
                (unassigned, slice.generation, slice.floor)
            };
            if let Some(p) = unassigned {
                return Response::error(
                    ErrorCode::NodeUnavailable,
                    format!("partition {p} is not assigned to this worker"),
                );
            }
            let snap = match read_snapshot(handle, &mode, &shared.limits) {
                Ok(snap) if snap.watermark >= floor => snap,
                Ok(_) => match wait_published(handle, floor) {
                    Ok(snap) => snap,
                    Err(resp) => return *resp,
                },
                Err(resp) => return *resp,
            };
            if handle.slice.lock().expect("slice slot").generation != generation {
                return Response::error(
                    ErrorCode::NodeUnavailable,
                    "this worker's slice was handed off while the read waited".into(),
                );
            }
            // Assigned partitions were range-checked by `SliceAssign`.
            let mut scope = vec![false; handle.cfg.partitions];
            for &p in &parts {
                scope[p as usize] = true;
            }
            match query {
                ScopedQuery::Certified => {
                    Response::Hits(snap.view.scoped_certified(&scope).into_iter().collect())
                }
                ScopedQuery::Certify(v) => Response::Answer(snap.view.scoped_certify(v, &scope)),
                ScopedQuery::Top(k) => Response::Hits(
                    snap.view
                        .scoped_top(k.min(u32::MAX as u64) as usize, &scope),
                ),
            }
        }
        Request::SliceCheckpoint(parts) => {
            if let Some(&p) = parts.iter().find(|&&p| p as usize >= handle.cfg.partitions) {
                return Response::error(
                    ErrorCode::Malformed,
                    format!(
                        "slice names partition {p}, space has {}",
                        handle.cfg.partitions
                    ),
                );
            }
            let mut state = handle.state.lock().expect("space state");
            let bytes = state.engine.checkpoint_slice(&parts);
            if !crate::proto::body_fits(bytes.len()) {
                return Response::error(
                    ErrorCode::Oversized,
                    format!(
                        "slice checkpoint is {} bytes, larger than one frame can carry",
                        bytes.len()
                    ),
                );
            }
            Response::Checkpoint(bytes)
        }
        Request::SliceRestore(bytes) => {
            // Withdraw the slice before the restore publishes: scoped reads
            // must not see the checkpoint-only state the router's replay and
            // closing assignment complete.
            {
                let mut slice = handle.slice.lock().expect("slice slot");
                slice.parts = Some(Vec::new());
                slice.generation += 1;
            }
            let mut state = handle.state.lock().expect("space state");
            match state.engine.restore_slice(&bytes) {
                Ok(()) => {
                    // Like a full restore, a grafted slice is a checkpoint
                    // point under durability: persist before acknowledging.
                    if shared.wal.is_some() {
                        if let Err(e) = handle.write_checkpoint(&mut state) {
                            return Response::error(
                                ErrorCode::Durability,
                                format!("slice restore applied but could not be persisted: {e}"),
                            );
                        }
                    }
                    handle.publish_state(&mut state);
                    Response::Restored
                }
                Err(e) => Response::error(ErrorCode::Checkpoint, e.to_string()),
            }
        }
        // Handled in `handle_request`; unreachable here.
        Request::CreateSpace(_)
        | Request::DropSpace
        | Request::ListSpaces
        | Request::Shutdown
        | Request::Ping
        | Request::JoinWorker(_) => Response::error(
            ErrorCode::Malformed,
            "lifecycle request routed to a space handler".into(),
        ),
    }
}
