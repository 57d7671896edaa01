//! The partition-routing coordinator.
//!
//! One [`Router`] fronts N `fews-net` worker processes. It is a protocol v3
//! server on its public side and a `fews-net` client on its worker side.
//! Its membership, retained logs and ingest fan-out live in one [`Inner`]
//! behind a mutex; reads never take it on their success path (see *Reads*).
//!
//! ## Consistency argument
//!
//! The router's source of truth for every partition `p` is the pair
//! `(payloads[p], logs[p])`: the last slice-checkpoint payload pulled from
//! one of `p`'s owners, plus every update routed since, in arrival order.
//! An update is appended to the log *before* it is offered to a worker
//! (**log-before-send**), so whatever a send failure leaves behind on the
//! worker — applied, dropped, or unknown — the router can always rebuild the
//! exact state by restoring `payloads[p]` and replaying `logs[p]`. That
//! rebuild *is* the rejoin path, which is why a node marked down for any
//! reason (heartbeat miss, send failure, refused connection) recovers
//! through one code path and comes back bit-exact with a node that never
//! died.
//!
//! ## Replication
//!
//! Each partition has [`RouterOptions::replicas`] owners (`(p + k) % N` for
//! `k < R`, primary first). Ingest fans out to every live owner — sends are
//! pipelined (all frames written, then all acks collected) so R-way
//! replication costs one round-trip, not R. Each partition is read from
//! its **designated reader**, its first live owner, so at R ≥ 2 a node
//! loss degrades to "read from the replica" with no recovery pause; only a
//! partition with *no* live owner forces a bounded rejoin attempt on the
//! query path (the R=1 behaviour), and only its failure surfaces as
//! [`ErrorCode::NodeUnavailable`]. Down nodes are repaired in the
//! background by the heartbeat thread instead of stalling ingest or
//! queries.
//!
//! ## Reads
//!
//! The cluster partitions by vertex, so every answer is a merge of the
//! designated readers' own answers over their partitions: a `certified`,
//! `certify v` or `top k` is pushed down to them as one
//! [`Request::ScopedQuery`] each, answered from the worker's published
//! snapshot, and merged by rank ([`GlobalView::merge_certified`],
//! [`GlobalView::merge_top`]). The router has no freshness mechanism of
//! its own: a fresh read asks each reader to cover the ingest watermark it
//! acked to the router, a `?stale` read takes the readers' latest
//! snapshots. A read plans from a [`ReadPlan`] that [`Inner`] republishes
//! before every ack that follows a change, so it never goes to a node that
//! missed an acked batch, and only a node failure makes it take the lock.
//!
//! Acknowledged ingest means *retained at the router*: a batch is acked
//! once it is logged (and, with a data dir, fsynced) and offered to every
//! live owner, even if some owner is down.
//!
//! ## Durability
//!
//! With [`RouterOptions::data_dir`] set, the retained state is crash-safe
//! through the same machinery a single durable server uses
//! ([`fews_engine::wal`]): every acked batch is appended to a space-tagged,
//! CRC-framed WAL and fsynced *before* the ack, and compaction (whenever
//! every retained log is empty) atomically writes a checkpoint envelope
//! whose watermark is the WAL sequence it covers, then resets the log.
//! `kill -9` of the router replays checkpoint + WAL tail back to bit-exact
//! retained state; restart then pushes every worker its slice wholesale, so
//! the cluster's answers are byte-identical to an uninterrupted run.
//!
//! Logs are bounded by periodic *refresh*: every `refresh_updates` routed
//! updates the router pulls fresh slice checkpoints from live owners,
//! replacing `payloads` and truncating the covered `logs`.

use fews_common::rng::derive_seed;
use fews_common::SpaceId;
use fews_engine::checkpoint::{self, unwrap_envelope};
use fews_engine::wal::{wal_path, SpaceDir, Wal};
use fews_engine::{partition_of, Engine, EngineConfig, GlobalView};
use fews_net::client::unexpected;
use fews_net::proto::{body_fits, check_frame_len, FrameError};
use fews_net::server::validate_batch;
use fews_net::{
    Client, ClientError, ClientOptions, ErrorCode, ReadMode, Request, Response, ScopedQuery,
    WireNodeInfo, WireOverload, WireShardStats, WireStats,
};
use fews_stream::Update;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a front-end connection blocks in `read` before re-checking the
/// shutdown flag (same role as the server's idle poll).
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Upper bound on one front-end response write.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Replay chunk size for checkpoint-handoff rejoin: small enough that a
/// chunk always fits one frame, large enough to amortize round-trips.
const REPLAY_CHUNK: usize = 8192;

/// The router's durable metadata file inside the data dir.
const META_FILE: &str = "router.meta";

/// Base unit of the `retry_after_ms` hint on router-side shedding, scaled
/// by how far past the retained-log budget the router is.
const ROUTER_RETRY_MS: u64 = 100;

/// Behaviour knobs for [`Router::start`].
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Connection behaviour towards workers. The default is bounded
    /// (2 s timeouts, 2 connect retries): a hung worker must cost the
    /// cluster a timeout, never a wedge. Each worker connection derives its
    /// own jitter stream from [`ClientOptions::jitter_seed`], so retrying
    /// connections never synchronize their storms against a recovering
    /// node.
    pub client: ClientOptions,
    /// Heartbeat period: every tick, live nodes are pinged (a miss marks
    /// them down) and down nodes get a rejoin attempt — at R ≥ 2 this is
    /// the background repair that restores full replication after a loss.
    /// `None` disables the background thread — recovery then happens only
    /// on demand, when a query finds a partition with no live owner. Tests
    /// use `None` for determinism.
    pub heartbeat: Option<Duration>,
    /// Pull fresh slice checkpoints (and truncate the retained logs) every
    /// this many routed updates. 0 disables periodic refresh — logs then
    /// grow until a checkpoint or join forces a refresh.
    pub refresh_updates: u64,
    /// Forward a client `shutdown` request to every worker before answering
    /// `Bye`. Routers owning their fleet (the CLI) want this; tests that
    /// manage worker lifetimes themselves do not.
    pub forward_shutdown: bool,
    /// How many nodes own each partition (clamped to the node count).
    /// At 1, a worker loss makes its partitions unavailable until rejoin;
    /// at 2+, queries fail over to a surviving replica with no pause.
    pub replicas: usize,
    /// Pipeline the ingest fan-out: write the batch frame to every live
    /// owner, then collect the acks — one round-trip for R replicas
    /// instead of R. Off means send-then-ack per owner, sequentially.
    pub pipeline: bool,
    /// Durability root. `Some(dir)` write-ahead-logs every acked batch
    /// (fsync before ack) and checkpoints retained payloads there, so a
    /// killed router restarts bit-exact from disk. `None` keeps retained
    /// state in memory only, as a cache-tier deployment would.
    pub data_dir: Option<PathBuf>,
    /// Cap on updates the retained logs may hold before ingest is shed
    /// with [`ErrorCode::Overloaded`] + retry-after (0 = unbounded). The
    /// retained logs are what down or shedding workers still owe; without
    /// a bound, one overloaded worker turns into unbounded router memory
    /// growth. Shedding here is how worker overload *composes* up the
    /// tiers instead of amplifying: the router stops accepting what it
    /// cannot place and tells clients when to come back.
    pub retained_budget: u64,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            client: ClientOptions::bounded(Duration::from_secs(2), 2),
            heartbeat: Some(Duration::from_secs(1)),
            refresh_updates: 1 << 16,
            forward_shutdown: true,
            replicas: 2,
            pipeline: true,
            data_dir: None,
            retained_budget: 1 << 20,
        }
    }
}

/// `(code, message)` of an error frame the router is about to send.
type Fail = (ErrorCode, String);

/// One cluster member as the router sees it.
struct Node {
    /// `None` = down. Every recovery goes through [`Inner::rejoin`].
    client: Option<Client>,
    /// Slice pushes this node has completed. A read that failed on the node
    /// fails it over only if no push completed since the read planned —
    /// otherwise the failure was the handoff itself, and the read retries.
    incarnation: u64,
    /// The node's highest acked *ingest* watermark — what a fresh read asks
    /// it to cover, so the worker's refresher must publish everything the
    /// router routed to it before the read answers.
    acked: u64,
    /// Updates routed to this node (the router-side `processed` counter).
    routed: u64,
    /// Batches routed to this node.
    batches: u64,
}

impl Node {
    fn fresh(client: Option<Client>) -> Node {
        Node {
            client,
            incarnation: 0,
            acked: 0,
            routed: 0,
            batches: 0,
        }
    }
}

/// The router's durable half: WAL + checkpoint store + metadata, all under
/// one data dir.
struct Durable {
    wal: Wal,
    store: SpaceDir,
    meta: PathBuf,
}

/// All router state, behind the one mutex.
struct Inner {
    cfg: EngineConfig,
    opts: RouterOptions,
    nodes: Vec<Node>,
    /// Worker addresses by node index. Replaced, never edited, when a
    /// worker joins, so the read plan shares it instead of copying it.
    addrs: Arc<[String]>,
    /// `owners[p]` = the node indices hosting partition `p`, primary first.
    owners: Vec<Vec<usize>>,
    /// Per-partition slice-checkpoint payload as of the last refresh.
    /// Always populated: seeded at startup from a scratch local engine
    /// (empty partition state is a pure function of `(seed, p)`), or from
    /// the durable checkpoint on recovery.
    payloads: Vec<Vec<u8>>,
    /// Per-partition updates routed since `payloads[p]` was pulled, in
    /// arrival order. `payloads[p] + logs[p]` rebuilds the partition
    /// exactly.
    logs: Vec<Vec<Update>>,
    /// Updates routed since the last refresh (compares against
    /// `opts.refresh_updates`).
    since_refresh: u64,
    /// Updates accepted over the router's lifetime (recovered across
    /// restarts when durable).
    ingested: u64,
    /// Generation number of the ownership map: bumps every time the map is
    /// (re)computed — startup, worker join — and persists with the
    /// checkpoint so a restarted router knows how many assignments its
    /// lifetime has seen.
    assign_epoch: u64,
    durable: Option<Durable>,
    started: Instant,
    /// Ingest batches the router itself shed with [`ErrorCode::Overloaded`]
    /// (retained-log budget exhausted) — surfaced in `stats`.
    shed_ingest: u64,
}

/// What a read needs to reach the workers without taking [`Inner`], which
/// republishes it under its lock before every ack that follows a change.
struct ReadPlan {
    /// `reader[p]`: partition `p`'s designated reader (its first live
    /// owner), or `None` when every owner is down.
    reader: Vec<Option<usize>>,
    /// Node addresses, by node index.
    addrs: Arc<[String]>,
    /// Each node's acked ingest watermark — what a fresh read asks it to
    /// cover.
    acked: Vec<u64>,
    /// Each node's [`Node::incarnation`].
    incarnation: Vec<u64>,
    /// The router's acked ingest count, the highest watermark it issued.
    ingested: u64,
}

impl ReadPlan {
    /// The `needed` partitions (ascending) grouped by designated reader, or
    /// `None` if one of them has no live owner.
    fn groups(&self, needed: &[usize]) -> Option<Vec<(usize, Vec<u32>)>> {
        let mut groups: Vec<(usize, Vec<u32>)> = Vec::new();
        for &p in needed {
            let i = self.reader[p]?;
            match groups.iter_mut().find(|(j, _)| *j == i) {
                Some((_, parts)) => parts.push(p as u32),
                None => groups.push((i, vec![p as u32])),
            }
        }
        Some(groups)
    }
}

/// `owners[p]` for every partition: the `min(replicas, nodes)` ring
/// neighbours `(p + k) % nodes`, primary first. Every node owns the same
/// number of partitions (up to rounding), and losing any single node
/// leaves every partition with `R - 1` live owners.
fn owner_map(partitions: usize, nodes: usize, replicas: usize) -> Vec<Vec<usize>> {
    let r = replicas.clamp(1, nodes);
    (0..partitions)
        .map(|p| (0..r).map(|k| (p + k) % nodes).collect())
        .collect()
}

/// The client options for node `i`: the shared options with a per-node
/// jitter stream, so every worker connection de-correlates its backoff.
fn client_opts_for(client: &ClientOptions, i: usize) -> ClientOptions {
    let mut o = client.clone();
    o.jitter_seed = o.jitter_seed.map(|s| derive_seed(s, i as u64));
    o
}

/// Atomically (write-then-rename) persist the router's metadata line.
fn write_meta(path: &Path, assign_epoch: u64, ingested: u64) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(
        &tmp,
        format!("fews-router-meta v1\nassign_epoch {assign_epoch}\ningested {ingested}\n"),
    )?;
    std::fs::rename(&tmp, path)
}

/// Read the metadata file back; `None` if absent or unparseable (both
/// recoverable — the counters restart from zero).
fn read_meta(path: &Path) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    if lines.next()? != "fews-router-meta v1" {
        return None;
    }
    let (mut epoch, mut ingested) = (None, None);
    for line in lines {
        let mut it = line.split_whitespace();
        match (it.next(), it.next()) {
            (Some("assign_epoch"), Some(v)) => epoch = v.parse().ok(),
            (Some("ingested"), Some(v)) => ingested = v.parse().ok(),
            _ => {}
        }
    }
    Some((epoch?, ingested?))
}

/// Connect to a worker and verify it serves the exact model, seed, and
/// partitioning this cluster routes for.
fn admit(
    addr: &str,
    cfg: &EngineConfig,
    opts: &ClientOptions,
) -> Result<(Client, WireNodeInfo), String> {
    let mut client =
        Client::connect_with(addr, opts).map_err(|e| format!("worker {addr}: connect: {e}"))?;
    // Its only reads are `stats`, which must not wait on the refresher.
    client.set_stale(true);
    let info = client
        .node_hello()
        .map_err(|e| format!("worker {addr}: hello: {e}"))?;
    let want = WireNodeInfo::for_config(cfg, 0);
    let got = WireNodeInfo {
        ingested: 0,
        ..info
    };
    if got != want {
        return Err(format!(
            "worker {addr} serves a different model/seed/partitioning than this cluster \
             (wanted model={} seed={} partitions={}, got model={} seed={} partitions={})",
            want.model, want.seed, want.partitions, got.model, got.seed, got.partitions
        ));
    }
    Ok((client, info))
}

/// Map a worker-side client failure to the error frame the router's own
/// client gets: transport trouble is `node-unavailable`, a worker's error
/// frame passes through with the worker named.
fn node_fail(addr: &str, e: &ClientError) -> Fail {
    match e {
        ClientError::Io(e) => (
            ErrorCode::NodeUnavailable,
            format!("worker {addr} unavailable: {e}"),
        ),
        ClientError::Protocol(m) => (
            ErrorCode::Malformed,
            format!("worker {addr} protocol error: {m}"),
        ),
        ClientError::Server { code, message, .. } => (*code, format!("worker {addr}: {message}")),
    }
}

impl Inner {
    /// The sorted partition ids node `i` currently owns (as any replica).
    fn owned(&self, i: usize) -> Vec<u32> {
        (0..self.cfg.partitions as u32)
            .filter(|&p| self.owners[p as usize].contains(&i))
            .collect()
    }

    /// Push node `i` its full slice over its (live) connection: wholesale
    /// restore from the payload store, retained-log replay, assignment.
    /// Failure marks the node down with the error typed.
    fn push_slice(&mut self, i: usize) -> Result<(), Fail> {
        let addr = self.addrs[i].clone();
        let owned = self.owned(i);
        let slice: Vec<(u32, Vec<u8>)> = owned
            .iter()
            .map(|&p| (p, self.payloads[p as usize].clone()))
            .collect();
        let container = checkpoint::encode_slice(&self.cfg, &slice);
        // Replay partition by partition: the engine orders per partition
        // only, and logs[p] holds exactly p's updates in arrival order.
        let mut replay: Vec<Update> = Vec::new();
        for &p in &owned {
            replay.extend_from_slice(&self.logs[p as usize]);
        }
        let Some(client) = self.nodes[i].client.as_mut() else {
            return Err((ErrorCode::NodeUnavailable, format!("worker {addr} is down")));
        };
        let mut res = client.slice_restore(&container);
        if res.is_ok() {
            for chunk in replay.chunks(REPLAY_CHUNK) {
                if let Err(e) = client.ingest_batch(chunk) {
                    res = Err(e);
                    break;
                }
            }
        }
        if res.is_ok() {
            res = client.slice_assign(&owned);
        }
        match res {
            Ok(()) => {
                // The replay acks carried the worker's current watermark;
                // fresh reads must cover everything just replayed.
                let node = &mut self.nodes[i];
                node.acked = node.client.as_ref().map_or(0, Client::watermark);
                node.incarnation += 1;
                Ok(())
            }
            Err(e) => {
                self.nodes[i].client = None;
                Err(node_fail(&addr, &e))
            }
        }
    }

    /// Checkpoint-handoff recovery: reconnect, verify identity, stream the
    /// node's slice back as exact engine container bytes, replay the
    /// retained log, re-assign the slice. The revived node is bit-exact
    /// with one that never died (restore is wholesale per partition, so it
    /// also erases any half-applied batch a send failure left behind).
    fn rejoin(&mut self, i: usize) -> Result<(), Fail> {
        let addr = self.addrs[i].clone();
        let (client, _) = admit(&addr, &self.cfg, &client_opts_for(&self.opts.client, i))
            .map_err(|m| (ErrorCode::NodeUnavailable, m))?;
        self.nodes[i].client = Some(client);
        self.push_slice(i)
    }

    /// Partition `p`'s designated reader: its first live owner.
    fn reader(&self, p: usize) -> Option<usize> {
        self.owners[p]
            .iter()
            .copied()
            .find(|&i| self.nodes[i].client.is_some())
    }

    /// The read plan for the current membership and watermarks.
    fn plan(&self) -> ReadPlan {
        ReadPlan {
            reader: (0..self.cfg.partitions).map(|p| self.reader(p)).collect(),
            addrs: Arc::clone(&self.addrs),
            acked: self.nodes.iter().map(|n| n.acked).collect(),
            incarnation: self.nodes.iter().map(|n| n.incarnation).collect(),
            ingested: self.ingested,
        }
    }

    /// A read's failover: mark node `i` of `down = (i, incarnation)` down —
    /// unless it was handed its slice again since the read planned at that
    /// incarnation, in which case the read simply retries on the new plan —
    /// then give every `needed` partition a live owner, rejoining one where
    /// none is left (the R = 1 case; its failure is the read's typed error).
    fn fail_over(&mut self, down: Option<(usize, u64)>, needed: &[usize]) -> Result<(), Fail> {
        if let Some((i, incarnation)) = down {
            if self.nodes[i].incarnation == incarnation {
                self.nodes[i].client = None;
            }
        }
        for &p in needed {
            self.ensure_owner_up(p)?;
        }
        Ok(())
    }

    /// A live owner for partition `p`: the first live node in `owners[p]`,
    /// or — only if none is live — a bounded rejoin attempt over the owners
    /// in order. The query path's last resort; at R ≥ 2 a single loss never
    /// reaches the rejoin branch.
    fn ensure_owner_up(&mut self, p: usize) -> Result<usize, Fail> {
        if let Some(i) = self.reader(p) {
            return Ok(i);
        }
        let owners = self.owners[p].clone();
        let mut last: Option<Fail> = None;
        for i in owners {
            match self.rejoin(i) {
                Ok(()) => return Ok(i),
                Err(fail) => last = Some(fail),
            }
        }
        Err(last.unwrap_or((
            ErrorCode::NodeUnavailable,
            format!("partition {p} has no live owner"),
        )))
    }

    /// Route one validated ingest batch: WAL it (durable routers fsync
    /// before the ack), log every update under its partition, fan the batch
    /// out to every live owner, ack. A send failure marks the owner down
    /// and the ack stands — the updates are retained and replay at rejoin,
    /// which the heartbeat drives in the background.
    /// Updates currently held in the retained logs — what down or shedding
    /// workers still owe.
    fn retained(&self) -> u64 {
        self.logs.iter().map(|l| l.len() as u64).sum()
    }

    fn ingest(&mut self, updates: Vec<Update>) -> Response {
        if let Err((code, message)) = validate_batch(&self.cfg, &updates) {
            return Response::error(code, message);
        }
        let count = updates.len() as u64;
        // Backpressure, checked before the batch touches the WAL or the
        // retained logs (so the rejection is determinate and clients may
        // retry blindly). When the budget is hit, first try to drain — if
        // the owners are merely behind, a refresh truncates the logs and
        // the batch admits; if they are down or shedding, the drain is a
        // cheap no-op and the overload propagates to the client with a
        // retry hint instead of growing the router without bound.
        if self.opts.retained_budget > 0 && self.retained() + count > self.opts.retained_budget {
            self.refresh_retained();
            let retained = self.retained();
            if retained + count > self.opts.retained_budget && retained > 0 {
                self.shed_ingest += 1;
                let hint = ROUTER_RETRY_MS
                    .saturating_mul((retained / self.opts.retained_budget).clamp(1, 10));
                return Response::overloaded(
                    format!(
                        "router retains {retained} updates awaiting worker catch-up \
                         (budget {}); workers are down or shedding",
                        self.opts.retained_budget
                    ),
                    hint,
                );
            }
        }
        if let Some(d) = &self.durable {
            // Acknowledged means durable: the batch is on stable storage
            // before any worker sees it. A sync failure refuses the ack
            // (the buffered record is then a harmless never-acked orphan).
            d.wal.append(SpaceId::default_space().as_str(), &updates);
            if let Err(e) = d.wal.sync() {
                return Response::error(ErrorCode::Durability, format!("router wal: {e}"));
            }
        }
        let mut per_node: Vec<Vec<Update>> = vec![Vec::new(); self.nodes.len()];
        for u in &updates {
            let p = partition_of(u.edge.a, self.cfg.partitions);
            self.logs[p].push(*u);
            for &i in &self.owners[p] {
                per_node[i].push(*u);
            }
        }
        if self.opts.pipeline {
            // Phase 1: write every live owner's frame; phase 2: collect the
            // acks in the same order. The owners apply concurrently, so the
            // fan-out costs one round-trip instead of R.
            let mut awaiting: Vec<usize> = Vec::new();
            for i in 0..self.nodes.len() {
                if per_node[i].is_empty() || self.nodes[i].client.is_none() {
                    continue;
                }
                let sent = self.nodes[i]
                    .client
                    .as_mut()
                    .expect("live node")
                    .ingest_send(&per_node[i]);
                match sent {
                    Ok(()) => awaiting.push(i),
                    Err(_) => self.nodes[i].client = None,
                }
            }
            for i in awaiting {
                let acked = self.nodes[i]
                    .client
                    .as_mut()
                    .expect("live node")
                    .ingest_ack();
                match acked {
                    Ok(_) => {
                        let node = &mut self.nodes[i];
                        node.routed += per_node[i].len() as u64;
                        node.batches += 1;
                        node.acked = node.client.as_ref().map_or(0, Client::watermark);
                    }
                    Err(_) => {
                        // Whatever the worker did with the batch, the
                        // wholesale restore at rejoin makes it exact again.
                        self.nodes[i].client = None;
                    }
                }
            }
        } else {
            for i in 0..self.nodes.len() {
                if per_node[i].is_empty() || self.nodes[i].client.is_none() {
                    continue;
                }
                let sent = self.nodes[i]
                    .client
                    .as_mut()
                    .expect("live node")
                    .ingest_batch(&per_node[i]);
                match sent {
                    Ok(_) => {
                        let node = &mut self.nodes[i];
                        node.routed += per_node[i].len() as u64;
                        node.batches += 1;
                        node.acked = node.client.as_ref().map_or(0, Client::watermark);
                    }
                    Err(_) => self.nodes[i].client = None,
                }
            }
        }
        self.ingested += count;
        self.since_refresh += count;
        if self.opts.refresh_updates > 0 && self.since_refresh >= self.opts.refresh_updates {
            self.refresh_retained();
        }
        // The router's ack watermark is its lifetime ingest count: queries
        // carrying it back are satisfiable because every routed update is
        // either on a live owner (whose read waits for its own acked
        // watermark) or retained in a log a rejoin replays.
        Response::Ingested {
            count,
            watermark: self.ingested,
        }
    }

    /// Install slice-checkpoint payloads a worker returned for `requested`
    /// partitions, truncating the covered logs. Every returned partition id
    /// is checked against the request — a worker shipping an unsolicited or
    /// out-of-range partition is a protocol violation, not a panic.
    fn install_payloads(
        &mut self,
        requested: &[u32],
        payloads: Vec<(u32, Vec<u8>)>,
    ) -> Result<(), String> {
        for (p, bytes) in payloads {
            // `requested` is built ascending, so the membership check can
            // binary-search; membership also bounds the index.
            if requested.binary_search(&p).is_err() {
                return Err(format!("unsolicited partition {p} in a slice checkpoint"));
            }
            self.payloads[p as usize] = bytes;
            self.logs[p as usize].clear();
        }
        Ok(())
    }

    /// Best-effort log compaction: for every partition with a non-empty
    /// log, pull a fresh slice checkpoint from its first live owner
    /// (grouped per node), replace the payload, truncate the log.
    /// Partitions whose owners are all down keep their logs (those updates
    /// are not yet anywhere else); a node that fails mid-refresh is marked
    /// down with its logs intact. If every log drains, a durable router
    /// compacts its WAL.
    fn refresh_retained(&mut self) {
        let mut per_node: Vec<Vec<u32>> = vec![Vec::new(); self.nodes.len()];
        for p in 0..self.cfg.partitions {
            if self.logs[p].is_empty() {
                continue;
            }
            if let Some(i) = self.reader(p) {
                per_node[i].push(p as u32);
            }
        }
        for i in 0..self.nodes.len() {
            let parts = std::mem::take(&mut per_node[i]);
            if parts.is_empty() || self.nodes[i].client.is_none() {
                continue;
            }
            let pulled = self.nodes[i]
                .client
                .as_mut()
                .expect("live node")
                .slice_checkpoint(&parts)
                .map_err(|e| e.to_string())
                .and_then(|bytes| checkpoint::decode_slice(&bytes).map_err(|e| e.to_string()));
            match pulled {
                Ok((_, payloads)) => {
                    if self.install_payloads(&parts, payloads).is_err() {
                        self.nodes[i].client = None;
                    }
                }
                Err(_) => self.nodes[i].client = None,
            }
        }
        self.since_refresh = 0;
        if self.logs.iter().all(|l| l.is_empty()) {
            // Disk state stays consistent even if this fails (the old
            // checkpoint still pairs with the un-reset WAL), so a refresh
            // never turns an I/O hiccup into a lost ack.
            let _ = self.compact_durable();
        }
    }

    /// Like [`Inner::refresh_retained`], but *every* retained log must
    /// drain: used where the payload store must cover all logged updates
    /// (checkpoint, join, restore round-trips). After success, every log is
    /// empty and a durable router has compacted.
    fn refresh_all_strict(&mut self) -> Result<(), Fail> {
        let mut per_node: Vec<Vec<u32>> = vec![Vec::new(); self.nodes.len()];
        for p in 0..self.cfg.partitions {
            if self.logs[p].is_empty() {
                continue;
            }
            let i = self.ensure_owner_up(p)?;
            per_node[i].push(p as u32);
        }
        for i in 0..self.nodes.len() {
            let parts = std::mem::take(&mut per_node[i]);
            if parts.is_empty() {
                continue;
            }
            let addr = self.addrs[i].clone();
            let bytes = match self.nodes[i]
                .client
                .as_mut()
                .expect("live node")
                .slice_checkpoint(&parts)
            {
                Ok(b) => b,
                Err(e) => {
                    self.nodes[i].client = None;
                    return Err(node_fail(&addr, &e));
                }
            };
            let (_, payloads) = checkpoint::decode_slice(&bytes).map_err(|e| {
                (
                    ErrorCode::Malformed,
                    format!("worker {addr}: slice checkpoint: {e}"),
                )
            })?;
            self.install_payloads(&parts, payloads).map_err(|m| {
                self.nodes[i].client = None;
                (ErrorCode::Malformed, format!("worker {addr}: {m}"))
            })?;
        }
        if let Some(p) = self.logs.iter().position(|l| !l.is_empty()) {
            // A worker answered the request but omitted a partition it was
            // asked for — refuse to pretend the store is complete.
            return Err((
                ErrorCode::Malformed,
                format!("partition {p}'s owner omitted it from a slice checkpoint"),
            ));
        }
        self.since_refresh = 0;
        let _ = self.compact_durable();
        Ok(())
    }

    /// Durably anchor the retained state: write the checkpoint envelope
    /// (watermarked with the last WAL sequence it covers) and the metadata,
    /// then reset the WAL. Sound only when every retained log is empty —
    /// the payload store then *is* the full retained state.
    fn compact_durable(&mut self) -> std::io::Result<()> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        debug_assert!(self.logs.iter().all(|l| l.is_empty()));
        let listed: Vec<(u32, Vec<u8>)> = self
            .payloads
            .iter()
            .enumerate()
            .map(|(p, b)| (p as u32, b.clone()))
            .collect();
        let inner = checkpoint::encode(&self.cfg, &listed);
        let env =
            checkpoint::wrap_envelope(SpaceId::default_space().as_str(), d.wal.last_seq(), &inner);
        d.store.write_checkpoint(&env)?;
        write_meta(&d.meta, self.assign_epoch, self.ingested)?;
        d.wal.reset()
    }

    /// A full cluster checkpoint: drain every log into fresh payloads, then
    /// assemble the dense container — byte-identical to what one node
    /// holding the whole stream would produce, wrapped for the default
    /// space like a single server's answer.
    fn checkpoint(&mut self) -> Result<Vec<u8>, Fail> {
        self.refresh_all_strict()?;
        let payloads: Vec<(u32, Vec<u8>)> = self
            .payloads
            .iter()
            .enumerate()
            .map(|(p, b)| (p as u32, b.clone()))
            .collect();
        let inner = checkpoint::encode(&self.cfg, &payloads);
        Ok(checkpoint::wrap_envelope(
            SpaceId::default_space().as_str(),
            0,
            &inner,
        ))
    }

    /// Install a full checkpoint cluster-wide. The payload store commits
    /// first (durably, when the router has a data dir), then slices push to
    /// the owners; a node that misses the push is marked down and recovers
    /// the restored state through the ordinary rejoin path — so the restore
    /// is never torn.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), Fail> {
        let env = match unwrap_envelope(bytes) {
            Ok(env) if env.space != SpaceId::default_space().as_str() => {
                return Err((
                    ErrorCode::Checkpoint,
                    format!(
                        "checkpoint space mismatch: container is for '{}', a cluster router \
                         serves the default space",
                        env.space
                    ),
                ));
            }
            Ok(env) => env,
            Err(e) => return Err((ErrorCode::Checkpoint, e.to_string())),
        };
        let (header, payloads) =
            checkpoint::decode(env.inner).map_err(|e| (ErrorCode::Checkpoint, e.to_string()))?;
        header
            .check_against(&self.cfg)
            .map_err(|e| (ErrorCode::Checkpoint, e.to_string()))?;
        let mut dense: Vec<Vec<u8>> = vec![Vec::new(); self.cfg.partitions];
        for (p, b) in payloads {
            let Some(slot) = dense.get_mut(p as usize) else {
                return Err((
                    ErrorCode::Checkpoint,
                    format!(
                        "checkpoint names partition {p}, cluster has {}",
                        self.cfg.partitions
                    ),
                ));
            };
            *slot = b;
        }
        // Commit router-side truth before any push.
        self.payloads = dense;
        for log in &mut self.logs {
            log.clear();
        }
        // An acked restore must survive a router crash, same as acked
        // ingest: persist before pushing to any worker.
        if let Err(e) = self.compact_durable() {
            return Err((
                ErrorCode::Durability,
                format!("persisting restored checkpoint: {e}"),
            ));
        }
        for i in 0..self.nodes.len() {
            if self.nodes[i].client.is_none() {
                let _ = self.rejoin(i); // hands the restored slice
                continue;
            }
            let _ = self.push_slice(i); // marks down on failure
        }
        Ok(())
    }

    /// Admit a new worker and rebalance: the ownership map recomputes over
    /// `N + 1` nodes, every node receives its (possibly shrunk) slice as
    /// container bytes plus a fresh assignment. Requires a fully live
    /// cluster — rebalancing around a hole would have to guess the hole's
    /// state.
    fn join(&mut self, addr: &str) -> Result<(), Fail> {
        if self.addrs.iter().any(|a| a == addr) {
            return Err((
                ErrorCode::Malformed,
                format!("worker {addr} is already a cluster member"),
            ));
        }
        // Drain logs so the new ownership map can be seeded from the
        // payload store alone.
        self.refresh_all_strict()?;
        let (client, _) = admit(
            addr,
            &self.cfg,
            &client_opts_for(&self.opts.client, self.nodes.len()),
        )
        .map_err(|m| (ErrorCode::NodeUnavailable, m))?;
        self.nodes.push(Node::fresh(Some(client)));
        self.addrs = self
            .addrs
            .iter()
            .cloned()
            .chain([addr.to_string()])
            .collect();
        let n = self.nodes.len();
        self.owners = owner_map(self.cfg.partitions, n, self.opts.replicas);
        self.assign_epoch += 1;
        if let Some(d) = &self.durable {
            let _ = write_meta(&d.meta, self.assign_epoch, self.ingested);
        }
        for i in 0..n {
            if self.nodes[i].client.is_none() {
                let _ = self.rejoin(i);
                continue;
            }
            let _ = self.push_slice(i); // marks down on failure
        }
        Ok(())
    }

    /// Cluster statistics: the router's own ingest counter, one shard row
    /// per node (owned partitions, updates routed, measured worker state).
    /// Down nodes report zero measured bytes instead of failing the call —
    /// statistics must not stall behind a recovery.
    fn stats(&mut self, shed_reads: u64) -> Result<WireStats, Fail> {
        let mut shards = Vec::with_capacity(self.nodes.len());
        let mut space_bytes = 0u64;
        for i in 0..self.nodes.len() {
            let measured = match self.nodes[i].client.as_mut() {
                Some(client) => match client.stats() {
                    Ok(s) => Some(s.space_bytes),
                    Err(_) => {
                        self.nodes[i].client = None;
                        None
                    }
                },
                None => None,
            };
            shards.push(WireShardStats {
                partitions: self.owned(i).len() as u64,
                processed: self.nodes[i].routed,
                batches: self.nodes[i].batches,
                space_bytes: measured.unwrap_or(0),
            });
            space_bytes += measured.unwrap_or(0);
        }
        // The router's overload picture: its own sheds, and the retained
        // backlog standing in for in-flight work (what shedding or down
        // workers still owe it).
        let retained = self.retained();
        Ok(WireStats {
            ingested: self.ingested,
            uptime_micros: self.started.elapsed().as_micros() as u64,
            witness_target: self.cfg.witness_target() as u64,
            space_bytes,
            wal_bytes: self.durable.as_ref().map_or(0, |d| d.wal.bytes()),
            quota_bytes: 0,
            overload: WireOverload {
                shed_ingest: self.shed_ingest,
                shed_reads,
                shed_conns: 0,
                inflight_updates: retained,
                inflight_bytes: retained * std::mem::size_of::<Update>() as u64,
                lag_updates: retained,
                lag_ms: 0,
            },
            shards,
        })
    }

    /// One heartbeat tick: ping live nodes (a miss marks them down), try to
    /// rejoin down nodes — the background repair that restores full
    /// replication after a loss.
    fn heartbeat(&mut self) {
        for i in 0..self.nodes.len() {
            if let Some(client) = self.nodes[i].client.as_mut() {
                if client.ping().is_err() {
                    self.nodes[i].client = None;
                }
            } else {
                let _ = self.rejoin(i);
            }
        }
    }
}

struct RouterShared {
    inner: Mutex<Inner>,
    /// The published [`ReadPlan`]. The mutex guards a pointer clone/swap
    /// only, like the server's published snapshot.
    plan: Mutex<Arc<ReadPlan>>,
    /// Worker-facing connection options; query links derive theirs per
    /// node with [`client_opts_for`].
    client: ClientOptions,
    /// Idle query links, by node index, shared by every front-end
    /// connection: a read takes one link per reader and parks it again once
    /// answered, so the router holds about as many links to a worker as
    /// reads run at once.
    links: Mutex<Vec<Vec<Client>>>,
    /// Reads a worker shed with [`ErrorCode::Overloaded`] (passed through).
    shed_reads: AtomicU64,
    shutdown: AtomicBool,
}

impl RouterShared {
    /// Run `f` on the router state, then republish the read plan before the
    /// lock drops — so whatever response follows `f`, an ingest ack above
    /// all, is covered by the plan every later read starts from.
    fn with_inner<T>(&self, f: impl FnOnce(&mut Inner) -> T) -> T {
        let mut inner = self.inner.lock().expect("router state");
        let out = f(&mut inner);
        *self.plan.lock().expect("read plan") = Arc::new(inner.plan());
        out
    }

    fn plan(&self) -> Arc<ReadPlan> {
        Arc::clone(&self.plan.lock().expect("read plan"))
    }

    /// Send `req` to node `i` on an idle query link, or on a new one dialled
    /// with [`client_opts_for`] (so a fault plan in the worker options
    /// covers reads too). `redial` skips — and drops — the idle links: one
    /// of them just failed, so the rest likely point at the same dead
    /// process.
    fn send_query(
        &self,
        i: usize,
        addr: &str,
        req: &Request,
        redial: bool,
    ) -> Result<Client, ClientError> {
        let idle = {
            let mut links = self.links.lock().expect("query links");
            match links.get_mut(i) {
                Some(idle) if redial => {
                    idle.clear();
                    None
                }
                Some(idle) => idle.pop(),
                None => None,
            }
        };
        let mut link = match idle {
            Some(link) => link,
            None => Client::connect_with(addr, &client_opts_for(&self.client, i))?,
        };
        link.send(req)?;
        Ok(link)
    }

    /// Read node `i`'s answer on `link`, then park the link for the next
    /// read — unless transport or protocol trouble left it out of sync.
    fn recv_query(&self, i: usize, mut link: Client) -> Result<Response, ClientError> {
        let got = link.recv();
        if !matches!(got, Err(ClientError::Io(_) | ClientError::Protocol(_))) {
            let mut links = self.links.lock().expect("query links");
            if links.len() <= i {
                links.resize_with(i + 1, Vec::new);
            }
            links[i].push(link);
        }
        got
    }
}

/// A running cluster coordinator. Dropping it (or [`Router::join`] after a
/// client `shutdown`) tears down the front end and, with
/// [`RouterOptions::forward_shutdown`] on a client-initiated shutdown, the
/// workers too.
pub struct Router {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    acceptor: Option<JoinHandle<()>>,
    heartbeat: Option<JoinHandle<()>>,
}

impl Router {
    /// Bind the front end at `addr`, recover durable state if
    /// [`RouterOptions::data_dir`] holds any (checkpoint restore + WAL tail
    /// replay, then a wholesale slice push to every reachable worker),
    /// otherwise admit every worker fresh (connect, verify identity,
    /// require an empty engine), seed the per-partition payload store from
    /// a scratch local engine, and assign each worker its replica slice.
    pub fn start(
        cfg: EngineConfig,
        addr: &str,
        workers: &[String],
        opts: RouterOptions,
    ) -> std::io::Result<Router> {
        if workers.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "a cluster needs at least one worker",
            ));
        }
        if opts.replicas == 0 {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "a partition needs at least one replica",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let invalid = |m: String| std::io::Error::new(ErrorKind::InvalidInput, m);
        let partitions = cfg.partitions;

        // Durable recovery first: what is on disk decides whether workers
        // are admitted fresh (must be empty) or re-seeded wholesale.
        let mut durable: Option<Durable> = None;
        let mut recovered_payloads: Option<Vec<Vec<u8>>> = None;
        let mut logs: Vec<Vec<Update>> = vec![Vec::new(); partitions];
        let mut ingested = 0u64;
        let mut assign_epoch = 0u64;
        let mut recovered = false;
        if let Some(dir) = &opts.data_dir {
            std::fs::create_dir_all(dir)?;
            let store = SpaceDir::new(dir, &SpaceId::default_space());
            std::fs::create_dir_all(store.path())?;
            let prior = store.read_checkpoint()?;
            let floor = match &prior {
                Some(env_bytes) => {
                    let env = unwrap_envelope(env_bytes)
                        .map_err(|e| invalid(format!("router checkpoint: {e}")))?;
                    if env.space != SpaceId::default_space().as_str() {
                        return Err(invalid(format!(
                            "router checkpoint is for space '{}', expected the default space",
                            env.space
                        )));
                    }
                    let (header, listed) = checkpoint::decode(env.inner)
                        .map_err(|e| invalid(format!("router checkpoint: {e}")))?;
                    header
                        .check_against(&cfg)
                        .map_err(|e| invalid(format!("router checkpoint: {e}")))?;
                    let mut dense = vec![Vec::new(); partitions];
                    for (p, b) in listed {
                        let slot = dense.get_mut(p as usize).ok_or_else(|| {
                            invalid(format!(
                                "router checkpoint names partition {p}, config has {partitions}"
                            ))
                        })?;
                        *slot = b;
                    }
                    recovered_payloads = Some(dense);
                    env.wal_seq
                }
                None => 0,
            };
            let (wal, recovery) = Wal::open(&wal_path(dir), floor)?;
            let meta = dir.join(META_FILE);
            if let Some((epoch, count)) = read_meta(&meta) {
                assign_epoch = epoch;
                ingested = count;
            }
            let mut replayed = 0u64;
            for (seq, space, updates) in &recovery.replay {
                if *seq <= floor || space != SpaceId::default_space().as_str() {
                    continue;
                }
                for u in updates {
                    logs[partition_of(u.edge.a, partitions)].push(*u);
                }
                replayed += updates.len() as u64;
            }
            ingested += replayed;
            recovered = prior.is_some() || replayed > 0;
            durable = Some(Durable { wal, store, meta });
        }

        // Baseline payloads: empty partition state is a pure function of
        // `(seed, p)`, so build it from a scratch local engine instead of
        // trusting any worker's bytes.
        let payloads = match recovered_payloads {
            Some(p) => p,
            None => {
                let mut scratch = Engine::start(cfg);
                let all: Vec<u32> = (0..partitions as u32).collect();
                let container = scratch.checkpoint_slice(&all);
                let (_, listed) = checkpoint::decode_slice(&container)
                    .map_err(|e| invalid(format!("baseline checkpoint: {e}")))?;
                let mut dense = vec![Vec::new(); partitions];
                for (p, b) in listed {
                    dense[p as usize] = b;
                }
                dense
            }
        };

        let mut nodes = Vec::with_capacity(workers.len());
        for (i, w) in workers.iter().enumerate() {
            let client_opts = client_opts_for(&opts.client, i);
            match admit(w, &cfg, &client_opts) {
                Ok((client, info)) => {
                    if !recovered && info.ingested != 0 {
                        return Err(invalid(format!(
                            "worker {w} already holds {} updates; start cluster workers empty",
                            info.ingested
                        )));
                    }
                    nodes.push(Node::fresh(Some(client)));
                }
                // A fresh cluster needs every worker; a recovering one
                // starts with the hole down and repairs it in background.
                Err(_) if recovered => nodes.push(Node::fresh(None)),
                Err(m) => return Err(invalid(m)),
            }
        }
        let owners = owner_map(partitions, nodes.len(), opts.replicas);
        assign_epoch += 1;
        let heartbeat_period = opts.heartbeat;
        let mut inner = Inner {
            cfg,
            opts,
            nodes,
            addrs: workers.into(),
            owners,
            payloads,
            logs,
            since_refresh: 0,
            ingested,
            assign_epoch,
            durable,
            started: Instant::now(),
            shed_ingest: 0,
        };
        if recovered {
            // Whatever the workers held when the old router died, the
            // wholesale restore makes them exact; unreachable ones stay
            // down and repair through rejoin.
            for i in 0..inner.nodes.len() {
                if inner.nodes[i].client.is_some() {
                    let _ = inner.push_slice(i);
                }
            }
        } else {
            for i in 0..inner.nodes.len() {
                let owned = inner.owned(i);
                inner.nodes[i]
                    .client
                    .as_mut()
                    .expect("admitted node")
                    .slice_assign(&owned)
                    .map_err(|e| {
                        invalid(format!("worker {}: slice assign: {e}", inner.addrs[i]))
                    })?;
            }
            if inner.durable.is_some() {
                // Anchor the empty baseline so a crash before the first
                // compaction still recovers through the checkpoint path.
                inner.compact_durable()?;
            }
        }
        let shared = Arc::new(RouterShared {
            plan: Mutex::new(Arc::new(inner.plan())),
            client: inner.opts.client.clone(),
            links: Mutex::default(),
            inner: Mutex::new(inner),
            shed_reads: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fews-cluster-acceptor".into())
                .spawn(move || run_acceptor(listener, shared))
                .expect("spawn acceptor")
        };
        let heartbeat = heartbeat_period.map(|period| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fews-cluster-heartbeat".into())
                .spawn(move || run_heartbeat(shared, period))
                .expect("spawn heartbeat")
        });
        Ok(Router {
            addr,
            shared,
            acceptor: Some(acceptor),
            heartbeat,
        })
    }

    /// The address the front end actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Request shutdown from the owning side. Does *not* forward to the
    /// workers — only a client-initiated `shutdown` does that (and only
    /// with [`RouterOptions::forward_shutdown`]).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// Block until the front end has wound down. Returns the number of
    /// updates the cluster accepted over the router's lifetime.
    pub fn join(mut self) -> u64 {
        self.join_inner()
    }

    fn join_inner(&mut self) -> u64 {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.heartbeat.take() {
            let _ = handle.join();
        }
        self.shared.inner.lock().expect("router state").ingested
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shutdown();
            self.join_inner();
        }
    }
}

fn run_heartbeat(shared: Arc<RouterShared>, period: Duration) {
    let tick = Duration::from_millis(50);
    let mut elapsed = Duration::ZERO;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(tick);
        elapsed += tick;
        if elapsed < period {
            continue;
        }
        elapsed = Duration::ZERO;
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared.with_inner(Inner::heartbeat);
    }
}

fn run_acceptor(listener: TcpListener, shared: Arc<RouterShared>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        let shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("fews-cluster-conn".into())
            .spawn(move || serve_connection(stream, shared))
            .expect("spawn connection worker");
        workers.push(worker);
        workers.retain(|w| !w.is_finished());
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// What a blocking read observed at a frame boundary.
enum ReadOutcome {
    Full,
    CleanEof,
    Truncated,
    ShuttingDown,
}

/// Fill `buf`, tolerating read timeouts (the shutdown poll) without losing
/// bytes across them.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], shared: &RouterShared) -> ReadOutcome {
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
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Truncated,
        }
    }
    ReadOutcome::Full
}

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

/// The front-end connection loop — the same framing discipline as the
/// single-node server: length-delimited frames keep a malformed body from
/// desyncing the stream, header-level damage closes the connection after a
/// best-effort error frame.
fn serve_connection(mut stream: TcpStream, shared: Arc<RouterShared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut header = [0u8; 4];
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
        match read_full(&mut stream, &mut header, &shared) {
            ReadOutcome::Full => {}
            ReadOutcome::CleanEof | ReadOutcome::ShuttingDown | ReadOutcome::Truncated => return,
        }
        let declared = u32::from_le_bytes(header) as u64;
        let len = match check_frame_len(declared) {
            Ok(len) => len,
            Err(e) => {
                send_error(&mut stream, ErrorCode::Oversized, e.to_string());
                return;
            }
        };
        payload.clear();
        payload.resize(len, 0);
        match read_full(&mut stream, &mut payload, &shared) {
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
        }
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
            shared.shutdown.store(true, Ordering::SeqCst);
        }
        out.clear();
        response.encode_into(&mut out);
        let write_ok = stream.write_all(&out).is_ok();
        if bye {
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

fn fail_response((code, message): Fail) -> Response {
    // A worker's Overloaded passing through the router keeps its meaning —
    // and gets a hint, so the router's clients back off the same way the
    // router's own clients would against the worker.
    if code == ErrorCode::Overloaded {
        return Response::overloaded(message, ROUTER_RETRY_MS);
    }
    Response::error(code, message)
}

/// Gate a front-end query's [`ReadMode`] against the router's acked
/// watermark `ingested`. Every fresh read asks each reader to cover what
/// the router acked to it, so any watermark the router issued is covered
/// by construction — only one it never issued is refused, typed, instead
/// of answered early.
fn check_watermark(ingested: u64, mode: &ReadMode) -> Result<(), Fail> {
    match mode {
        ReadMode::AtLeast(w) if *w > ingested => Err((
            ErrorCode::WatermarkTimeout,
            format!("router has acked watermark {ingested}, request wants {w}"),
        )),
        _ => Ok(()),
    }
}

/// Why a pushed-down read failed.
enum ReadFail {
    /// Node `i` could not answer: transport or protocol trouble that
    /// outlived a reconnect, or a worker that no longer holds its slice.
    Node(usize, Fail),
    /// A worker's typed refusal (shed, watermark timeout, ...), passed
    /// through.
    Typed(Fail),
}

/// Push `query` down to every `(node, partitions)` group of `plan` and
/// merge the answers. Pipelined on the calling thread: every frame out,
/// then every answer in — one round-trip for all readers. A transport
/// failure gets one fresh connection before it counts as the node's.
fn pushdown(
    shared: &RouterShared,
    plan: &ReadPlan,
    groups: &[(usize, Vec<u32>)],
    query: ScopedQuery,
    mode: ReadMode,
) -> Result<Response, ReadFail> {
    let requests: Vec<Request> = groups
        .iter()
        .map(|(i, parts)| Request::ScopedQuery {
            parts: parts.clone(),
            query,
            mode: match mode {
                ReadMode::Stale => ReadMode::Stale,
                ReadMode::AtLeast(_) => ReadMode::AtLeast(plan.acked[*i]),
            },
        })
        .collect();
    let sent: Vec<_> = groups
        .iter()
        .zip(&requests)
        .map(|((i, _), req)| shared.send_query(*i, &plan.addrs[*i], req, false))
        .collect();
    // Every sent frame's answer is read before any failure is acted on,
    // so no link is left holding an unread response.
    let got: Vec<_> = groups
        .iter()
        .zip(sent)
        .map(|((i, _), sent)| sent.and_then(|link| shared.recv_query(*i, link)))
        .collect();
    let (mut lists, mut answer) = (Vec::with_capacity(groups.len()), None);
    for (((i, _), req), got) in groups.iter().zip(&requests).zip(got) {
        let (i, addr) = (*i, plan.addrs[*i].as_str());
        let got = match got {
            Err(ClientError::Io(_) | ClientError::Protocol(_)) => shared
                .send_query(i, addr, req, true)
                .and_then(|link| shared.recv_query(i, link)),
            other => other,
        };
        match (query, got) {
            (ScopedQuery::Certify(_), Ok(Response::Answer(nb))) => answer = nb,
            (ScopedQuery::Certified | ScopedQuery::Top(_), Ok(Response::Hits(hits))) => {
                lists.push(hits)
            }
            (_, Ok(other)) => {
                let e = unexpected("scoped-query", &other);
                return Err(ReadFail::Node(i, node_fail(addr, &e)));
            }
            (_, Err(e)) => {
                let fail = node_fail(addr, &e);
                if fail.0 == ErrorCode::Overloaded {
                    shared.shed_reads.fetch_add(1, Ordering::Relaxed);
                }
                // Transport or protocol trouble fails the node, and so does
                // a worker refusing partitions it does not hold (restarted
                // empty, not yet handed its slice back); any other refusal
                // is the reader's typed answer.
                return Err(match e {
                    ClientError::Server { .. } if fail.0 != ErrorCode::NodeUnavailable => {
                        ReadFail::Typed(fail)
                    }
                    _ => ReadFail::Node(i, fail),
                });
            }
        }
    }
    Ok(match query {
        ScopedQuery::Certified => {
            Response::Answer(GlobalView::merge_certified(lists.into_iter().flatten()))
        }
        ScopedQuery::Certify(_) => Response::Answer(answer),
        ScopedQuery::Top(k) => Response::Top(GlobalView::merge_top(
            lists,
            k.min(u32::MAX as u64) as usize,
        )),
    })
}

/// A `certified` / `certify v` / `top k` over the whole cluster: pushed
/// down to the designated readers of the partitions it needs. Only a
/// failure takes [`Inner`] — to fail the node over (or rejoin a partition's
/// last owner) and republish the plan; the read then retries once.
fn read(shared: &RouterShared, query: ScopedQuery, mode: ReadMode) -> Response {
    let mut plan = shared.plan();
    let needed: Vec<usize> = match query {
        ScopedQuery::Certify(v) => vec![partition_of(v, plan.reader.len())],
        _ => (0..plan.reader.len()).collect(),
    };
    for attempt in 0..2 {
        if let Err(fail) = check_watermark(plan.ingested, &mode) {
            return fail_response(fail);
        }
        let down = match plan.groups(&needed) {
            None => None, // a needed partition has no live owner
            Some(groups) => match pushdown(shared, &plan, &groups, query, mode) {
                Ok(answer) => return answer,
                Err(ReadFail::Node(i, _)) if attempt == 0 => Some((i, plan.incarnation[i])),
                Err(ReadFail::Node(_, fail) | ReadFail::Typed(fail)) => return fail_response(fail),
            },
        };
        if let Err(fail) = shared.with_inner(|inner| inner.fail_over(down, &needed)) {
            return fail_response(fail);
        }
        plan = shared.plan();
    }
    fail_response((
        ErrorCode::NodeUnavailable,
        "the cluster's membership kept changing under the read".into(),
    ))
}

fn handle_request(space: SpaceId, request: Request, shared: &RouterShared) -> Response {
    // Requests that need no space routing, or that a router categorically
    // does not serve, are answered before the space check.
    match &request {
        Request::Ping => return Response::Pong,
        Request::Shutdown => {
            shared.with_inner(|inner| {
                if inner.opts.forward_shutdown {
                    for node in &mut inner.nodes {
                        if let Some(client) = node.client.as_mut() {
                            let _ = client.shutdown();
                        }
                        node.client = None;
                    }
                }
            });
            return Response::Bye;
        }
        Request::CreateSpace(_) | Request::DropSpace | Request::ListSpaces => {
            return Response::error(
                ErrorCode::Malformed,
                "a cluster router does not manage spaces; address its workers directly".into(),
            );
        }
        Request::SliceAssign(_)
        | Request::ViewPull { .. }
        | Request::SliceCheckpoint(_)
        | Request::SliceRestore(_)
        | Request::ScopedQuery { .. } => {
            return Response::error(
                ErrorCode::Malformed,
                "worker-facing request sent to a cluster router".into(),
            );
        }
        _ => {}
    }
    if !space.is_default() {
        return Response::error(
            ErrorCode::UnknownSpace,
            format!("a cluster router serves the default space only (got '{space}')"),
        );
    }
    match request {
        Request::Certified(mode) => return read(shared, ScopedQuery::Certified, mode),
        Request::Certify(v, mode) => return read(shared, ScopedQuery::Certify(v), mode),
        Request::Top(k, mode) => return read(shared, ScopedQuery::Top(k), mode),
        _ => {}
    }
    let shed_reads = shared.shed_reads.load(Ordering::Relaxed);
    shared.with_inner(|inner| match request {
        Request::IngestBatch(updates) => inner.ingest(updates),
        Request::Stats(mode) => {
            match check_watermark(inner.ingested, &mode).and_then(|()| inner.stats(shed_reads)) {
                Ok(stats) => Response::Stats(stats),
                Err(fail) => fail_response(fail),
            }
        }
        Request::Checkpoint => match inner.checkpoint() {
            Ok(bytes) => {
                if !body_fits(bytes.len()) {
                    return Response::error(
                        ErrorCode::Oversized,
                        format!(
                            "checkpoint is {} bytes, larger than one frame can carry",
                            bytes.len()
                        ),
                    );
                }
                Response::Checkpoint(bytes)
            }
            Err(fail) => fail_response(fail),
        },
        Request::Restore(bytes) => match inner.restore(&bytes) {
            Ok(()) => Response::Restored,
            Err(fail) => fail_response(fail),
        },
        Request::JoinWorker(addr) => match inner.join(&addr) {
            Ok(()) => Response::SpaceOk,
            Err(fail) => fail_response(fail),
        },
        Request::NodeHello => {
            Response::NodeInfo(WireNodeInfo::for_config(&inner.cfg, inner.ingested))
        }
        // Reads go through `read`; everything else was answered above.
        _ => Response::error(
            ErrorCode::Malformed,
            "request handled before space routing".into(),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fews_core::insertion_only::FewwConfig;
    use fews_net::{Server, WireView};
    use fews_stream::Edge;

    fn test_cfg() -> EngineConfig {
        EngineConfig::insert_only(FewwConfig::new(64, 8, 2), 2021)
            .with_shards(2)
            .with_partitions(8)
    }

    /// A deterministic insertion stream touching every partition.
    fn stream(len: u32) -> Vec<Update> {
        (0..len)
            .map(|i| {
                let a = (i * 7 + i / 5) % 64;
                let b = u64::from(i * 13 % 29);
                Update::insert(Edge::new(a, b))
            })
            .collect()
    }

    fn quick_opts() -> RouterOptions {
        RouterOptions {
            // Generous timeout: the full test suite shares one core, and
            // dead-worker detection goes through connection-refused (which
            // is immediate), so nothing here waits it out.
            client: ClientOptions::bounded(Duration::from_secs(5), 0),
            heartbeat: None,
            refresh_updates: 200,
            forward_shutdown: false,
            replicas: 1,
            pipeline: true,
            data_dir: None,
            retained_budget: 1 << 20,
        }
    }

    fn replicated_opts(replicas: usize) -> RouterOptions {
        RouterOptions {
            replicas,
            ..quick_opts()
        }
    }

    fn start_worker_at(cfg: EngineConfig, addr: SocketAddr) -> Server {
        // The previous tenant's sockets may linger briefly; retry the bind.
        for _ in 0..100 {
            match Server::start(cfg, &addr.to_string()) {
                Ok(server) => return server,
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        panic!("could not rebind {addr}");
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fews-router-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn reference_view(cfg: EngineConfig, updates: &[Update]) -> Arc<GlobalView> {
        let mut reference = Engine::start(cfg);
        reference.ingest(updates.to_vec());
        let (view, _) = reference.refresh();
        view
    }

    #[test]
    fn owner_map_balances_and_clamps() {
        assert_eq!(owner_map(4, 2, 1), vec![vec![0], vec![1], vec![0], vec![1]]);
        assert_eq!(
            owner_map(4, 3, 2),
            vec![vec![0, 1], vec![1, 2], vec![2, 0], vec![0, 1]]
        );
        // R clamps to the node count: every node owns everything.
        assert_eq!(owner_map(2, 2, 5), vec![vec![0, 1], vec![1, 0]]);
    }

    #[test]
    fn two_node_cluster_matches_single_engine() {
        let cfg = test_cfg();
        let w1 = Server::start(cfg, "127.0.0.1:0").expect("worker 1");
        let w2 = Server::start(cfg, "127.0.0.1:0").expect("worker 2");
        let workers = vec![w1.local_addr().to_string(), w2.local_addr().to_string()];
        let router = Router::start(cfg, "127.0.0.1:0", &workers, quick_opts()).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");

        let updates = stream(3_000);
        for chunk in updates.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }

        let mut reference = Engine::start(cfg);
        reference.ingest(updates.clone());
        let (view, _) = reference.refresh();

        assert_eq!(client.certified().expect("certified"), view.certified());
        for v in [0u32, 7, 13, 63] {
            assert_eq!(client.certify(v).expect("certify"), view.certify(v));
        }
        assert_eq!(client.top(5).expect("top"), view.top(5));

        // The cluster checkpoint is byte-identical to the single engine's.
        let envelope = client.checkpoint().expect("checkpoint");
        let env = unwrap_envelope(&envelope).expect("envelope");
        assert_eq!(env.inner, reference.checkpoint());

        // Repeated queries answer the same.
        assert_eq!(client.certified().expect("repeat"), view.certified());

        let stats = client.stats().expect("stats");
        assert_eq!(stats.ingested, updates.len() as u64);
        assert_eq!(stats.shards.len(), 2);
        assert_eq!(stats.shards.iter().map(|s| s.partitions).sum::<u64>(), 8);

        router.shutdown();
        router.join();
        w1.shutdown();
        w1.join();
        w2.shutdown();
        w2.join();
    }

    #[test]
    fn router_serves_default_space_only() {
        let cfg = test_cfg();
        let w1 = Server::start(cfg, "127.0.0.1:0").expect("worker");
        let workers = vec![w1.local_addr().to_string()];
        let router = Router::start(cfg, "127.0.0.1:0", &workers, quick_opts()).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");

        client.ping().expect("ping");
        let info = client.node_hello().expect("hello");
        assert_eq!(info.partitions, 8);

        let spec = fews_common::SpaceConfig::insert_only(16, 4, 2);
        let name = SpaceId::new("tenant").expect("space id");
        match client.create_space(&name, spec) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("create-space on a router should fail, got {other:?}"),
        }
        client.set_space(name);
        match client.certified() {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownSpace),
            other => panic!("non-default space should be rejected, got {other:?}"),
        }

        router.shutdown();
        router.join();
        w1.shutdown();
        w1.join();
    }

    #[test]
    fn dead_worker_is_typed_then_rejoins_via_handoff() {
        let cfg = test_cfg();
        let w1 = Server::start(cfg, "127.0.0.1:0").expect("worker 1");
        let w2 = Server::start(cfg, "127.0.0.1:0").expect("worker 2");
        let w2_addr = w2.local_addr();
        let workers = vec![w1.local_addr().to_string(), w2_addr.to_string()];
        // R=1: the dead worker's partitions have no surviving replica.
        let router = Router::start(cfg, "127.0.0.1:0", &workers, quick_opts()).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");

        let updates = stream(2_000);
        let (first, rest) = updates.split_at(1_200);
        for chunk in first.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        client.certified().expect("healthy query");

        // Kill worker 2 hard, then keep ingesting: the batch still acks
        // (retained at the router), but queries need the missing slice.
        w2.crash();
        w2.join();
        for chunk in rest.chunks(97) {
            client
                .ingest_batch(chunk)
                .expect("degraded ingest still acks");
        }
        match client.certified() {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::NodeUnavailable)
            }
            other => panic!("query with a dead owner should be typed, got {other:?}"),
        }

        // Revive the worker empty on the same address: the next query
        // rejoins it via checkpoint handoff + log replay, and the cluster
        // answers exactly like a single engine that saw everything.
        let w2 = start_worker_at(cfg, w2_addr);
        let mut reference = Engine::start(cfg);
        reference.ingest(updates.clone());
        let (view, _) = reference.refresh();
        assert_eq!(client.certified().expect("recovered"), view.certified());
        let envelope = client.checkpoint().expect("checkpoint");
        let env = unwrap_envelope(&envelope).expect("envelope");
        assert_eq!(env.inner, reference.checkpoint());

        router.shutdown();
        router.join();
        w1.shutdown();
        w1.join();
        w2.shutdown();
        w2.join();
    }

    #[test]
    fn replica_survives_worker_loss_without_pausing() {
        let cfg = test_cfg();
        let w1 = Server::start(cfg, "127.0.0.1:0").expect("worker 1");
        let w2 = Server::start(cfg, "127.0.0.1:0").expect("worker 2");
        let w3 = Server::start(cfg, "127.0.0.1:0").expect("worker 3");
        let workers = vec![
            w1.local_addr().to_string(),
            w2.local_addr().to_string(),
            w3.local_addr().to_string(),
        ];
        let router =
            Router::start(cfg, "127.0.0.1:0", &workers, replicated_opts(2)).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");

        let updates = stream(3_000);
        let (first, rest) = updates.split_at(1_500);
        for chunk in first.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        client.certified().expect("healthy query");

        // Kill one worker mid-stream. With R=2 every partition still has a
        // live owner, so queries keep answering — no NodeUnavailable, no
        // recovery pause — and they answer exactly.
        w2.crash();
        w2.join();
        for (k, chunk) in rest.chunks(97).enumerate() {
            client.ingest_batch(chunk).expect("degraded ingest acks");
            if k % 4 == 0 {
                let so_far = 1_500
                    + rest
                        .chunks(97)
                        .take(k + 1)
                        .map(<[Update]>::len)
                        .sum::<usize>();
                let view = reference_view(cfg, &updates[..so_far]);
                assert_eq!(
                    client.certified().expect("no pause under replica loss"),
                    view.certified()
                );
            }
        }

        let view = reference_view(cfg, &updates);
        assert_eq!(client.certified().expect("final"), view.certified());
        for v in [0u32, 7, 13, 63] {
            assert_eq!(client.certify(v).expect("certify"), view.certify(v));
        }
        assert_eq!(client.top(5).expect("top"), view.top(5));

        // Checkpoint drains through surviving replicas only.
        let mut reference = Engine::start(cfg);
        reference.ingest(updates.clone());
        let envelope = client.checkpoint().expect("checkpoint");
        let env = unwrap_envelope(&envelope).expect("envelope");
        assert_eq!(env.inner, reference.checkpoint());

        router.shutdown();
        router.join();
        w1.shutdown();
        w1.join();
        w3.shutdown();
        w3.join();
    }

    #[test]
    fn killed_router_restarts_from_data_dir_byte_identical() {
        let cfg = test_cfg();
        let dir = scratch_dir("restart");
        let w1 = Server::start(cfg, "127.0.0.1:0").expect("worker 1");
        let w2 = Server::start(cfg, "127.0.0.1:0").expect("worker 2");
        let (w1_addr, w2_addr) = (w1.local_addr(), w2.local_addr());
        let workers = vec![w1_addr.to_string(), w2_addr.to_string()];
        let opts = RouterOptions {
            data_dir: Some(dir.clone()),
            ..replicated_opts(2)
        };

        // 22 chunks of 97: the periodic refresh (threshold 200) compacts
        // after chunk 21, so the final chunk is retained only in the WAL
        // tail — the restart exercises checkpoint restore AND WAL replay.
        let updates = stream(2_134);
        {
            let router = Router::start(cfg, "127.0.0.1:0", &workers, opts.clone()).expect("router");
            let mut client = Client::connect(router.local_addr()).expect("connect");
            for chunk in updates.chunks(97) {
                client.ingest_batch(chunk).expect("ingest");
            }
            let stats = client.stats().expect("stats");
            assert_eq!(stats.ingested, updates.len() as u64);
            // No clean shutdown handshake: dropping the router here is a
            // crash as far as durability is concerned (nothing is flushed
            // on drop — every ack was already fsynced).
            router.shutdown();
            router.join();
        }

        // The workers die too; they come back empty. Everything the new
        // router pushes them comes from disk alone.
        w1.crash();
        w1.join();
        w2.crash();
        w2.join();
        let w1 = start_worker_at(cfg, w1_addr);
        let w2 = start_worker_at(cfg, w2_addr);

        let router = Router::start(cfg, "127.0.0.1:0", &workers, opts).expect("restarted router");
        let mut client = Client::connect(router.local_addr()).expect("reconnect");
        let view = reference_view(cfg, &updates);
        assert_eq!(client.certified().expect("replayed"), view.certified());
        let mut reference = Engine::start(cfg);
        reference.ingest(updates.clone());
        let envelope = client.checkpoint().expect("checkpoint");
        let env = unwrap_envelope(&envelope).expect("envelope");
        assert_eq!(env.inner, reference.checkpoint());
        let stats = client.stats().expect("stats");
        assert_eq!(stats.ingested, updates.len() as u64);

        router.shutdown();
        router.join();
        w1.shutdown();
        w1.join();
        w2.shutdown();
        w2.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What the fake worker answers when the router reads state from it.
    #[derive(Clone, Copy)]
    enum FakeMode {
        /// Reads get a well-framed answer of the wrong kind (a view naming
        /// partition 7777), slice checkpoints name partition 7777 (out of
        /// range for an 8-partition cluster).
        AlienPartition,
        /// Every state-bearing response is a garbage byte blob.
        Garbage,
    }

    /// A protocol-correct worker for admission that turns byzantine for
    /// state transfer — the regression harness for the unwrap audit: the
    /// router must answer typed errors, never panic.
    fn fake_worker(cfg: EngineConfig, mode: FakeMode) -> (SocketAddr, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake worker");
        let addr = listener.local_addr().expect("fake worker addr");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("fake-worker".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(mut stream) = stream else { continue };
                    std::thread::spawn(move || serve_fake(&mut stream, &cfg, mode));
                }
            })
            .expect("spawn fake worker");
        (addr, stop)
    }

    fn serve_fake(stream: &mut TcpStream, cfg: &EngineConfig, mode: FakeMode) {
        let mut header = [0u8; 4];
        loop {
            if stream.read_exact(&mut header).is_err() {
                return;
            }
            let len = u32::from_le_bytes(header) as usize;
            let mut payload = vec![0u8; len];
            if stream.read_exact(&mut payload).is_err() {
                return;
            }
            let Ok((_, request)) = Request::decode(&payload) else {
                return;
            };
            let response = match request {
                Request::Ping => Response::Pong,
                Request::NodeHello => Response::NodeInfo(WireNodeInfo::for_config(cfg, 0)),
                Request::SliceAssign(_) => Response::SpaceOk,
                Request::SliceRestore(_) => Response::Restored,
                Request::IngestBatch(u) => Response::Ingested {
                    count: u.len() as u64,
                    watermark: 1,
                },
                Request::ScopedQuery { .. } => match mode {
                    FakeMode::AlienPartition => Response::View(WireView::InsertOnly {
                        epoch: 1,
                        parts: vec![(7_777, vec![1, 2, 3])],
                    }),
                    FakeMode::Garbage => {
                        // A frame that is not a decodable Response at all.
                        let junk = [9u8, 99, 99, 99, 99];
                        let _ = stream.write_all(&(junk.len() as u32).to_le_bytes());
                        let _ = stream.write_all(&junk);
                        continue;
                    }
                },
                Request::SliceCheckpoint(_) => match mode {
                    FakeMode::AlienPartition => Response::Checkpoint(checkpoint::encode_slice(
                        cfg,
                        &[(7_777, vec![4, 5, 6])],
                    )),
                    FakeMode::Garbage => Response::Checkpoint(vec![0xde, 0xad, 0xbe, 0xef]),
                },
                _ => Response::error(
                    ErrorCode::Malformed,
                    "unexpected request at fake worker".into(),
                ),
            };
            if stream.write_all(&response.encode()).is_err() {
                return;
            }
        }
    }

    #[test]
    fn byzantine_worker_yields_typed_errors_never_panics() {
        for mode in [FakeMode::AlienPartition, FakeMode::Garbage] {
            let cfg = test_cfg();
            let (addr, stop) = fake_worker(cfg, mode);
            let workers = vec![addr.to_string()];
            let router =
                Router::start(cfg, "127.0.0.1:0", &workers, quick_opts()).expect("router admits");
            let mut client = Client::connect(router.local_addr()).expect("connect");

            // Ingest acks (retained at the router regardless of the worker).
            client.ingest_batch(&stream(300)).expect("ingest acks");

            // Queries and checkpoints hit the byzantine state transfer:
            // typed error frames, never a panic, and the router survives.
            for _ in 0..3 {
                match client.certified() {
                    Err(ClientError::Server { code, .. }) => assert!(
                        matches!(code, ErrorCode::Malformed | ErrorCode::NodeUnavailable),
                        "unexpected code {code:?}"
                    ),
                    other => panic!("byzantine worker should yield typed errors, got {other:?}"),
                }
            }
            match client.checkpoint() {
                Err(ClientError::Server { code, .. }) => assert!(
                    matches!(code, ErrorCode::Malformed | ErrorCode::NodeUnavailable),
                    "unexpected code {code:?}"
                ),
                other => panic!("byzantine checkpoint should be typed, got {other:?}"),
            }
            client.ping().expect("router still alive");

            stop.store(true, Ordering::SeqCst);
            router.shutdown();
            router.join();
            let _ = TcpStream::connect(addr); // unblock the fake acceptor
        }
    }

    #[test]
    fn join_worker_rebalances_without_changing_answers() {
        let cfg = test_cfg();
        let w1 = Server::start(cfg, "127.0.0.1:0").expect("worker 1");
        let workers = vec![w1.local_addr().to_string()];
        let router = Router::start(cfg, "127.0.0.1:0", &workers, quick_opts()).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");

        let updates = stream(2_500);
        let (first, rest) = updates.split_at(1_000);
        for chunk in first.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }

        // Scale out mid-stream: the new worker takes over half the
        // partition space via checkpoint handoff.
        let w2 = Server::start(cfg, "127.0.0.1:0").expect("worker 2");
        client
            .join_worker(&w2.local_addr().to_string())
            .expect("join");
        for chunk in rest.chunks(97) {
            client.ingest_batch(chunk).expect("ingest after join");
        }

        let mut reference = Engine::start(cfg);
        reference.ingest(updates.clone());
        let (view, _) = reference.refresh();
        assert_eq!(client.certified().expect("certified"), view.certified());
        let envelope = client.checkpoint().expect("checkpoint");
        let env = unwrap_envelope(&envelope).expect("envelope");
        assert_eq!(env.inner, reference.checkpoint());
        let stats = client.stats().expect("stats");
        assert_eq!(stats.shards.len(), 2);
        assert_eq!(stats.shards[1].partitions, 4);

        router.shutdown();
        router.join();
        w1.shutdown();
        w1.join();
        w2.shutdown();
        w2.join();
    }

    #[test]
    fn restore_propagates_to_every_worker() {
        let cfg = test_cfg();
        let w1 = Server::start(cfg, "127.0.0.1:0").expect("worker 1");
        let w2 = Server::start(cfg, "127.0.0.1:0").expect("worker 2");
        let workers = vec![w1.local_addr().to_string(), w2.local_addr().to_string()];
        let router = Router::start(cfg, "127.0.0.1:0", &workers, quick_opts()).expect("router");
        let mut client = Client::connect(router.local_addr()).expect("connect");

        // A donor engine's checkpoint, installed cluster-wide.
        let updates = stream(1_800);
        let mut donor = Engine::start(cfg);
        donor.ingest(updates.clone());
        let inner = donor.checkpoint();
        let envelope = checkpoint::wrap_envelope("default", 0, &inner);
        client.restore(&envelope).expect("restore");

        let (view, _) = donor.refresh();
        assert_eq!(client.certified().expect("certified"), view.certified());
        let roundtrip = client.checkpoint().expect("checkpoint");
        let env = unwrap_envelope(&roundtrip).expect("envelope");
        assert_eq!(env.inner, inner);

        // And the stream continues cleanly on top of the restored state.
        let more = stream(2_400);
        let tail = &more[1_800..];
        for chunk in tail.chunks(97) {
            client.ingest_batch(chunk).expect("ingest");
        }
        donor.ingest(tail.to_vec());
        let (view, _) = donor.refresh();
        assert_eq!(client.certified().expect("certified"), view.certified());

        router.shutdown();
        router.join();
        w1.shutdown();
        w1.join();
        w2.shutdown();
        w2.join();
    }
}
