//! # `fews-cluster` — multi-process scale-out for the FEwW engine
//!
//! The paper's summaries are mergeable by construction, and the repo has
//! proven it locally: certified output and checkpoint bytes are
//! byte-identical at every shard count K, over the wire, and across
//! crash-replay. This crate exploits that mergeability for real
//! distribution: N independent `fews-net` worker processes, one
//! coordinator, one byte-identical global answer.
//!
//! ## Architecture
//!
//! [`Router`] is itself a `fews-net` protocol v3 server, so any existing
//! client (`fews client`, the bench harness) talks to a cluster exactly as
//! it talks to one node. Behind the front end:
//!
//! * **Partition routing.** The unit of distribution is the *partition* —
//!   the same `partition_of(a, P)` vertex-hash slice the engine already
//!   uses as its unit of randomness. Partition `p` lives on node
//!   `p % N`, and because per-partition RNG streams derive from
//!   `(master seed, p)` alone, a partition computes bit-identical state no
//!   matter which node hosts it. Ingest batches fan out by owner, with
//!   order preserved per partition.
//! * **Query pushdown.** A FEwW answer is one vertex plus its witnesses,
//!   and partitions own disjoint vertex sets, so every answer is a merge
//!   of the workers' own answers over their partitions. The router sends
//!   each partition's designated reader one scoped query, answered from
//!   the worker's published snapshot, and merges the ranked answers
//!   ([`fews_engine::GlobalView::merge_certified`] /
//!   [`fews_engine::GlobalView::merge_top`]). It keeps no view and no
//!   refresher of its own: fresh reads ride each worker's watermark, and
//!   the router's lock stays off the read path.
//! * **Replicated ownership.** Each partition has R owners
//!   ([`RouterOptions::replicas`], default 2): the ring neighbours
//!   `(p + k) % N`, primary first. Ingest fans out to every live owner
//!   with pipelined sends (all frames written, then all acks collected —
//!   one round-trip for R replicas), and reads ask each partition of its
//!   first live owner only (its *designated reader*). Because
//!   partition state is a pure function of `(seed, p, stream)`, replicas
//!   agree byte-for-byte by construction — no consensus round needed —
//!   and at R ≥ 2 a single node loss degrades to "read from the replica"
//!   with zero query errors and zero recovery pause.
//! * **Checkpoint-handoff repair.** The router retains, per partition,
//!   the last slice-checkpoint payload plus the updates routed since
//!   (*log-before-send*: an update is logged before it is offered to a
//!   worker). A dead worker — heartbeat miss or send failure — is marked
//!   down; rejoin streams its slice back as exact engine container bytes
//!   (`FEWWSLC1`) and replays the retained log, so the revived node is
//!   bit-exact with a node that never died. At R ≥ 2 this runs as
//!   *background* repair from the heartbeat thread; only a partition with
//!   no live owner at all (the R=1 corner) forces a bounded rejoin on the
//!   query path, and only its failure surfaces as a typed
//!   `node-unavailable` error. `join-worker` rebalances a healthy cluster
//!   through the same slice pushes.
//! * **Durable coordination.** With [`RouterOptions::data_dir`] set, the
//!   retained logs ride the same `fews_engine::wal` machinery as a single
//!   durable server: every acked batch is fsynced to a CRC-framed WAL
//!   before the ack, and whenever the retained logs drain the router
//!   atomically checkpoints its payload store (watermarked with the WAL
//!   sequence it covers) and resets the log. `kill -9` of the router
//!   replays checkpoint + WAL tail to bit-exact retained state and
//!   re-seeds every reachable worker wholesale — acknowledged means
//!   durable end-to-end.
//!
//! The differential gate (`tests/tests/cluster_equivalence.rs`) holds a
//! 2/3/4-node cluster — including one that lost and revived a worker, and
//! randomized kill/rejoin interleavings at R ∈ {1,2,3} — byte-identical
//! to a single-threaded `fews-core` reference: certified sets, `top(k)`,
//! and full checkpoint bytes. The fault lab
//! (`tests/tests/cluster_faults.rs`) drives the same assertions under
//! seeded transport fault schedules injected via `fews_net::FaultPlan`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod router;

pub use router::{Router, RouterOptions};
