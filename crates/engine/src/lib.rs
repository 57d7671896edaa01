//! # `fews-engine` — a sharded, multi-threaded streaming runtime for FEwW
//!
//! The algorithms in `fews-core` are one-shot batch structures: feed a
//! `Vec<Update>`, call `result()`. This crate wraps them in a long-running
//! concurrent engine suitable for serving live traffic:
//!
//! * **Sharding by vertex.** The stream is hash-partitioned on the A-vertex
//!   into `P` logical *partitions* (default [`DEFAULT_PARTITIONS`]), each an
//!   independent `fews-core` algorithm instance with its own RNG stream
//!   derived from the master seed via [`partition_seed`]. Partitions are
//!   assigned to `K` worker threads (*shards*) round-robin
//!   (`shard = partition mod K`). Because the unit of randomness is the
//!   partition — not the thread — a K-shard run is exactly reproducible
//!   **and** independent of K: the same master seed produces byte-identical
//!   certified witness sets and checkpoints at every shard count
//!   (`tests/tests/engine_equivalence.rs` pins this down).
//! * **Batched ingest with backpressure.** [`Engine::push`] routes updates
//!   into per-shard batches delivered over bounded channels; when a worker
//!   falls behind, `push` blocks instead of buffering unboundedly.
//! * **Live queries, incrementally rebuilt.** [`Engine::view`] flushes
//!   in-flight batches and folds every partition's state into an
//!   `Arc<`[`GlobalView`]`>` — the shard-and-merge discipline of mergeable
//!   summaries: insertion-only states merge by degree-table sum + reservoir
//!   union ([`fews_core::wire::MemoryState::merge`]), insertion-deletion
//!   ℓ₀-banks merge by witness-set union. The view answers `certified` /
//!   `certify(v)` / `top(k)`. The engine tracks a per-partition update
//!   *epoch* and memoizes each partition's contribution: a view call
//!   re-gathers only partitions whose epoch advanced (and, for
//!   insertion-deletion, re-decodes only the sampler banks those updates
//!   touched), so query cost is O(changes since the last view) — and O(1)
//!   on a quiesced engine.
//! * **Checkpoint/restore.** [`Engine::checkpoint`] serializes every
//!   partition through the existing `fews_core::wire` formats into a single
//!   tagged byte string; [`Engine::restore_checkpoint`] loads it into a
//!   freshly started engine (same config + seed) and the stream replay can
//!   continue where it left off — at any shard count, since the checkpoint
//!   is keyed by partition, not by thread.
//!
//! ```
//! use fews_core::insertion_only::FewwConfig;
//! use fews_engine::{Engine, EngineConfig};
//! use fews_stream::{Edge, Update};
//!
//! let cfg = EngineConfig::insert_only(FewwConfig::new(16, 8, 2), 42).with_shards(2);
//! let mut engine = Engine::start(cfg);
//! for b in 0..8 {
//!     engine.push(Update::insert(Edge::new(7, b)));
//! }
//! for a in 0..16 {
//!     engine.push(Update::insert(Edge::new(a, 100 + a as u64)));
//! }
//! let out = engine.view().certified().expect("vertex 7 has degree 8");
//! assert_eq!(out.vertex, 7);
//! assert!(out.size() >= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod diskfault;
mod engine;
mod shard;
mod view;
pub mod wal;

pub use engine::{Engine, EngineStats, RefreshBarrier, RefreshDone, ShardStats};
pub use view::{GlobalView, ScopedHit};

use fews_common::rng::{derive_seed, splitmix64};
use fews_common::{SpaceConfig, SpaceModel};
use fews_core::insertion_deletion::IdConfig;
use fews_core::insertion_only::FewwConfig;

/// Default number of logical partitions (`P`). Must stay fixed across runs
/// that are meant to compare or restore each other's checkpoints.
pub const DEFAULT_PARTITIONS: usize = 16;

/// Seed-stream label reserved for engine partitions.
const PARTITION_STREAM: u64 = 0xE26_1000;

/// The logical partition owning A-vertex `a` (splitmix64 hash mod `P`).
///
/// This is the routing function: every update with left endpoint `a` is
/// processed by partition `partition_of(a, P)`, so vertex state never spans
/// partitions.
#[inline]
pub fn partition_of(a: u32, partitions: usize) -> usize {
    (splitmix64(a as u64) % partitions as u64) as usize
}

/// The RNG master seed of partition `p` under engine master seed `master`.
///
/// Derivation goes through [`fews_common::rng::derive_seed`], so partitions
/// are mutually independent and the whole K-shard run is a deterministic
/// function of `(master, P)` alone.
#[inline]
pub fn partition_seed(master: u64, partition: u32) -> u64 {
    derive_seed(master, PARTITION_STREAM ^ partition as u64)
}

/// Which algorithm family the engine runs, with its parameters.
#[derive(Debug, Clone, Copy)]
pub enum ModelSpec {
    /// Algorithm 2 (`FewwInsertOnly`) per partition; rejects deletions.
    InsertOnly(FewwConfig),
    /// Algorithm 3 (`FewwInsertDelete`) per partition. Each partition gets
    /// the full sampler budget of `cfg`; scale with
    /// [`IdConfig::sampler_scale`] when P× space is too much.
    InsertDelete(IdConfig),
}

/// Engine configuration: model parameters plus runtime shape.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Algorithm family and parameters.
    pub model: ModelSpec,
    /// Worker threads (`K ≥ 1`). Results do not depend on this.
    pub shards: usize,
    /// Logical partitions (`P ≥ 1`). Results DO depend on this; keep it
    /// fixed ([`DEFAULT_PARTITIONS`]) across comparable runs.
    pub partitions: usize,
    /// Updates per batch handed to a shard.
    pub batch: usize,
    /// Bounded queue depth per shard, in batches — the backpressure window.
    pub queue_depth: usize,
    /// Master seed; all partition RNGs derive from it.
    pub seed: u64,
}

impl EngineConfig {
    /// Insertion-only engine with default runtime shape.
    pub fn insert_only(cfg: FewwConfig, seed: u64) -> Self {
        EngineConfig {
            model: ModelSpec::InsertOnly(cfg),
            shards: 4,
            partitions: DEFAULT_PARTITIONS,
            batch: 1024,
            queue_depth: 4,
            seed,
        }
    }

    /// Insertion-deletion engine with default runtime shape.
    pub fn insert_delete(cfg: IdConfig, seed: u64) -> Self {
        EngineConfig {
            model: ModelSpec::InsertDelete(cfg),
            ..Self::insert_only(FewwConfig::new(1, 1, 1), seed)
        }
    }

    /// Set the worker thread count `K`.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set the logical partition count `P`.
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Set the ingest batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Set the per-shard bounded queue depth (in batches).
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// The witness target `d₂ = max(1, ⌊d/α⌋)` of the underlying model.
    pub fn witness_target(&self) -> u32 {
        match self.model {
            ModelSpec::InsertOnly(cfg) => cfg.witness_target(),
            ModelSpec::InsertDelete(cfg) => cfg.witness_target(),
        }
    }

    /// Build an engine config for a tenant space: model and partition count
    /// from the [`SpaceConfig`], runtime shape (shards, batch, queue depth)
    /// left at the defaults for the caller to override. `spec` must have
    /// passed [`SpaceConfig::validate`].
    pub fn from_space(spec: &SpaceConfig, seed: u64) -> Self {
        let base = match spec.model {
            SpaceModel::InsertOnly => {
                Self::insert_only(FewwConfig::new(spec.n, spec.d, spec.alpha), seed)
            }
            SpaceModel::InsertDelete => Self::insert_delete(
                IdConfig::with_scale(spec.n, spec.m, spec.d, spec.alpha, spec.scale),
                seed,
            ),
        };
        base.with_partitions(spec.partitions as usize)
    }

    /// The [`SpaceConfig`] describing this engine's model and partitions
    /// (quota is a serving-layer concern and comes in from the caller).
    pub fn to_space(&self, quota_bytes: u64) -> SpaceConfig {
        match self.model {
            ModelSpec::InsertOnly(c) => SpaceConfig::insert_only(c.n, c.d, c.alpha),
            ModelSpec::InsertDelete(c) => {
                SpaceConfig::insert_delete(c.n, c.m, c.d, c.alpha, c.sampler_scale)
            }
        }
        .with_partitions(self.partitions as u32)
        .with_quota(quota_bytes)
    }

    pub(crate) fn validate(&self) {
        assert!(self.shards >= 1, "engine needs at least one shard");
        assert!(self.partitions >= 1, "engine needs at least one partition");
        assert!(self.batch >= 1, "batch size must be positive");
        assert!(self.queue_depth >= 1, "queue depth must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_of_is_stable_and_in_range() {
        for a in 0..1000u32 {
            let p = partition_of(a, 16);
            assert!(p < 16);
            assert_eq!(p, partition_of(a, 16));
        }
        // All vertices land in partition 0 when P = 1.
        assert!((0..100).all(|a| partition_of(a, 1) == 0));
    }

    #[test]
    fn partition_of_spreads_vertices() {
        let mut counts = [0usize; 16];
        for a in 0..16_000u32 {
            counts[partition_of(a, 16)] += 1;
        }
        for (p, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - 1000.0).abs() < 300.0,
                "partition {p} got {c} of 16000"
            );
        }
    }

    #[test]
    fn partition_seeds_differ() {
        let seeds: std::collections::HashSet<u64> =
            (0..64).map(|p| partition_seed(2021, p)).collect();
        assert_eq!(seeds.len(), 64);
        assert_eq!(partition_seed(2021, 3), partition_seed(2021, 3));
    }
}
