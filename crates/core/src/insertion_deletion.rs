//! The insertion-deletion FEwW algorithm — **Algorithm 3** of the paper.
//!
//! Two ℓ₀-sampling strategies run side by side (§5):
//!
//! * **Vertex sampling** — before the stream, sample `10·x·ln n` A-vertices
//!   (`x = max(n/α, √n)`); for each, run `10·(d/α)·ln n` ℓ₀-samplers over its
//!   incident edges. Succeeds w.h.p. when ≥ n/x vertices have degree ≥ d/α
//!   (Lemma 5.2 — the *dense* regime).
//! * **Edge sampling** — run `10·(nd/α)(1/x + 1/α)·ln(nm)` ℓ₀-samplers over
//!   the whole edge set. Succeeds w.h.p. when ≤ n/x vertices have degree
//!   ≥ d/α (Lemma 5.3 — the *sparse* regime, where the max-degree vertex
//!   owns a large fraction of all edges).
//!
//! **Theorem 5.4.** Together they give an α-approximation w.h.p. in space
//! `Õ(dn/α²)` for α ≤ √n and `Õ(√n·d/α)` for α > √n.
//!
//! The paper's constants (the two `10·ln` factors) are tuned for the w.h.p.
//! union bounds at asymptotic scale; [`IdConfig::sampler_scale`] scales both
//! sampler-count formulas so laptop-scale experiments stay tractable
//! (`1.0` = paper-faithful; experiments report the scale they used).

use crate::neighbourhood::Neighbourhood;
use fews_common::math::{ilog2_ceil, insertion_deletion_x};
use fews_common::rng::rng_for;
use fews_common::SpaceUsage;
use fews_sketch::bank::{DecodeScratch, SamplerBank};
use fews_sketch::l0::{L0Config, L0Sampler};
use fews_stream::{Edge, Update};
use std::collections::HashMap;

/// Parameters of the insertion-deletion algorithm.
#[derive(Debug, Clone, Copy)]
pub struct IdConfig {
    /// Number of A-vertices.
    pub n: u32,
    /// Number of B-vertices (`m = poly(n)`).
    pub m: u64,
    /// Degree threshold.
    pub d: u32,
    /// Approximation factor α ≥ 1.
    pub alpha: u32,
    /// Multiplier on both sampler-count formulas (1.0 = paper-faithful).
    pub sampler_scale: f64,
    /// ℓ₀-sampler tuning.
    pub l0: L0Config,
}

impl IdConfig {
    /// Paper-faithful configuration.
    pub fn new(n: u32, m: u64, d: u32, alpha: u32) -> Self {
        assert!(n >= 1 && m >= 1 && d >= 1 && alpha >= 1);
        IdConfig {
            n,
            m,
            d,
            alpha,
            sampler_scale: 1.0,
            l0: L0Config::default(),
        }
    }

    /// Same, with a sampler-count scale for laptop-sized experiments.
    pub fn with_scale(n: u32, m: u64, d: u32, alpha: u32, sampler_scale: f64) -> Self {
        assert!(sampler_scale > 0.0);
        IdConfig {
            sampler_scale,
            ..Self::new(n, m, d, alpha)
        }
    }

    /// The witness target `d₂ = max(1, ⌊d/α⌋)`.
    pub fn witness_target(&self) -> u32 {
        (self.d / self.alpha).max(1)
    }

    /// `x = max(n/α, √n)` — the strategy split point (step 1 of Algorithm 3).
    pub fn x(&self) -> u64 {
        insertion_deletion_x(self.n as u64, self.alpha)
    }

    /// Number of vertices to sample: `min(n, ⌈scale·10·x·ln n⌉)`.
    pub fn vertex_sample_size(&self) -> usize {
        let ln_n = (self.n as f64).ln().max(1.0);
        let want = (self.sampler_scale * 10.0 * self.x() as f64 * ln_n).ceil() as u64;
        want.min(self.n as u64).max(1) as usize
    }

    /// ℓ₀-samplers per sampled vertex: `⌈scale·10·(d/α)·ln n⌉`.
    pub fn samplers_per_vertex(&self) -> usize {
        let ln_n = (self.n as f64).ln().max(1.0);
        let per = self.sampler_scale * 10.0 * self.witness_target() as f64 * ln_n;
        (per.ceil() as usize).max(1)
    }

    /// Global edge ℓ₀-samplers: `⌈scale·10·(nd/α)(1/x + 1/α)·ln(nm)⌉`.
    pub fn edge_sampler_count(&self) -> usize {
        let ln_nm = ((self.n as f64) * (self.m as f64)).ln().max(1.0);
        let nd_over_alpha = self.n as f64 * self.d as f64 / self.alpha as f64;
        let mix = 1.0 / self.x() as f64 + 1.0 / self.alpha as f64;
        let want = self.sampler_scale * 10.0 * nd_over_alpha * mix * ln_nm;
        (want.ceil() as usize).max(1)
    }

    /// Register cells per vertex-strategy sampler (wire-geometry helper):
    /// `levels × rows × 2·sparsity` over the per-vertex universe `0..m`.
    pub fn cells_per_vertex_sampler(&self) -> usize {
        (ilog2_ceil(self.m) as usize + 2) * self.l0.rows * 2 * self.l0.sparsity
    }

    /// Register cells per edge-strategy sampler, over the `n·m` edge
    /// universe.
    pub fn cells_per_edge_sampler(&self) -> usize {
        (ilog2_ceil(self.n as u64 * self.m) as usize + 2) * self.l0.rows * 2 * self.l0.sparsity
    }

    /// Total ℓ₀-samplers an instance runs (wire v1 geometry).
    pub fn total_samplers(&self) -> u64 {
        (self.vertex_sample_size() * self.samplers_per_vertex() + self.edge_sampler_count()) as u64
    }

    /// Total sampler banks an instance runs: one per sampled vertex plus the
    /// edge bank (wire v2 geometry).
    pub fn bank_count(&self) -> u64 {
        self.vertex_sample_size() as u64 + 1
    }

    /// Total register cells — identical for both backends (banks keep the
    /// same `(level, row, col)` geometry, just exact-level contents).
    pub fn total_cells(&self) -> usize {
        self.vertex_sample_size() * self.samplers_per_vertex() * self.cells_per_vertex_sampler()
            + self.edge_sampler_count() * self.cells_per_edge_sampler()
    }
}

/// Which sampler backend a [`FewwInsertDelete`] instance runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdBackendKind {
    /// Flat [`SamplerBank`]s — the default: ~7× faster ingest than the
    /// reference layout in-process (~90× vs the pre-bank engine dblog
    /// cell; `BENCH_sketch.json`).
    Banked,
    /// The per-sampler layout of the original implementation, byte- and
    /// randomness-compatible with wire-format v1 checkpoints; retained as
    /// the differential-testing and benchmarking reference.
    Reference,
}

/// Sampler storage. Both backends implement the same Algorithm 3; they
/// differ in memory layout, hash-randomness draw order, and speed.
#[derive(Debug)]
pub(crate) enum IdBackend {
    /// One bank per sampled vertex (sorted by vertex) plus the edge bank.
    Banked {
        /// `(vertex, bank over 0..m)`, ascending by vertex.
        vertex_banks: Vec<(u32, SamplerBank)>,
        /// vertex → index into `vertex_banks` (push-time routing).
        vertex_index: HashMap<u32, usize>,
        /// Bank over the `n·m` edge-indicator vector.
        edge_bank: SamplerBank,
    },
    /// Independent per-sampler structures (wire v1 layout).
    Reference {
        /// Sampled vertex → its per-vertex ℓ₀-samplers over `0..m`.
        vertex_samplers: HashMap<u32, Vec<L0Sampler>>,
        /// Sampled vertices in ascending order, cached at construction (the
        /// key set never changes, so serialization never re-sorts).
        sorted_keys: Vec<u32>,
        /// Global ℓ₀-samplers over the `n·m` edge-indicator vector.
        edge_samplers: Vec<L0Sampler>,
    },
}

impl IdBackend {
    /// Banked backend. Shares the vertex-sample draw with the reference
    /// backend (same `A′` for a given seed), then draws bank randomness.
    fn banked(config: IdConfig, seed: u64) -> Self {
        let mut rng = rng_for(seed, 0x1D_0001);
        let sample_size = config.vertex_sample_size();
        let per_vertex = config.samplers_per_vertex();
        let mut sampled = fews_stream::gen::sample_distinct(config.n as u64, sample_size, &mut rng);
        sampled.sort_unstable();
        let vertex_banks: Vec<(u32, SamplerBank)> = sampled
            .into_iter()
            .map(|a| {
                (
                    a as u32,
                    SamplerBank::with_config(config.m, per_vertex, config.l0, &mut rng),
                )
            })
            .collect();
        let vertex_index = vertex_banks
            .iter()
            .enumerate()
            .map(|(i, (a, _))| (*a, i))
            .collect();
        let edge_bank = SamplerBank::with_config(
            config.n as u64 * config.m,
            config.edge_sampler_count(),
            config.l0,
            &mut rng,
        );
        IdBackend::Banked {
            vertex_banks,
            vertex_index,
            edge_bank,
        }
    }

    /// Reference backend — the exact randomness draw order of the original
    /// implementation, so same-seed instances reproduce v1 register files.
    fn reference(config: IdConfig, seed: u64) -> Self {
        let mut rng = rng_for(seed, 0x1D_0001);
        let sample_size = config.vertex_sample_size();
        let per_vertex = config.samplers_per_vertex();
        let sampled = fews_stream::gen::sample_distinct(config.n as u64, sample_size, &mut rng);
        let mut vertex_samplers = HashMap::with_capacity(sample_size);
        for a in sampled {
            let samplers: Vec<L0Sampler> = (0..per_vertex)
                .map(|_| L0Sampler::with_config(config.m, config.l0, &mut rng))
                .collect();
            vertex_samplers.insert(a as u32, samplers);
        }
        let edge_samplers = (0..config.edge_sampler_count())
            .map(|_| L0Sampler::with_config(config.n as u64 * config.m, config.l0, &mut rng))
            .collect();
        let mut sorted_keys: Vec<u32> = vertex_samplers.keys().copied().collect();
        sorted_keys.sort_unstable();
        IdBackend::Reference {
            vertex_samplers,
            sorted_keys,
            edge_samplers,
        }
    }
}

/// Generation sentinel that can never equal a live [`SamplerBank`]
/// generation reachable from 0 by increments — marks a cache slot stale.
const STALE: u64 = u64::MAX;

/// Memoized per-bank decode results for the banked backend, validated by
/// [`SamplerBank::generation`]: a slot is reused verbatim while its bank's
/// generation is unchanged, so a query after `k` updates re-decodes only the
/// banks those updates touched (plus the edge bank, which every update
/// touches) instead of the whole sampler file.
#[derive(Debug)]
struct DecodeCache {
    /// Aligned with `vertex_banks`: generation at decode + the witnesses
    /// (positive net count) that bank currently recovers.
    vertex: Vec<(u64, Vec<u64>)>,
    /// Edge bank: generation at decode + recovered `(a, b)` pairs.
    edge: (u64, Vec<(u32, u64)>),
}

impl DecodeCache {
    fn stale(vertex_banks: usize) -> Self {
        DecodeCache {
            vertex: (0..vertex_banks).map(|_| (STALE, Vec::new())).collect(),
            edge: (STALE, Vec::new()),
        }
    }
}

/// Merge recovered `(vertex, witness)` pairs into the pooled form: sorted by
/// vertex, witness lists sorted and deduplicated — all in place, no
/// intermediate hash maps.
fn group_pairs(mut pairs: Vec<(u32, u64)>) -> Vec<(u32, Vec<u64>)> {
    pairs.sort_unstable();
    pairs.dedup();
    let mut pooled: Vec<(u32, Vec<u64>)> = Vec::new();
    for (a, b) in pairs {
        match pooled.last_mut() {
            Some((last, ws)) if *last == a => ws.push(b),
            _ => pooled.push((a, vec![b])),
        }
    }
    debug_assert!(
        pooled.windows(2).all(|w| w[0].0 < w[1].0)
            && pooled
                .iter()
                .all(|(_, ws)| ws.windows(2).all(|w| w[0] < w[1])),
        "pooled output must stay sorted and deduplicated"
    );
    pooled
}

/// The pooled argmax rule of Algorithm 3 step 4: most witnesses among those
/// reaching `d₂`, ties to the smaller vertex.
fn best_vertex(pooled: Vec<(u32, Vec<u64>)>, d2: usize) -> Option<Neighbourhood> {
    pooled
        .into_iter()
        .filter(|(_, ws)| ws.len() >= d2)
        .max_by_key(|(a, ws)| (ws.len(), std::cmp::Reverse(*a)))
        .map(|(a, ws)| Neighbourhood::new(a, ws))
}

/// The α-approximation insertion-deletion streaming algorithm for FEwW.
#[derive(Debug)]
pub struct FewwInsertDelete {
    config: IdConfig,
    seed: u64,
    pub(crate) backend: IdBackend,
    pushed: u64,
    /// Lazily built; dropped whenever the backend is rebuilt. Generation
    /// tags keep it correct across in-place restores.
    decode_cache: Option<DecodeCache>,
}

impl FewwInsertDelete {
    /// Initialise on the fast banked backend: draws the vertex sample `A′`
    /// and all sampler hash functions up front (Algorithm 3 samples *before*
    /// the stream starts).
    pub fn new(config: IdConfig, seed: u64) -> Self {
        FewwInsertDelete {
            config,
            seed,
            backend: IdBackend::banked(config, seed),
            pushed: 0,
            decode_cache: None,
        }
    }

    /// Initialise on the legacy per-sampler reference backend (wire v1
    /// layout; several times slower ingest — benchmarking and v1 restore
    /// only).
    pub fn new_reference(config: IdConfig, seed: u64) -> Self {
        FewwInsertDelete {
            config,
            seed,
            backend: IdBackend::reference(config, seed),
            pushed: 0,
            decode_cache: None,
        }
    }

    /// Which backend this instance currently runs on.
    pub fn backend_kind(&self) -> IdBackendKind {
        match self.backend {
            IdBackend::Banked { .. } => IdBackendKind::Banked,
            IdBackend::Reference { .. } => IdBackendKind::Reference,
        }
    }

    /// Rebuild the sampler storage on `kind` from the instance's own seed,
    /// dropping all accumulated registers (used by wire restore, which
    /// installs a full register file right after).
    pub(crate) fn reset_backend(&mut self, kind: IdBackendKind) {
        if self.backend_kind() == kind {
            return;
        }
        // Rebuilt banks restart at generation 0, which a stale cache entry
        // could otherwise mistake for "unchanged".
        self.decode_cache = None;
        self.backend = match kind {
            IdBackendKind::Banked => IdBackend::banked(self.config, self.seed),
            IdBackendKind::Reference => IdBackend::reference(self.config, self.seed),
        };
    }

    /// Process one turnstile update.
    pub fn push(&mut self, update: Update) {
        let e = update.edge;
        debug_assert!(e.a < self.config.n && e.b < self.config.m);
        self.pushed += 1;
        let delta = update.delta as i64;
        let idx = e.linear_index(self.config.m);
        match &mut self.backend {
            IdBackend::Banked {
                vertex_banks,
                vertex_index,
                edge_bank,
            } => {
                if let Some(&i) = vertex_index.get(&e.a) {
                    vertex_banks[i].1.update(e.b, delta);
                }
                edge_bank.update(idx, delta);
            }
            IdBackend::Reference {
                vertex_samplers,
                edge_samplers,
                ..
            } => {
                if let Some(samplers) = vertex_samplers.get_mut(&e.a) {
                    for s in samplers {
                        s.update(e.b, delta);
                    }
                }
                for s in edge_samplers {
                    s.update(idx, delta);
                }
            }
        }
    }

    /// Process a batch of turnstile updates — register-equivalent to
    /// [`Self::push`]ing them one at a time, but each touched bank absorbs
    /// its share of the batch in one [`SamplerBank::update_batch`] sweep:
    /// the edge bank takes the whole batch, and the vertex-strategy work is
    /// grouped per sampled vertex's bank first (per-bank application order
    /// is free — cell updates are commutative additions). Every touched
    /// bank's generation then bumps once per batch instead of once per
    /// update, so the incremental decode cache stays exactly as selective.
    /// The reference backend has no batch path and falls back to one-at-a-
    /// time pushes.
    pub fn push_batch(&mut self, updates: &[Update]) {
        if updates.len() < 2 || matches!(self.backend, IdBackend::Reference { .. }) {
            for &u in updates {
                self.push(u);
            }
            return;
        }
        self.pushed += updates.len() as u64;
        let (n, m) = (self.config.n, self.config.m);
        let IdBackend::Banked {
            vertex_banks,
            vertex_index,
            edge_bank,
        } = &mut self.backend
        else {
            unreachable!("reference backend handled above")
        };
        let mut edge_updates: Vec<(u64, i64)> = Vec::with_capacity(updates.len());
        let mut vertex_updates: Vec<(usize, u64, i64)> = Vec::new();
        for u in updates {
            let e = u.edge;
            debug_assert!(e.a < n && e.b < m);
            let delta = u.delta as i64;
            edge_updates.push((e.linear_index(m), delta));
            if let Some(&i) = vertex_index.get(&e.a) {
                vertex_updates.push((i, e.b, delta));
            }
        }
        // Group per bank with a plain sort — stability is unnecessary
        // because per-bank order is free.
        vertex_updates.sort_unstable_by_key(|&(i, _, _)| i);
        let mut group: Vec<(u64, i64)> = Vec::new();
        let mut start = 0;
        while start < vertex_updates.len() {
            let bank_i = vertex_updates[start].0;
            let end = start
                + vertex_updates[start..]
                    .iter()
                    .position(|&(i, _, _)| i != bank_i)
                    .unwrap_or(vertex_updates.len() - start);
            group.clear();
            group.extend(vertex_updates[start..end].iter().map(|&(_, b, d)| (b, d)));
            vertex_banks[bank_i].1.update_batch(&group);
            start = end;
        }
        edge_bank.update_batch(&edge_updates);
    }

    /// Every `(vertex, witness)` pair the vertex strategy currently
    /// recovers, deduplicated *per bank* as it is collected. A bank's
    /// samplers mostly agree at low degree, so without the incremental
    /// dedup the flat pool holds up to `samplers_per_bank` copies of the
    /// same pair per sampled vertex before the final collect→sort→dedup —
    /// the `--model id` large-`m` memory spike. One small sorted scratch
    /// buffer per bank bounds the intermediate at the *distinct* count.
    fn vertex_strategy_pairs(&self) -> Vec<(u32, u64)> {
        let mut pairs = Vec::new();
        let mut scratch: Vec<u64> = Vec::new();
        match &self.backend {
            IdBackend::Banked { vertex_banks, .. } => {
                let mut work = DecodeScratch::default();
                for (a, bank) in vertex_banks {
                    scratch.clear();
                    for i in 0..bank.len() {
                        if let Some((b, c)) = bank.sample_with(i, &mut work) {
                            if c > 0 {
                                scratch.push(b);
                            }
                        }
                    }
                    scratch.sort_unstable();
                    scratch.dedup();
                    pairs.extend(scratch.iter().map(|&b| (*a, b)));
                }
            }
            IdBackend::Reference {
                vertex_samplers, ..
            } => {
                for (&a, samplers) in vertex_samplers {
                    scratch.clear();
                    for s in samplers {
                        if let Some((b, c)) = s.sample() {
                            if c > 0 {
                                scratch.push(b);
                            }
                        }
                    }
                    scratch.sort_unstable();
                    scratch.dedup();
                    pairs.extend(scratch.iter().map(|&b| (a, b)));
                }
            }
        }
        pairs
    }

    /// Every `(vertex, witness)` pair the edge strategy currently recovers,
    /// deduplicated before returning (same bound as
    /// [`Self::vertex_strategy_pairs`]: the pool holds distinct pairs, not
    /// one per agreeing sampler).
    fn edge_strategy_pairs(&self) -> Vec<(u32, u64)> {
        let mut pairs = Vec::new();
        let mut harvest = |sample: Option<(u64, i64)>| {
            if let Some((idx, c)) = sample {
                if c > 0 {
                    let e = Edge::from_linear_index(idx, self.config.m);
                    pairs.push((e.a, e.b));
                }
            }
        };
        match &self.backend {
            IdBackend::Banked { edge_bank, .. } => {
                let mut work = DecodeScratch::default();
                for i in 0..edge_bank.len() {
                    harvest(edge_bank.sample_with(i, &mut work));
                }
            }
            IdBackend::Reference { edge_samplers, .. } => {
                for s in edge_samplers {
                    harvest(s.sample());
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Diagnostic for the witness-pool intermediate: `(raw, deduped)` pair
    /// counts, where `raw` is every successful sampler draw (what the pool
    /// held per query before per-bank dedup bounded it) and `deduped` is
    /// what [`Self::pooled_witnesses`] actually buffers now. Multiply by
    /// `size_of::<(u32, u64)>()` for resident bytes; the bench reports the
    /// pair.
    pub fn witness_pool_stats(&self) -> (usize, usize) {
        let mut raw = 0usize;
        let mut count = |sample: Option<(u64, i64)>| {
            if matches!(sample, Some((_, c)) if c > 0) {
                raw += 1;
            }
        };
        match &self.backend {
            IdBackend::Banked {
                vertex_banks,
                edge_bank,
                ..
            } => {
                for (_, bank) in vertex_banks {
                    for i in 0..bank.len() {
                        count(bank.sample(i));
                    }
                }
                for i in 0..edge_bank.len() {
                    count(edge_bank.sample(i));
                }
            }
            IdBackend::Reference {
                vertex_samplers,
                edge_samplers,
                ..
            } => {
                for samplers in vertex_samplers.values() {
                    for s in samplers {
                        count(s.sample());
                    }
                }
                for s in edge_samplers {
                    count(s.sample());
                }
            }
        }
        let deduped = self.vertex_strategy_pairs().len() + self.edge_strategy_pairs().len();
        (raw, deduped)
    }

    /// Pool every edge recovered by both strategies, grouped by A-vertex:
    /// the "collect all returned edges" step of Algorithm 3, exposed so a
    /// sharded deployment can union banks across vertex-disjoint instances
    /// (ℓ₀-sampler outputs merge by set union). Sorted by vertex; witness
    /// lists sorted and deduplicated; vertices with no recovered edge are
    /// omitted.
    pub fn pooled_witnesses(&self) -> Vec<(u32, Vec<u64>)> {
        let mut pairs = self.vertex_strategy_pairs();
        pairs.extend(self.edge_strategy_pairs());
        group_pairs(pairs)
    }

    /// Incremental [`Self::pooled_witnesses`]: per-bank decode results are
    /// memoized under the bank's [`SamplerBank::generation`], so only banks
    /// whose registers changed since the previous call are re-decoded — the
    /// cost is O(banks touched since the last query), not O(total state).
    /// Output is identical to `pooled_witnesses` (the incremental-view
    /// differential suites pin this). The reference backend has no flat
    /// banks to tag and falls back to the from-scratch path.
    pub fn pooled_witnesses_cached(&mut self) -> Vec<(u32, Vec<u64>)> {
        let IdBackend::Banked {
            vertex_banks,
            edge_bank,
            ..
        } = &self.backend
        else {
            return self.pooled_witnesses();
        };
        let cache = match &mut self.decode_cache {
            Some(c) if c.vertex.len() == vertex_banks.len() => c,
            slot => slot.insert(DecodeCache::stale(vertex_banks.len())),
        };
        let mut scratch = DecodeScratch::default();
        for ((gen, witnesses), (_, bank)) in cache.vertex.iter_mut().zip(vertex_banks) {
            if *gen != bank.generation() {
                witnesses.clear();
                for i in 0..bank.len() {
                    if let Some((b, c)) = bank.sample_with(i, &mut scratch) {
                        if c > 0 {
                            witnesses.push(b);
                        }
                    }
                }
                // Dedup in the memo itself: agreeing samplers would
                // otherwise keep `samplers_per_bank` copies resident for
                // the cache's whole life, not just one query.
                witnesses.sort_unstable();
                witnesses.dedup();
                *gen = bank.generation();
            }
        }
        if cache.edge.0 != edge_bank.generation() {
            cache.edge.1.clear();
            for i in 0..edge_bank.len() {
                if let Some((idx, c)) = edge_bank.sample_with(i, &mut scratch) {
                    if c > 0 {
                        let e = Edge::from_linear_index(idx, self.config.m);
                        cache.edge.1.push((e.a, e.b));
                    }
                }
            }
            cache.edge.1.sort_unstable();
            cache.edge.1.dedup();
            cache.edge.0 = edge_bank.generation();
        }
        let mut pairs: Vec<(u32, u64)> = Vec::new();
        for ((_, witnesses), (a, _)) in cache.vertex.iter().zip(vertex_banks) {
            pairs.extend(witnesses.iter().map(|&b| (*a, b)));
        }
        pairs.extend_from_slice(&cache.edge.1);
        group_pairs(pairs)
    }

    /// Step 4 of Algorithm 3: pool every recovered edge and output any
    /// vertex owning ≥ d/α distinct witnesses (we return the best such
    /// vertex). `None` = *fail*.
    pub fn result(&self) -> Option<Neighbourhood> {
        best_vertex(
            self.pooled_witnesses(),
            self.config.witness_target() as usize,
        )
    }

    /// Capture the ℓ₀-sampler register file for checkpointing, in the wire
    /// version native to the running backend (see [`crate::wire_id`]).
    pub fn snapshot(&self) -> crate::wire_id::IdWireState {
        crate::wire_id::IdWireState::capture(self)
    }

    /// Install a register file captured from an instance with the same
    /// configuration and seed (hash functions are shared randomness). A v1
    /// state switches this instance to the reference backend, a v2 state to
    /// the banked backend — registers are meaningful only on the layout that
    /// produced them.
    pub fn restore_from(&mut self, state: &crate::wire_id::IdWireState) {
        state.restore(self);
    }

    /// Witnesses recovered by the *vertex* strategy alone (Lemma 5.2
    /// experiments).
    pub fn vertex_strategy_result(&self) -> Option<Neighbourhood> {
        best_vertex(
            group_pairs(self.vertex_strategy_pairs()),
            self.config.witness_target() as usize,
        )
    }

    /// Witnesses recovered by the *edge* strategy alone (Lemma 5.3
    /// experiments).
    pub fn edge_strategy_result(&self) -> Option<Neighbourhood> {
        best_vertex(
            group_pairs(self.edge_strategy_pairs()),
            self.config.witness_target() as usize,
        )
    }

    /// The configuration in use.
    pub fn config(&self) -> &IdConfig {
        &self.config
    }

    /// The master seed the sampler randomness derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of updates processed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Whether a given vertex is in the pre-drawn sample `A′`.
    pub fn vertex_sampled(&self, a: u32) -> bool {
        match &self.backend {
            IdBackend::Banked { vertex_index, .. } => vertex_index.contains_key(&a),
            IdBackend::Reference {
                vertex_samplers, ..
            } => vertex_samplers.contains_key(&a),
        }
    }

    /// Total ℓ₀-sampler count (diagnostics).
    pub fn sampler_count(&self) -> usize {
        match &self.backend {
            IdBackend::Banked {
                vertex_banks,
                edge_bank,
                ..
            } => vertex_banks.iter().map(|(_, b)| b.len()).sum::<usize>() + edge_bank.len(),
            IdBackend::Reference {
                vertex_samplers,
                edge_samplers,
                ..
            } => vertex_samplers.values().map(Vec::len).sum::<usize>() + edge_samplers.len(),
        }
    }
}

impl SpaceUsage for FewwInsertDelete {
    fn space_bytes(&self) -> usize {
        let backend = match &self.backend {
            IdBackend::Banked {
                vertex_banks,
                vertex_index,
                edge_bank,
            } => {
                // `space_bytes` on a bank already counts its struct; add
                // only the per-element slot overhead beyond it.
                let slot =
                    std::mem::size_of::<(u32, SamplerBank)>() - std::mem::size_of::<SamplerBank>();
                vertex_banks
                    .iter()
                    .map(|(_, b)| b.space_bytes() + slot)
                    .sum::<usize>()
                    + vertex_index.len() * std::mem::size_of::<(u32, usize)>()
                    + edge_bank.space_bytes()
                    - std::mem::size_of::<SamplerBank>()
            }
            IdBackend::Reference {
                vertex_samplers,
                sorted_keys,
                edge_samplers,
            } => {
                vertex_samplers.space_bytes()
                    + sorted_keys.capacity() * 4
                    + edge_samplers.space_bytes()
                    - std::mem::size_of::<HashMap<u32, Vec<L0Sampler>>>()
                    - std::mem::size_of::<Vec<L0Sampler>>()
            }
        };
        std::mem::size_of::<Self>() + backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fews_common::rng::rng_for;
    use fews_stream::gen::planted::planted_star;
    use fews_stream::gen::turnstile::churn_stream;
    use fews_stream::update::as_insertions;

    fn small_cfg() -> IdConfig {
        IdConfig::with_scale(64, 4096, 16, 4, 0.05)
    }

    #[test]
    fn config_formulas() {
        let c = IdConfig::new(10_000, 1 << 20, 100, 10);
        assert_eq!(c.x(), 1000); // max(n/α, √n) = max(1000, 100)
        assert_eq!(c.witness_target(), 10);
        // Paper-scale counts are large; the scaled ones shrink linearly.
        let scaled = IdConfig::with_scale(10_000, 1 << 20, 100, 10, 0.01);
        assert!(scaled.vertex_sample_size() <= c.vertex_sample_size());
        assert!(scaled.edge_sampler_count() < c.edge_sampler_count());
    }

    #[test]
    fn finds_planted_star_in_turnstile_stream() {
        let mut found = 0;
        let trials = 10;
        for t in 0..trials {
            let seed = 900 + t;
            let g = planted_star(64, 4096, 16, 2, &mut rng_for(seed, 1));
            let stream = churn_stream(&g.edges, 64, 4096, 1.0, &mut rng_for(seed, 2));
            let mut alg = FewwInsertDelete::new(small_cfg(), seed);
            for u in &stream {
                alg.push(*u);
            }
            if let Some(out) = alg.result() {
                assert!(
                    out.verify_against(&g.edges),
                    "witness not in surviving graph"
                );
                assert!(out.size() >= 4);
                found += 1;
            }
        }
        assert!(found >= trials - 2, "only {found}/{trials} succeeded");
    }

    #[test]
    fn deleted_edges_never_reported() {
        // Insert a decoy super-star then delete it entirely; the surviving
        // graph has a different heavy vertex.
        let seed = 4242;
        let mut updates = Vec::new();
        for b in 0..40u64 {
            updates.push(Update::insert(Edge::new(0, b)));
        }
        let survivor = planted_star(64, 4096, 16, 2, &mut rng_for(seed, 1));
        updates.extend(as_insertions(&survivor.edges));
        for b in 0..40u64 {
            updates.push(Update::delete(Edge::new(0, b)));
        }
        let mut alg = FewwInsertDelete::new(small_cfg(), seed);
        for u in &updates {
            alg.push(*u);
        }
        if let Some(out) = alg.result() {
            assert!(
                out.verify_against(&survivor.edges),
                "reported a deleted edge: {out:?}"
            );
        }
    }

    #[test]
    fn empty_stream_fails_cleanly() {
        let alg = FewwInsertDelete::new(small_cfg(), 1);
        assert!(alg.result().is_none());
    }

    #[test]
    fn fully_cancelled_stream_fails_cleanly() {
        let mut alg = FewwInsertDelete::new(small_cfg(), 2);
        for b in 0..30u64 {
            alg.push(Update::insert(Edge::new(5, b)));
        }
        for b in 0..30u64 {
            alg.push(Update::delete(Edge::new(5, b)));
        }
        assert!(alg.result().is_none(), "reported witnesses from nothing");
    }

    #[test]
    fn sampler_counts_match_config() {
        let cfg = small_cfg();
        let alg = FewwInsertDelete::new(cfg, 3);
        let expected =
            cfg.vertex_sample_size() * cfg.samplers_per_vertex() + cfg.edge_sampler_count();
        assert_eq!(alg.sampler_count(), expected);
    }

    #[test]
    fn pooled_witnesses_sorted_and_consistent_with_result() {
        let seed = 77;
        let g = planted_star(64, 4096, 16, 2, &mut rng_for(seed, 1));
        let mut alg = FewwInsertDelete::new(small_cfg(), seed);
        for u in as_insertions(&g.edges) {
            alg.push(u);
        }
        let pooled = alg.pooled_witnesses();
        assert!(pooled.windows(2).all(|w| w[0].0 < w[1].0), "unsorted");
        for (_, ws) in &pooled {
            assert!(!ws.is_empty());
            assert!(ws.windows(2).all(|w| w[0] < w[1]), "dup/unsorted list");
        }
        let d2 = alg.config().witness_target() as usize;
        let best = pooled
            .iter()
            .filter(|(_, ws)| ws.len() >= d2)
            .max_by_key(|(a, ws)| (ws.len(), std::cmp::Reverse(*a)))
            .cloned();
        assert_eq!(
            alg.result(),
            best.map(|(a, ws)| Neighbourhood::new(a, ws)),
            "result() must be the pooled argmax"
        );
    }

    #[test]
    fn snapshot_hooks_roundtrip() {
        let seed = 31;
        let mut alg = FewwInsertDelete::new(small_cfg(), seed);
        for b in 0..8u64 {
            alg.push(Update::insert(Edge::new(7, b)));
        }
        let snap = alg.snapshot();
        let mut fresh = FewwInsertDelete::new(small_cfg(), seed);
        fresh.restore_from(&snap);
        assert_eq!(fresh.snapshot(), snap);
        assert_eq!(fresh.pooled_witnesses(), alg.pooled_witnesses());
    }

    #[test]
    fn space_grows_with_d_over_alpha() {
        // Theorem 5.4 shape: more witnesses required ⇒ more samplers ⇒ more
        // space.
        let lo = FewwInsertDelete::new(IdConfig::with_scale(64, 4096, 8, 4, 0.05), 1);
        let hi = FewwInsertDelete::new(IdConfig::with_scale(64, 4096, 32, 4, 0.05), 1);
        assert!(hi.space_bytes() > lo.space_bytes());
    }
}
