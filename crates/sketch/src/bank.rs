//! Flat banks of ℓ₀-samplers — the insertion-deletion hot path.
//!
//! The paper's Algorithm 3 runs *thousands* of [`L0Sampler`]s and feeds
//! every stream update to large groups of them at once. Updating the
//! samplers one by one is catastrophically slow for three separable reasons:
//!
//! 1. **Redundant exponentiation.** Every touched `KSparse` level computes
//!    `z^index` with a fresh square-and-multiply ladder (~61 squarings), even
//!    though `index` is the same across the whole group. A bank shares one
//!    fingerprint base `z` and one [`PowTable`], so `z^index` is computed
//!    *once per update for the entire bank* — one multiply per set exponent
//!    bit.
//! 2. **Pointer-chasing.** `Vec<L0Sampler>` → `Vec<KSparse>` →
//!    `Vec<Vec<OneSparse>>` scatters each sampler's registers across dozens
//!    of small heap allocations. A bank packs every cell into **one
//!    contiguous buffer** in `(sampler, level, row, col)` order and every
//!    hash coefficient into one flat array, so the per-update sweep over
//!    samplers is a tight, allocation-free, cache-linear Horner loop.
//! 3. **Redundant level writes.** The textbook sampler adds a level-ℓ
//!    coordinate to levels `0..=ℓ` (~2 touched levels in expectation). A
//!    bank stores each coordinate **only at its own level** and recovers the
//!    logical level-ℓ structure at query time as the cell-wise sum of
//!    physical levels `ℓ..=max` — sound because sketches are linear and the
//!    row hashes are shared across levels, so cells at the same `(row, col)`
//!    align across levels. Touched cells per sampler drop from `~2·rows` to
//!    exactly `rows`.
//!
//! **Shared-`z` union bound.** Sharing one fingerprint base across a bank's
//! cells does not change the failure analysis: a 1-sparse decode is fooled
//! only if a nonzero polynomial `Σᵢ cᵢ·zⁱ − c·z^{i*}` of degree `< dim`
//! vanishes at the random `z`, which happens with probability `≤ dim/2⁶¹`
//! per decode attempt. Decodes are no longer independent across cells, but a
//! union bound never needed independence: `P(any false positive) ≤
//! cells · dim / 2⁶¹` — for a million cells over `dim = 2⁴⁰` still below
//! `2⁻²⁰ · cells/2²⁰`, negligible.
//!
//! Every bank slot has an exact per-sampler reference: build
//! [`L0Sampler::from_parts`] from [`SamplerBank::sampler_params`] and the
//! two produce identical samples, failures included (the differential suite
//! in `tests/differential_bank.rs` pins this down).

use crate::hash::{add_mod, mod_mersenne, mul_mod, PowTable, MERSENNE61};
use crate::l0::{L0Config, L0Sampler};
use crate::sparse::{OneSparse, OneSparseState};
use fews_common::math::ilog2_ceil;
use fews_common::SpaceUsage;
use rand::{Rng, RngExt};

/// Degree of the per-sampler level hash; 8-wise keeps the min-hash argmin
/// near-uniform (mirrors [`L0Sampler`]).
const LEVEL_K: usize = 8;

/// `N` ℓ₀-samplers over `0..dim` that all absorb every update, stored
/// struct-of-arrays: one flat coefficient array, one contiguous
/// `(sampler, level, row, col)`-ordered cell buffer, one shared fingerprint
/// base.
///
/// ```
/// use fews_sketch::bank::SamplerBank;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut bank = SamplerBank::new(1 << 20, 4, &mut rng);
/// bank.update(12345, 1);
/// bank.update(777, 1);
/// bank.update(777, -1); // deleted: can never be sampled
/// for i in 0..bank.len() {
///     assert_eq!(bank.sample(i), Some((12345, 1)));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SamplerBank {
    dim: u64,
    count: usize,
    max_level: u32,
    sparsity: usize,
    rows: usize,
    width: usize,
    z: u64,
    /// Monotone register-mutation counter: bumped by every [`Self::update`]
    /// and every [`Self::visit_cells_mut`] (restore). Lets callers memoize
    /// per-bank decode results and re-decode only banks that changed —
    /// the insertion-deletion incremental-query hot path.
    generation: u64,
    /// Boxed: the 64-entry square table would otherwise dominate the
    /// by-value size of every enum holding a bank.
    pow: Box<PowTable>,
    /// Sampler-major hash randomness, [`Self::stride`] words per sampler:
    /// `LEVEL_K` level-hash coefficients then `rows × 2` row-hash pairs.
    coeffs: Vec<u64>,
    /// Exact-level cells, flat in `(sampler, level, row, col)` order.
    cells: Vec<OneSparse>,
    /// Per-sampler level bound: every cell of sampler `i` above physical
    /// level `top[i]` is zero. Raised by the update paths, recomputed
    /// exactly by [`Self::visit_cells_mut`]; decode starts here instead of
    /// at `max_level`. Derived state, never serialized.
    top: Vec<u8>,
}

impl SamplerBank {
    /// Bank of `count` samplers over `0..dim` with default tuning.
    pub fn new(dim: u64, count: usize, rng: &mut impl Rng) -> Self {
        Self::with_config(dim, count, L0Config::default(), rng)
    }

    /// Bank with explicit tuning. Draw order: `z`, then per sampler the
    /// level-hash coefficients followed by the row-hash pairs.
    pub fn with_config(dim: u64, count: usize, cfg: L0Config, rng: &mut impl Rng) -> Self {
        assert!(dim >= 1 && count >= 1);
        assert!(cfg.sparsity >= 1 && cfg.rows >= 1);
        let max_level = ilog2_ceil(dim) + 1;
        let z = rng.random_range(1..MERSENNE61);
        let stride = LEVEL_K + 2 * cfg.rows;
        let coeffs = (0..count * stride)
            .map(|_| rng.random_range(0..MERSENNE61))
            .collect();
        let levels = max_level as usize + 1;
        let width = 2 * cfg.sparsity;
        SamplerBank {
            dim,
            count,
            max_level,
            sparsity: cfg.sparsity,
            rows: cfg.rows,
            width,
            z,
            generation: 0,
            pow: Box::new(PowTable::new(z)),
            coeffs,
            cells: vec![OneSparse::default(); count * levels * rows_width(cfg.rows, width)],
            top: vec![0; count],
        }
    }

    /// Number of samplers in the bank.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the bank holds no samplers (never true — `count ≥ 1`).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The coordinate universe size.
    pub fn dim(&self) -> u64 {
        self.dim
    }

    /// The shared fingerprint base.
    pub fn z(&self) -> u64 {
        self.z
    }

    /// Register-mutation generation: changes iff some cell may have changed
    /// since the last observed value. A fresh bank is at generation 0;
    /// equal generations guarantee identical decode results.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The tuning the bank was built with.
    pub fn config(&self) -> L0Config {
        L0Config {
            sparsity: self.sparsity,
            rows: self.rows,
        }
    }

    #[inline]
    fn stride(&self) -> usize {
        LEVEL_K + 2 * self.rows
    }

    #[inline]
    fn levels(&self) -> usize {
        self.max_level as usize + 1
    }

    #[inline]
    fn cells_per_sampler(&self) -> usize {
        self.levels() * self.rows * self.width
    }

    /// Sampler `i`'s level-hash value at `x` (already-reduced `x` is fine;
    /// the reduction is idempotent).
    #[inline]
    fn level_hash_value(&self, i: usize, x: u64) -> u64 {
        let x = x % MERSENNE61;
        let c = &self.coeffs[i * self.stride()..];
        let mut acc = 0u64;
        for &cc in c[..LEVEL_K].iter().rev() {
            acc = add_mod(mul_mod(acc, x), cc);
        }
        acc
    }

    /// Sampler `i`'s row-`r` bucket for reduced key `x`.
    #[inline]
    fn row_bucket(&self, i: usize, r: usize, x: u64) -> usize {
        let c = &self.coeffs[i * self.stride() + LEVEL_K + 2 * r..];
        let h = add_mod(mul_mod(c[1], x), c[0]);
        ((h as u128 * self.width as u128) >> 61) as usize
    }

    /// Apply `(index, delta)` to **every** sampler in the bank. This is the
    /// hot path: one `z^index`, then per sampler one cache-linear Horner
    /// sweep and exactly `rows` cell writes at the coordinate's own level.
    pub fn update(&mut self, index: u64, delta: i64) {
        self.generation += 1;
        self.apply(index, delta);
    }

    /// [`Self::update`] without the generation bump — the shared body of
    /// the scalar path and the small-bank arm of [`Self::update_batch`].
    fn apply(&mut self, index: u64, delta: i64) {
        debug_assert!(index < self.dim, "index {index} out of dim {}", self.dim);
        let z_pow = self.pow.pow(index);
        let x = index % MERSENNE61;
        // Powers x⁰..x⁷, once per update for the whole bank: each sampler's
        // level hash then evaluates as Σ cⱼ·xʲ with independent multiplies
        // (no Horner dependency chain) and a single Mersenne reduction —
        // the sum of 8 canonical products stays below 2¹²⁵, well inside
        // `mod_mersenne`'s domain, and the residue equals `PolyHash::hash`.
        let mut xp = [1u64; LEVEL_K];
        for j in 1..LEVEL_K {
            xp[j] = mul_mod(xp[j - 1], x);
        }
        let stride = self.stride();
        let (rows, width) = (self.rows, self.width);
        let lw = rows * width;
        let cps = self.cells_per_sampler();
        let max_level = self.max_level;
        for ((c, sampler_cells), top) in self
            .coeffs
            .chunks_exact(stride)
            .zip(self.cells.chunks_exact_mut(cps))
            .zip(&mut self.top)
        {
            let mut acc = 0u128;
            for j in 0..LEVEL_K {
                acc += c[j] as u128 * xp[j] as u128;
            }
            let h = mod_mersenne(acc);
            let level = (h << 3).leading_zeros().min(60).min(max_level) as usize;
            *top = (*top).max(level as u8);
            let level_cells = &mut sampler_cells[level * lw..level * lw + lw];
            for (r, row_cells) in level_cells.chunks_exact_mut(width).enumerate() {
                let rh = mod_mersenne(
                    c[LEVEL_K + 2 * r + 1] as u128 * x as u128 + c[LEVEL_K + 2 * r] as u128,
                );
                let col = ((rh as u128 * width as u128) >> 61) as usize;
                row_cells[col].update(index, delta, z_pow);
            }
        }
    }

    /// Apply a whole batch of `(index, delta)` updates to **every** sampler
    /// in the bank — register-equivalent to calling [`Self::update`] once
    /// per entry (cell updates are commutative additions, so per-sampler
    /// application order does not matter), but loop-ordered
    /// sampler-outer / update-inner:
    ///
    /// * the work shared across the bank (`z^index`, the powers `x⁰..x⁷`)
    ///   is hoisted once per update into flat scratch arrays up front;
    /// * each sampler's coefficient block then stays in registers/L1 while
    ///   the whole batch streams through it, and its cell block is touched
    ///   in one contiguous pass instead of once per update across the
    ///   entire bank — for big banks (cells ≫ cache) this turns `batch ×
    ///   bank` cache sweeps into one;
    /// * the inner level-hash loop is a bank-invariant-length chain of
    ///   independent 64×64→128 multiply-accumulates over the scratch rows —
    ///   exactly the shape the autovectorizer widens to SIMD lanes
    ///   (`u64x4`-style chunks) without a single unsafe intrinsic.
    ///
    /// Bumps the generation once per call.
    pub fn update_batch(&mut self, updates: &[(u64, i64)]) {
        if updates.is_empty() {
            return;
        }
        self.generation += 1;
        // A bank whose cells fit in cache gains nothing from the batched
        // sweep (every update already finds the cells hot) and the scalar
        // path keeps its per-update state in registers instead of scratch
        // arrays — measured fastest up to a couple of MiB of cells.
        const SMALL_BANK_BYTES: usize = 2 << 20;
        if updates.len() == 1
            || self.cells.len() * std::mem::size_of::<OneSparse>() <= SMALL_BANK_BYTES
        {
            for &(index, delta) in updates {
                self.apply(index, delta);
            }
            return;
        }
        let n = updates.len();
        // Per-update shared precomputation, stored struct-of-arrays so the
        // inner loops index flat, stride-constant rows.
        let mut z_pows = Vec::with_capacity(n);
        let mut xs = Vec::with_capacity(n);
        let mut xp = Vec::with_capacity(n * LEVEL_K);
        for &(index, _) in updates {
            debug_assert!(index < self.dim, "index {index} out of dim {}", self.dim);
            z_pows.push(self.pow.pow(index));
            let x = index % MERSENNE61;
            xs.push(x);
            let mut p = 1u64;
            xp.push(p);
            for _ in 1..LEVEL_K {
                p = mul_mod(p, x);
                xp.push(p);
            }
        }
        let stride = self.stride();
        let (rows, width) = (self.rows, self.width);
        let lw = rows * width;
        let cps = self.cells_per_sampler();
        let max_level = self.max_level;
        for ((c, sampler_cells), top) in self
            .coeffs
            .chunks_exact(stride)
            .zip(self.cells.chunks_exact_mut(cps))
            .zip(&mut self.top)
        {
            let mut deepest = *top as usize;
            for (u, &(index, delta)) in updates.iter().enumerate() {
                let xpu = &xp[u * LEVEL_K..u * LEVEL_K + LEVEL_K];
                let mut acc = 0u128;
                for j in 0..LEVEL_K {
                    acc += c[j] as u128 * xpu[j] as u128;
                }
                let h = mod_mersenne(acc);
                let level = (h << 3).leading_zeros().min(60).min(max_level) as usize;
                deepest = deepest.max(level);
                let level_cells = &mut sampler_cells[level * lw..level * lw + lw];
                let (x, z_pow) = (xs[u], z_pows[u]);
                for (r, row_cells) in level_cells.chunks_exact_mut(width).enumerate() {
                    let rh = mod_mersenne(
                        c[LEVEL_K + 2 * r + 1] as u128 * x as u128 + c[LEVEL_K + 2 * r] as u128,
                    );
                    let col = ((rh as u128 * width as u128) >> 61) as usize;
                    row_cells[col].update(index, delta, z_pow);
                }
            }
            *top = deepest as u8;
        }
    }

    /// Accumulate physical levels `top[i]..=0` of sampler `i` in `scratch`
    /// (every level above the bound is zero, so its logical structure is
    /// too), calling `visit` with the logical (cumulative) structure at each
    /// level, deepest first; stops when `visit` returns `Some`.
    fn scan_levels<T>(
        &self,
        i: usize,
        scratch: &mut DecodeScratch,
        mut visit: impl FnMut(&mut [OneSparse]) -> Option<T>,
    ) -> Option<T> {
        let lw = self.rows * self.width;
        let base = i * self.cells_per_sampler();
        let acc = &mut scratch.0;
        acc.clear();
        acc.resize(lw, OneSparse::default());
        for level in (0..=self.top[i] as usize).rev() {
            let physical = &self.cells[base + level * lw..base + (level + 1) * lw];
            for (a, c) in acc.iter_mut().zip(physical) {
                a.accumulate(c);
            }
            if let Some(out) = visit(acc) {
                return Some(out);
            }
        }
        None
    }

    /// Peel the logical structure `work` of sampler `i` — exactly
    /// [`crate::sparse::KSparse::decode`] on the accumulated registers.
    fn decode_acc(&self, i: usize, work: &mut [OneSparse]) -> Option<Vec<(u64, i64)>> {
        let mut out: Vec<(u64, i64)> = Vec::new();
        loop {
            let mut found: Option<(u64, i64)> = None;
            for cell in work.iter() {
                if let OneSparseState::One(idx, cnt) = cell.decode_with(&self.pow) {
                    found = Some((idx, cnt));
                    break;
                }
            }
            match found {
                Some((idx, cnt)) => {
                    out.push((idx, cnt));
                    let z_pow = self.pow.pow(idx);
                    let x = idx % MERSENNE61;
                    for r in 0..self.rows {
                        work[r * self.width + self.row_bucket(i, r, x)].update(idx, -cnt, z_pow);
                    }
                }
                None => break,
            }
        }
        if work.iter().all(OneSparse::is_zero) {
            out.sort_unstable();
            Some(out)
        } else {
            None
        }
    }

    /// Draw sampler `i`'s sample: `Some((index, net_count))` on success —
    /// the same coordinate its [`L0Sampler`] reference would return.
    pub fn sample(&self, i: usize) -> Option<(u64, i64)> {
        self.sample_with(i, &mut DecodeScratch::default())
    }

    /// [`Self::sample`] decoding in a caller-owned `scratch`, so a sweep
    /// over many samplers allocates its workspace once.
    pub fn sample_with(&self, i: usize, scratch: &mut DecodeScratch) -> Option<(u64, i64)> {
        self.scan_levels(i, scratch, |acc| {
            if acc.iter().all(OneSparse::is_zero) {
                return None; // logical level empty: go shallower
            }
            Some(self.decode_acc(i, acc).and_then(|items| {
                debug_assert!(!items.is_empty());
                items
                    .into_iter()
                    .min_by_key(|&(idx, _)| self.level_hash_value(i, idx))
            }))
        })
        .flatten()
    }

    /// Decode *all* coordinates sampler `i`'s deepest non-empty logical
    /// level holds (mirrors [`L0Sampler::sample_all`]).
    pub fn sample_all(&self, i: usize) -> Option<Vec<(u64, i64)>> {
        self.scan_levels(i, &mut DecodeScratch::default(), |acc| {
            if acc.iter().all(OneSparse::is_zero) {
                return None;
            }
            Some(self.decode_acc(i, acc))
        })
        .unwrap_or(Some(Vec::new()))
    }

    /// Sampler `i`'s hash randomness as `(level_coeffs, row_coeff_pairs, z)`
    /// — feed to [`L0Sampler::from_parts`] for the exact reference.
    pub fn sampler_params(&self, i: usize) -> (Vec<u64>, Vec<Vec<u64>>, u64) {
        let c = &self.coeffs[i * self.stride()..(i + 1) * self.stride()];
        let level = c[..LEVEL_K].to_vec();
        let rows = (0..self.rows)
            .map(|r| c[LEVEL_K + 2 * r..LEVEL_K + 2 * r + 2].to_vec())
            .collect();
        (level, rows, self.z)
    }

    /// Build the per-sampler reference implementation of slot `i`.
    pub fn reference_sampler(&self, i: usize) -> L0Sampler {
        let (level, rows, z) = self.sampler_params(i);
        L0Sampler::from_parts(self.dim, self.config(), level, rows, z)
    }

    /// Sampler `i`'s *logical* (cumulative-level) registers in the reference
    /// `(level, row, col)` order — equal to what `reference_sampler(i)`
    /// fed the same stream reports via `visit_cells`.
    pub fn logical_registers(&self, i: usize) -> Vec<(i64, i128, u64)> {
        let lw = self.rows * self.width;
        let mut out = vec![(0i64, 0i128, 0u64); self.levels() * lw];
        // Logical levels above the bound stay zero.
        let mut level = self.top[i] as usize + 1;
        self.scan_levels::<()>(i, &mut DecodeScratch::default(), |acc| {
            level -= 1;
            for (j, a) in acc.iter().enumerate() {
                out[level * lw + j] = a.registers();
            }
            None
        });
        out
    }

    /// Visit every physical cell's registers in the bank's flat
    /// `(sampler, level, row, col)` order (serialization).
    pub fn visit_cells(&self, mut f: impl FnMut(i64, i128, u64)) {
        for cell in &self.cells {
            let (c, s, fp) = cell.registers();
            f(c, s, fp);
        }
    }

    /// Mutably visit every cell's registers in the same order
    /// (deserialization). Bumps the generation: the registers may change.
    /// Recomputes every sampler's level bound exactly from the installed
    /// cells, in the same pass, so a restored bank decodes as few levels as
    /// the live one.
    pub fn visit_cells_mut(&mut self, mut f: impl FnMut(&mut i64, &mut i128, &mut u64)) {
        self.generation += 1;
        let (lw, cps) = (self.rows * self.width, self.cells_per_sampler());
        for (top, sampler_cells) in self.top.iter_mut().zip(self.cells.chunks_exact_mut(cps)) {
            *top = 0;
            for (level, level_cells) in sampler_cells.chunks_exact_mut(lw).enumerate() {
                for cell in level_cells {
                    let (c, s, fp) = cell.registers_mut();
                    f(c, s, fp);
                    if !cell.is_zero() {
                        *top = level as u8;
                    }
                }
            }
        }
    }

    /// Total cell count (diagnostics / wire-geometry validation).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }
}

/// Reusable decode workspace (one logical level's cells) for
/// [`SamplerBank::sample_with`].
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch(Vec<OneSparse>);

#[inline]
fn rows_width(rows: usize, width: usize) -> usize {
    rows * width
}

impl SpaceUsage for SamplerBank {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.pow.space_bytes()
            + self.coeffs.capacity() * std::mem::size_of::<u64>()
            + self.cells.capacity() * std::mem::size_of::<OneSparse>()
            + self.top.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn empty_bank_samples_none() {
        let bank = SamplerBank::new(1 << 16, 5, &mut rng(1));
        for i in 0..bank.len() {
            assert_eq!(bank.sample(i), None);
            assert_eq!(bank.sample_all(i), Some(vec![]));
        }
    }

    #[test]
    fn singleton_and_cancellation() {
        let mut bank = SamplerBank::new(1 << 30, 3, &mut rng(2));
        bank.update(123_456_789, 5);
        bank.update(42, 1);
        bank.update(42, -1);
        for i in 0..bank.len() {
            assert_eq!(bank.sample(i), Some((123_456_789, 5)));
        }
    }

    #[test]
    fn matches_reference_sampler_exactly() {
        for seed in 0..5u64 {
            let mut r = rng(100 + seed);
            let mut bank = SamplerBank::new(1 << 16, 4, &mut r);
            let mut refs: Vec<L0Sampler> =
                (0..bank.len()).map(|i| bank.reference_sampler(i)).collect();
            for j in 0..200u64 {
                let idx = (j * 997 + seed * 13) % (1 << 16);
                let delta = if j % 5 == 4 { -1 } else { 1 };
                bank.update(idx, delta);
                for s in &mut refs {
                    s.update(idx, delta);
                }
            }
            for (i, s) in refs.iter().enumerate() {
                assert_eq!(bank.sample(i), s.sample(), "seed {seed} sampler {i}");
                assert_eq!(
                    bank.sample_all(i),
                    s.sample_all(),
                    "seed {seed} sampler {i}"
                );
                let mut reference_regs = Vec::new();
                s.visit_cells(|c, ix, fp| reference_regs.push((c, ix, fp)));
                assert_eq!(bank.logical_registers(i), reference_regs);
            }
        }
    }

    #[test]
    fn generation_tracks_every_register_mutation() {
        let mut bank = SamplerBank::new(1 << 12, 2, &mut rng(11));
        assert_eq!(bank.generation(), 0);
        bank.update(5, 1);
        assert_eq!(bank.generation(), 1);
        bank.update(5, -1);
        assert_eq!(bank.generation(), 2);
        // A batch is one mutation event: generation bumps once per call,
        // however many updates it carries — but never zero for a non-empty
        // batch (the registers may have changed).
        bank.update_batch(&[(5, 1), (6, 1), (7, -1)]);
        assert_eq!(bank.generation(), 3);
        bank.update_batch(&[(9, 1)]);
        assert_eq!(bank.generation(), 4);
        // An empty batch mutates nothing and must not invalidate memoized
        // decode results.
        bank.update_batch(&[]);
        assert_eq!(bank.generation(), 4);
        // Read-only paths leave the generation alone…
        let _ = bank.sample(0);
        bank.visit_cells(|_, _, _| {});
        assert_eq!(bank.generation(), 4);
        // …while a register install (restore) does not.
        bank.visit_cells_mut(|_, _, _| {});
        assert_eq!(bank.generation(), 5);
    }

    #[test]
    fn update_batch_matches_sequential_updates_exactly() {
        for seed in 0..3u64 {
            let mut r = rng(300 + seed);
            let mut batched = SamplerBank::new(1 << 16, 4, &mut r);
            let mut sequential = SamplerBank::new(1 << 16, 4, &mut rng(300 + seed));
            let updates: Vec<(u64, i64)> = (0..257u64)
                .map(|j| {
                    let idx = (j * 997 + seed * 13) % (1 << 16);
                    (idx, if j % 5 == 4 { -1 } else { 1 })
                })
                .collect();
            // Mixed chunk sizes, including 1 (the scalar fast path) and a
            // tail that doesn't divide evenly.
            for chunk in updates.chunks(7) {
                batched.update_batch(chunk);
            }
            for &(idx, d) in &updates {
                sequential.update(idx, d);
            }
            let mut a = Vec::new();
            let mut b = Vec::new();
            batched.visit_cells(|c, s, f| a.push((c, s, f)));
            sequential.visit_cells(|c, s, f| b.push((c, s, f)));
            assert_eq!(a, b, "seed {seed}: registers diverged");
            for i in 0..batched.len() {
                assert_eq!(batched.sample(i), sequential.sample(i), "seed {seed}");
            }
        }
    }

    #[test]
    fn bank_is_smaller_than_loose_samplers() {
        let mut r = rng(7);
        let bank = SamplerBank::new(1 << 20, 64, &mut r);
        let loose: Vec<L0Sampler> = (0..64).map(|_| L0Sampler::new(1 << 20, &mut r)).collect();
        assert!(bank.space_bytes() < loose.space_bytes());
    }

    /// The deepest level of sampler `i` holding a nonzero cell (0 if none).
    fn exact_top(bank: &SamplerBank, i: usize) -> u8 {
        let (lw, cps) = (bank.rows * bank.width, bank.cells_per_sampler());
        bank.cells[i * cps..(i + 1) * cps]
            .chunks_exact(lw)
            .rposition(|level| level.iter().any(|c| !c.is_zero()))
            .unwrap_or(0) as u8
    }

    #[test]
    fn restore_recomputes_every_level_bound_exactly() {
        let mut live = SamplerBank::new(1 << 16, 16, &mut rng(21));
        let coords: Vec<u64> = (0..300u64).map(|j| j * 977 % (1 << 16)).collect();
        for &x in &coords {
            live.update(x, 1);
        }
        // Retract all but every tenth coordinate, through `update` and
        // `update_batch`: the live bounds stay where the deepest deleted
        // coordinates sat.
        let retract: Vec<(u64, i64)> = coords
            .iter()
            .enumerate()
            .filter(|(j, _)| j % 10 != 0)
            .map(|(_, &x)| (x, -1))
            .collect();
        let (scalar, batched) = retract.split_at(retract.len() / 2);
        for &(x, d) in scalar {
            live.update(x, d);
        }
        live.update_batch(batched);
        for i in 0..live.len() {
            assert!(
                exact_top(&live, i) <= live.top[i],
                "live bound is an upper bound"
            );
        }
        let mut regs = Vec::new();
        live.visit_cells(|c, s, f| regs.push((c, s, f)));
        let mut restored = SamplerBank::new(1 << 16, 16, &mut rng(21));
        let mut it = regs.iter();
        restored.visit_cells_mut(|c, s, f| (*c, *s, *f) = *it.next().unwrap());
        for i in 0..restored.len() {
            assert_eq!(restored.top[i], exact_top(&restored, i), "sampler {i}");
            assert!(restored.top[i] <= live.top[i], "sampler {i}");
            assert_eq!(restored.sample_all(i), live.sample_all(i), "sampler {i}");
        }
        assert!(
            (0..live.len()).any(|i| restored.top[i] < live.top[i]),
            "some live bound went stale-high, and the restore tightened it"
        );
    }

    #[test]
    fn visit_cells_roundtrip() {
        let mut bank = SamplerBank::new(1 << 12, 3, &mut rng(9));
        for j in 0..50u64 {
            bank.update(j * 31 % (1 << 12), 1);
        }
        let mut regs = Vec::new();
        bank.visit_cells(|c, s, f| regs.push((c, s, f)));
        assert_eq!(regs.len(), bank.cell_count());
        let mut other = SamplerBank::new(1 << 12, 3, &mut rng(9));
        let mut it = regs.iter();
        other.visit_cells_mut(|c, s, f| {
            let &(rc, rs, rf) = it.next().unwrap();
            *c = rc;
            *s = rs;
            *f = rf;
        });
        for i in 0..bank.len() {
            assert_eq!(other.sample(i), bank.sample(i));
        }
    }
}
