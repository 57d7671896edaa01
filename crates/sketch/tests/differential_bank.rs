//! Differential suite: a [`SamplerBank`] slot and the per-sampler reference
//! [`L0Sampler`] built from the same hash randomness must agree
//! **sample-for-sample** — same successes, same failures, same recovered
//! coordinates, and identical logical (cumulative-level) register files —
//! on insert, delete, and full-cancellation turnstile streams.
//!
//! This is the equivalence argument of the bank design made executable: the
//! bank stores each coordinate only at its own level and decodes level ℓ as
//! the additive suffix-sum of levels ℓ..max; with row hashes shared across
//! levels and one fingerprint base, that sum is register-identical to the
//! textbook cumulative layout, so every downstream decision (zero tests,
//! peeling order, min-hash argmin) coincides.

use fews_common::rng::rng_for;
use fews_sketch::bank::SamplerBank;
use fews_sketch::l0::{L0Config, L0Sampler};
use proptest::prelude::*;

/// Build a bank and its per-slot reference samplers from one seed.
fn bank_and_refs(dim: u64, count: usize, seed: u64) -> (SamplerBank, Vec<L0Sampler>) {
    let bank = SamplerBank::new(dim, count, &mut rng_for(seed, 0xBA_0001));
    let refs = (0..count).map(|i| bank.reference_sampler(i)).collect();
    (bank, refs)
}

/// Apply a stream to both and assert full agreement.
fn assert_agree(bank: &SamplerBank, refs: &[L0Sampler], label: &str) {
    for (i, s) in refs.iter().enumerate() {
        assert_eq!(bank.sample(i), s.sample(), "{label}: sample, slot {i}");
        assert_eq!(
            bank.sample_all(i),
            s.sample_all(),
            "{label}: sample_all, slot {i}"
        );
        let mut reference_regs = Vec::new();
        s.visit_cells(|c, ix, f| reference_regs.push((c, ix, f)));
        assert_eq!(
            bank.logical_registers(i),
            reference_regs,
            "{label}: registers, slot {i}"
        );
    }
}

fn apply(bank: &mut SamplerBank, refs: &mut [L0Sampler], updates: &[(u64, i64)]) {
    for &(idx, delta) in updates {
        bank.update(idx, delta);
        for s in refs.iter_mut() {
            s.update(idx, delta);
        }
    }
}

#[test]
fn seeds_by_stream_shapes_grid() {
    const DIM: u64 = 1 << 14;
    for seed in [11u64, 22, 33, 44, 55] {
        // Insert-only stream.
        let (mut bank, mut refs) = bank_and_refs(DIM, 3, seed);
        let inserts: Vec<(u64, i64)> = (0..300u64).map(|j| ((j * 389 + seed) % DIM, 1)).collect();
        apply(&mut bank, &mut refs, &inserts);
        assert_agree(&bank, &refs, &format!("seed {seed} insert"));

        // Insert-delete churn: delete every third inserted coordinate.
        let (mut bank, mut refs) = bank_and_refs(DIM, 3, seed.wrapping_mul(3));
        apply(&mut bank, &mut refs, &inserts);
        let deletes: Vec<(u64, i64)> = inserts
            .iter()
            .step_by(3)
            .map(|&(idx, _)| (idx, -1))
            .collect();
        apply(&mut bank, &mut refs, &deletes);
        assert_agree(&bank, &refs, &format!("seed {seed} churn"));

        // Full cancellation: the support returns to empty.
        let (mut bank, mut refs) = bank_and_refs(DIM, 3, seed.wrapping_mul(7));
        apply(&mut bank, &mut refs, &inserts);
        let cancel: Vec<(u64, i64)> = inserts.iter().map(|&(idx, d)| (idx, -d)).collect();
        apply(&mut bank, &mut refs, &cancel);
        assert_agree(&bank, &refs, &format!("seed {seed} cancel"));
        for i in 0..bank.len() {
            assert_eq!(bank.sample(i), None, "cancelled support must be empty");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_turnstile_streams_agree(
        seed in 0u64..1000,
        updates in proptest::collection::vec((0u64..(1 << 12), -3i64..=3), 1..120),
        cancel_tail in any::<bool>(),
    ) {
        let mut stream: Vec<(u64, i64)> =
            updates.iter().copied().filter(|&(_, d)| d != 0).collect();
        if cancel_tail {
            // Append the exact inverse of the stream so far: net vector 0.
            let inverse: Vec<(u64, i64)> =
                stream.iter().rev().map(|&(i, d)| (i, -d)).collect();
            stream.extend(inverse);
        }
        let (mut bank, mut refs) = bank_and_refs(1 << 12, 2, seed);
        apply(&mut bank, &mut refs, &stream);
        for (i, s) in refs.iter().enumerate() {
            prop_assert_eq!(bank.sample(i), s.sample(), "slot {}", i);
            prop_assert_eq!(bank.sample_all(i), s.sample_all(), "slot {}", i);
            let mut reference_regs = Vec::new();
            s.visit_cells(|c, ix, f| reference_regs.push((c, ix, f)));
            prop_assert_eq!(bank.logical_registers(i), reference_regs, "slot {}", i);
        }
        if cancel_tail {
            for i in 0..bank.len() {
                prop_assert_eq!(bank.sample(i), None);
            }
        }
    }

    #[test]
    fn non_default_tuning_agrees(
        seed in 0u64..200,
        sparsity in 1usize..6,
        rows in 1usize..4,
        raw in proptest::collection::vec((0u64..4096, any::<bool>()), 1..60),
    ) {
        let cfg = L0Config { sparsity, rows };
        let updates: Vec<(u64, i64)> = raw
            .iter()
            .map(|&(idx, neg)| (idx, if neg { -1 } else { 1 }))
            .collect();
        let mut bank =
            SamplerBank::with_config(4096, 2, cfg, &mut rng_for(seed, 0xBA_0002));
        let mut refs: Vec<L0Sampler> =
            (0..bank.len()).map(|i| bank.reference_sampler(i)).collect();
        apply(&mut bank, &mut refs, &updates);
        for (i, s) in refs.iter().enumerate() {
            prop_assert_eq!(bank.sample(i), s.sample());
            prop_assert_eq!(bank.sample_all(i), s.sample_all());
        }
    }
}

/// Cells per level of `bank`'s samplers.
fn per_level(bank: &SamplerBank) -> usize {
    let cfg = bank.config();
    cfg.rows * 2 * cfg.sparsity
}

/// The level sampler `i` of `bank` files coordinate `x` at: the deepest
/// nonzero logical level of a reference sampler fed `x` alone.
fn level_of(bank: &SamplerBank, i: usize, x: u64) -> usize {
    let mut s = bank.reference_sampler(i);
    s.update(x, 1);
    let mut regs = Vec::new();
    s.visit_cells(|c, ix, f| regs.push((c, ix, f)));
    regs.chunks_exact(per_level(bank))
        .rposition(|level| level.iter().any(|&r| r != (0, 0, 0)))
        .expect("a fed coordinate is nonzero at level 0")
}

#[test]
fn deleting_a_samplers_deepest_coordinate_leaves_no_trace() {
    const DIM: u64 = 1 << 14;
    for seed in [3u64, 17, 29] {
        // A lone coordinate inserted and deleted: every sampler's level
        // bound stays where that coordinate sat, over an empty support.
        let (mut bank, mut refs) = bank_and_refs(DIM, 3, seed);
        apply(
            &mut bank,
            &mut refs,
            &[(seed * 41 % DIM, 1), (seed * 41 % DIM, -1)],
        );
        assert_agree(&bank, &refs, &format!("seed {seed} lone"));
        for i in 0..bank.len() {
            assert_eq!(bank.sample(i), None);
        }

        // Per slot: delete every coordinate on the sampler's deepest
        // occupied level while shallower ones stay live, then reinsert.
        let coords: Vec<u64> = (0..200u64).map(|j| (j * 733 + seed) % DIM).collect();
        for slot in 0..3 {
            let (mut bank, mut refs) = bank_and_refs(DIM, 3, seed.wrapping_mul(5) + slot as u64);
            let inserts: Vec<(u64, i64)> = coords.iter().map(|&x| (x, 1)).collect();
            apply(&mut bank, &mut refs, &inserts);
            let deepest = coords
                .iter()
                .map(|&x| level_of(&bank, slot, x))
                .max()
                .unwrap();
            let doomed: Vec<(u64, i64)> = coords
                .iter()
                .filter(|&&x| level_of(&bank, slot, x) == deepest)
                .map(|&x| (x, -1))
                .collect();
            assert!(
                doomed.len() < coords.len(),
                "shallower coordinates stay live"
            );
            apply(&mut bank, &mut refs, &doomed);
            let label = format!("seed {seed} slot {slot} deepest {deepest}");
            assert_agree(&bank, &refs, &label);
            assert!(
                bank.logical_registers(slot)[deepest * per_level(&bank)..]
                    .iter()
                    .all(|&r| r == (0, 0, 0)),
                "{label}: the emptied level reads zero"
            );
            let back: Vec<(u64, i64)> = doomed.iter().map(|&(x, _)| (x, 1)).collect();
            apply(&mut bank, &mut refs, &back[..1]);
            assert_agree(&bank, &refs, &format!("{label} reinserted"));
        }
    }
}

#[test]
fn restore_mid_stream_then_keep_updating_agrees() {
    const DIM: u64 = 1 << 13;
    for seed in [5u64, 6, 7] {
        let (mut bank, mut refs) = bank_and_refs(DIM, 4, seed);
        let first: Vec<(u64, i64)> = (0..300u64).map(|j| ((j * 389 + seed) % DIM, 1)).collect();
        apply(&mut bank, &mut refs, &first);
        // Retract two thirds, so the live bank's bounds sit above the cells.
        let retract: Vec<(u64, i64)> = first
            .iter()
            .enumerate()
            .filter(|(j, _)| j % 3 != 0)
            .map(|(_, &(x, _))| (x, -1))
            .collect();
        apply(&mut bank, &mut refs, &retract);

        let mut regs = Vec::new();
        bank.visit_cells(|c, s, f| regs.push((c, s, f)));
        let (mut restored, _) = bank_and_refs(DIM, 4, seed);
        let mut it = regs.iter();
        restored.visit_cells_mut(|c, s, f| (*c, *s, *f) = *it.next().unwrap());
        assert!(it.next().is_none());
        assert_agree(&restored, &refs, &format!("seed {seed} restored"));

        let more: Vec<(u64, i64)> = (0..150u64)
            .map(|j| ((j * 1201 + 7 * seed) % DIM, if j % 4 == 3 { -1 } else { 1 }))
            .collect();
        for &(x, d) in &more {
            bank.update(x, d);
        }
        apply(&mut restored, &mut refs, &more);
        assert_agree(&restored, &refs, &format!("seed {seed} restored + more"));
        assert_agree(&bank, &refs, &format!("seed {seed} live + more"));
    }
}

#[test]
fn batched_and_scalar_paths_each_match_the_reference() {
    // 96 samplers over 2^14 hold > 2 MiB of cells: `update_batch` takes its
    // sampler-outer sweep rather than the scalar fallback.
    const DIM: u64 = 1 << 14;
    const COUNT: usize = 96;
    let (mut scalar, mut refs) = bank_and_refs(DIM, COUNT, 71);
    let (mut batched, _) = bank_and_refs(DIM, COUNT, 71);
    let inserts: Vec<(u64, i64)> = (0..400u64).map(|j| ((j * 577 + 3) % DIM, 1)).collect();
    // Retract all but every fifth: most samplers lose their deepest
    // coordinate, in both paths.
    let deletes: Vec<(u64, i64)> = inserts
        .iter()
        .enumerate()
        .filter(|(j, _)| j % 5 != 0)
        .map(|(_, &(x, _))| (x, -1))
        .collect();
    for stage in [&inserts, &deletes] {
        apply(&mut scalar, &mut refs, stage);
        for chunk in stage.chunks(64) {
            batched.update_batch(chunk);
        }
        assert_agree(&scalar, &refs, "scalar");
        assert_agree(&batched, &refs, "batched");
    }
}
