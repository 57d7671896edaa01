//! `sketch` — before/after throughput of the flat ℓ₀-sampler banks.
//!
//! Three measurements, written to CSV tables and to `BENCH_sketch.json`:
//!
//! 1. **Bank-size sweep** — a turnstile stream pushed through N independent
//!    [`L0Sampler`]s (the pre-bank layout) versus one [`SamplerBank`] of the
//!    same N, at several N. This isolates the data-structure effect: shared
//!    `z^index`, flat cells, exact-level updates.
//! 2. **`id` model end to end** — the engine experiment's dblog workload
//!    ingested by [`FewwInsertDelete`] on the reference backend versus the
//!    default banked backend, same config and seed as the `engine`
//!    experiment's dblog cell. The PR 2 baseline for this cell
//!    (`BENCH_engine.json`) was ~430 updates/s; the acceptance target is
//!    ≥ 50× that.
//! 3. **Decode** — the served `dblog` shape (`fews listen --model id
//!    --scale 0.02`: 48 records × 1024 users, d = 16, α = 2, 16 partitions):
//!    µs per `sample_all` on one edge bank fed the replayed log, and ms to
//!    re-decode all partitions (`pooled_witnesses_cached`) after each
//!    1024-update cycle — the refresher's work behind a fresh read.
//!
//! Space is reported alongside (`SpaceUsage` bytes): banks also shrink the
//! resident footprint by collapsing thousands of nested `Vec`s into three
//! flat buffers per bank.

use super::{git_rev, ExpCtx};
use crate::table::{f3, Table};
use fews_common::rng::rng_for;
use fews_common::stats::quantile;
use fews_common::SpaceUsage;
use fews_core::insertion_deletion::{FewwInsertDelete, IdConfig};
use fews_engine::{partition_of, partition_seed, DEFAULT_PARTITIONS};
use fews_sketch::bank::SamplerBank;
use fews_sketch::l0::L0Sampler;
use fews_stream::Update;
use std::hint::black_box;
use std::time::Instant;

/// Run `pass` repeatedly until at least `min_secs` of wall clock or
/// `max_passes` passes have elapsed; return measured updates/sec given
/// `updates_per_pass`.
fn rate(updates_per_pass: usize, min_secs: f64, max_passes: usize, mut pass: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut passes = 0usize;
    while passes < max_passes {
        pass();
        passes += 1;
        if started.elapsed().as_secs_f64() >= min_secs {
            break;
        }
    }
    (passes * updates_per_pass) as f64 / started.elapsed().as_secs_f64()
}

/// A deterministic turnstile stream over `0..dim`: inserts with a steady
/// trickle of deletions of earlier coordinates.
fn turnstile_updates(dim: u64, len: usize, seed: u64) -> Vec<(u64, i64)> {
    let mut out = Vec::with_capacity(len);
    let mut x = seed | 1;
    for j in 0..len {
        // xorshift64* — cheap, deterministic, platform-stable.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let idx = x.wrapping_mul(0x2545_F491_4F6C_DD1D) % dim;
        if j % 4 == 3 {
            // Delete the coordinate inserted three steps ago (net 0 churn).
            let (prev, _) = out[j - 3];
            out.push((prev, -1i64));
        } else {
            out.push((idx, 1i64));
        }
    }
    out
}

struct Cell {
    label: String,
    updates: usize,
    before: f64,
    after: f64,
    /// The batched (`update_batch` / `push_batch`) rate, when the cell
    /// measures one; `None` keeps the legacy two-column shape.
    batched: Option<f64>,
    before_bytes: usize,
    after_bytes: usize,
}

impl Cell {
    fn json(&self, baseline: Option<f64>) -> String {
        let best = self.batched.unwrap_or(self.after);
        let vs_baseline = baseline.map_or(String::new(), |b| {
            format!(" \"speedup_vs_pr2_engine\": {:.1},", best / b)
        });
        let batched = self.batched.map_or(String::new(), |r| {
            format!(
                " \"batched_updates_per_sec\": {:.0}, \"batched_vs_scalar\": {:.2},",
                r,
                r / self.after
            )
        });
        format!(
            "\"{}\": {{\"updates\": {}, \"reference_updates_per_sec\": {:.0}, \
             \"banked_updates_per_sec\": {:.0}, \"speedup\": {:.1},{}{} \
             \"reference_space_bytes\": {}, \"banked_space_bytes\": {}}}",
            self.label,
            self.updates,
            self.before,
            self.after,
            best / self.before,
            batched,
            vs_baseline,
            self.before_bytes,
            self.after_bytes
        )
    }
}

/// The `decode` cell's figures.
struct Decode {
    samplers: usize,
    sample_all_us: f64,
    sample_all_calls: usize,
    cycle_updates: usize,
    cycles: usize,
    cycle_decode_ms: f64,
}

/// Decode cost on the served `dblog` shape. The log is replayed end to end
/// (as the stack benchmark's `dblog-id-fresh` sends it), in 64-update
/// frames routed to partitions by [`partition_of`].
fn decode_cell(ctx: &ExpCtx) -> Decode {
    const FRAME: usize = 64;
    const CYCLE: usize = 1024;
    let (records, users, hot) = (48u32, 1u64 << 10, 16u32);
    let cfg = IdConfig::with_scale(records, users, hot, 2, 0.02);
    let log = fews_stream::gen::dblog::db_log(
        records,
        users,
        hot,
        4,
        0.5,
        &mut rng_for(ctx.seed, 0x5E_0D01),
    );
    let replay = |k: usize| log.updates[k % log.updates.len()];

    // One edge bank fed the log: the per-call decode cost.
    let mut bank = SamplerBank::with_config(
        records as u64 * users,
        cfg.edge_sampler_count(),
        cfg.l0,
        &mut rng_for(ctx.seed, 0x5E_0D02),
    );
    let fed: Vec<(u64, i64)> = (0..CYCLE * 4)
        .map(|k| {
            let u = replay(k);
            (u.edge.linear_index(users), u.delta as i64)
        })
        .collect();
    for frame in fed.chunks(FRAME) {
        bank.update_batch(frame);
    }
    let sweeps = if ctx.quick { 5 } else { 101 };
    let per_call: Vec<f64> = (0..sweeps)
        .map(|_| {
            let t = Instant::now();
            for i in 0..bank.len() {
                black_box(bank.sample_all(i));
            }
            t.elapsed().as_secs_f64() * 1e6 / bank.len() as f64
        })
        .collect();
    let samplers = bank.len();
    drop(bank);

    // All partitions: one decode pass after every 1024-update cycle.
    let mut parts: Vec<FewwInsertDelete> = (0..DEFAULT_PARTITIONS)
        .map(|p| FewwInsertDelete::new(cfg, partition_seed(ctx.seed, p as u32)))
        .collect();
    let mut routed = vec![Vec::new(); DEFAULT_PARTITIONS];
    let cycles = if ctx.quick { 4 } else { 101 };
    let mut next = 0usize;
    let mut cycle_ms = Vec::with_capacity(cycles);
    // Cycle 0 warms the decode memos and is not timed.
    for cycle in 0..=cycles {
        for _ in 0..CYCLE / FRAME {
            for _ in 0..FRAME {
                let u = replay(next);
                next += 1;
                routed[partition_of(u.edge.a, DEFAULT_PARTITIONS)].push(u);
            }
            for (part, batch) in parts.iter_mut().zip(&mut routed) {
                part.push_batch(batch);
                batch.clear();
            }
        }
        let t = Instant::now();
        for part in &mut parts {
            black_box(part.pooled_witnesses_cached());
        }
        if cycle > 0 {
            cycle_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    Decode {
        samplers,
        sample_all_us: quantile(&per_call, 0.5),
        sample_all_calls: sweeps * samplers,
        cycle_updates: CYCLE,
        cycles,
        cycle_decode_ms: quantile(&cycle_ms, 0.5),
    }
}

/// Before/after ingest throughput of the sampler-bank rearchitecture.
pub fn sketch_exp(ctx: &ExpCtx) -> Vec<Table> {
    let seed = ctx.seed;
    let dim = 1u64 << 20;
    let sizes: &[usize] = if ctx.quick {
        &[16, 64]
    } else {
        &[16, 64, 256, 1024]
    };
    let stream_len = if ctx.quick { 2_000 } else { 4_000 };
    let updates = turnstile_updates(dim, stream_len, seed.wrapping_mul(0x5E1F) | 1);

    let mut sweep = Table::new(
        "sketch — N ℓ₀-samplers, loose vs banked (turnstile stream)",
        &[
            "samplers",
            "updates",
            "loose_updates_per_sec",
            "bank_updates_per_sec",
            "bank_batched_updates_per_sec",
            "speedup",
            "batched_vs_scalar",
            "loose_KiB",
            "bank_KiB",
        ],
    );
    let mut size_cells = Vec::new();
    for &n in sizes {
        let mut rng = rng_for(seed, 0x5E_0001 + n as u64);
        let mut loose: Vec<L0Sampler> = (0..n).map(|_| L0Sampler::new(dim, &mut rng)).collect();
        let mut bank = SamplerBank::new(dim, n, &mut rng_for(seed, 0x5E_0002 + n as u64));
        // The loose layout is slow; cap its work so full mode stays minutes,
        // not hours. Rates are per-update, so shorter passes stay unbiased.
        let loose_budget = (200_000 / n).clamp(50, updates.len());
        let before = rate(loose_budget, 0.5, 64, || {
            for &(idx, delta) in &updates[..loose_budget] {
                for s in &mut loose {
                    s.update(idx, delta);
                }
            }
        });
        let after = rate(updates.len(), 0.5, 10_000, || {
            for &(idx, delta) in &updates {
                bank.update(idx, delta);
            }
        });
        // The batched sweep: same stream through `update_batch` in
        // engine-batch-sized chunks — the per-update shared precompute and
        // sampler-resident inner loop are what the autovectorizer turns
        // into SIMD lanes.
        let batched = rate(updates.len(), 0.5, 10_000, || {
            for chunk in updates.chunks(256) {
                bank.update_batch(chunk);
            }
        });
        let before_bytes = loose.space_bytes();
        let after_bytes = bank.space_bytes();
        sweep.push_row(vec![
            n.to_string(),
            updates.len().to_string(),
            format!("{before:.0}"),
            format!("{after:.0}"),
            format!("{batched:.0}"),
            f3(batched / before),
            f3(batched / after),
            (before_bytes / 1024).to_string(),
            (after_bytes / 1024).to_string(),
        ]);
        size_cells.push(Cell {
            label: n.to_string(),
            updates: updates.len(),
            before,
            after,
            batched: Some(batched),
            before_bytes,
            after_bytes,
        });
    }
    sweep
        .write_csv(&ctx.out_dir, "sketch_bank_sizes")
        .expect("csv");

    // The engine experiment's dblog cell, ingested directly by the two
    // FewwInsertDelete backends (same config + seed as `engine`).
    let eng_seed = fews_common::rng::derive_seed(seed, 0xE26_0001);
    let (records, hot) = if ctx.quick { (32u32, 12u32) } else { (48, 16) };
    let log =
        fews_stream::gen::dblog::db_log(records, 1 << 10, hot, 4, 0.5, &mut rng_for(eng_seed, 4));
    let id_cfg = IdConfig::with_scale(records, 1 << 10, hot, 2, 0.02);
    let mut id_table = Table::new(
        "sketch — id model (dblog), reference vs banked backend",
        &[
            "backend",
            "samplers",
            "updates",
            "updates_per_sec",
            "speedup",
            "state_KiB",
        ],
    );
    let ingest = |alg: &mut FewwInsertDelete, stream: &[Update]| {
        for u in stream {
            alg.push(*u);
        }
    };
    let mut reference = FewwInsertDelete::new_reference(id_cfg, eng_seed);
    let before = rate(log.updates.len(), 0.5, 8, || {
        ingest(&mut reference, &log.updates)
    });
    let mut banked = FewwInsertDelete::new(id_cfg, eng_seed);
    let after = rate(log.updates.len(), 0.5, 10_000, || {
        ingest(&mut banked, &log.updates)
    });
    let batched = rate(log.updates.len(), 0.5, 10_000, || {
        for chunk in log.updates.chunks(256) {
            banked.push_batch(chunk);
        }
    });
    // Satellite: the witness-pool intermediate is deduplicated per bank as
    // it is collected; report what one query buffers now vs what the
    // undeduplicated pool held (16 bytes per `(u32, u64)` pair).
    let (pool_raw, pool_deduped) = banked.witness_pool_stats();
    let pair_bytes = std::mem::size_of::<(u32, u64)>();
    let id_cell = Cell {
        label: "id_dblog".into(),
        updates: log.updates.len(),
        before,
        after,
        batched: Some(batched),
        before_bytes: reference.space_bytes(),
        after_bytes: banked.space_bytes(),
    };
    for (name, alg, r) in [
        ("reference", &reference, before),
        ("banked", &banked, after),
        ("banked (batched)", &banked, batched),
    ] {
        id_table.push_row(vec![
            name.into(),
            alg.sampler_count().to_string(),
            log.updates.len().to_string(),
            format!("{r:.0}"),
            f3(r / before),
            (alg.space_bytes() / 1024).to_string(),
        ]);
    }
    id_table
        .write_csv(&ctx.out_dir, "sketch_id_model")
        .expect("csv");

    let decode = decode_cell(ctx);
    let mut decode_table = Table::new(
        "sketch — decode on the served dblog shape (16 partitions)",
        &[
            "edge_samplers",
            "sample_all_us",
            "sample_all_calls",
            "cycle_updates",
            "cycles",
            "cycle_decode_ms",
        ],
    );
    decode_table.push_row(vec![
        decode.samplers.to_string(),
        f3(decode.sample_all_us),
        decode.sample_all_calls.to_string(),
        decode.cycle_updates.to_string(),
        decode.cycles.to_string(),
        f3(decode.cycle_decode_ms),
    ]);
    decode_table
        .write_csv(&ctx.out_dir, "sketch_decode")
        .expect("csv");

    let size_json: Vec<String> = size_cells
        .iter()
        .map(|c| format!("  {}", c.json(None)))
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"experiment\": \"sketch\",\n  \"mode\": \"{}\",\n  \"seed\": {},\n  \
         \"cores\": {cores},\n  \"git_rev\": \"{}\",\n  \
         \"baseline_pr2_engine_dblog_updates_per_sec\": 426,\n  {},\n  \
         \"witness_pool\": {{\"raw_pairs\": {}, \"deduped_pairs\": {}, \
         \"raw_bytes\": {}, \"deduped_bytes\": {}}},\n  \
         \"decode\": {{\"partitions\": {}, \"edge_samplers\": {}, \
         \"sample_all_us\": {:.3}, \"sample_all_calls\": {}, \"cycle_updates\": {}, \
         \"cycles\": {}, \"cycle_decode_ms\": {:.3}}},\n  \
         \"bank_sizes\": {{\n{}\n  }}\n}}\n",
        if ctx.quick { "quick" } else { "full" },
        seed,
        git_rev(),
        id_cell.json(Some(426.0)),
        pool_raw,
        pool_deduped,
        pool_raw * pair_bytes,
        pool_deduped * pair_bytes,
        DEFAULT_PARTITIONS,
        decode.samplers,
        decode.sample_all_us,
        decode.sample_all_calls,
        decode.cycle_updates,
        decode.cycles,
        decode.cycle_decode_ms,
        size_json.join(",\n")
    );
    std::fs::write(ctx.out_dir.join("BENCH_sketch.json"), json).expect("write BENCH_sketch.json");

    vec![sweep, id_table, decode_table]
}
