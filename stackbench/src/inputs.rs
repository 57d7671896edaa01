//! Workload inputs and the single-threaded `fews-core` reference.
//!
//! Every input derives from the benchmark's `--seed`; the servers receive
//! only the generated frames and always run with the fixed model seed
//! [`MODEL_SEED`]. The stream is endless (a run sends frames until its time
//! is up), so frame `k` is a pure function of `(seed, k)` and the reference
//! replays exactly the prefix a run managed to send.

use fews_common::rng::rng_for;
use fews_core::insertion_deletion::{FewwInsertDelete, IdConfig};
use fews_core::insertion_only::{FewwConfig, FewwInsertOnly};
use fews_core::Neighbourhood;
use fews_engine::{partition_of, partition_seed, EngineConfig};
use fews_stream::{Edge, Update};
use std::cmp::Reverse;

/// The master seed every server and reference runs with (`fews listen`'s
/// default `--seed`). Only the workload seed varies between runs.
pub const MODEL_SEED: u64 = 2021;

/// `k` of the `top k` queries.
pub const TOP_K: u64 = 3;

/// Zipf items drawn once per run and cycled; timestamps keep every edge
/// distinct, so the stream stays simple however long a run lasts.
const ZIPF_POOL: usize = 1 << 22;

/// The frame count at which `state_mb` and `peak_rss_mb` are read, on every
/// workload: about two thirds of what a 30 s run sends. An end-to-end run
/// keeps sending until it gets there, so both figures cover the same prefix
/// of the stream however fast a run went.
pub const STATE_FRAME: u64 = 2048;

/// Updates the reference applies per `push_frame` call when replaying.
const REPLAY_CHUNK: usize = 1 << 16;

/// The workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Alg. 3 on the replayed audit log through one memory-only `fews listen`.
    DblogIdFresh,
    /// Alg. 2 on a Zipf stream through `fews router` over two workers.
    ZipfIoRouter,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::DblogIdFresh, Workload::ZipfIoRouter];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DblogIdFresh => "dblog-id-fresh",
            Workload::ZipfIoRouter => "zipf-io-router",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The model this workload serves.
    pub fn model(self) -> Model {
        match self {
            Workload::ZipfIoRouter => Model::ZIPF,
            Workload::DblogIdFresh => Model::DBLOG,
        }
    }

    /// Updates per ingest frame.
    pub fn frame(self) -> usize {
        match self {
            Workload::ZipfIoRouter => 2048,
            Workload::DblogIdFresh => 64,
        }
    }

    /// Ingest frames between two query pairs.
    pub fn query_every(self) -> usize {
        match self {
            Workload::ZipfIoRouter => 8,
            Workload::DblogIdFresh => 16,
        }
    }

    /// Server start-ups in each of a run's two set-up phases (one before
    /// the load, one after); `setup_s` is the median of both. Host speed
    /// drifts by about a tenth over seconds, so each phase spans about a
    /// second or more: a router start-up (three processes) takes about
    /// 7 ms, a `dblog-id-fresh` one about 0.2 s.
    pub fn setups(self) -> usize {
        match self {
            Workload::ZipfIoRouter => 60,
            Workload::DblogIdFresh => 10,
        }
    }

    /// Logical partitions: the router workload's 8, `fews listen`'s
    /// default for the audit log.
    pub fn partitions(self) -> usize {
        match self {
            Workload::ZipfIoRouter => 8,
            Workload::DblogIdFresh => fews_engine::DEFAULT_PARTITIONS,
        }
    }
}

/// A served model: its `fews listen` flags and its engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Model {
    /// A-vertices.
    pub n: u32,
    /// B-vertices (insertion-deletion only; 0 = insertion-only).
    pub m: u64,
    /// Degree threshold.
    pub d: u32,
    /// Approximation factor.
    pub alpha: u32,
    /// ℓ₀-sampler scale (insertion-deletion only).
    pub scale: f64,
}

impl Model {
    /// Alg. 2 on Zipf(1.1) over 4096 items, d = 2048, α = 2.
    pub const ZIPF: Model = Model {
        n: 4096,
        m: 0,
        d: 2048,
        alpha: 2,
        scale: 0.0,
    };
    /// Alg. 3 on the audit log: 48 records × 1024 users, d = 16 (the hot
    /// record's touches), α = 2, sampler scale 0.02.
    pub const DBLOG: Model = Model {
        n: 48,
        m: 1024,
        d: 16,
        alpha: 2,
        scale: 0.02,
    };

    /// Whether this is the insertion-only model.
    pub fn is_io(&self) -> bool {
        self.m == 0
    }

    /// The witness target ⌊d/α⌋ every certified list must reach.
    pub fn witness_target(&self) -> usize {
        (self.d / self.alpha) as usize
    }

    /// The `fews listen` / `fews router` model flags.
    pub fn flags(&self, partitions: usize) -> Vec<String> {
        let mut f = vec![
            "--n".into(),
            self.n.to_string(),
            "--d".into(),
            self.d.to_string(),
            "--alpha".into(),
            self.alpha.to_string(),
            "--seed".into(),
            MODEL_SEED.to_string(),
            "--partitions".into(),
            partitions.to_string(),
            "--shards".into(),
            "1".into(),
        ];
        if !self.is_io() {
            f.extend([
                "--model".into(),
                "id".into(),
                "--m".into(),
                self.m.to_string(),
                "--scale".into(),
                self.scale.to_string(),
            ]);
        }
        f
    }

    /// The same model as an in-process engine configuration (one shard).
    pub fn engine_config(&self, partitions: usize) -> EngineConfig {
        let cfg = if self.is_io() {
            EngineConfig::insert_only(FewwConfig::new(self.n, self.d, self.alpha), MODEL_SEED)
        } else {
            EngineConfig::insert_delete(self.id_config(), MODEL_SEED)
        };
        cfg.with_shards(1).with_partitions(partitions)
    }

    /// The insertion-deletion configuration (meaningless for Alg. 2).
    pub fn id_config(&self) -> IdConfig {
        IdConfig::with_scale(self.n, self.m, self.d, self.alpha, self.scale)
    }
}

/// An endless, seeded update stream cut into frames.
pub struct Frames {
    source: Source,
    /// Updates per frame.
    pub frame: usize,
    /// The vertex `certify` queries ask about: the stream's planted or most
    /// frequent vertex.
    pub hot: u32,
}

enum Source {
    /// Zipf items; update `t` is the edge `(items[t mod pool], t)`.
    Zipf(Vec<u32>),
    /// One audit log, replayed end to end.
    Log(Vec<Update>),
}

impl Frames {
    /// The stream a workload sends for workload seed `seed`.
    pub fn new(w: Workload, seed: u64) -> Frames {
        Frames::for_model(w.model(), w.frame(), seed)
    }

    /// The stream of `model`'s generator in `frame`-update frames.
    pub fn for_model(model: Model, frame: usize, seed: u64) -> Frames {
        if model.is_io() {
            let zipf = fews_stream::gen::zipf::Zipf::new(model.n, 1.1);
            let mut rng = rng_for(seed, 0x5B_0001);
            let items = (0..ZIPF_POOL).map(|_| zipf.sample(&mut rng)).collect();
            Frames {
                source: Source::Zipf(items),
                frame,
                hot: 0, // Zipf rank 0 is the most frequent item
            }
        } else {
            let log = fews_stream::gen::dblog::db_log(
                model.n,
                model.m,
                model.d,
                4,
                0.5,
                &mut rng_for(seed, 0x5B_0002),
            );
            Frames {
                source: Source::Log(log.updates),
                frame,
                hot: log.hot_record,
            }
        }
    }

    /// Write frame `k` into `out` (cleared first).
    pub fn fill(&self, k: u64, out: &mut Vec<Update>) {
        out.clear();
        let start = k * self.frame as u64;
        match &self.source {
            Source::Zipf(items) => {
                out.extend((start..start + self.frame as u64).map(|t| {
                    Update::insert(Edge::new(items[(t % items.len() as u64) as usize], t))
                }))
            }
            Source::Log(log) => out.extend(
                (start..start + self.frame as u64).map(|t| log[(t % log.len() as u64) as usize]),
            ),
        }
    }

    /// Frame `k` as a fresh vector.
    #[cfg(test)]
    pub fn get(&self, k: u64) -> Vec<Update> {
        let mut out = Vec::with_capacity(self.frame);
        self.fill(k, &mut out);
        out
    }
}

/// The answers a run is judged by: the final fresh `certified` and `top k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answers {
    /// `certified`.
    pub certified: Option<Neighbourhood>,
    /// `top TOP_K`.
    pub top: Vec<Neighbourhood>,
}

impl Answers {
    /// Why these answers fail the witness floor, if they do: the certified
    /// list and the best `top` entry must each hold ≥ d/α witnesses.
    pub fn floor_violation(&self, d2: usize) -> Option<String> {
        let Some(c) = &self.certified else {
            return Some("no certified vertex".into());
        };
        if c.witnesses.len() < d2 {
            return Some(format!("certified list holds {} < {d2}", c.witnesses.len()));
        }
        match self.top.first() {
            Some(t) if t.witnesses.len() >= d2 => None,
            Some(t) => Some(format!("best top list holds {} < {d2}", t.witnesses.len())),
            None => Some("empty top".into()),
        }
    }
}

/// The single-threaded reference: `P` partition instances built directly
/// from `fews-core`, fed in stream order through [`partition_of`] routing —
/// the engine's documented semantics with no engine code in the data path.
pub enum Reference {
    /// Alg. 2 partitions.
    Io(Vec<FewwInsertOnly>),
    /// Alg. 3 partitions.
    Id(Vec<FewwInsertDelete>, usize),
}

impl Reference {
    /// Empty reference for `model` over `partitions` partitions.
    pub fn new(model: Model, partitions: usize) -> Reference {
        if model.is_io() {
            let cfg = FewwConfig::new(model.n, model.d, model.alpha);
            Reference::Io(
                (0..partitions)
                    .map(|p| FewwInsertOnly::new(cfg, partition_seed(MODEL_SEED, p as u32)))
                    .collect(),
            )
        } else {
            let cfg = model.id_config();
            Reference::Id(
                (0..partitions)
                    .map(|p| FewwInsertDelete::new(cfg, partition_seed(MODEL_SEED, p as u32)))
                    .collect(),
                model.witness_target(),
            )
        }
    }

    /// Apply one frame. Insertion-deletion partitions take their share as
    /// one `push_batch` (per-partition order is stream order, which is all
    /// the partition sub-streams' semantics depend on).
    pub fn push_frame(&mut self, frame: &[Update], scratch: &mut [Vec<Update>]) {
        match self {
            Reference::Io(parts) => {
                let p = parts.len();
                for u in frame {
                    parts[partition_of(u.edge.a, p)].push(u.edge);
                }
            }
            Reference::Id(parts, _) => {
                let p = parts.len();
                for u in frame {
                    scratch[partition_of(u.edge.a, p)].push(*u);
                }
                for (part, batch) in parts.iter_mut().zip(scratch.iter_mut()) {
                    if !batch.is_empty() {
                        part.push_batch(batch);
                        batch.clear();
                    }
                }
            }
        }
    }

    /// Replay frames `0..frames` of `stream`, in chunks of many frames:
    /// partition sub-streams are independent, so only the order within
    /// each partition matters, and large per-partition batches take the
    /// banks' batched path.
    pub fn replay(model: Model, partitions: usize, stream: &Frames, frames: u64) -> Reference {
        let mut r = Reference::new(model, partitions);
        let mut scratch = vec![Vec::new(); partitions];
        let mut buf = Vec::with_capacity(stream.frame);
        let mut chunk = Vec::new();
        for k in 0..frames {
            stream.fill(k, &mut buf);
            chunk.extend_from_slice(&buf);
            if chunk.len() >= REPLAY_CHUNK || k + 1 == frames {
                r.push_frame(&chunk, &mut scratch);
                chunk.clear();
            }
        }
        r
    }

    /// The reference's `certified` and `top k` answers.
    pub fn answers(&self, k: usize) -> Answers {
        match self {
            Reference::Io(parts) => {
                let mut merged = parts[0].snapshot();
                for p in &parts[1..] {
                    merged.merge(&p.snapshot());
                }
                Answers {
                    certified: merged.certified(),
                    top: merged.top(k),
                }
            }
            Reference::Id(parts, d2) => {
                let mut pooled: Vec<(u32, Vec<u64>)> = parts
                    .iter()
                    .flat_map(FewwInsertDelete::pooled_witnesses)
                    .collect();
                pooled.sort_by_key(|(a, _)| *a);
                let certified = pooled
                    .iter()
                    .filter(|(_, ws)| ws.len() >= *d2)
                    .max_by_key(|(a, ws)| (ws.len(), Reverse(*a)))
                    .map(|(a, ws)| Neighbourhood::new(*a, ws.clone()));
                pooled.sort_by(|(a1, w1), (a2, w2)| w2.len().cmp(&w1.len()).then(a1.cmp(a2)));
                Answers {
                    certified,
                    top: pooled
                        .into_iter()
                        .take(k)
                        .map(|(a, ws)| Neighbourhood::new(a, ws))
                        .collect(),
                }
            }
        }
    }

    /// `result()` of every partition — the core layer's query call.
    pub fn results(&self) -> usize {
        match self {
            Reference::Io(parts) => parts.iter().filter(|p| p.result().is_some()).count(),
            Reference::Id(parts, _) => parts.iter().filter(|p| p.result().is_some()).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_a_pure_function_of_seed_and_index() {
        for w in Workload::ALL {
            let a = Frames::new(w, 7);
            let b = Frames::new(w, 7);
            assert_eq!(a.get(3), b.get(3), "{}", w.name());
            assert_eq!(a.get(0).len(), w.frame());
            assert_ne!(Frames::new(w, 8).get(3), a.get(3), "{}", w.name());
        }
    }

    #[test]
    fn zipf_edges_stay_distinct() {
        let f = Frames::new(Workload::ZipfIoRouter, 1);
        let bs: Vec<u64> = (0..4).flat_map(|k| f.get(k)).map(|u| u.edge.b).collect();
        assert!(bs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn reference_certifies_the_hot_vertex() {
        let w = Workload::DblogIdFresh;
        let f = Frames::new(w, 11);
        let r = Reference::replay(w.model(), w.partitions(), &f, 64);
        let ans = r.answers(TOP_K as usize);
        assert_eq!(ans.floor_violation(w.model().witness_target()), None);
        assert_eq!(ans.certified.map(|c| c.vertex), Some(f.hot));
    }
}
