//! The merged, engine-wide query view.

use fews_core::neighbourhood::Neighbourhood;
use fews_core::wire::MemoryState;
use std::sync::Arc;

/// A point-in-time global view of the engine, assembled from every
/// partition's contribution in ascending partition order.
///
/// The view is a *value* — queries on it are pure, deterministic, and
/// independent of the shard count that produced it. For the insertion-only
/// model it holds the partitions' [`MemoryState`]s *segmented* (shared
/// `Arc`s, in partition order) and answers queries by scanning the
/// segments exactly as [`MemoryState::merge`]-then-query would — the
/// merged run `r` is the partition-order concatenation of the per-partition
/// runs `r`, so iterating `(run, partition, slot)` visits the same entries
/// in the same order without ever materializing the merge. That keeps the
/// engine's incremental view cheap: an unchanged partition's `Arc` is
/// reused as-is, so rebuild cost is cloning only the *changed* partitions'
/// states, not re-concatenating every reservoir. For insertion-deletion it
/// holds the union of the partitions' recovered-witness pools.
///
/// [`crate::Engine::view`] hands the view out as an `Arc<GlobalView>`: the
/// engine memoizes per-partition contributions by update epoch and rebuilds
/// only what changed, and a serving layer can publish the `Arc` so query
/// connections read it without synchronizing with ingest at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GlobalView {
    /// Segmented insertion-only state plus the witness target `d₂`.
    InsertOnly {
        /// Every partition's state, ascending partition order. All share
        /// one run geometry (same run count and `(d₁, d₂, s)` per run).
        parts: Vec<Arc<MemoryState>>,
        /// The certification threshold `⌊d/α⌋`.
        d2: u32,
    },
    /// Pooled insertion-deletion witnesses plus the witness target `d₂`.
    InsertDelete {
        /// Per-vertex recovered witnesses, sorted by vertex (vertices are
        /// partition-disjoint, so concatenation is a disjoint union).
        pooled: Vec<(u32, Vec<u64>)>,
        /// The certification threshold `⌊d/α⌋`.
        d2: u32,
    },
}

/// One answer found inside a partition *scope* (a subset of the view's
/// partitions), with its rank in the whole view's answer order: smaller
/// ranks come first. Partitions own disjoint vertex sets, so the answers of
/// disjoint scopes merge into the whole view's answer by rank alone —
/// [`GlobalView::merge_certified`] keeps the smallest,
/// [`GlobalView::merge_top`] merges ranked lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopedHit {
    /// Insertion-only `certified`: `run << 32 | partition`, the hit's place
    /// in the (run, partition, slot) scan. Otherwise `(u32::MAX -
    /// witnesses) << 32 | vertex`: most witnesses first, ties to the
    /// smaller vertex (witnesses counted before deduplication, as the
    /// whole-view ranking counts them).
    pub rank: u64,
    /// The neighbourhood itself.
    pub found: Neighbourhood,
}

/// The rank of a vertex holding a `len`-witness list: more witnesses rank
/// first, ties to the smaller vertex.
fn quality_rank(vertex: u32, len: usize) -> u64 {
    (u64::from(u32::MAX - len.min(u32::MAX as usize) as u32) << 32) | u64::from(vertex)
}

/// Whether partition `p` is in `scope` (`None` = the whole view).
fn in_scope(scope: Option<&[bool]>, p: usize) -> bool {
    scope.is_none_or(|s| s.get(p).copied().unwrap_or(false))
}

/// Whether insertion-deletion vertex `a` lies in `scope`; the scope's
/// length is the partition count that routes it.
fn vertex_in_scope(scope: Option<&[bool]>, a: u32) -> bool {
    scope.is_none_or(|s| !s.is_empty() && s[crate::partition_of(a, s.len())])
}

/// The insertion-only `top` kernel keeps one slot per vertex while `n` is
/// at most this many times the reservoir entries it scans; past that,
/// zero-filling the slots costs more than sorting the entries. Measured on
/// a 2-vCPU Xeon, `top 3` over half the partitions of Zipf(1.1) views:
/// `n` = 4096 (d = 2048, 2M updates), dense 23 µs vs sorted 83 µs;
/// `n` = 2²² (d = 64, 300k updates), dense 23 ms vs sorted 2.3 ms.
const DENSE_TOP_SLOTS_PER_ENTRY: usize = 16;

/// Of two entries of one vertex, in scan order, the one whose list is
/// kept: the longer, the first on ties.
fn first_longest<'w>(best: (u32, &'w Vec<u64>), e: (u32, &'w Vec<u64>)) -> (u32, &'w Vec<u64>) {
    if e.1.len() > best.1.len() {
        e
    } else {
        best
    }
}

/// The `k` best-ranked of `ranked` (unique vertices), best first: a
/// selection, then a sort of the `k` selected only.
fn best_k(mut ranked: Vec<(u32, &Vec<u64>)>, k: usize) -> Vec<ScopedHit> {
    let rank = |&(a, ws): &(u32, &Vec<u64>)| quality_rank(a, ws.len());
    if k < ranked.len() {
        if k == 0 {
            return Vec::new();
        }
        ranked.select_nth_unstable_by_key(k - 1, rank);
        ranked.truncate(k);
    }
    ranked.sort_unstable_by_key(rank);
    ranked
        .into_iter()
        .map(|(a, ws)| ScopedHit {
            rank: quality_rank(a, ws.len()),
            found: Neighbourhood::new(a, ws.clone()),
        })
        .collect()
}

impl GlobalView {
    /// The witness target `d₂` a neighbourhood must reach to be certified.
    pub fn witness_target(&self) -> u32 {
        match self {
            GlobalView::InsertOnly { d2, .. } | GlobalView::InsertDelete { d2, .. } => *d2,
        }
    }

    /// Visit every insertion-only reservoir entry of the partitions in
    /// `scope` (with its run index, partition and enclosing run, for the
    /// run-level witness target) in the canonical merged scan order — run
    /// index major, then partition, then slot — exactly the entry order of
    /// the materialized [`MemoryState::merge`] of `parts`, restricted to
    /// the scope. Stops early when `visit` returns `Some`. Every segmented
    /// query goes through this one scan, so the order invariant lives in
    /// one place.
    fn scan_io_entries<'a, T>(
        parts: &'a [Arc<MemoryState>],
        scope: Option<&[bool]>,
        mut visit: impl FnMut(
            usize,
            usize,
            &'a fews_core::wire::RunState,
            &'a (u32, Vec<u64>),
        ) -> Option<T>,
    ) -> Option<T> {
        let runs = parts.first().map_or(0, |p| p.runs.len());
        for r in 0..runs {
            for (p, part) in parts.iter().enumerate() {
                if !in_scope(scope, p) {
                    continue;
                }
                let run = &part.runs[r];
                for entry in &run.entries {
                    if let Some(out) = visit(r, p, run, entry) {
                        return Some(out);
                    }
                }
            }
        }
        None
    }

    /// The certified hit within `scope`, ranked for
    /// [`GlobalView::merge_certified`].
    fn certified_hit(&self, scope: Option<&[bool]>) -> Option<ScopedHit> {
        match self {
            GlobalView::InsertOnly { parts, .. } => {
                Self::scan_io_entries(parts, scope, |r, p, run, (a, ws)| {
                    (ws.len() >= run.d2 as usize).then(|| ScopedHit {
                        rank: ((r as u64) << 32) | p as u64,
                        found: Neighbourhood::new(*a, ws.clone()),
                    })
                })
            }
            GlobalView::InsertDelete { pooled, d2 } => pooled
                .iter()
                .filter(|(a, ws)| ws.len() >= *d2 as usize && vertex_in_scope(scope, *a))
                .min_by_key(|(a, ws)| quality_rank(*a, ws.len()))
                .map(|(a, ws)| ScopedHit {
                    rank: quality_rank(*a, ws.len()),
                    found: Neighbourhood::new(*a, ws.clone()),
                }),
        }
    }

    fn certify_in(&self, v: u32, scope: Option<&[bool]>) -> Option<Neighbourhood> {
        match self {
            GlobalView::InsertOnly { parts, .. } => {
                // First-longest in merged (run, partition, slot) order —
                // [`MemoryState::certify`] on the materialized merge.
                let mut best: Option<&Vec<u64>> = None;
                Self::scan_io_entries::<()>(parts, scope, |_, _, _, (a, ws)| {
                    if *a == v && best.is_none_or(|b| ws.len() > b.len()) {
                        best = Some(ws);
                    }
                    None
                });
                best.map(|ws| Neighbourhood::new(v, ws.clone()))
            }
            GlobalView::InsertDelete { pooled, .. } => pooled
                .binary_search_by_key(&v, |&(a, _)| a)
                .ok()
                .filter(|_| vertex_in_scope(scope, v))
                .map(|i| Neighbourhood::new(v, pooled[i].1.clone())),
        }
    }

    /// The `k` best vertices within `scope`, ranked.
    fn top_hits(&self, k: usize, scope: Option<&[bool]>) -> Vec<ScopedHit> {
        match self {
            GlobalView::InsertOnly { parts, .. } => {
                // Longest list per vertex, first-longest kept on ties, in
                // merged scan order — [`MemoryState::top`] on the
                // materialized merge.
                let n = parts.first().map_or(0, |p| p.degrees.len());
                let scanned: usize = parts
                    .iter()
                    .enumerate()
                    .filter(|&(p, _)| in_scope(scope, p))
                    .flat_map(|(_, part)| part.runs.iter().map(|run| run.entries.len()))
                    .sum();
                let ranked: Vec<(u32, &Vec<u64>)> = if n <= DENSE_TOP_SLOTS_PER_ENTRY * scanned {
                    // Dense: one slot per vertex (the degree table's length
                    // is `n`), and the vertices in first-seen order.
                    let mut best: Vec<Option<&Vec<u64>>> = vec![None; n];
                    let mut seen: Vec<u32> = Vec::new();
                    Self::scan_io_entries::<()>(parts, scope, |_, _, _, (a, ws)| {
                        let i = *a as usize;
                        if i >= best.len() {
                            best.resize(i + 1, None);
                        }
                        match &mut best[i] {
                            Some(b) if ws.len() > b.len() => *b = ws,
                            Some(_) => {}
                            slot @ None => {
                                *slot = Some(ws);
                                seen.push(*a);
                            }
                        }
                        None
                    });
                    seen.into_iter()
                        .filter_map(|a| best[a as usize].map(|ws| (a, ws)))
                        .collect()
                } else {
                    // Sparse: the scanned entries, stably sorted by vertex,
                    // keep scan order within each vertex, so scratch space
                    // follows the entries scanned, not `n`.
                    let mut entries: Vec<(u32, &Vec<u64>)> = Vec::with_capacity(scanned);
                    Self::scan_io_entries::<()>(parts, scope, |_, _, _, (a, ws)| {
                        entries.push((*a, ws));
                        None
                    });
                    entries.sort_by_key(|&(a, _)| a);
                    entries
                        .chunk_by(|x, y| x.0 == y.0)
                        .map(|run| {
                            run.iter()
                                .copied()
                                .reduce(first_longest)
                                .expect("non-empty")
                        })
                        .collect()
                };
                best_k(ranked, k)
            }
            GlobalView::InsertDelete { pooled, .. } => best_k(
                pooled
                    .iter()
                    .filter(|(a, _)| vertex_in_scope(scope, *a))
                    .map(|(a, ws)| (*a, ws))
                    .collect(),
                k,
            ),
        }
    }

    /// The engine's certified output, exactly the single-threaded reference
    /// semantics:
    ///
    /// * insertion-only — first reservoir entry reaching `d₂` in (run,
    ///   partition, slot) scan order ([`MemoryState::certified`]);
    /// * insertion-deletion — the pooled vertex with the most recovered
    ///   witnesses among those reaching `d₂` (ties to the smaller vertex).
    pub fn certified(&self) -> Option<Neighbourhood> {
        self.certified_hit(None).map(|h| h.found)
    }

    /// Everything the engine can prove about vertex `v`: the witnesses
    /// collected for it, or `None` when no partition holds any.
    pub fn certify(&self, v: u32) -> Option<Neighbourhood> {
        self.certify_in(v, None)
    }

    /// The `k` vertices with the most collected witnesses, best first (ties
    /// to the smaller vertex).
    pub fn top(&self, k: usize) -> Vec<Neighbourhood> {
        self.top_hits(k, None)
            .into_iter()
            .map(|h| h.found)
            .collect()
    }

    /// [`GlobalView::certified`] over the partitions flagged in `scope`
    /// (one flag per partition), ranked so that the smallest-ranked hit of
    /// disjoint scopes covering every partition is the whole view's answer.
    pub fn scoped_certified(&self, scope: &[bool]) -> Option<ScopedHit> {
        self.certified_hit(Some(scope))
    }

    /// [`GlobalView::certify`] over the partitions flagged in `scope`: the
    /// whole view's answer when the scope holds `v`'s partition, `None`
    /// otherwise.
    pub fn scoped_certify(&self, v: u32, scope: &[bool]) -> Option<Neighbourhood> {
        self.certify_in(v, Some(scope))
    }

    /// [`GlobalView::top`] over the partitions flagged in `scope`, ranked
    /// for [`GlobalView::merge_top`].
    pub fn scoped_top(&self, k: usize, scope: &[bool]) -> Vec<ScopedHit> {
        self.top_hits(k, Some(scope))
    }

    /// The whole view's `certified` from the scoped hits of disjoint
    /// scopes that together cover every partition: the smallest rank.
    pub fn merge_certified(hits: impl IntoIterator<Item = ScopedHit>) -> Option<Neighbourhood> {
        hits.into_iter().min_by_key(|h| h.rank).map(|h| h.found)
    }

    /// The whole view's `top k` from the scoped top lists of disjoint
    /// scopes that together cover every partition: a k-way merge by rank.
    pub fn merge_top(lists: Vec<Vec<ScopedHit>>, k: usize) -> Vec<Neighbourhood> {
        // Every list reversed, so its best remaining hit is its last.
        let mut lists: Vec<Vec<ScopedHit>> = lists
            .into_iter()
            .map(|mut l| {
                l.reverse();
                l
            })
            .collect();
        let mut out = Vec::new();
        while out.len() < k {
            let Some(list) = lists
                .iter_mut()
                .filter(|l| !l.is_empty())
                .min_by_key(|l| l.last().map(|h| h.rank))
            else {
                break;
            };
            out.extend(list.pop().map(|h| h.found));
        }
        out
    }

    /// Exact degree of `v` (insertion-only tracks all degrees; the
    /// insertion-deletion model has no exact degree table — `None`).
    pub fn degree(&self, v: u32) -> Option<u32> {
        match self {
            // Partition sub-streams are vertex-disjoint, so the merged
            // degree table is the elementwise sum of the partitions'.
            GlobalView::InsertOnly { parts, .. } => parts
                .iter()
                .map(|p| p.degrees.get(v as usize).copied())
                .sum::<Option<u32>>(),
            GlobalView::InsertDelete { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fews_core::wire::RunState;

    /// Hand-built partition states with duplicate vertices across runs,
    /// ties, and empty runs — the cases where the segmented scan could
    /// diverge from the materialized merge.
    fn io_parts() -> Vec<Arc<MemoryState>> {
        let run = |d2: u32, entries: Vec<(u32, Vec<u64>)>| RunState {
            d1: 4,
            d2,
            s: 4,
            crossings: 1,
            entries,
        };
        let p0 = MemoryState {
            degrees: vec![3, 0, 5, 0],
            runs: vec![
                run(2, vec![(0, vec![9]), (2, vec![1, 2])]),
                run(3, vec![(2, vec![1, 2, 3]), (0, vec![7, 8, 9])]),
            ],
        };
        let p1 = MemoryState {
            degrees: vec![0, 4, 0, 2],
            runs: vec![
                run(2, vec![(1, vec![5, 6]), (3, vec![4])]),
                run(3, Vec::new()),
            ],
        };
        vec![Arc::new(p0), Arc::new(p1)]
    }

    fn merged(parts: &[Arc<MemoryState>]) -> MemoryState {
        let mut m = (*parts[0]).clone();
        for p in &parts[1..] {
            m.merge(p);
        }
        m
    }

    #[test]
    fn segmented_io_queries_equal_materialized_merge() {
        let parts = io_parts();
        let reference = merged(&parts);
        let view = GlobalView::InsertOnly {
            parts: parts.clone(),
            d2: 2,
        };
        assert_eq!(view.certified(), reference.certified());
        for v in 0..6u32 {
            assert_eq!(view.certify(v), reference.certify(v), "certify({v})");
            assert_eq!(view.degree(v), reference.degree(v), "degree({v})");
        }
        for k in 0..6 {
            assert_eq!(view.top(k), reference.top(k), "top({k})");
        }
    }

    /// A tiny deterministic generator for the property test below.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 += 1;
            fews_common::rng::splitmix64(self.0) % n.max(1)
        }
    }

    /// A random segmented view: 1–6 partitions owning disjoint vertex sets
    /// (`partition_of`, as in the engine), duplicate vertices across runs,
    /// empty runs, tied list lengths and duplicate witnesses. Half the views
    /// have a small `n` (dense `top` kernel, many ties), half a large one
    /// (the sorted kernel).
    fn random_io_view(g: &mut Gen) -> (GlobalView, usize) {
        let partitions = 1 + g.below(6) as usize;
        let runs = 1 + g.below(3) as usize;
        let spread = if g.below(2) == 0 { 12 } else { 1200 };
        let n = 4 + g.below(spread) as u32;
        let d2s: Vec<u32> = (0..runs).map(|_| 1 + g.below(4) as u32).collect();
        let parts = (0..partitions)
            .map(|p| {
                let mine: Vec<u32> = (0..n)
                    .filter(|&a| crate::partition_of(a, partitions) == p)
                    .collect();
                let runs = d2s
                    .iter()
                    .map(|&d2| {
                        let mut entries = Vec::new();
                        if !mine.is_empty() {
                            for _ in 0..g.below(5) {
                                // A few hot vertices, so lists tie at any `n`.
                                let a = mine[g.below(mine.len().min(6) as u64) as usize];
                                let ws = (0..g.below(5)).map(|_| g.below(6)).collect();
                                entries.push((a, ws));
                            }
                        }
                        fews_core::wire::RunState {
                            d1: 4,
                            d2,
                            s: 4,
                            crossings: 1,
                            entries,
                        }
                    })
                    .collect();
                let degrees = (0..n)
                    .map(|a| {
                        if mine.contains(&a) {
                            g.below(9) as u32
                        } else {
                            0
                        }
                    })
                    .collect();
                Arc::new(MemoryState { degrees, runs })
            })
            .collect();
        (GlobalView::InsertOnly { parts, d2: d2s[0] }, partitions)
    }

    fn random_id_view(g: &mut Gen) -> (GlobalView, usize) {
        let partitions = 1 + g.below(6) as usize;
        let mut pooled = Vec::new();
        for a in 0..20u32 {
            if g.below(2) == 0 {
                let len = g.below(5);
                pooled.push((a, (0..len).map(|w| w * 3 + g.below(3)).collect()));
            }
        }
        let d2 = 1 + g.below(3) as u32;
        (GlobalView::InsertDelete { pooled, d2 }, partitions)
    }

    #[test]
    fn scoped_answers_merge_to_the_whole_view() {
        let mut g = Gen(0x5C0FE);
        for case in 0..400 {
            let (view, partitions) = if case % 2 == 0 {
                random_io_view(&mut g)
            } else {
                random_id_view(&mut g)
            };
            // 1–4 reader groups, each a scope; some may be empty.
            let groups = 1 + g.below(4) as usize;
            let group_of: Vec<usize> = (0..partitions)
                .map(|_| g.below(groups as u64) as usize)
                .collect();
            let scopes: Vec<Vec<bool>> = (0..groups)
                .map(|i| group_of.iter().map(|&x| x == i).collect())
                .collect();

            let hits = scopes.iter().filter_map(|s| view.scoped_certified(s));
            assert_eq!(
                GlobalView::merge_certified(hits),
                view.certified(),
                "case {case}: certified"
            );
            for v in 0..24u32 {
                let reader = &scopes[group_of[crate::partition_of(v, partitions)]];
                assert_eq!(
                    view.scoped_certify(v, reader),
                    view.certify(v),
                    "case {case}: certify({v})"
                );
            }
            for k in 0..24 {
                let lists = scopes.iter().map(|s| view.scoped_top(k, s)).collect();
                assert_eq!(
                    GlobalView::merge_top(lists, k),
                    view.top(k),
                    "case {case}: top({k})"
                );
            }
            // Both top-k kernels against the materialized merge.
            if let GlobalView::InsertOnly { parts, .. } = &view {
                let reference = merged(parts);
                assert_eq!(view.certified(), reference.certified(), "case {case}");
                for k in 0..24 {
                    assert_eq!(view.top(k), reference.top(k), "case {case}: top({k})");
                }
            }
        }
    }

    fn id_view() -> GlobalView {
        GlobalView::InsertDelete {
            pooled: vec![(1, vec![10, 11]), (4, vec![20]), (9, vec![30, 31])],
            d2: 2,
        }
    }

    #[test]
    fn id_certified_prefers_count_then_smaller_vertex() {
        let nb = id_view().certified().expect("two vertices reach d2 = 2");
        assert_eq!(nb.vertex, 1); // ties broken toward the smaller vertex
        assert_eq!(nb.witnesses, vec![10, 11]);
    }

    #[test]
    fn id_certify_and_top() {
        let v = id_view();
        assert_eq!(v.certify(4).unwrap().witnesses, vec![20]);
        assert!(v.certify(2).is_none());
        let top = v.top(2);
        assert_eq!(top[0].vertex, 1);
        assert_eq!(top[1].vertex, 9);
        assert_eq!(v.witness_target(), 2);
        assert_eq!(v.degree(1), None);
    }
}
