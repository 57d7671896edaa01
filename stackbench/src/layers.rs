//! The traced run: one workload's inputs through each layer's public calls,
//! one span per call, reduced to per-layer metrics.
//!
//! Layers, bottom up (each section gets a tenth of `--seconds`):
//!
//! * `core` — the `fews-core` reference partitions: `push` (Alg. 2) or
//!   `push_batch` (Alg. 3) per frame, then `result`.
//! * `sketch` — `SamplerBank::update_batch` and `sample_all` on banks shaped
//!   like `dblog-id-fresh`'s (vertex bank and edge bank of one partition),
//!   fed the audit log whatever the workload.
//! * `engine` — `Engine::ingest` per frame, `refresh` per query cadence,
//!   `GlobalView::top`/`certify`, `stats`, `checkpoint`, `restore_checkpoint`.
//! * `wal` — `Wal::append` + `sync` per frame, `bytes`, `scan_log`, on a log
//!   in the run's scratch directory (no served workload logs).
//! * `net`/`cluster` — `Client` calls over the wire against the workload's
//!   own servers, run twice (tracing off, then on) for the tracing overhead,
//!   and against the other topology (a router over two workers for the
//!   single-node workload, one `fews listen` for the router workload), plus
//!   `Client::view_pull` against one router worker.
//!
//! Every section's final answers are checked against the `fews-core`
//! reference at the same frame count.

use crate::inputs::{Answers, Frames, Model, Reference, Workload, TOP_K};
use crate::load::{self, Drive, Load, Topology};
use crate::procs::ScratchDir;
use crate::stats::{json_str, median, percentile, Report, Tally};
use crate::trace::{nesting_violations, Span, Summary, Tracer};
use crate::Outcome;
use fews_common::rng::rng_for;
use fews_engine::wal::{scan_log, Wal};
use fews_engine::{Engine, GlobalView};
use fews_sketch::bank::SamplerBank;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Spans every traced run records; each reports `.calls` and `.busy_ms`.
const SPANS: &[&str] = &[
    "core.push",
    "core.result",
    "sketch.update",
    "sketch.decode",
    "engine.cycle",
    "engine.enqueue",
    "engine.refresh",
    "engine.top",
    "engine.certify",
    "engine.checkpoint",
    "engine.restore",
    "wal.append",
    "wal.sync",
    "wal.scan",
    "net.cycle",
    "net.ingest",
    "net.fresh",
    "net.stale",
    "net.stats",
    "cluster.ingest",
    "cluster.fresh",
    "cluster.stale",
    "cluster.view_pull",
];

/// Per-layer values, `(name, unit)`, in emission order. `_ns`/`_us`/`_ms`
/// values are per-call median self times; `core.push_ns`,
/// `sketch.update_ns`, `engine.enqueue_ns` and `engine.apply_ns` are per
/// update (a frame's span divided by its updates).
const VALUES: &[(&str, &str)] = &[
    ("core.push_ns", "ns"),
    ("core.result_us", "us"),
    ("sketch.update_ns", "ns"),
    ("sketch.decode_us", "us"),
    ("engine.enqueue_ns", "ns"),
    ("engine.apply_ns", "ns"),
    ("engine.refresh_us", "us"),
    ("engine.top_us", "us"),
    ("engine.certify_us", "us"),
    ("engine.state_bytes", "bytes"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("wal.bytes_per_update", "bytes"),
    ("wal.scan_ms", "ms"),
    ("engine.checkpoint_ms", "ms"),
    ("engine.restore_ms", "ms"),
    ("net.ingest_us", "us"),
    ("net.fresh_us", "us"),
    ("net.stale_us", "us"),
    ("net.self_us", "us"),
    ("net.wire_bytes_per_update", "bytes"),
    ("net.lag_updates", "count"),
    ("net.errors", "count"),
    ("cluster.ingest_us", "us"),
    ("cluster.fresh_us", "us"),
    ("cluster.view_pull_us", "us"),
    ("cluster.view_bytes", "bytes"),
    ("cluster.ack_overlap_us", "us"),
    ("trace.overhead_ack_p50", "ratio"),
    ("trace.overhead_ingest_ups", "ratio"),
];

/// Every per-layer metric, `(name, unit)`, in emission order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        VALUES.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for s in SPANS {
        out.push((format!("{s}.calls"), "count"));
        out.push((format!("{s}.busy_ms"), "ms"));
    }
    out
}

/// Median of `xs` scaled by `scale` (e.g. 1e-3 for ns → µs).
fn med(xs: &[u64], scale: f64) -> f64 {
    median(&xs.iter().map(|&x| x as f64 * scale).collect::<Vec<_>>())
}

/// Run `body` repeatedly until `slice` has passed (at least once).
fn for_slice(slice: Duration, mut body: impl FnMut(u64)) -> u64 {
    let end = Instant::now() + slice;
    let mut k = 0;
    loop {
        body(k);
        k += 1;
        if Instant::now() >= end {
            return k;
        }
    }
}

/// Check `got` against the reference after `frames` frames of `stream`.
fn gate(
    what: &str,
    model: Model,
    partitions: usize,
    stream: &Frames,
    frames: u64,
    got: Option<&Answers>,
    mismatches: &mut Vec<String>,
) {
    let want = Reference::replay(model, partitions, stream, frames).answers(TOP_K as usize);
    if got != Some(&want) {
        mismatches.push(format!(
            "{what}: answers after {frames} frames differ from the fews-core reference"
        ));
    }
}

fn view_answers(view: &GlobalView) -> Answers {
    Answers {
        certified: view.certified(),
        top: view.top(TOP_K as usize),
    }
}

/// The traced run.
pub fn run(w: Workload, seed: u64, seconds: f64, fews: &Path) -> Result<Outcome, String> {
    let model = w.model();
    let parts = w.partitions();
    let stream = Frames::new(w, seed);
    let slice = Duration::from_secs_f64((seconds / 10.0).max(0.2));
    let scratch = ScratchDir::new(&format!("{}-trace", w.name()))?;
    let origin = Instant::now();
    let mut sum = Summary::default();
    let mut r = Report::default();
    let mut mismatches = Vec::new();
    let mut tally = Tally::default();
    let mut tr = Tracer::on(origin);
    let mut buf = Vec::with_capacity(stream.frame);
    let per_update = 1.0 / stream.frame as f64;

    // core
    let mut reference = Reference::new(model, parts);
    let mut scratch_parts = vec![Vec::new(); parts];
    for_slice(slice, |k| {
        stream.fill(k, &mut buf);
        tr.time("core.push", k, || {
            reference.push_frame(&buf, &mut scratch_parts)
        });
    });
    for i in 0..32 {
        tr.time("core.result", i, || black_box(reference.results()));
    }
    drop(reference);

    // sketch: one partition's banks, shaped like dblog-id-fresh's.
    let idc = Model::DBLOG.id_config();
    let log = Frames::for_model(Model::DBLOG, Workload::DblogIdFresh.frame(), seed);
    let mut rng = rng_for(seed, 0x5B_0003);
    let mut vbank = SamplerBank::with_config(idc.m, idc.samplers_per_vertex(), idc.l0, &mut rng);
    let mut ebank = SamplerBank::with_config(
        idc.n as u64 * idc.m,
        idc.edge_sampler_count(),
        idc.l0,
        &mut rng,
    );
    let (mut vb, mut eb) = (Vec::new(), Vec::new());
    for_slice(slice, |k| {
        log.fill(k, &mut buf);
        vb.clear();
        eb.clear();
        for u in &buf {
            vb.push((u.edge.b, u.delta as i64));
            eb.push((u.edge.linear_index(idc.m), u.delta as i64));
        }
        tr.time("sketch.update", k, || {
            vbank.update_batch(&vb);
            ebank.update_batch(&eb);
        });
    });
    let banks = [&vbank, &ebank];
    let slots: Vec<(usize, usize)> = (0..2)
        .flat_map(|b| (0..banks[b].len()).map(move |i| (b, i)))
        .collect();
    for_slice(slice, |k| {
        let (b, i) = slots[k as usize % slots.len()];
        tr.time("sketch.decode", k, || black_box(banks[b].sample_all(i)));
    });
    drop((vbank, ebank));

    // engine
    let cfg = model.engine_config(parts);
    let mut engine = Engine::start(cfg);
    let mut frames = 0u64;
    let mut view = None;
    for_slice(slice, |q| {
        tr.begin("engine.cycle", q);
        for _ in 0..w.query_every() {
            stream.fill(frames, &mut buf);
            tr.time("engine.enqueue", frames, || {
                engine.ingest(buf.iter().copied())
            });
            frames += 1;
        }
        let (v, _) = tr.time("engine.refresh", q, || engine.refresh());
        tr.time("engine.top", q, || black_box(v.top(TOP_K as usize)));
        tr.time("engine.certify", q, || black_box(v.certify(stream.hot)));
        tr.end();
        view = Some(v);
    });
    let state_bytes = engine.stats().space_bytes() as f64;
    let want = view.as_deref().map(view_answers);
    gate(
        "engine",
        model,
        parts,
        &stream,
        frames,
        want.as_ref(),
        &mut mismatches,
    );
    let mut restored_ok = true;
    for_slice(slice, |i| {
        let bytes = tr.time("engine.checkpoint", i, || engine.checkpoint());
        let mut again = Engine::start(cfg);
        let ok = tr.time("engine.restore", i, || again.restore_checkpoint(&bytes));
        restored_ok &= ok.is_ok() && Some(view_answers(&again.view())) == want;
        again.close();
    });
    if !restored_ok {
        mismatches.push("engine: restored checkpoint answers differ".into());
    }
    engine.close();

    // wal
    let dir = scratch.fresh("wal")?;
    let path = dir.join("wal.log");
    let (wal, _) = Wal::open(&path, 0).map_err(|e| format!("open wal: {e}"))?;
    let space = fews_common::SpaceId::default_space();
    let mut sync_failed = None;
    let wal_frames = for_slice(slice, |k| {
        stream.fill(k, &mut buf);
        tr.time("wal.append", k, || wal.append(space.as_str(), &buf));
        if let Err(e) = tr.time("wal.sync", k, || wal.sync()) {
            sync_failed = Some(e.to_string());
        }
    });
    if let Some(e) = sync_failed {
        return Err(format!("wal sync: {e}"));
    }
    let wal_bytes = wal.bytes() as f64;
    drop(wal);
    let log_bytes = std::fs::read(&path).map_err(|e| format!("read wal: {e}"))?;
    for i in 0..5 {
        let (records, _, damage) = tr.time("wal.scan", i, || scan_log(&log_bytes));
        if records.len() as u64 != wal_frames || damage.is_some() {
            mismatches.push(format!(
                "wal: scanned {} of {wal_frames} records ({damage:?})",
                records.len()
            ));
        }
    }
    sum.add(&tr.spans);
    let mut all_spans: Vec<Vec<Span>> = vec![std::mem::take(&mut tr.spans)];

    // The wire: the workload's own servers, untraced then traced.
    let wire =
        |topo: &Topology, drive: &Drive, traced: bool| -> Result<(Load, Vec<Vec<Span>>), String> {
            let (l, spans) = load::drive(topo, drive, traced)?;
            if let Some(why) = &l.aborted {
                return Err(format!("load stopped early: {why}"));
            }
            Ok((l, spans))
        };
    let drive = Drive {
        probe: true,
        state_probe: false,
        ..Drive::of(w, &stream, slice.as_secs_f64())
    };
    let topo = Topology::start(w, fews)?;
    let (plain, _) = wire(&topo, &drive, false)?;
    topo.shutdown();
    let topo = Topology::start(w, fews)?;
    let (traced, spans) = wire(&topo, &drive, true)?;
    let mut pulls = view_pulls(&topo, &mut tally, origin)?;
    topo.shutdown();
    tally.absorb(&plain.tally);
    tally.absorb(&traced.tally);
    gate(
        w.name(),
        model,
        parts,
        &stream,
        traced.frames,
        traced.answers.as_ref(),
        &mut mismatches,
    );
    let p50 = |xs: &[f64]| percentile(xs, 0.5).map_or(f64::NAN, |(v, _)| v);
    let overhead_ack = p50(&traced.acks) / p50(&plain.acks) - 1.0;
    let overhead_ups = 1.0 - traced.ingest_ups() / plain.ingest_ups();
    for s in &spans {
        sum.add(s);
    }
    all_spans.extend(spans);

    // The other topology, traced, plus view pulls against one worker. The
    // load shape stays the workload's own.
    let other_parts = Workload::ZipfIoRouter.partitions();
    let (other_load, other_spans) = if w == Workload::ZipfIoRouter {
        let topo = Topology::single(fews, model, other_parts)?;
        let (l, s) = wire(&topo, &drive, true)?;
        topo.shutdown();
        (l, s)
    } else {
        let topo = Topology::cluster(fews, model, other_parts)?;
        let (l, s) = wire(&topo, &drive, true)?;
        pulls = view_pulls(&topo, &mut tally, origin)?;
        topo.shutdown();
        (l, s)
    };
    tally.absorb(&other_load.tally);
    gate(
        "other topology",
        model,
        other_parts,
        &stream,
        other_load.frames,
        other_load.answers.as_ref(),
        &mut mismatches,
    );
    for s in &other_spans {
        sum.add(s);
    }
    all_spans.extend(other_spans);
    let pulls = pulls.expect("one of the two topologies is a cluster");
    sum.add(&pulls.0);
    all_spans.push(pulls.0);

    for spans in &all_spans {
        let bad = nesting_violations(spans);
        if !bad.is_empty() {
            return Err(format!("span nesting: {}", bad.join("; ")));
        }
    }

    // Reduce.
    let net_load = if w == Workload::ZipfIoRouter {
        &other_load
    } else {
        &traced
    };
    r.put("core.push_ns", "ns", med(sum.get("core.push"), per_update));
    r.put("core.result_us", "us", med(sum.get("core.result"), 1e-3));
    let sketch_per_update = 1.0 / Workload::DblogIdFresh.frame() as f64;
    r.put(
        "sketch.update_ns",
        "ns",
        med(sum.get("sketch.update"), sketch_per_update),
    );
    r.put(
        "sketch.decode_us",
        "us",
        med(sum.get("sketch.decode"), 1e-3),
    );
    r.put(
        "engine.enqueue_ns",
        "ns",
        med(sum.get("engine.enqueue"), per_update),
    );
    r.put(
        "engine.apply_ns",
        "ns",
        apply_ns(&all_spans[0], w.query_every() * stream.frame),
    );
    r.put(
        "engine.refresh_us",
        "us",
        med(sum.get("engine.refresh"), 1e-3),
    );
    r.put("engine.top_us", "us", med(sum.get("engine.top"), 1e-3));
    r.put(
        "engine.certify_us",
        "us",
        med(sum.get("engine.certify"), 1e-3),
    );
    r.put("engine.state_bytes", "bytes", state_bytes);
    r.put("wal.append_us", "us", med(sum.get("wal.append"), 1e-3));
    r.put("wal.sync_us", "us", med(sum.get("wal.sync"), 1e-3));
    r.put(
        "wal.bytes_per_update",
        "bytes",
        wal_bytes / (wal_frames as f64 * stream.frame as f64),
    );
    r.put("wal.scan_ms", "ms", med(sum.get("wal.scan"), 1e-6));
    r.put(
        "engine.checkpoint_ms",
        "ms",
        med(sum.get("engine.checkpoint"), 1e-6),
    );
    r.put(
        "engine.restore_ms",
        "ms",
        med(sum.get("engine.restore"), 1e-6),
    );
    r.put("net.ingest_us", "us", med(sum.get("net.ingest"), 1e-3));
    r.put("net.fresh_us", "us", med(sum.get("net.fresh"), 1e-3));
    r.put("net.stale_us", "us", med(sum.get("net.stale"), 1e-3));
    r.put("net.self_us", "us", net_self_us(&sum));
    r.put(
        "net.wire_bytes_per_update",
        "bytes",
        net_load.bytes_sent as f64 / net_load.updates as f64,
    );
    r.put("net.lag_updates", "count", median(&net_load.lag_updates));
    r.put("net.errors", "count", tally.failed as f64);
    r.put(
        "cluster.ingest_us",
        "us",
        med(sum.get("cluster.ingest"), 1e-3),
    );
    r.put(
        "cluster.fresh_us",
        "us",
        med(sum.get("cluster.fresh"), 1e-3),
    );
    r.put(
        "cluster.view_pull_us",
        "us",
        med(sum.get("cluster.view_pull"), 1e-3),
    );
    r.put("cluster.view_bytes", "bytes", median(&pulls.1));
    let cluster_spans: Vec<&Span> = all_spans.iter().flatten().collect();
    r.put(
        "cluster.ack_overlap_us",
        "us",
        ack_overlap_us(&cluster_spans),
    );
    r.put("trace.overhead_ack_p50", "ratio", overhead_ack);
    r.put("trace.overhead_ingest_ups", "ratio", overhead_ups);
    for s in SPANS {
        r.put(&format!("{s}.calls"), "count", sum.get(s).len() as f64);
        r.put(
            &format!("{s}.busy_ms"),
            "ms",
            sum.busy.get(s).copied().unwrap_or(0) as f64 / 1e6,
        );
    }
    if tally.failed > 0 {
        mismatches.push(format!("{} failed requests", tally.failed));
    }
    let notes = vec![
        ("slice_s".to_string(), format!("{}", slice.as_secs_f64())),
        (
            "wal_layer".into(),
            json_str("in-process log under .stackbench/ in the working directory, fsync per frame"),
        ),
        (
            "untraced_ack_p50_us".into(),
            format!("{}", p50(&plain.acks)),
        ),
        ("traced_ack_p50_us".into(), format!("{}", p50(&traced.acks))),
        (
            "untraced_ingest_ups".into(),
            format!("{}", plain.ingest_ups()),
        ),
        (
            "traced_ingest_ups".into(),
            format!("{}", traced.ingest_ups()),
        ),
        (
            "spans".into(),
            all_spans.iter().map(Vec::len).sum::<usize>().to_string(),
        ),
    ];
    tally.attempted = tally.attempted.max(1);
    Ok(Outcome {
        report: r,
        mismatches,
        tally,
        notes,
    })
}

/// View-pull spans and the bytes each pull received.
type Pulls = (Vec<Span>, Vec<f64>);

/// 20 full `view_pull`s against the first worker of a cluster (`None` for
/// a single node): the spans and the bytes each pull received.
fn view_pulls(
    topo: &Topology,
    tally: &mut Tally,
    origin: Instant,
) -> Result<Option<Pulls>, String> {
    let Topology::Cluster { workers, .. } = topo else {
        return Ok(None);
    };
    let mut c = load::connect(workers[0].addr)?;
    let mut tr = Tracer::on(origin);
    let mut bytes = Vec::new();
    for i in 0..20 {
        let before = c.bytes_received();
        let r = tally.record(tr.time("cluster.view_pull", i, || c.view_pull(0, 0)));
        r.map_err(|e| format!("view pull: {e}"))?;
        bytes.push((c.bytes_received() - before) as f64);
    }
    Ok(Some((tr.spans, bytes)))
}

/// Per cycle: (enqueue time of its frames + its refresh) per update —
/// ingest until the shards have drained and the view is rebuilt.
fn apply_ns(spans: &[Span], updates_per_cycle: usize) -> f64 {
    let mut per_cycle: Vec<f64> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name != "engine.cycle" {
            continue;
        }
        let busy: u64 = spans
            .iter()
            .filter(|c| {
                c.parent == Some(i) && (c.name == "engine.enqueue" || c.name == "engine.refresh")
            })
            .map(Span::duration)
            .sum();
        per_cycle.push(busy as f64 / updates_per_cycle as f64);
    }
    median(&per_cycle)
}

/// Frame round trip minus the in-process engine enqueue of the same frame.
/// The served workloads are memory-only, so no WAL time is on the path.
fn net_self_us(sum: &Summary) -> f64 {
    let mut out = Vec::new();
    for (&(name, id), &rtt) in &sum.by_id {
        if name != "net.ingest" {
            continue;
        }
        if let Some(enqueue) = sum.by_id.get(&("engine.enqueue", id)) {
            out.push((rtt as f64 - *enqueue as f64) / 1e3);
        }
    }
    median(&out)
}

/// Per fresh router query: the ingest round-trip time that overlapped it.
fn ack_overlap_us(spans: &[&Span]) -> f64 {
    let mut acks: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == "cluster.ingest")
        .map(|s| (s.start, s.end))
        .collect();
    acks.sort_unstable();
    let mut out = Vec::new();
    for q in spans.iter().filter(|s| s.name == "cluster.fresh") {
        let from = acks.partition_point(|&(_, e)| e <= q.start);
        let overlap: u64 = acks[from..]
            .iter()
            .take_while(|&&(s, _)| s < q.end)
            .map(|&(s, e)| e.min(q.end).saturating_sub(s.max(q.start)))
            .sum();
        out.push(overlap as f64 / 1e3);
    }
    median(&out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_valid() {
        let names = per_layer();
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in &names {
            assert!(seen.insert(n.clone()), "duplicate {n}");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(!u.is_empty());
        }
        assert!(names.len() <= 128);
    }

    #[test]
    fn overlap_counts_only_the_covered_part() {
        let s = |name, start, end| Span {
            name,
            start,
            end,
            parent: None,
            id: 0,
        };
        let spans = [
            s("cluster.ingest", 0, 10),
            s("cluster.ingest", 10, 30),
            s("cluster.ingest", 40, 50),
            s("cluster.fresh", 5, 35),
        ];
        let refs: Vec<&Span> = spans.iter().collect();
        // 5..10 and 10..30 overlap: 25 ns.
        assert_eq!(ack_overlap_us(&refs), 0.025);
    }
}
