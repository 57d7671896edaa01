//! Closed-loop load against the child servers.
//!
//! Every caller of this server waits for each ack before sending its next
//! frame (`fews client`, and the router's own fan-out), so the load is
//! closed-loop: one ingest connection sends frame `k + 1` only after frame
//! `k`'s ack. One ingest connection per workload also keeps the ingest
//! order, and so the final state, deterministic.

use crate::inputs::{Answers, Frames, Model, Workload, STATE_FRAME, TOP_K};
use crate::procs::Server;
use crate::stats::Tally;
use crate::trace::{Span, Tracer};
use fews_net::{Client, ClientError, ClientOptions, WireStats};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// No retries of any kind, so no failure is hidden; a bounded timeout so a
/// wedged server fails the run instead of hanging it.
fn client_options() -> ClientOptions {
    ClientOptions {
        overload_retries: 0,
        ingest_resend: false,
        ..ClientOptions::bounded(Duration::from_secs(60), 0)
    }
}

/// Connect a generator client.
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect_with(addr, &client_options()).map_err(|e| format!("connect {addr}: {e}"))
}

/// The server processes one workload runs against.
pub enum Topology {
    /// One `fews listen`.
    Single(Server),
    /// `fews router` over its `fews listen` workers.
    Cluster {
        /// The workers.
        workers: Vec<Server>,
        /// The router.
        router: Server,
    },
}

impl Topology {
    /// One memory-only `fews listen --shards 1`.
    pub fn single(fews: &Path, model: Model, partitions: usize) -> Result<Topology, String> {
        Ok(Topology::Single(Server::spawn(
            fews,
            &listen_args(model, partitions),
        )?))
    }

    /// `fews router --replicas 1` over two memory-only workers.
    pub fn cluster(fews: &Path, model: Model, partitions: usize) -> Result<Topology, String> {
        let workers = (0..2)
            .map(|_| Server::spawn(fews, &listen_args(model, partitions)))
            .collect::<Result<Vec<_>, _>>()?;
        let list: Vec<String> = workers.iter().map(|w| w.addr.to_string()).collect();
        let mut args: Vec<String> = [
            "router",
            "--addr",
            "127.0.0.1:0",
            "--replicas",
            "1",
            "--workers",
        ]
        .map(String::from)
        .to_vec();
        args.push(list.join(","));
        args.extend(model.flags(partitions));
        let router = Server::spawn(fews, &args)?;
        Ok(Topology::Cluster { workers, router })
    }

    /// Start workload `w`'s own servers.
    pub fn start(w: Workload, fews: &Path) -> Result<Topology, String> {
        let (model, parts) = (w.model(), w.partitions());
        match w {
            Workload::ZipfIoRouter => Topology::cluster(fews, model, parts),
            Workload::DblogIdFresh => Topology::single(fews, model, parts),
        }
    }

    /// The address load goes to.
    pub fn addr(&self) -> SocketAddr {
        match self {
            Topology::Single(s) => s.addr,
            Topology::Cluster { router, .. } => router.addr,
        }
    }

    /// Summed peak resident set of every server process, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let kib = match self {
            Topology::Single(s) => s.peak_rss_kib()?,
            Topology::Cluster { workers, router } => {
                let mut sum = router.peak_rss_kib()?;
                for w in workers {
                    sum += w.peak_rss_kib()?;
                }
                sum
            }
        };
        Ok(kib as f64 / 1024.0)
    }

    /// Shut every process down and wait for it.
    pub fn shutdown(self) {
        match self {
            Topology::Single(s) => s.shutdown(),
            Topology::Cluster { workers, router } => {
                router.shutdown();
                for w in workers {
                    w.shutdown();
                }
            }
        }
    }
}

/// Memory-only `fews listen` arguments on an ephemeral loopback port.
pub fn listen_args(model: Model, partitions: usize) -> Vec<String> {
    let mut args: Vec<String> = ["listen", "--addr", "127.0.0.1:0"]
        .map(String::from)
        .to_vec();
    args.extend(model.flags(partitions));
    args
}

/// What a load phase saw.
#[derive(Debug, Default)]
pub struct Load {
    /// Frames acked (the reference replays exactly these).
    pub frames: u64,
    /// Updates acked.
    pub updates: u64,
    /// Ingest frame round trips, µs.
    pub acks: Vec<f64>,
    /// Read-your-writes query round trips, µs.
    pub fresh: Vec<f64>,
    /// `?stale` query round trips, µs.
    pub stale: Vec<f64>,
    /// First frame sent → fresh answer covering the last ack, seconds.
    pub elapsed_s: f64,
    /// The fresh answers after the last ack.
    pub answers: Option<Answers>,
    /// The last acked watermark.
    pub watermark: u64,
    /// Fresh `stats` after the last ack.
    pub stats: Option<WireStats>,
    /// `space_bytes` from a fresh `stats` once the first [`STATE_FRAME`]
    /// frames are acked (end-to-end runs only).
    pub state_bytes: Option<u64>,
    /// Summed peak RSS of the servers at the same point, MiB.
    pub state_rss_mib: Option<f64>,
    /// `stats` lag gauges read after each query pair (probe mode only).
    pub lag_updates: Vec<f64>,
    /// Wire bytes the ingest connection sent.
    pub bytes_sent: u64,
    /// Every request, and every failure by kind.
    pub tally: Tally,
    /// Why the load stopped early, if it did.
    pub aborted: Option<String>,
}

impl Load {
    /// Updates per second, counted to the fresh answer covering the last ack.
    pub fn ingest_ups(&self) -> f64 {
        self.updates as f64 / self.elapsed_s
    }
}

/// One load phase's shape.
pub struct Drive<'a> {
    /// The frames to send.
    pub stream: &'a Frames,
    /// Ingest frames between query pairs (single-node load).
    pub every: usize,
    /// Send the fresh query before the `?stale` one in each pair.
    pub fresh_first: bool,
    /// How long to send frames for (at least).
    pub seconds: f64,
    /// Read `?stale` stats after each query pair (single-node load,
    /// traced runs only).
    pub probe: bool,
    /// Read the state size and peak RSS once [`STATE_FRAME`] frames are
    /// acked, and send frames until then even past `seconds`: a fixed point
    /// of the stream, so the figures do not depend on how far a run got.
    pub state_probe: bool,
}

impl<'a> Drive<'a> {
    /// A workload's own load shape.
    pub fn of(w: Workload, stream: &'a Frames, seconds: f64) -> Drive<'a> {
        Drive {
            stream,
            every: w.query_every(),
            fresh_first: w == Workload::DblogIdFresh,
            seconds,
            probe: false,
            state_probe: true,
        }
    }

    /// Whether to send another frame after `frames` acked ones.
    fn more(&self, frames: u64, deadline: Instant) -> bool {
        Instant::now() < deadline || (self.state_probe && frames < STATE_FRAME)
    }
}

/// After an ack: at [`STATE_FRAME`], read a fresh `stats` on the ingest
/// connection and the servers' peak RSS.
fn state_probe(c: &mut Client, load: &mut Load, d: &Drive, topo: &Topology) -> Result<(), String> {
    if !d.state_probe || load.frames != STATE_FRAME {
        return Ok(());
    }
    c.set_stale(false);
    let stats = load.tally.record(c.stats());
    let stats = stats.map_err(|e| format!("stats at frame {STATE_FRAME}: {e}"))?;
    load.state_bytes = Some(stats.space_bytes);
    load.state_rss_mib = Some(topo.peak_rss_mib()?);
    Ok(())
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

/// One query: alternately `certify hot` and `top k`.
fn query(c: &mut Client, q: u64, hot: u32) -> Result<(), ClientError> {
    if q.is_multiple_of(2) {
        c.certify(hot).map(drop)
    } else {
        c.top(TOP_K).map(drop)
    }
}

/// Final fresh `certified` + `top k` (ends the `ingest_ups` clock) and stats.
fn finish(c: &mut Client, load: &mut Load, start: Instant) -> Result<(), String> {
    c.set_stale(false);
    let certified = load.tally.record(c.certified());
    load.elapsed_s = start.elapsed().as_secs_f64();
    let top = load.tally.record(c.top(TOP_K));
    let stats = load.tally.record(c.stats());
    match (certified, top, stats) {
        (Ok(certified), Ok(top), Ok(stats)) => {
            load.answers = Some(Answers { certified, top });
            load.stats = Some(stats);
            load.watermark = c.watermark();
            Ok(())
        }
        (a, b, c) => Err(format!(
            "final answers failed: {:?} {:?} {:?}",
            a.err(),
            b.err(),
            c.err()
        )),
    }
}

/// Single-node load: frames over one connection; after every `every`th
/// frame one fresh and one `?stale` query on the same connection.
pub fn single(topo: &Topology, d: &Drive, tr: &mut Tracer) -> Result<Load, String> {
    let mut c = connect(topo.addr())?;
    let mut load = Load::default();
    let mut buf = Vec::with_capacity(d.stream.frame);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(d.seconds);
    let mut q = 0u64;
    'run: loop {
        tr.begin("net.cycle", q);
        for _ in 0..d.every {
            d.stream.fill(load.frames, &mut buf);
            let t = Instant::now();
            tr.begin("net.ingest", load.frames);
            let r = load.tally.record(c.ingest_batch(&buf));
            tr.end();
            if let Err(e) = r {
                // Nothing of a rejected frame was applied; a transport
                // failure leaves it unknowable, so the run stops either way.
                tr.end();
                load.aborted = Some(format!("ingest frame {}: {e}", load.frames));
                break 'run;
            }
            load.acks.push(micros(t));
            load.frames += 1;
            load.updates += buf.len() as u64;
            if let Err(e) = state_probe(&mut c, &mut load, d, topo) {
                tr.end();
                load.aborted = Some(e);
                break 'run;
            }
        }
        for fresh in [d.fresh_first, !d.fresh_first] {
            c.set_stale(!fresh);
            let t = Instant::now();
            tr.begin(if fresh { "net.fresh" } else { "net.stale" }, q);
            let r = load.tally.record(query(&mut c, q, d.stream.hot));
            tr.end();
            match r {
                Ok(()) if fresh => load.fresh.push(micros(t)),
                Ok(()) => load.stale.push(micros(t)),
                Err(e) => {
                    tr.end();
                    load.aborted = Some(format!("query {q}: {e}"));
                    break 'run;
                }
            }
        }
        if d.probe {
            c.set_stale(true);
            tr.begin("net.stats", q);
            let r = load.tally.record(c.stats());
            tr.end();
            if let Ok(s) = r {
                load.lag_updates.push(s.overload.lag_updates as f64);
            }
        }
        tr.end();
        q += 1;
        if !d.more(load.frames, deadline) {
            break;
        }
    }
    load.bytes_sent = c.bytes_sent();
    finish(&mut c, &mut load, start)?;
    Ok(load)
}

/// The router load's query thread's fresh and stale latencies, requests,
/// spans, and the error that stopped it, if one did.
type QueryResults = (Vec<f64>, Vec<f64>, Tally, Vec<Span>, Option<String>);

/// Ingest progress the router load's query thread paces itself by.
#[derive(Default)]
struct Progress {
    frames: u64,
    watermark: u64,
    done: bool,
}

/// Router load on both generator threads: one connection ingests frames in
/// a closed loop; a second connection, beside it, sends one `?stale` and
/// one fresh query (at the latest acked watermark), alternating
/// `certify`/`top`, each time ingest has advanced `every` frames since the
/// previous pair began. The fixed frame cadence keeps the read/write mix
/// the same from run to run. Returns the load and each thread's spans.
pub fn routed(
    topo: &Topology,
    d: &Drive,
    origin: Instant,
    traced: bool,
) -> Result<(Load, Vec<Vec<Span>>), String> {
    let progress = (Mutex::new(Progress::default()), Condvar::new());
    let tracer = || {
        if traced {
            Tracer::on(origin)
        } else {
            Tracer::off()
        }
    };
    let queries: Mutex<QueryResults> = Mutex::new(Default::default());
    let mut qc = connect(topo.addr())?;
    let mut c = connect(topo.addr())?;
    let mut tr = tracer();
    let mut load = Load::default();
    let publish = |f: &dyn Fn(&mut Progress)| {
        f(&mut progress.0.lock().expect("ingest progress"));
        progress.1.notify_one();
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut qt = tracer();
            let (mut fresh, mut stale, mut tally) = (Vec::new(), Vec::new(), Tally::default());
            let mut err = None;
            let mut next = d.every as u64;
            'pairs: for q in 0u64.. {
                let watermark = {
                    let mut p = progress.0.lock().expect("ingest progress");
                    while p.frames < next && !p.done {
                        p = progress.1.wait(p).expect("ingest progress");
                    }
                    if p.done {
                        break;
                    }
                    next = p.frames + d.every as u64;
                    p.watermark
                };
                for is_fresh in [false, true] {
                    qc.set_stale(!is_fresh);
                    qc.set_watermark(watermark);
                    let t = Instant::now();
                    qt.begin(
                        if is_fresh {
                            "cluster.fresh"
                        } else {
                            "cluster.stale"
                        },
                        q,
                    );
                    let r = tally.record(query(&mut qc, q, d.stream.hot));
                    qt.end();
                    match r {
                        Ok(()) if is_fresh => fresh.push(micros(t)),
                        Ok(()) => stale.push(micros(t)),
                        Err(e) => {
                            err = Some(format!("query {q}: {e}"));
                            break 'pairs;
                        }
                    }
                }
            }
            *queries.lock().expect("query results") = (fresh, stale, tally, qt.spans, err);
        });
        let mut buf = Vec::with_capacity(d.stream.frame);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(d.seconds);
        while d.more(load.frames, deadline) {
            d.stream.fill(load.frames, &mut buf);
            let t = Instant::now();
            tr.begin("cluster.ingest", load.frames);
            let r = load.tally.record(c.ingest_batch(&buf));
            tr.end();
            if let Err(e) = r {
                load.aborted = Some(format!("ingest frame {}: {e}", load.frames));
                break;
            }
            load.acks.push(micros(t));
            load.frames += 1;
            load.updates += buf.len() as u64;
            let (frames, watermark) = (load.frames, c.watermark());
            publish(&|p| {
                p.frames = frames;
                p.watermark = watermark;
            });
            if let Err(e) = state_probe(&mut c, &mut load, d, topo) {
                load.aborted = Some(e);
                break;
            }
        }
        publish(&|p| p.done = true);
        load.bytes_sent = c.bytes_sent();
        finish(&mut c, &mut load, start)
    })?;
    let (fresh, stale, tally, qspans, err) = queries.into_inner().expect("query results");
    load.fresh = fresh;
    load.stale = stale;
    load.tally.absorb(&tally);
    if load.aborted.is_none() {
        load.aborted = err;
    }
    Ok((load, vec![tr.spans, qspans]))
}

/// Drive `topo` with the shape `d`: the router load for a cluster, the
/// single-node load otherwise.
pub fn drive(topo: &Topology, d: &Drive, traced: bool) -> Result<(Load, Vec<Vec<Span>>), String> {
    let origin = Instant::now();
    match topo {
        Topology::Single(_) => {
            let mut tr = if traced {
                Tracer::on(origin)
            } else {
                Tracer::off()
            };
            let load = single(topo, d, &mut tr)?;
            Ok((load, vec![tr.spans]))
        }
        Topology::Cluster { .. } => routed(topo, d, origin, traced),
    }
}
