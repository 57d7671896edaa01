//! `stackbench` — end-to-end and per-layer benchmark of the FEwW stack.
//!
//! ```text
//! stackbench --workload NAME --seed N --seconds S --trace 0|1 --fews PATH
//! ```
//!
//! `--trace 0` drives the shipped `fews listen` / `fews router` binaries
//! (`--fews PATH`) as child processes with closed-loop load for `S`
//! seconds and prints the end-to-end metrics. `--trace 1` is the separate
//! traced run: the same workload inputs through each layer's public calls,
//! one span per call, printed as per-layer metrics. Both check the final
//! answers against the single-threaded `fews-core` reference.
//!
//! Standard output ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, preceded
//! by a `{"header": …}` line describing the run. A run whose answers fail
//! the correctness gate prints the header only and exits 1: a mismatch never
//! becomes a number. `run.sh` builds both binaries and runs this with the
//! right `--fews`.

mod inputs;
mod layers;
mod load;
mod procs;
mod stats;
mod trace;

use inputs::{Frames, Reference, Workload, TOP_K};
use load::{Drive, Topology};
use stats::{json_num, json_str, median, Report, Tally};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// A phase during which the hypervisor stole more than this share of CPU
/// time ran on a contended host: on a 2-vCPU guest, steal of 7–14 % slowed
/// `dblog-id-fresh` acks by 15–45 % and doubled router start-ups, while
/// runs under 1 % agreed within a few percent. Such a phase is run once
/// more (same seed); the header keeps every attempt's steal, and every
/// attempt's requests count in `attempted`/`failed`.
const STEAL_LIMIT: f64 = 0.03;

/// Load phases per run at most, each on fresh servers (see
/// [`STEAL_LIMIT`]).
const ATTEMPTS: usize = 2;

/// Set-up phases per load phase at most (see [`STEAL_LIMIT`]).
const SETUP_ATTEMPTS: usize = 3;

const MIB: f64 = 1024.0 * 1024.0;

/// The end-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_ups", "updates/s"),
    ("fresh_p50_us", "us"),
    ("stale_p50_us", "us"),
    ("state_mb", "MiB"),
    ("peak_rss_mb", "MiB"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    fews: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("{key} is required"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        fews: PathBuf::from(get("--fews")?),
    })
}

/// What one run produced.
pub struct Outcome {
    /// Metrics in emission order.
    pub report: Report,
    /// Every answer that differed from the reference and every gate that
    /// failed; empty on a correct run.
    pub mismatches: Vec<String>,
    /// Every request and every failure.
    pub tally: Tally,
    /// Extra header fields, as `(key, JSON value)`.
    pub notes: Vec<(String, String)>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            eprintln!(
                "usage: stackbench --workload <{}> --seed N --seconds S --trace 0|1 --fews PATH",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        layers::run(args.workload, args.seed, args.seconds, &args.fews)
    } else {
        run_e2e(args.workload, args.seed, args.seconds, &args.fews)
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("stackbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let expected: Vec<(String, &str)> = if args.trace {
        layers::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let emitted: Vec<(String, &str)> = out
        .report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit))
        .collect();
    let mut refusals = out.report.floor_failures();
    if emitted != expected {
        refusals.push("emitted metrics differ from the declared table".into());
    }
    refusals.extend(
        out.report
            .non_finite()
            .into_iter()
            .map(|m| format!("{m} is not a finite number")),
    );
    if !refusals.is_empty() {
        eprintln!("stackbench: unsound numbers: {}", refusals.join("; "));
        std::process::exit(1);
    }
    println!("{}", header(&args, &out));
    if !out.mismatches.is_empty() {
        for m in &out.mismatches {
            eprintln!("stackbench: MISMATCH: {m}");
        }
        std::process::exit(1);
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.tally.attempted.max(1),
        out.tally.failed,
        out.report.metrics_json()
    );
}

/// The run header: what ran, where, and the samples behind each percentile.
fn header(args: &Args, out: &Outcome) -> String {
    let cmd = |prog: &str, argv: &[&str]| -> Option<String> {
        let o = Command::new(prog).args(argv).output().ok()?;
        o.status
            .success()
            .then(|| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = match cmd("git", &["rev-parse", "--short=12", "HEAD"]) {
        Some(rev) if cmd("git", &["status", "--porcelain"]).is_some_and(|s| s.is_empty()) => rev,
        Some(_) => "dirty".into(),
        None => "no-git".into(),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("workload".to_string(), json_str(args.workload.name())),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), json_num(args.seconds)),
        ("trace".into(), args.trace.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("git_rev".into(), json_str(&rev)),
        ("source_hash".into(), json_str(&source_hash())),
        (
            "rustc".into(),
            json_str(&cmd("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "load".into(),
            json_str("closed loop, one ingest connection"),
        ),
        ("wal".into(), json_str("off (memory-only servers)")),
        ("samples".into(), out.report.floors_json()),
        ("attempted".into(), out.tally.attempted.to_string()),
        ("failed".into(), out.tally.failed.to_string()),
        (
            "error_rate".into(),
            json_num(out.tally.failed as f64 / out.tally.attempted.max(1) as f64),
        ),
        ("errors_by_kind".into(), out.tally.kinds_json()),
        (
            "mismatches".into(),
            format!(
                "[{}]",
                out.mismatches
                    .iter()
                    .map(|m| json_str(m))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    fields.extend(out.notes.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"header\": {{{}}}}}", body.join(", "))
}

/// FNV-1a over the workspace sources, so runs from a checkout without git
/// history still say which code they measured.
fn source_hash() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// One set-up phase: every start-up's spawn → first-`ping` time, and the
/// share of CPU time the hypervisor stole meanwhile.
struct Phase {
    times: Vec<f64>,
    steal: f64,
}

/// Start the workload's servers [`Workload::setups`] times and keep the last
/// running. A phase that ran under host steal above [`STEAL_LIMIT`] is run
/// again, up to [`SETUP_ATTEMPTS`] phases. Every phase goes to `phases`.
fn setup(w: Workload, fews: &Path, phases: &mut Vec<Phase>) -> Result<Topology, String> {
    for attempt in 1..=SETUP_ATTEMPTS {
        let before = procs::cpu_times();
        let mut times = Vec::with_capacity(w.setups());
        let mut topo: Option<Topology> = None;
        for _ in 0..w.setups() {
            if let Some(t) = topo.take() {
                t.shutdown();
            }
            let t = Instant::now();
            topo = Some(Topology::start(w, fews)?);
            times.push(t.elapsed().as_secs_f64());
        }
        let topo = topo.expect("at least one start-up");
        let steal = procs::steal_share(&before, &procs::cpu_times());
        phases.push(Phase { times, steal });
        if calm(steal) || attempt == SETUP_ATTEMPTS {
            return Ok(topo);
        }
        topo.shutdown();
    }
    unreachable!("SETUP_ATTEMPTS ≥ 1")
}

/// `setup_s`: the median start-up over every calm phase, or over the
/// least-stolen phase if none was calm.
fn setup_s(phases: &[Phase]) -> f64 {
    let calm_times: Vec<f64> = phases
        .iter()
        .filter(|p| calm(p.steal))
        .flat_map(|p| p.times.iter().copied())
        .collect();
    if !calm_times.is_empty() {
        return median(&calm_times);
    }
    let least = phases
        .iter()
        .min_by(|a, b| a.steal.total_cmp(&b.steal))
        .expect("at least one phase");
    median(&least.times)
}

/// Whether a phase with this steal share ran on a calm host (unknown
/// counts as calm).
fn calm(steal: f64) -> bool {
    steal.is_nan() || steal <= STEAL_LIMIT
}

fn json_list(xs: &[f64]) -> String {
    let body: Vec<String> = xs.iter().map(|&v| json_num(v)).collect();
    format!("[{}]", body.join(", "))
}

/// One load phase on fresh servers.
struct Attempt {
    load: load::Load,
    steal: f64,
    end_rss: f64,
}

/// The end-to-end run: tracing off.
fn run_e2e(w: Workload, seed: u64, seconds: f64, fews: &Path) -> Result<Outcome, String> {
    let stream = Frames::new(w, seed);
    let mut phases = Vec::new();
    let mut attempts: Vec<Attempt> = Vec::new();
    let mut tally = Tally::default();
    loop {
        let topo = setup(w, fews, &mut phases)?;
        let before = procs::cpu_times();
        let (load, _) = load::drive(&topo, &Drive::of(w, &stream, seconds), false)?;
        let steal = procs::steal_share(&before, &procs::cpu_times());
        let end_rss = topo.peak_rss_mib()?;
        topo.shutdown();
        tally.absorb(&load.tally);
        attempts.push(Attempt {
            load,
            steal,
            end_rss,
        });
        if calm(steal) || attempts.len() == ATTEMPTS {
            break;
        }
    }
    // Host speed drifts over tens of seconds, so a second set-up phase
    // after the load puts both ends of the run into `setup_s`.
    setup(w, fews, &mut phases)?.shutdown();

    // The correctness gate, on every attempt.
    let model = w.model();
    let mut mismatches = Vec::new();
    for (i, a) in attempts.iter().enumerate() {
        let load = &a.load;
        if let Some(why) = &load.aborted {
            mismatches.push(format!("attempt {i}: load stopped early: {why}"));
        }
        let want =
            Reference::replay(model, w.partitions(), &stream, load.frames).answers(TOP_K as usize);
        match &load.answers {
            Some(got) if *got == want => {}
            Some(got) => mismatches.push(format!(
                "attempt {i}: final answers differ from the fews-core reference after {} frames: got certified {:?}, want {:?}",
                load.frames,
                got.certified.as_ref().map(|c| (c.vertex, c.witnesses.len())),
                want.certified.as_ref().map(|c| (c.vertex, c.witnesses.len())),
            )),
            None => mismatches.push(format!("attempt {i}: no final answers")),
        }
        if let Some(why) = want.floor_violation(model.witness_target()) {
            mismatches.push(format!("attempt {i}: witness floor: {why}"));
        }
    }
    if tally.failed > 0 {
        mismatches.push(format!("{} failed requests", tally.failed));
    }

    // Report the calmest load phase (the first on a tie).
    let steal_key = |a: &Attempt| if a.steal.is_nan() { 0.0 } else { a.steal };
    let (reported, best) = attempts
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| steal_key(a).total_cmp(&steal_key(b)))
        .expect("at least one attempt");
    let load = &best.load;
    let phase_list =
        |f: &dyn Fn(&Phase) -> f64| json_list(&phases.iter().map(f).collect::<Vec<_>>());
    let mut notes = vec![
        ("end_peak_rss_mb".to_string(), json_num(best.end_rss)),
        ("reported_attempt".to_string(), reported.to_string()),
        (
            "cpu_steal_share_by_attempt".to_string(),
            json_list(&attempts.iter().map(|a| a.steal).collect::<Vec<_>>()),
        ),
        (
            "cpu_steal_share_by_setup_attempt".to_string(),
            phase_list(&|p| p.steal),
        ),
        (
            "setup_phase_median_s".to_string(),
            phase_list(&|p| median(&p.times)),
        ),
    ];
    let tails = |xs: &[f64]| {
        let body: Vec<String> = [0.5, 0.75, 0.9, 0.95, 0.99]
            .iter()
            .map(|&p| {
                let v = stats::percentile(xs, p).map_or(f64::NAN, |(v, _)| v);
                format!("\"p{}\": {}", (p * 100.0).round(), json_num(v))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    notes.push((
        "percentiles".into(),
        format!(
            "{{\"ack\": {}, \"fresh\": {}, \"stale\": {}}}",
            tails(&load.acks),
            tails(&load.fresh),
            tails(&load.stale)
        ),
    ));
    if let Some(s) = &load.stats {
        notes.push(("end_state_mb".into(), json_num(s.space_bytes as f64 / MIB)));
    }
    notes.push(("frames".into(), load.frames.to_string()));
    notes.push(("updates".into(), load.updates.to_string()));

    let mut r = Report::default();
    r.put("setup_s", "s", setup_s(&phases));
    r.put("ingest_ups", "updates/s", load.ingest_ups());
    r.put_pct("fresh_p50_us", "us", &load.fresh, 0.5);
    r.put_pct("stale_p50_us", "us", &load.stale, 0.5);
    let state = load.state_bytes.map_or(f64::NAN, |b| b as f64);
    r.put("state_mb", "MiB", state / MIB);
    r.put("peak_rss_mb", "MiB", load.state_rss_mib.unwrap_or(f64::NAN));
    tally.attempted = tally.attempted.max(1);
    Ok(Outcome {
        report: r,
        mismatches,
        tally,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric table in `BENCHMARK.json`, as `(name, unit)` pairs.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let end = text[start..].find(']').expect("section closes") + start;
        text[start..end]
            .split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let i = entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
                    entry[i..i + entry[i..].find('"').expect("closing quote")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_end_to_end_metric_is_declared_with_its_unit() {
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), want);
    }

    #[test]
    fn every_per_layer_metric_is_declared_with_its_unit() {
        let want: Vec<(String, String)> = layers::per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), want);
    }

    #[test]
    fn setup_s_pools_calm_phases_else_takes_the_least_stolen() {
        let phase = |times: &[f64], steal| Phase {
            times: times.to_vec(),
            steal,
        };
        let mixed = [
            phase(&[1.0, 2.0, 3.0], 0.01),
            phase(&[50.0, 60.0, 70.0], 0.2),
            phase(&[4.0, 5.0], f64::NAN),
        ];
        assert_eq!(setup_s(&mixed), 3.0);
        let stolen = [phase(&[9.0, 9.0], 0.3), phase(&[7.0, 8.0, 9.0], 0.1)];
        assert_eq!(setup_s(&stolen), 8.0);
    }

    #[test]
    fn every_workload_that_runs_is_declared() {
        let text = include_str!("../../BENCHMARK.json");
        for w in Workload::ALL {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", w.name())),
                "{} is not declared",
                w.name()
            );
        }
        assert_eq!(text.matches("\"why\"").count(), Workload::ALL.len());
    }
}
