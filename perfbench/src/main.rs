//! `coop-perfbench` — the repository's benchmark.
//!
//! ```text
//! coop-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the simulator crates from outside through their public API. The
//! measuring happens in fresh child processes, so each one's peak RSS is
//! its own. With `--trace 0` the parent runs one child per closed-loop
//! pass over the workload's cells for about `--seconds` and the last
//! stdout line reports the end-to-end metrics, medians over the passes.
//! With `--trace 1` a single child runs the workload's own pass, then one
//! pass in which every cell runs three times back to back (profiled, with
//! a recorder and without), then the two-shard cell and the micro
//! timings, and the last line reports the per-layer metrics. See
//! `perfbench/README.md` for every metric.

mod micro;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use coop_experiments::journal::{result_from_json, result_to_json};
use coop_telemetry::json::{self, ObjWriter};
use coop_telemetry::profile::{phase, work};
use coop_telemetry::ProfileReport;

use micro::median;
use trace::{coverage, durations_ns, Span, Tracer};
use workload::{
    own_pass, plan, run_pass, setup_cell, shard_cell, PassOpts, PassOut, RecorderMode, Workload,
    LAYER_SPANS,
};

const USAGE: &str = "usage: coop-perfbench --workload <flash-crowd-10k|churn-attack-sweep> \
     --seed <n> --seconds <s> --trace <0|1>";

/// After its pass, each timed child sets up every cell again on its own,
/// at least this many times and for [`SETUP_BURST_S`] seconds (at most
/// [`SETUP_BURST_MAX`] times); `setup_s` is the median of these.
const SETUP_BURST: usize = 20;
const SETUP_BURST_S: f64 = 0.5;
const SETUP_BURST_MAX: usize = 2000;

/// A run ends within this many seconds of its start: a measuring child
/// still running then is killed, and every cell of its pass counts as
/// failed.
const RUN_LIMIT_S: f64 = 170.0;

/// The traced run fails when the named spans cover less of the pass, or
/// the profiler's attributed phases less of `sim.run`, than this share.
const MIN_COVERAGE: f64 = 0.95;

/// Per-run output directory, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

#[derive(Clone, Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in the child process that does the measuring.
    child: bool,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
            if !["workload", "seed", "seconds", "trace", "child"].contains(&key) {
                return Err(format!("unknown flag {flag}"));
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(key, value.as_str());
        }
        let get = |k: &str| {
            map.get(k)
                .copied()
                .ok_or_else(|| format!("--{k} is required"))
        };
        let num = |k: &str| -> Result<u64, String> {
            get(k)?
                .parse()
                .map_err(|_| format!("--{k} must be a whole number"))
        };
        let name = get("workload")?;
        Ok(Args {
            workload: Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
            seed: num("seed")?,
            seconds: num("seconds")?.clamp(1, 120),
            trace: match get("trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
            },
            child: map.contains_key("child"),
        })
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.child {
        let out = if args.trace {
            traced_child(&args)
        } else {
            timed_child(&args)
        };
        println!("{}", out.to_json());
        return;
    }
    std::process::exit(parent(&args));
}

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Git rev, core count, CPU model, rustc version, workload and seed, as
/// one JSON object.
fn stamp(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let unknown = || "unknown".to_string();
    let mut o = ObjWriter::new();
    o.str(
        "git_rev",
        &command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
    )
    .uint("nproc", nproc)
    .str("cpu", &cpu)
    .str(
        "rustc",
        &command_line("rustc", &["--version"]).unwrap_or_else(unknown),
    )
    .str("workload", args.workload.name())
    .uint("seed", args.seed);
    o.finish()
}

/// This process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn scratch_dir() -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!("scratch-{}", std::process::id()))
}

// ---------------------------------------------------------------------------
// What the child reports: one JSON line
// ---------------------------------------------------------------------------

#[derive(Default)]
struct ChildOut {
    values: BTreeMap<String, f64>,
    digest: String,
    attempted: u64,
    /// Failed cells plus failed run-level checks.
    failed: u64,
    failures: Vec<String>,
}

impl ChildOut {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.failures.push(message);
    }

    fn record_pass(&mut self, pass: &PassOut) {
        self.attempted += pass.cells.len() as u64;
        self.failed += pass.failed() as u64;
        self.failures
            .extend(pass.cells.iter().flat_map(|c| c.failures.iter().cloned()));
    }

    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn to_json(&self) -> String {
        let mut values = ObjWriter::new();
        for (k, v) in &self.values {
            values.f64(k, *v);
        }
        let mut failures = String::from("[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                failures.push(',');
            }
            json::write_escaped(&mut failures, f);
        }
        failures.push(']');
        let mut o = ObjWriter::new();
        o.raw("values", &values.finish())
            .str("digest", &self.digest)
            .uint("attempted", self.attempted)
            .uint("failed", self.failed)
            .raw("failures", &failures);
        o.finish()
    }

    fn parse(text: &str) -> Option<ChildOut> {
        let doc = json::parse(text).ok()?;
        let json::Json::Obj(values) = doc.get("values")? else {
            return None;
        };
        let json::Json::Arr(failures) = doc.get("failures")? else {
            return None;
        };
        Some(ChildOut {
            values: values
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            digest: doc.get("digest")?.as_str()?.to_string(),
            attempted: doc.get("attempted")?.as_f64()? as u64,
            failed: doc.get("failed")?.as_f64()? as u64,
            failures: failures
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
        })
    }
}

fn run_s(pass: &PassOut) -> Vec<f64> {
    pass.cells.iter().map(|c| c.run_ns as f64 / 1e9).collect()
}

// ---------------------------------------------------------------------------
// --trace 0: the workload's own closed-loop passes
// ---------------------------------------------------------------------------

/// One pass of the workload as it runs, then a burst of set-ups on their
/// own. The parent runs one such child per pass.
fn timed_child(args: &Args) -> ChildOut {
    let workload = args.workload;
    let pass = own_pass(workload, args.seed, &Tracer::new(), &scratch_dir());
    eprintln!(
        "[{}] pass: wall {:.3} s",
        workload.name(),
        pass.wall_ns as f64 / 1e9
    );
    for cell in &pass.cells {
        eprintln!(
            "    {}: {} rounds, {:.3} s",
            cell.label,
            cell.rounds,
            cell.run_ns as f64 / 1e9
        );
    }
    let mut setups = Vec::new();
    let burst = Instant::now();
    while setups.len() < SETUP_BURST
        || (burst.elapsed().as_secs_f64() < SETUP_BURST_S && setups.len() < SETUP_BURST_MAX)
    {
        setups.push(setup_only(workload, args.seed));
    }

    let mut out = ChildOut {
        digest: format!("{:016x}", pass.digest()),
        ..ChildOut::default()
    };
    out.record_pass(&pass);
    let mut runs = run_s(&pass);
    out.set("setup_s", median(&mut setups) / 1e9);
    out.set("wall_s", pass.wall_ns as f64 / 1e9);
    out.set(
        "peer_rounds_per_s",
        pass.cells.iter().map(|c| c.peer_rounds).sum::<f64>() / runs.iter().sum::<f64>(),
    );
    out.set("cell_max_s", runs.iter().copied().fold(0.0, f64::max));
    out.set("cell_p50_s", median(&mut runs));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("cells", pass.cells.len() as f64);
    out
}

/// One set-up of every cell (scenario compile included), with nothing
/// run; returns nanoseconds.
fn setup_only(workload: Workload, seed: u64) -> f64 {
    // A throwaway tracer: thousands of set-ups would pile up spans.
    let tracer = Tracer::new();
    let root = tracer.open("setup", None, None);
    let sims: Vec<_> = plan(workload, seed)
        .cells
        .iter()
        .enumerate()
        .map(|(slot, spec)| setup_cell(spec, slot, PassOpts::of(workload), &tracer, root))
        .collect();
    let ns = tracer.close(root) as f64;
    drop(sims);
    ns
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer numbers
// ---------------------------------------------------------------------------

/// The profiler phases reported per layer, as (metric, phase).
const PHASES: [(&str, &str); 11] = [
    ("swarm.arrivals_ms", phase::SIM_ARRIVALS),
    ("swarm.adjacency_ms", phase::SIM_ADJACENCY),
    ("swarm.allocate_ms", phase::SIM_ALLOCATE),
    ("swarm.end_round_ms", phase::SIM_END_ROUND),
    ("swarm.settle_ms", phase::SIM_SETTLE),
    ("swarm.dirty_scan_ms", phase::SIM_DIRTY_SCAN),
    ("swarm.finalize_ms", phase::SIM_FINALIZE),
    ("swarm.consensus_ms", phase::SIM_CONSENSUS),
    ("swarm.faults_ms", phase::SIM_FAULTS),
    ("swarm.identity_ms", phase::SIM_IDENTITY),
    ("piece.pick_ms", phase::SIM_PIECE_PICK),
];

/// Sums of the benchmark's own spans reported per layer, as (metric,
/// span).
const SPAN_SUMS: [(&str, &str); 5] = [
    ("swarm.inputs_ms", "swarm.inputs"),
    ("swarm.build_ms", "swarm.build"),
    ("swarm.run_ms", "swarm.run"),
    ("attacks.patch_ms", "attacks.apply_patch"),
    ("faults.compile_ms", "faults.compile"),
];

/// Durations of the spans named `name` in one variant of a pass: under
/// its set-up block and under its cells.
fn variant_ns(spans: &[Span], pass: &PassOut, name: &str) -> Vec<u64> {
    std::iter::once(pass.setup)
        .chain(pass.cells.iter().filter_map(|c| c.span))
        .flat_map(|root| durations_ns(spans, root, name))
        .collect()
}

fn merged_counters(pass: &PassOut) -> BTreeMap<&str, f64> {
    let mut merged = BTreeMap::new();
    for cell in &pass.cells {
        for (name, value) in &cell.counters {
            *merged.entry(name.as_str()).or_insert(0.0) += *value as f64;
        }
    }
    merged
}

fn traced_child(args: &Args) -> ChildOut {
    let workload = args.workload;
    let seed = args.seed;
    let tracer = Tracer::new();
    let scratch = scratch_dir();
    // The sweep's own pass runs through the program's executor; the
    // flash crowd's own pass is the recorder-off variant below.
    let sweep = (workload == Workload::ChurnAttackSweep)
        .then(|| own_pass(workload, seed, &tracer, &scratch));
    let off = PassOpts {
        profiled: false,
        recorder: RecorderMode::Off,
        shards: 1,
    };
    let profiled = PassOpts {
        profiled: true,
        ..off
    };
    // The workload's recorder, or the counters-only one where it has none.
    let on = PassOpts {
        recorder: match workload.recorder() {
            RecorderMode::Off => RecorderMode::Counters,
            mode => mode,
        },
        ..off
    };
    let variants = run_pass(workload, seed, &[profiled, on, off], &tracer);
    let [prof, on, off] = &variants[..] else {
        unreachable!("one pass per variant");
    };
    let base = sweep.as_ref().unwrap_or(off);
    // The passes that share `base`'s timed block.
    let sharing: Vec<&PassOut> = match &sweep {
        Some(sweep) => vec![sweep],
        None => variants.iter().collect(),
    };

    let digest = base.digest();
    let mut out = ChildOut {
        digest: format!("{digest:016x}"),
        ..ChildOut::default()
    };
    if let Some(sweep) = &sweep {
        out.record_pass(sweep);
    }
    for (name, pass) in [
        ("profiled", prof),
        ("recorder-on", on),
        ("recorder-off", off),
    ] {
        out.record_pass(pass);
        if pass.digest() != digest {
            out.fail(format!(
                "the {name} run's results differ from the workload's own"
            ));
        }
    }

    let spans = tracer.spans();
    let ms = |ns: u64| ns as f64 / 1e6;
    for (metric, span) in SPAN_SUMS {
        out.set(metric, ms(variant_ns(&spans, off, span).iter().sum()));
    }
    let base_sum = |name: &str| ms(durations_ns(&spans, base.root, name).iter().sum());
    out.set(
        "experiments.scenario_compile_ms",
        base_sum("experiments.scenario_compile"),
    );
    out.set(
        "experiments.artifact_write_ms",
        base_sum("experiments.artifact_write"),
    );
    out.set("experiments.journal_appends", base.journal_appends as f64);
    out.set(
        "experiments.journal_append_ms",
        ms(base.journal_ns) / base.journal_appends.max(1) as f64,
    );

    let mut phases = ProfileReport::default();
    for cell in &prof.cells {
        phases.merge(&cell.profile);
    }
    for (metric, name) in PHASES {
        out.set(metric, ms(phases.total_ns(name)));
    }
    let attributed: u64 = phase::ATTRIBUTED.iter().map(|p| phases.total_ns(p)).sum();
    let phase_coverage = attributed as f64 / phases.total_ns(phase::SIM_RUN).max(1) as f64;
    out.set("swarm.phase_coverage_frac", phase_coverage);
    let (reports, bans) = base
        .cells
        .iter()
        .filter_map(|c| c.consensus)
        .fold((0, 0), |(r, b), c| {
            (r + c.reports, b + c.bans_temp + c.bans_perm)
        });
    out.set("swarm.consensus_reports", reports as f64);
    out.set("swarm.bans", bans as f64);

    let counters = merged_counters(on);
    let c = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let availability_rebuilds = c("swarm.availability.rebuilds");
    out.set("swarm.adjacency_rebuilds", c("swarm.adjacency.rebuilds"));
    out.set("swarm.availability_rebuilds", availability_rebuilds);
    out.set("swarm.peers_visited", c(work::PEERS_VISITED));
    out.set("swarm.candidate_scans", c(work::CANDIDATE_SCANS));
    out.set(
        "swarm.productive_ratio",
        c(work::PEERS_PRODUCTIVE) / c(work::PEERS_VISITED).max(1.0),
    );
    out.set("des.events", c("engine.events_processed"));
    let total = |p: &PassOut| run_s(p).iter().sum::<f64>();
    out.set(
        "telemetry.recorder_overhead_frac",
        total(on) / total(off) - 1.0,
    );
    out.set(
        "telemetry.trace_overhead_frac",
        total(prof) / total(off) - 1.0,
    );
    let busy: f64 = sharing.iter().map(|p| total(p)).sum();
    out.set(
        "experiments.worker_busy_frac",
        busy / (workload.workers() as f64 * base.wall_ns as f64 / 1e9),
    );
    let coverage = coverage(&spans, base.root, &LAYER_SPANS);
    out.set("trace.coverage_frac", coverage);
    if coverage < MIN_COVERAGE {
        out.fail(format!(
            "named spans cover {coverage:.4} of the pass, below {MIN_COVERAGE}"
        ));
    }
    if phase_coverage < MIN_COVERAGE {
        out.fail(format!(
            "profiler phases cover {phase_coverage:.4} of sim.run, below {MIN_COVERAGE}"
        ));
    }
    if availability_rebuilds != 0.0 {
        out.fail(format!(
            "{availability_rebuilds} availability-index rebuilds (must be 0)"
        ));
    }

    let shard = shard_cell(&plan(workload, seed));
    match run_two_shards(workload, seed, shard, &tracer) {
        Ok((ns, result)) => {
            out.set(
                "swarm.shard2_speedup",
                off.cells[shard].run_ns as f64 / ns.max(1) as f64,
            );
            if result != off.cells[shard].json {
                out.fail(format!(
                    "{}: results differ between 1 and 2 shards",
                    off.cells[shard].label
                ));
            }
        }
        Err(e) => out.fail(e),
    }

    let (pieces, peers) = workload.sizes();
    let (pick, min_over) = micro::availability(seed, pieces, peers);
    out.set("piece.pick_rarest_ns", pick);
    out.set("piece.min_over_ns", min_over);
    out.set("swarm.dirty_drain_ns", micro::dirty_set(seed, peers));
    let (accrue, close) = micro::reward_pool(seed);
    out.set("core.reward_pool_accrue_ns", accrue);
    out.set("core.reward_pool_close_epoch_ns", close);
    let first = json::parse(&base.cells[0].json)
        .ok()
        .and_then(|d| result_from_json(&d));
    let journal_us = first.map_or(0.0, |r| {
        micro::journal_append(&scratch.join("micro-journal"), seed, &r)
    });
    out.set("experiments.journal_record_job_us", journal_us);
    let _ = std::fs::remove_dir_all(&scratch);

    write_trace_file(args, &tracer);
    out.set("cells", base.cells.len() as f64);
    out
}

/// Runs cell `slot` once more without a recorder and with two shards;
/// returns its `run` nanoseconds and serialized result.
fn run_two_shards(
    workload: Workload,
    seed: u64,
    slot: usize,
    tracer: &Tracer,
) -> Result<(u64, String), String> {
    let plan = plan(workload, seed);
    let opts = PassOpts {
        profiled: false,
        recorder: RecorderMode::Off,
        shards: 2,
    };
    let spec = &plan.cells[slot];
    let root = tracer.open("shards", Some(slot), None);
    let sim = setup_cell(spec, slot, opts, tracer, root)?;
    let ran = workload::guarded(&spec.label, || {
        tracer.time("swarm.run", Some(slot), Some(root), || sim.run())
    });
    tracer.close(root);
    ran.map(|(result, ns)| (ns, result_to_json(&result)))
}

fn write_trace_file(args: &Args, tracer: &Tracer) {
    let dir = PathBuf::from(OUT_DIR);
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let text = format!("{}\n{}", stamp(args), trace::to_jsonl(&tracer.spans()));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| coop_telemetry::write_atomic_str(&path, &text))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

// ---------------------------------------------------------------------------
// Parent: spawn the measuring child, report
// ---------------------------------------------------------------------------

/// Runs one measuring child and reads its result; kills it if it is
/// still running at `deadline`.
fn spawn_child(args: &Args, deadline: Instant) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--child", "1", "--workload", args.workload.name()])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start the measuring child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let text = reader.join().unwrap_or_default();
    match status {
        None => Err(format!(
            "the measuring child was still running after {RUN_LIMIT_S} s and was killed"
        )),
        Some(status) if !status.success() => Err(format!("the measuring child failed: {status}")),
        Some(_) => text
            .lines()
            .last()
            .and_then(ChildOut::parse)
            .ok_or_else(|| "the measuring child printed no result".to_string()),
    }
}

/// (name, unit) of every end-to-end metric.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peer_rounds_per_s", "1/s"),
    ("cell_p50_s", "s"),
    ("cell_max_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cells_ok_frac", "ratio"),
];

/// (name, unit) of every per-layer metric.
const PER_LAYER: [(&str, &str); 40] = [
    ("swarm.inputs_ms", "ms"),
    ("swarm.build_ms", "ms"),
    ("swarm.run_ms", "ms"),
    ("swarm.arrivals_ms", "ms"),
    ("swarm.adjacency_ms", "ms"),
    ("swarm.adjacency_rebuilds", "count"),
    ("swarm.allocate_ms", "ms"),
    ("swarm.end_round_ms", "ms"),
    ("swarm.settle_ms", "ms"),
    ("swarm.dirty_scan_ms", "ms"),
    ("swarm.finalize_ms", "ms"),
    ("swarm.consensus_ms", "ms"),
    ("swarm.consensus_reports", "count"),
    ("swarm.bans", "count"),
    ("swarm.faults_ms", "ms"),
    ("swarm.identity_ms", "ms"),
    ("swarm.peers_visited", "count"),
    ("swarm.candidate_scans", "count"),
    ("swarm.productive_ratio", "ratio"),
    ("swarm.availability_rebuilds", "count"),
    ("swarm.phase_coverage_frac", "ratio"),
    ("swarm.dirty_drain_ns", "ns"),
    ("swarm.shard2_speedup", "x"),
    ("piece.pick_ms", "ms"),
    ("piece.pick_rarest_ns", "ns"),
    ("piece.min_over_ns", "ns"),
    ("core.reward_pool_accrue_ns", "ns"),
    ("core.reward_pool_close_epoch_ns", "ns"),
    ("des.events", "count"),
    ("attacks.patch_ms", "ms"),
    ("faults.compile_ms", "ms"),
    ("experiments.scenario_compile_ms", "ms"),
    ("experiments.journal_append_ms", "ms"),
    ("experiments.journal_appends", "count"),
    ("experiments.journal_record_job_us", "us"),
    ("experiments.artifact_write_ms", "ms"),
    ("experiments.worker_busy_frac", "ratio"),
    ("telemetry.recorder_overhead_frac", "ratio"),
    ("telemetry.trace_overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
];

fn parent(args: &Args) -> i32 {
    println!("# stamp {}", stamp(args));
    // One child per timed pass, so each pass's peak RSS is its own; a
    // traced run is a single child. A child that dies or hangs fails
    // every cell of its pass, and the run reports what it has.
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(RUN_LIMIT_S);
    let mut children: Vec<ChildOut> = Vec::new();
    let mut lost = ChildOut::default();
    loop {
        match spawn_child(args, deadline) {
            Ok(out) => children.push(out),
            Err(e) => {
                let cells = plan(args.workload, args.seed).cells.len() as u64;
                lost.attempted += cells;
                lost.failed += cells;
                lost.failures.push(e);
                break;
            }
        }
        let passes = children.len() as f64;
        if args.trace
            || start.elapsed().as_secs_f64() * (passes + 1.0) / passes > args.seconds as f64
        {
            break;
        }
    }
    let digest = children
        .first()
        .map_or_else(String::new, |c| c.digest.clone());
    let attempted: u64 = children.iter().map(|c| c.attempted).sum::<u64>() + lost.attempted;
    let mut failed: u64 = children.iter().map(|c| c.failed).sum::<u64>() + lost.failed;
    let mut failures: Vec<String> = children
        .iter()
        .chain([&lost])
        .flat_map(|c| c.failures.clone())
        .collect();
    if children.iter().any(|c| c.digest != digest) {
        failed += 1;
        failures.push("results differ between passes of one run".to_string());
    }
    for f in failures.iter().take(20) {
        eprintln!("check failed: {f}");
    }
    let attempted = attempted.max(1);
    let failed = failed.min(attempted);
    let value = |name: &str| -> f64 {
        if name == "cells_ok_frac" {
            return 1.0 - failed as f64 / attempted as f64;
        }
        let mut values: Vec<f64> = children
            .iter()
            .filter_map(|c| c.values.get(name).copied())
            .collect();
        median(&mut values)
    };
    println!("# result_digest {digest}");
    println!("# cells {} passes {}", value("cells"), children.len());

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && failures.is_empty()
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let mut num = String::new();
        json::write_f64(&mut num, value(name));
        let _ = write!(
            line,
            "{}\"{name}\": {{\"value\": {num}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    line.push_str("}}");
    println!("{line}");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse(&[
            "--workload",
            "flash-crowd-10k",
            "--seed",
            "7",
            "--seconds",
            "60",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(args.workload, Workload::FlashCrowd10k);
        assert_eq!(
            (args.seed, args.seconds, args.trace, args.child),
            (7, 60, true, false)
        );
    }

    #[test]
    fn rejects_bad_arguments_by_name() {
        let base = [
            "--workload",
            "churn-attack-sweep",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "0",
        ];
        assert!(parse(&base).is_ok());
        let cases: [(&[&str], &str); 4] = [
            (
                &[
                    "--workload",
                    "nope",
                    "--seed",
                    "1",
                    "--seconds",
                    "5",
                    "--trace",
                    "0",
                ],
                "unknown workload",
            ),
            (
                &[
                    "--workload",
                    "churn-attack-sweep",
                    "--seed",
                    "x",
                    "--seconds",
                    "5",
                    "--trace",
                    "0",
                ],
                "--seed",
            ),
            (
                &[
                    "--workload",
                    "churn-attack-sweep",
                    "--seed",
                    "1",
                    "--seconds",
                    "5",
                    "--trace",
                    "2",
                ],
                "--trace",
            ),
            (
                &[
                    "--workload",
                    "churn-attack-sweep",
                    "--seed",
                    "1",
                    "--seconds",
                    "5",
                ],
                "--trace is required",
            ),
        ];
        for (args, needle) in cases {
            let err = parse(args).expect_err("invalid arguments");
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn child_output_round_trips() {
        let mut out = ChildOut {
            digest: "00000000000000ff".to_string(),
            attempted: 3,
            ..ChildOut::default()
        };
        out.set("wall_s", 1.25);
        out.fail("a \"quoted\" failure".to_string());
        let back = ChildOut::parse(&out.to_json()).expect("parses");
        assert_eq!(back.values, out.values);
        assert_eq!(back.digest, out.digest);
        assert_eq!((back.attempted, back.failed), (3, 1));
        assert_eq!(back.failures, out.failures);
    }
}
