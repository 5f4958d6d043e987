//! The two workloads: the cells each one runs, how a cell is set up, the
//! timed passes over the cells, and the correctness gate every cell's
//! result goes through.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};

use coop_attacks::AttackPlan;
use coop_des::Duration;
use coop_experiments::exec::BatchRun;
use coop_experiments::journal::{fnv1a, result_to_json, sweep_artifact_id, RunHeader};
use coop_experiments::runners::fig4_scale;
use coop_experiments::scenario::{load_pack, Scenario};
use coop_experiments::{Executor, OutputDir, RunJournal, Scale, SimJob, TelemetryOpts};
use coop_faults::FaultPlan;
use coop_incentives::analysis::capacity::CapacityClassMix;
use coop_incentives::MechanismKind;
use coop_swarm::{
    flash_crowd_with, ConsensusSummary, PopulationPatch, SimResult, Simulation, SwarmConfig,
};
use coop_telemetry::{Category, ProfileReport, Profiler, Recorder, Sampling, TelemetryConfig};

use crate::trace::Tracer;

/// The benchmark's workloads (names are the `--workload` values).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Quick-scale fig4-scale cells with a 10,000-peer flash crowd.
    FlashCrowd10k,
    /// Three built-in scenario packs at paper scale over two workers.
    ChurnAttackSweep,
}

const FLASH_PEERS: usize = 10_000;
const CHURN_PACKS: [&str; 3] = [
    "mobile-churn-storm",
    "consensus-bans",
    "seeder-starved-archive",
];

/// The spans, around public calls and the correctness checks, that a
/// pass's wall time is attributed to.
pub const LAYER_SPANS: [&str; 11] = [
    "inputs.plan",
    "experiments.scenario_compile",
    "swarm.inputs",
    "attacks.apply_patch",
    "faults.compile",
    "swarm.build",
    "swarm.run",
    "check",
    "experiments.journal_create",
    "experiments.run_sims_robust",
    "experiments.artifact_write",
];

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::FlashCrowd10k, Workload::ChurnAttackSweep];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FlashCrowd10k => "flash-crowd-10k",
            Workload::ChurnAttackSweep => "churn-attack-sweep",
        }
    }

    /// Closed-loop workers the timed pass runs cells on.
    pub fn workers(self) -> usize {
        match self {
            Workload::FlashCrowd10k => 1,
            Workload::ChurnAttackSweep => 2,
        }
    }

    /// The recorder the workload's own cells carry.
    pub fn recorder(self) -> RecorderMode {
        match self {
            Workload::FlashCrowd10k => RecorderMode::Off,
            Workload::ChurnAttackSweep => RecorderMode::Telemetry,
        }
    }

    /// Piece count and population of the workload's cells, for the micro
    /// timings.
    pub fn sizes(self) -> (u32, usize) {
        match self {
            Workload::FlashCrowd10k => (
                fig4_scale::cell_config(Scale::Quick, 0).file.num_pieces(),
                FLASH_PEERS,
            ),
            Workload::ChurnAttackSweep => (
                Scale::Paper.config(0).file.num_pieces(),
                Scale::Paper.peers(),
            ),
        }
    }
}

/// Which telemetry recorder the cells' simulations carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecorderMode {
    Off,
    /// The recorder `--telemetry` attaches (every event kept).
    Telemetry,
    /// Counters only: every event category sampled out, no ring.
    Counters,
}

fn telemetry_opts() -> TelemetryOpts {
    TelemetryOpts {
        enabled: true,
        ..TelemetryOpts::disabled()
    }
}

impl RecorderMode {
    fn recorder(self) -> Recorder {
        match self {
            RecorderMode::Off => Recorder::disabled(),
            RecorderMode::Telemetry => telemetry_opts().recorder(),
            RecorderMode::Counters => Recorder::enabled(TelemetryConfig {
                probe_every: u64::MAX,
                ring_capacity: 0,
                sampling: Category::ALL
                    .iter()
                    .fold(Sampling::default(), |s, &c| s.every(c, 0)),
            }),
        }
    }
}

/// What the benchmark attaches to every cell it sets up itself.
#[derive(Clone, Copy, Debug)]
pub struct PassOpts {
    pub profiled: bool,
    pub recorder: RecorderMode,
    pub shards: usize,
}

impl PassOpts {
    pub fn of(workload: Workload) -> PassOpts {
        PassOpts {
            profiled: false,
            recorder: workload.recorder(),
            shards: 1,
        }
    }
}

/// One cell: the recipe its inputs are generated from.
#[derive(Clone, Debug)]
pub struct CellSpec {
    pub label: String,
    pub kind: MechanismKind,
    pub config: SwarmConfig,
    pub peers: usize,
    pub mix: CapacityClassMix,
    pub attack: Option<AttackPlan>,
    pub faults: Option<FaultPlan>,
}

impl CellSpec {
    fn flash(kind: MechanismKind, config: &SwarmConfig, peers: usize) -> CellSpec {
        CellSpec {
            label: format!("{}@{peers}", kind.name()),
            kind,
            config: config.clone(),
            peers,
            mix: CapacityClassMix::paper_default(),
            attack: None,
            faults: None,
        }
    }

    /// A scenario job's cell, built exactly as the sweep executor builds
    /// it (scale config, workload population and mix overrides, attack
    /// and fault plans).
    fn from_job(pack: &str, job: &SimJob) -> CellSpec {
        CellSpec {
            label: format!("{pack}/{}@{}", job.kind.name(), job.peers()),
            kind: job.kind,
            config: job.scale.config(job.seed),
            peers: job.peers(),
            mix: job
                .workload
                .and_then(|w| w.mix)
                .map_or_else(CapacityClassMix::paper_default, |m| m.to_mix()),
            attack: job.plan,
            faults: job.faults,
        }
    }

    /// A swarm may legitimately stall only when its seeder can leave or
    /// pieces can be lost.
    fn may_stall(&self) -> bool {
        self.faults.is_some_and(|f| {
            f.seeder_exit_fraction.is_some()
                || f.seeder_failure_round.is_some()
                || f.loss_prob > 0.0
        })
    }
}

/// One scenario pack of the sweep, compiled.
pub struct PackPlan {
    pub name: String,
    pub fingerprint: u64,
    /// Each scenario with the jobs `Scenario::jobs` compiles it to.
    pub scenarios: Vec<(Scenario, Vec<SimJob>)>,
}

/// The cells of one workload, in slot order.
pub struct Plan {
    pub cells: Vec<CellSpec>,
    /// The packs the cells come from (churn-attack-sweep only), in slot
    /// order.
    pub packs: Vec<PackPlan>,
}

/// Generates the workload's cells from `seed`.
pub fn plan(workload: Workload, seed: u64) -> Plan {
    match workload {
        Workload::FlashCrowd10k => {
            let config = fig4_scale::cell_config(Scale::Quick, seed);
            let mut attacked =
                CellSpec::flash(MechanismKind::ConsensusReputation, &config, FLASH_PEERS);
            attacked.attack = Some(AttackPlan::adaptive_mix(0.2));
            Plan {
                cells: vec![
                    CellSpec::flash(MechanismKind::Reciprocity, &config, FLASH_PEERS),
                    CellSpec::flash(MechanismKind::BitTorrent, &config, FLASH_PEERS),
                    attacked,
                ],
                packs: Vec::new(),
            }
        }
        Workload::ChurnAttackSweep => {
            let packs: Vec<PackPlan> = CHURN_PACKS
                .iter()
                .map(|name| {
                    let pack = load_pack(name).expect("built-in scenario packs parse");
                    PackPlan {
                        name: name.to_string(),
                        fingerprint: pack.fingerprint(),
                        scenarios: pack
                            .scenarios
                            .into_iter()
                            .map(|s| {
                                let jobs = s.jobs(Scale::Paper, seed, 1);
                                (s, jobs)
                            })
                            .collect(),
                    }
                })
                .collect();
            let cells = packs
                .iter()
                .flat_map(|p| {
                    p.scenarios.iter().flat_map(|(_, jobs)| {
                        jobs.iter().map(|job| CellSpec::from_job(&p.name, job))
                    })
                })
                .collect();
            Plan { cells, packs }
        }
    }
}

/// The cell the shard comparison reruns: the workload's first
/// BitTorrent cell.
pub fn shard_cell(plan: &Plan) -> usize {
    plan.cells
        .iter()
        .position(|c| c.kind == MechanismKind::BitTorrent)
        .expect("every workload has a BitTorrent cell")
}

/// Runs `f`, turning a panic into an error that names `label`.
pub fn guarded<T>(label: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let text = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        format!("{label}: panicked: {text}")
    })
}

/// Generates one cell's inputs and builds its simulation, one span per
/// public call. A panic in any of them is returned as an error.
pub fn setup_cell(
    spec: &CellSpec,
    slot: usize,
    opts: PassOpts,
    tracer: &Tracer,
    parent: usize,
) -> Result<Simulation, String> {
    guarded(&spec.label, || build_cell(spec, slot, opts, tracer, parent)).and_then(|r| r)
}

fn build_cell(
    spec: &CellSpec,
    slot: usize,
    opts: PassOpts,
    tracer: &Tracer,
    parent: usize,
) -> Result<Simulation, String> {
    let cell = Some(slot);
    let seed = spec.config.seed;
    let (mut population, _) = tracer.time("swarm.inputs", cell, Some(parent), || {
        flash_crowd_with(
            &spec.config,
            spec.peers,
            spec.kind,
            seed,
            &spec.mix,
            Duration::from_secs(10),
        )
    });
    if let Some(plan) = &spec.attack {
        tracer.time("attacks.apply_patch", cell, Some(parent), || {
            plan.apply_patch(&mut population, seed)
        });
    }
    let schedule = spec.faults.map(|plan| {
        tracer
            .time("faults.compile", cell, Some(parent), || {
                plan.compile(&mut population, &spec.config)
            })
            .0
    });
    let mut builder = Simulation::builder(spec.config.clone())
        .population(population)
        .recorder(opts.recorder.recorder())
        .shards(opts.shards);
    if let Some(schedule) = schedule {
        builder = builder.fault_schedule(schedule);
    }
    if opts.profiled {
        builder = builder.profiler(Profiler::enabled());
    }
    tracer
        .time("swarm.build", cell, Some(parent), || builder.build())
        .0
        .map_err(|e| format!("{}: build failed: {e}", spec.label))
}

/// One cell's outcome in a pass.
#[derive(Debug, Default)]
pub struct CellOut {
    pub label: String,
    /// The `cell` span this run's spans hang under (cells the benchmark
    /// ran itself).
    pub span: Option<usize>,
    pub rounds: u64,
    /// `journal::result_to_json` of the result (empty when it failed).
    pub json: String,
    /// Run time: `Simulation::run` for cells the benchmark set up itself,
    /// the executor's job wall time for the sweep's cells.
    pub run_ns: u64,
    pub peer_rounds: f64,
    pub failures: Vec<String>,
    pub profile: ProfileReport,
    pub counters: Vec<(String, u64)>,
    pub consensus: Option<ConsensusSummary>,
}

impl CellOut {
    fn new(spec: &CellSpec) -> CellOut {
        CellOut {
            label: spec.label.clone(),
            ..CellOut::default()
        }
    }

    /// Checks `result` and keeps what the report needs of it.
    fn record(&mut self, spec: &CellSpec, result: &SimResult) {
        match guarded(&spec.label, || check(spec, result)) {
            Ok(failures) => self.failures.extend(failures),
            Err(e) => self.failures.push(e),
        }
        self.json = result_to_json(result);
        self.peer_rounds = peer_rounds(result);
        self.rounds = result.rounds_run;
        self.consensus = result.consensus;
    }
}

/// One timed pass: set-up, then the cells run.
pub struct PassOut {
    pub root: usize,
    /// This pass's (or variant's) set-up block span.
    pub setup: usize,
    /// The `timed` block's wall time (shared by the variants of a pass).
    pub wall_ns: u64,
    pub cells: Vec<CellOut>,
    /// Journal append + fsync nanoseconds the executor reported, and the
    /// number of appends (the sweep only).
    pub journal_ns: u64,
    pub journal_appends: usize,
}

impl PassOut {
    /// FNV-1a over every cell's serialized result, in slot order.
    pub fn digest(&self) -> u64 {
        let all: String = self.cells.iter().map(|c| c.json.as_str()).collect();
        fnv1a(all.as_bytes())
    }

    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| !c.failures.is_empty()).count()
    }
}

/// The workload's own timed pass: the flash crowd as the benchmark sets
/// it up, the sweep through the program's executor.
pub fn own_pass(workload: Workload, seed: u64, tracer: &Tracer, scratch: &Path) -> PassOut {
    match workload {
        Workload::FlashCrowd10k => run_pass(workload, seed, &[PassOpts::of(workload)], tracer)
            .pop()
            .expect("one pass per variant"),
        Workload::ChurnAttackSweep => run_sweep(seed, tracer, scratch),
    }
}

/// A set-up cell waiting for the worker that takes it.
type BuiltCell = Mutex<Option<Result<Simulation, String>>>;

/// Sets up every cell of `workload` once per variant, then runs them on
/// the workload's workers. The variants of one cell run back to back, so
/// comparisons between them see the same machine state. Returns one
/// [`PassOut`] per variant; they share the `pass` root and `timed` block
/// spans.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    variants: &[PassOpts],
    tracer: &Tracer,
) -> Vec<PassOut> {
    let root = tracer.open("pass", None, None);
    let plan_span = match workload {
        Workload::ChurnAttackSweep => "experiments.scenario_compile",
        Workload::FlashCrowd10k => "inputs.plan",
    };
    let mut plan_once = None;
    let mut setups = Vec::new();
    let mut sims: Vec<Vec<BuiltCell>> = Vec::new();
    for &opts in variants {
        let setup = tracer.open("setup", None, Some(root));
        let plan = plan_once.get_or_insert_with(|| {
            tracer
                .time(plan_span, None, Some(setup), || plan(workload, seed))
                .0
        });
        sims.push(
            plan.cells
                .iter()
                .enumerate()
                .map(|(slot, spec)| Mutex::new(Some(setup_cell(spec, slot, opts, tracer, setup))))
                .collect(),
        );
        tracer.close(setup);
        setups.push(setup);
    }
    let plan = plan_once.expect("at least one variant");

    let timed = tracer.open("timed", None, Some(root));
    let slots: Vec<usize> = (0..plan.cells.len()).collect();
    let outs = Executor::new(workload.workers()).map(&slots, |_, &slot| {
        sims.iter()
            .map(|variant| {
                let sim = variant[slot]
                    .lock()
                    .map_err(|_| "cell lock poisoned".to_string())
                    .and_then(|mut s| s.take().ok_or_else(|| "cell already taken".to_string()))
                    .and_then(|r| r);
                run_cell(&plan.cells[slot], sim, slot, tracer, timed)
            })
            .collect::<Vec<_>>()
    });
    let mut per_variant: Vec<Vec<CellOut>> = variants.iter().map(|_| Vec::new()).collect();
    for cell in outs {
        for (v, out) in cell.into_iter().enumerate() {
            per_variant[v].push(out);
        }
    }
    let wall_ns = tracer.close(timed);
    tracer.close(root);
    setups
        .into_iter()
        .zip(per_variant)
        .map(|(setup, cells)| PassOut {
            root,
            setup,
            wall_ns,
            cells,
            journal_ns: 0,
            journal_appends: 0,
        })
        .collect()
}

/// Runs one built cell and checks its result. A panic anywhere in it
/// counts as the cell's failure.
fn run_cell(
    spec: &CellSpec,
    sim: Result<Simulation, String>,
    slot: usize,
    tracer: &Tracer,
    parent: usize,
) -> CellOut {
    let cell = Some(slot);
    let span = tracer.open("cell", cell, Some(parent));
    let mut out = CellOut {
        span: Some(span),
        ..CellOut::new(spec)
    };
    let ran = sim.and_then(|sim| {
        guarded(&spec.label, || {
            let ((result, report, profile), run_ns) =
                tracer.time("swarm.run", cell, Some(span), || sim.run_profiled());
            out.run_ns = run_ns;
            tracer.time("check", cell, Some(span), || out.record(spec, &result));
            out.profile = profile;
            out.counters = report.counters;
        })
    });
    if let Err(e) = ran {
        out.failures.push(e);
    }
    tracer.close(span);
    out
}

/// The sweep as `coop-experiments sweep <pack> --scale paper --jobs 2
/// --telemetry` runs it, one pack after another: a `RunJournal` per pack,
/// each scenario's jobs through `Executor::run_sims_robust`, then the
/// scenario's round-probe CSV and `manifest.json`, and the journal's
/// artifact hashes. Every cell's result is checked after its batch.
pub fn run_sweep(seed: u64, tracer: &Tracer, scratch: &Path) -> PassOut {
    let root = tracer.open("pass", None, None);
    let setup = tracer.open("setup", None, Some(root));
    let (plan, _) = tracer.time("experiments.scenario_compile", None, Some(setup), || {
        plan(Workload::ChurnAttackSweep, seed)
    });
    tracer.close(setup);

    let timed = tracer.open("timed", None, Some(root));
    let opts = telemetry_opts();
    let workers = Workload::ChurnAttackSweep.workers();
    let mut cells = Vec::with_capacity(plan.cells.len());
    let mut journal_ns = 0;
    let mut journal_appends = 0;
    for pack in &plan.packs {
        let dir = scratch.join(&pack.name);
        let header = RunHeader {
            artifact: sweep_artifact_id(pack.fingerprint),
            scale: Scale::Paper.name().to_string(),
            seed,
            replicates: 1,
        };
        let (journal, _) = tracer.time("experiments.journal_create", None, Some(timed), || {
            RunJournal::create(&dir, &header)
        });
        let journal = journal.map(Arc::new);
        let out = OutputDir::new(&dir);
        for (scenario, jobs) in &pack.scenarios {
            let specs = &plan.cells[cells.len()..cells.len() + jobs.len()];
            let journal = match &journal {
                Ok(journal) => Arc::clone(journal),
                Err(e) => {
                    cells.extend(specs.iter().map(|spec| CellOut {
                        failures: vec![format!("{}: journal not created: {e}", spec.label)],
                        ..CellOut::new(spec)
                    }));
                    continue;
                }
            };
            let executor = Executor::new(workers).with_journal(journal);
            let (run, sim_ns) =
                tracer.time("experiments.run_sims_robust", None, Some(timed), || {
                    executor.run_sims_robust(jobs, &opts)
                });
            let (mut batch, _) =
                tracer.time("check", None, Some(timed), || check_batch(specs, &run));
            journal_appends += jobs.len();
            if let Some(mut trace) = run.trace {
                journal_ns += trace.journal_fsync_ns;
                tracer
                    .time("experiments.artifact_write", None, Some(timed), || {
                        trace.scenario = Some((scenario.name.clone(), scenario.fingerprint()));
                        trace.push_phase("simulate", sim_ns / 1_000_000);
                        let csv = trace.write_probe_csv(&out, &scenario.figure).map(|_| ());
                        let manifest = trace
                            .manifest(
                                &scenario.figure,
                                Scale::Paper,
                                seed,
                                1,
                                workers as u64,
                                &scenario.attack.label(),
                            )
                            .write_to(&dir)
                            .map(|_| ());
                        csv.and(manifest)
                    })
                    .0
                    .unwrap_or_else(|e| {
                        (batch.first_mut().expect("scenarios have jobs").failures)
                            .push(format!("{}: artifact write failed: {e}", scenario.name));
                    });
            }
            cells.extend(batch);
        }
        if let Ok(journal) = &journal {
            let (hashed, _) = tracer.time("experiments.artifact_write", None, Some(timed), || {
                journal.record_artifact_dir(&dir)
            });
            if let (Err(e), Some(last)) = (hashed, cells.last_mut()) {
                last.failures
                    .push(format!("{}: artifact hashes not journaled: {e}", pack.name));
            }
        }
    }
    let wall_ns = tracer.close(timed);
    tracer.time("cleanup", None, Some(root), || {
        let _ = std::fs::remove_dir_all(scratch);
    });
    tracer.close(root);
    PassOut {
        root,
        setup,
        wall_ns,
        cells,
        journal_ns,
        journal_appends,
    }
}

/// One scenario batch's cells: each result checked, each failed job's
/// failure kept.
fn check_batch(specs: &[CellSpec], run: &BatchRun) -> Vec<CellOut> {
    let mut cells: Vec<CellOut> = specs.iter().map(CellOut::new).collect();
    for (slot, result) in run.results.iter().enumerate() {
        if let Some(result) = result {
            cells[slot].record(&specs[slot], result);
        }
    }
    for failure in &run.failures {
        cells[failure.slot].failures.push(format!(
            "{}: {}: {}",
            specs[failure.slot].label,
            failure.kind.name(),
            failure.message
        ));
    }
    for job in run.trace.iter().flat_map(|t| &t.jobs) {
        cells[job.slot].run_ns = job.wall_ms * 1_000_000;
    }
    cells
}

/// Peer-rounds present: each identity counts from its arrival to its
/// completion or the end of the run.
pub fn peer_rounds(r: &SimResult) -> f64 {
    if r.rounds_run == 0 {
        return 0.0;
    }
    let round_s = r.sim_seconds / r.rounds_run as f64;
    let end = r.sim_seconds;
    r.peers
        .iter()
        .map(|p| {
            let until = p.completion_s.map_or(end, |c| (p.arrival_s + c).min(end));
            (until - p.arrival_s).max(0.0)
        })
        .sum::<f64>()
        / round_s
}

/// The correctness gate: every violated property, named.
pub fn check(spec: &CellSpec, r: &SimResult) -> Vec<String> {
    let mut failures = Vec::new();
    let label = &spec.label;
    let sent = r.peers.iter().map(|p| p.bytes_sent).sum::<u64>() + r.totals.uploaded_seeder;
    let received: u64 = r.peers.iter().map(|p| p.bytes_received_raw).sum();
    let dropped = r.totals.fault_dropped_bytes;
    if sent != received + dropped {
        failures.push(format!(
            "{label}: byte conservation: sent {sent} != received {received} + dropped {dropped}"
        ));
    }
    if r.totals.uploaded_total() != sent {
        failures.push(format!(
            "{label}: uploaded_total {} != sent {sent}",
            r.totals.uploaded_total()
        ));
    }
    if r.peers
        .iter()
        .any(|p| p.bytes_received_usable > p.bytes_received_raw)
    {
        failures.push(format!("{label}: usable bytes exceed raw bytes"));
    }
    let mut fractions = vec![
        ("completed_fraction", r.completed_fraction()),
        ("bootstrapped_fraction", r.bootstrapped_fraction()),
        ("final_susceptibility", r.final_susceptibility()),
    ];
    for (name, series) in [
        ("completed_frac", &r.completed_frac),
        ("bootstrapped_frac", &r.bootstrapped_frac),
        ("susceptibility", &r.susceptibility),
    ] {
        fractions.extend(series.points().iter().map(|&(_, v)| (name, v)));
    }
    if let Some((name, v)) = fractions.iter().find(|(_, v)| !(0.0..=1.0).contains(v)) {
        failures.push(format!("{label}: {name} = {v} outside [0, 1]"));
    }
    // Normalized entropy is a ratio of two float sums: an even
    // distribution can land a few ulps above 1.
    if let Some(&(_, v)) = r
        .diversity
        .points()
        .iter()
        .find(|(_, v)| !(0.0..=1.0 + 1e-9).contains(v))
    {
        failures.push(format!("{label}: diversity = {v} outside [0, 1]"));
    }
    // Lemma 2: under pure reciprocity no peer ever uploads to another, so
    // only the seeder moves bytes. In a flash crowd (no fault plan) the
    // seeder alone cannot finish anyone within the horizon; a trickle of
    // arrivals lets it finish a few peers by itself.
    if spec.kind == MechanismKind::Reciprocity {
        let peer_bytes = r.totals.uploaded_compliant + r.totals.uploaded_freeriders;
        if peer_bytes != 0 {
            failures.push(format!(
                "{label}: Reciprocity peers uploaded {peer_bytes} bytes (Lemma 2 says none)"
            ));
        }
        if spec.faults.is_none() && r.completed_count() != 0 {
            failures.push(format!(
                "{label}: {} Reciprocity peers completed in a flash crowd (Lemma 2 says none)",
                r.completed_count()
            ));
        }
    }
    if r.stalled && !spec.may_stall() {
        failures.push(format!(
            "{label}: stalled without a seeder-exit or loss fault"
        ));
    }
    failures
}
