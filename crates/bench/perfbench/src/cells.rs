//! The four benchmark workloads, each as one repetition ("rep") that builds its inputs from
//! the seed, simulates them, and checks every run.
//!
//! A rep runs in one of two modes. [`Mode::Plain`] goes through the public harness entry
//! points with nothing attached but a first-poll marker, and is what the end-to-end metrics
//! time. [`Mode::Traced`] runs the same inputs with timing taps at every layer boundary (see
//! [`crate::taps`]) and yields the per-layer breakdown.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use tis_analyze::{analyze_program, detect_races, GraphSpec};
use tis_bench::{
    figure7_paper_values, figure7_workloads, geomean_ratio, Harness, Platform, PlatformResult,
    WorkloadResult,
};
use tis_exp::{StreamingSynth, SynthFamily, SynthSpec};
use tis_machine::{EngineError, ExecutionReport, MachineConfig, MemoryModel};
use tis_obs::{ObsConfig, Recorder};
use tis_sim::SimRng;
use tis_taskmodel::{
    ArrivalProcess, MaterializedSource, TaskProgram, TaskSource, TenantRunData, TenantSet,
    TenantTrackerPolicy,
};
use tis_workloads::{entry_for_cores, paper_catalog_for_cores};

use crate::exec::{fabric_layer, run_tapped};
use crate::gate::{Gate, RunChecks};
use crate::taps::{FirstPoll, Layer, SharedTally, SourceLayer, Tally, TapSource};

/// A benchmark workload (see `BENCHMARK.json` and the README for why each was chosen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A streamed dependence chain on Phentos, profiling only: engine loop, polling, fabric.
    ChainStream,
    /// A streamed windowed Erdős–Rényi graph on Phentos: generation and windowed preflight.
    ErStream,
    /// Figure 7 and part of Figure 9 on the materialized path, every run validated and
    /// race-checked.
    PaperRepro,
    /// Four streamed tenants on a 32-core contended directory mesh, observed and exported.
    TenantsMesh,
}

impl Workload {
    /// Every workload: the profiling-only chain, then `BENCHMARK.json`'s in its order.
    pub const ALL: [Workload; 4] = [
        Workload::ChainStream,
        Workload::ErStream,
        Workload::PaperRepro,
        Workload::TenantsMesh,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChainStream => "chain-stream",
            Workload::ErStream => "er-stream",
            Workload::PaperRepro => "paper-repro",
            Workload::TenantsMesh => "tenants-mesh",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the seed changes the inputs. `paper-repro` runs the paper's fixed inputs.
    pub fn seeded(self) -> bool {
        self != Workload::PaperRepro
    }
}

/// How a rep is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Public harness entry points; only the first-poll marker attached.
    Plain,
    /// Every layer boundary tapped.
    Traced,
}

/// Stream sizes per rep. Host interference on a shared machine comes in bursts, and the
/// fastest of many short reps is the one that escapes it best, so reps are kept short
/// (about a tenth of a second or less). Per-task work is flat along a stream, so per-task
/// rates and counts do not depend on the length.
const CHAIN_TASKS: usize = 10_000;
const CHAIN_WINDOW: usize = 1_024;
const ER_TASKS: usize = 20_000;
const ER_WINDOW_TASKS: usize = 4_096;
/// Tasks per tenant; the residency window per tenant stream.
const TENANT_TASKS: usize = 1_000;
const TENANT_WINDOW: usize = 1_024;
const TENANT_CORES: usize = 32;
/// Figure 7 microbenchmark length, as the `fig07_lifetime_overhead` bench runs it.
const FIG7_TASKS: usize = 150;
/// Cores of the paper's prototype, for which `paper_catalog` sizes the Figure 9 inputs.
const PAPER_CORES: usize = 8;
/// The Figure 9 inputs of a timed `paper-repro` rep: one per benchmark, each a few to
/// twenty milliseconds of host time per platform. The whole catalog takes about a second,
/// too long a rep to escape host interference (see the README).
const FIG9_TIMED: [(&str, &str); 5] = [
    ("blackscholes", "4K B64"),
    ("jacobi", "N128 B1"),
    ("sparselu", "N32 M4"),
    ("stream-barr", "16x16"),
    ("stream-deps", "16x16"),
];
/// The paper's three Figure 9 headline geomeans: RV/SW, Phentos/SW, Phentos/RV.
const FIG9_PAPER: [f64; 3] = [2.13, 13.19, 6.20];

/// Everything one rep measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds from the rep's start to its first simulated cycle.
    pub setup_s: f64,
    /// Host seconds from the first simulated cycle to the end of the rep's work.
    pub run_s: f64,
    /// Host seconds of each simulated run, checks included, in run order. Runs are the
    /// units of identical work across the reps of one seed.
    pub run_secs: Vec<f64>,
    /// Tasks retired over every simulated run of the rep.
    pub tasks: u64,
    /// Makespan of each simulated run, in order (`None` where the engine failed): the
    /// repeat-determinism fingerprint.
    pub cycles: Vec<Option<u64>>,
    /// Every run's report, kept for the trace-purity comparison.
    pub reports: Vec<Option<ExecutionReport>>,
    /// `(fig7_err_pct, fig9_err_pct)` (the full Figure 7 and 9 pass only).
    pub fidelity: Option<(f64, f64)>,
    /// Per-layer figures (traced reps only).
    pub layers: Option<Layers>,
}

impl Rep {
    /// Appends one run's report (`None` if the engine failed) and host seconds.
    fn push(&mut self, report: Option<ExecutionReport>, secs: f64) {
        self.run_secs.push(secs);
        if let Some(r) = &report {
            self.tasks += r.tasks_retired;
        }
        self.cycles.push(report.as_ref().map(|r| r.total_cycles));
        self.reports.push(report);
    }
}

/// The per-layer breakdown of one traced rep.
#[derive(Debug, Default)]
pub struct Layers {
    /// What the taps gathered.
    pub tally: Tally,
    /// Host seconds inside the engine entry points (`run_machine*`), summed over runs.
    pub engine_s: f64,
    /// Host seconds in `ExecutionReport::validate_against`.
    pub validate_s: f64,
    /// Host seconds in `analyze_program` preflight.
    pub preflight_s: f64,
    /// Host seconds in `detect_races`, including building its graph.
    pub race_s: f64,
    /// Conflicting pairs the race detector checked.
    pub race_pairs: u64,
    /// Host seconds generating the workload programs.
    pub gen_s: f64,
    /// Host seconds rendering the Perfetto and metrics documents.
    pub export_s: f64,
    /// Observed minus unobserved host seconds of the same cell.
    pub record_s: f64,
    /// Size of the rendered Perfetto trace in bytes.
    pub trace_bytes: u64,
    /// Task spans the recorder kept.
    pub spans: u64,
    /// Summed report figures.
    pub sums: ReportSums,
}

/// Report figures summed over a rep's runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReportSums {
    /// Makespans.
    pub sim_cycles: u64,
    /// Idle cycles over all cores.
    pub idle_cycles: u64,
    /// Accounted cycles over all cores.
    pub core_cycles: u64,
    /// Dispatches and failed fetches on tightly-integrated fabrics.
    pub tis_dispatched: u64,
    /// Failed fetches on tightly-integrated fabrics.
    pub tis_fetch_failures: u64,
    /// Accepted and refused submissions on tightly-integrated fabrics.
    pub tis_submitted: u64,
    /// Refused submissions on tightly-integrated fabrics.
    pub tis_submit_failures: u64,
    /// Memory accesses.
    pub mem_accesses: u64,
    /// Memory stall cycles.
    pub mem_stall_cycles: u64,
    /// NoC messages.
    pub noc_messages: u64,
    /// NoC link-wait cycles.
    pub noc_link_wait_cycles: u64,
}

impl ReportSums {
    fn add(&mut self, platform: Platform, r: &ExecutionReport) {
        self.sim_cycles += r.total_cycles;
        for s in &r.core_stats {
            self.idle_cycles += s.idle_cycles;
            self.core_cycles += s.total_cycles();
        }
        if fabric_layer(platform) == Layer::Core {
            self.tis_dispatched += r.fabric_stats.tasks_dispatched;
            self.tis_fetch_failures += r.fabric_stats.fetch_failures;
            self.tis_submitted += r.fabric_stats.tasks_submitted;
            self.tis_submit_failures += r.fabric_stats.submission_failures;
        }
        let m = &r.memory_stats;
        self.mem_accesses += m.accesses;
        self.mem_stall_cycles += m.stall_cycles;
        self.noc_messages += m.noc_messages;
        self.noc_link_wait_cycles += m.noc_link_wait_cycles;
    }
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn engine_failure(e: &EngineError) -> String {
    format!("engine error: {e}")
}

/// Checks that make a run comparable with the same run of an earlier rep.
fn check_against(
    checks: &mut RunChecks,
    reference: Option<&Rep>,
    mode: Mode,
    k: usize,
    report: &ExecutionReport,
) {
    let Some(reference) = reference else { return };
    let expected = reference.cycles.get(k).copied().flatten();
    checks.check(
        "repeat-cycles",
        expected == Some(report.total_cycles),
        || {
            format!(
                "makespan {} cycles, the same run of an earlier rep took {expected:?}",
                report.total_cycles
            )
        },
    );
    if mode == Mode::Traced {
        checks.check(
            "trace-is-pure",
            reference.reports.get(k).and_then(Option::as_ref) == Some(report),
            || "the traced report differs from the untraced one".to_string(),
        );
    }
}

/// Runs one rep of `workload`. Each run is checked on its own and, when `reference` is an
/// earlier rep of the same workload and seed, against the same run there: makespans must
/// repeat exactly, and a traced run's report must equal the untraced one.
pub fn run_rep(
    workload: Workload,
    seed: u64,
    mode: Mode,
    reference: Option<&Rep>,
    gate: &mut Gate,
) -> Rep {
    match workload {
        Workload::ChainStream => stream_rep(
            SynthSpec {
                family: SynthFamily::Chain,
                tasks: CHAIN_TASKS,
                task_cycles: 500,
                jitter: 0.25,
            },
            CHAIN_WINDOW,
            seed,
            mode,
            reference,
            gate,
        ),
        Workload::ErStream => stream_rep(
            SynthSpec {
                family: SynthFamily::ErdosRenyi { density: 0.05 },
                tasks: ER_TASKS,
                task_cycles: 2_000,
                jitter: 0.25,
            },
            ER_WINDOW_TASKS,
            seed,
            mode,
            reference,
            gate,
        ),
        Workload::PaperRepro => paper_rep(PaperScope::Timed, mode, reference, gate),
        Workload::TenantsMesh => tenants_rep(seed, mode, reference, gate),
    }
}

/// A fresh first-poll marker.
fn stamp() -> Rc<Cell<Option<Instant>>> {
    Rc::new(Cell::new(None))
}

fn new_tally() -> SharedTally {
    Rc::new(RefCell::new(Tally::default()))
}

/// One streamed cell on the paper's 8-core prototype, records off.
fn stream_rep(
    spec: SynthSpec,
    window: usize,
    seed: u64,
    mode: Mode,
    reference: Option<&Rep>,
    gate: &mut Gate,
) -> Rep {
    let t0 = Instant::now();
    let harness = Harness::paper_prototype();
    let source = StreamingSynth::new(spec, window, SimRng::new(seed));
    let mut rep = Rep::default();
    let mut layers = Layers::default();
    let result = match mode {
        Mode::Plain => {
            let first = stamp();
            let result = harness.run_source(
                Platform::Phentos,
                Box::new(FirstPoll::new(source, first.clone())),
                false,
            );
            rep.setup_s = first.get().map_or(0.0, |t| (t - t0).as_secs_f64());
            rep.run_s = secs_since(t0) - rep.setup_s;
            result
        }
        Mode::Traced => {
            let tally = new_tally();
            let tapped = TapSource::new(source, SourceLayer::Exp, tally.clone());
            let t_run = Instant::now();
            let result = run_tapped(
                &harness,
                Platform::Phentos,
                Box::new(tapped),
                false,
                None,
                &tally,
            )
            .map(|(report, _)| report);
            rep.run_s = secs_since(t_run);
            layers.engine_s = rep.run_s;
            layers.tally = tally.borrow().clone();
            result
        }
    };
    let mut checks = RunChecks::new(spec.name());
    match result {
        Ok(report) => {
            checks.check(
                "retired-equals-generated",
                report.tasks_retired == spec.tasks as u64,
                || {
                    format!(
                        "retired {} of {} generated tasks",
                        report.tasks_retired, spec.tasks
                    )
                },
            );
            checks.check(
                "resident-within-window",
                report.peak_resident_tasks <= window as u64,
                || {
                    format!(
                        "peak resident {} exceeds the {window}-task window",
                        report.peak_resident_tasks
                    )
                },
            );
            check_against(&mut checks, reference, mode, 0, &report);
            layers.sums.add(Platform::Phentos, &report);
            rep.push(Some(report), rep.run_s);
        }
        Err(e) => {
            checks.check("completes", false, || engine_failure(&e));
            rep.push(None, rep.run_s);
        }
    }
    gate.record(checks);
    if mode == Mode::Traced {
        rep.layers = Some(layers);
    }
    rep
}

/// How much of Figure 9 a paper rep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PaperScope {
    /// The [`FIG9_TIMED`] inputs: a timed `paper-repro` rep.
    Timed,
    /// The whole catalog: the fidelity pass.
    Full,
}

/// Figures 7 and 9 in full, once, untraced: the rep whose `fidelity` holds the Figure 7
/// and Figure 9 errors. Its runs are checked like any other.
pub fn fidelity_rep(gate: &mut Gate) -> Rep {
    paper_rep(PaperScope::Full, Mode::Plain, None, gate)
}

/// Figure 7 and the `scope` part of Figure 9 on the materialized path. Every run is
/// preflighted (at generation), validated against its program and race-checked, as a
/// sweep cell is.
fn paper_rep(scope: PaperScope, mode: Mode, reference: Option<&Rep>, gate: &mut Gate) -> Rep {
    let t0 = Instant::now();
    let mut layers = Layers::default();
    let fig7 = figure7_workloads(FIG7_TASKS);
    let catalog = match scope {
        PaperScope::Full => paper_catalog_for_cores(PAPER_CORES),
        PaperScope::Timed => FIG9_TIMED
            .iter()
            .map(|&(benchmark, input)| {
                entry_for_cores(benchmark, input, PAPER_CORES)
                    .unwrap_or_else(|| panic!("no catalog entry {benchmark} {input}"))
            })
            .collect(),
    };
    layers.gen_s = secs_since(t0);
    let t_pre = Instant::now();
    let preflight = |p: &TaskProgram| analyze_program(p).err().map(|e| e.to_string());
    let fig7_preflight: Vec<Option<String>> = fig7.iter().map(|(_, p)| preflight(p)).collect();
    let catalog_preflight: Vec<Option<String>> =
        catalog.iter().map(|w| preflight(&w.program)).collect();
    layers.preflight_s = secs_since(t_pre);

    let harness = Harness::paper_prototype();
    let single_core = Harness {
        machine: MachineConfig {
            cores: 1,
            ..harness.machine
        },
        ..harness.clone()
    };
    let mut rep = Rep {
        setup_s: secs_since(t0),
        ..Rep::default()
    };
    let t_run = Instant::now();
    let tally = new_tally();

    // Runs a program on a platform, checks it, and returns its report if it completed.
    let mut run = |h: &Harness,
                   platform: Platform,
                   program: &TaskProgram,
                   unsound: &Option<String>,
                   rep: &mut Rep| {
        let t_engine = Instant::now();
        let result = match mode {
            Mode::Plain => h.run(platform, program),
            Mode::Traced => run_tapped(
                h,
                platform,
                Box::new(MaterializedSource::new(program)),
                true,
                None,
                &tally,
            )
            .map(|(report, _)| report),
        };
        layers.engine_s += secs_since(t_engine);
        let mut checks = RunChecks::new(format!("{} on {}", program.name(), platform.label()));
        checks.check("preflight", unsound.is_none(), || {
            unsound.clone().unwrap_or_default()
        });
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                checks.check("completes", false, || engine_failure(&e));
                gate.record(checks);
                rep.push(None, secs_since(t_engine));
                return None;
            }
        };
        let expected = program.task_count() as u64;
        checks.check(
            "retired-equals-generated",
            report.tasks_retired == expected,
            || format!("retired {} of {expected} tasks", report.tasks_retired),
        );
        let t_val = Instant::now();
        let valid = report.validate_against(program);
        layers.validate_s += secs_since(t_val);
        checks.check("schedule-valid", valid.is_ok(), || {
            format!("{:?}", valid.as_ref().err())
        });
        let t_race = Instant::now();
        let races = detect_races(&GraphSpec::from_program(program), &report.records);
        layers.race_s += secs_since(t_race);
        layers.race_pairs += races.pairs_checked as u64;
        checks.check("race-free", races.is_race_free(), || {
            format!(
                "{} of {} conflicting pairs unordered",
                races.races.len(),
                races.pairs_checked
            )
        });
        check_against(&mut checks, reference, mode, rep.cycles.len(), &report);
        gate.record(checks);
        layers.sums.add(platform, &report);
        let out = (report.total_cycles, report.tasks_retired);
        rep.push(Some(report), secs_since(t_engine));
        Some(out)
    };

    let mut fig7_err = Vec::new();
    for platform in Platform::ALL {
        let paper = figure7_paper_values(platform);
        for (i, (_, program)) in fig7.iter().enumerate() {
            if let Some((cycles, tasks)) = run(
                &single_core,
                platform,
                program,
                &fig7_preflight[i],
                &mut rep,
            ) {
                let measured = cycles as f64 / tasks.max(1) as f64;
                fig7_err.push((measured - paper[i]).abs() / paper[i]);
            }
        }
    }
    let mut results = Vec::new();
    for (w, unsound) in catalog.iter().zip(&catalog_preflight) {
        let serial = harness.serial_cycles(&w.program);
        let mut platforms = Vec::new();
        for platform in Platform::FIGURE9 {
            if let Some((cycles, _)) = run(&harness, platform, &w.program, unsound, &mut rep) {
                let speedup = if cycles == 0 {
                    0.0
                } else {
                    serial as f64 / cycles as f64
                };
                platforms.push(PlatformResult {
                    platform,
                    cycles,
                    speedup_vs_serial: speedup,
                });
            }
        }
        results.push(WorkloadResult {
            benchmark: w.benchmark,
            input: w.input.clone(),
            mean_task_cycles: 0.0,
            serial_cycles: serial,
            platforms,
        });
    }
    rep.run_s = secs_since(t_run);
    let geomeans = [
        geomean_ratio(&results, Platform::NanosRv, Platform::NanosSw),
        geomean_ratio(&results, Platform::Phentos, Platform::NanosSw),
        geomean_ratio(&results, Platform::Phentos, Platform::NanosRv),
    ];
    let fig9_err: Vec<f64> = geomeans
        .iter()
        .zip(FIG9_PAPER)
        .map(|(g, paper)| g.map_or(1.0, |g| (g - paper).abs() / paper))
        .collect();
    if scope == PaperScope::Full {
        rep.fidelity = Some((mean(&fig7_err) * 100.0, mean(&fig9_err) * 100.0));
    }
    if mode == Mode::Traced {
        layers.tally = tally.borrow().clone();
        rep.layers = Some(layers);
    }
    rep
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The tenant scenario: one Poisson ER victim and three bursty fork-join antagonists, each a
/// streamed source, on a partitioned tracker. `wrap` taps each tenant's stream.
fn tenant_set(
    seed: u64,
    harness: &Harness,
    wrap: &mut dyn FnMut(StreamingSynth) -> Box<dyn TaskSource>,
) -> TenantSet {
    let root = SimRng::new(seed);
    let policy = TenantTrackerPolicy::Partitioned {
        per_tenant_entries: harness.tis.picos.tracker.per_tenant_entries(4),
    };
    let victim = SynthSpec {
        family: SynthFamily::ErdosRenyi { density: 0.05 },
        tasks: TENANT_TASKS,
        task_cycles: 2_000,
        jitter: 0.25,
    };
    let antagonist = SynthSpec {
        family: SynthFamily::ForkJoin { width: 32 },
        tasks: TENANT_TASKS,
        task_cycles: 2_000,
        jitter: 0.25,
    };
    let mut set = TenantSet::new().with_policy(policy).tenant(
        "victim",
        wrap(StreamingSynth::new(
            victim,
            TENANT_WINDOW,
            root.stream("tenant", 0),
        )),
        ArrivalProcess::Poisson {
            mean_interarrival: 400,
        },
    );
    for t in 1..4u64 {
        set = set.tenant(
            format!("antagonist{t}"),
            wrap(StreamingSynth::new(
                antagonist,
                TENANT_WINDOW,
                root.stream("tenant", t),
            )),
            ArrivalProcess::Bursty {
                burst: 96,
                period: 40_000,
            },
        );
    }
    set
}

fn tenant_harness() -> Harness {
    Harness::with_cores(TENANT_CORES).with_memory_model(MemoryModel::directory_mesh_contended())
}

/// The tenant cell's own checks.
fn check_tenant_run(label: &str, result: &Result<ExecutionReport, EngineError>) -> RunChecks {
    let mut checks = RunChecks::new(label);
    let expected = (TENANT_TASKS * 4) as u64;
    match result {
        Ok(report) => {
            checks.check(
                "retired-equals-generated",
                report.tasks_retired == expected,
                || format!("retired {} of {expected} tasks", report.tasks_retired),
            );
            let per_tenant: u64 = report.tenants.iter().map(|t| t.tasks).sum();
            checks.check(
                "tenant-counts-sum",
                per_tenant == report.tasks_retired,
                || {
                    format!(
                        "per-tenant counts sum to {per_tenant}, cell retired {}",
                        report.tasks_retired
                    )
                },
            );
            let window = (TENANT_WINDOW * 4) as u64;
            checks.check(
                "resident-within-window",
                report.peak_resident_tasks <= window,
                || {
                    format!(
                        "peak resident {} exceeds the {window}-task windows",
                        report.peak_resident_tasks
                    )
                },
            );
        }
        Err(e) => checks.check("completes", false, || engine_failure(e)),
    }
    checks
}

/// Renders the run's Perfetto trace (one track group per tenant) and metrics timeline.
fn export(recorder: &Recorder, data: &TenantRunData, makespan: u64) -> (String, String) {
    let label = "tenants-mesh";
    let trace = tis_obs::trace_json_tenants(
        label,
        TENANT_CORES,
        recorder.spans(),
        recorder.metrics().samples(),
        &data.names,
        &data.assignment,
    )
    .render();
    (trace, recorder.metrics_json(label, makespan).render())
}

/// The tenant cell, observed through `run_tenants(.., Some(recorder))` and exported.
fn tenants_rep(seed: u64, mode: Mode, reference: Option<&Rep>, gate: &mut Gate) -> Rep {
    let mut rep = Rep::default();
    let t0 = Instant::now();
    let harness = tenant_harness();
    let arrivals = SimRng::new(seed).stream("tenant-arrivals", 0);
    let mut layers = Layers::default();
    let (result, mut checks) = match mode {
        Mode::Plain => {
            let first = stamp();
            let set = tenant_set(seed, &harness, &mut |s| {
                Box::new(FirstPoll::new(s, first.clone()))
            });
            let mut recorder = Recorder::new(ObsConfig::default());
            let result = harness.run_tenants(
                Platform::Phentos,
                set.into_source(arrivals),
                false,
                Some(&mut recorder),
            );
            rep.setup_s = first.get().map_or(0.0, |t| (t - t0).as_secs_f64());
            let (report, data) = split(result);
            let checks = check_tenant_run("tenants-mesh", &report);
            if let Ok(r) = &report {
                std::hint::black_box(export(&recorder, &data, r.total_cycles));
            }
            rep.run_s = secs_since(t0) - rep.setup_s;
            (report, checks)
        }
        Mode::Traced => {
            // The same cell untapped, unobserved and then observed: the difference is the
            // recording cost, and the two reports must be equal.
            let t_plain = Instant::now();
            let set = tenant_set(seed, &harness, &mut |s| Box::new(s));
            let (unobserved, _) = split(harness.run_tenants(
                Platform::Phentos,
                set.into_source(arrivals.clone()),
                false,
                None,
            ));
            let unobserved_s = secs_since(t_plain);
            gate.record(check_tenant_run("tenants-mesh unobserved", &unobserved));
            let t_observed = Instant::now();
            let set = tenant_set(seed, &harness, &mut |s| Box::new(s));
            let mut recorder = Recorder::new(ObsConfig::default());
            let (observed, _) = split(harness.run_tenants(
                Platform::Phentos,
                set.into_source(arrivals.clone()),
                false,
                Some(&mut recorder),
            ));
            layers.record_s = secs_since(t_observed) - unobserved_s;
            let mut observed_checks = check_tenant_run("tenants-mesh observed", &observed);
            if let (Ok(u), Ok(o)) = (&unobserved, &observed) {
                observed_checks.check("observation-is-pure", u == o, || {
                    "the observed report differs from the unobserved one".to_string()
                });
            }
            gate.record(observed_checks);

            let tally = new_tally();
            let set = tenant_set(seed, &harness, &mut |s| {
                Box::new(TapSource::new(s, SourceLayer::Exp, tally.clone()))
            });
            let source = TapSource::new(
                set.into_source(arrivals),
                SourceLayer::Tenant,
                tally.clone(),
            );
            let mut recorder = Recorder::new(ObsConfig::default());
            let t_run = Instant::now();
            let result = run_tapped(
                &harness,
                Platform::Phentos,
                Box::new(source),
                false,
                Some(&mut recorder),
                &tally,
            )
            .map(|(r, d)| (r, d.unwrap_or_default()));
            layers.engine_s = secs_since(t_run);
            let (report, data) = split(result);
            let checks = check_tenant_run("tenants-mesh traced", &report);
            if let Ok(r) = &report {
                let t_export = Instant::now();
                let (trace, metrics) = export(&recorder, &data, r.total_cycles);
                layers.export_s = secs_since(t_export);
                std::hint::black_box(metrics);
                layers.trace_bytes = trace.len() as u64;
                layers.spans = recorder.spans().len() as u64;
                layers.sums.add(Platform::Phentos, r);
            }
            rep.run_s = secs_since(t_run);
            layers.tally = tally.borrow().clone();
            rep.layers = Some(layers);
            (report, checks)
        }
    };
    if let Ok(report) = &result {
        check_against(&mut checks, reference, mode, 0, report);
    }
    rep.push(result.ok(), rep.run_s);
    gate.record(checks);
    rep
}

type TenantResult = Result<(ExecutionReport, TenantRunData), EngineError>;

fn split(result: TenantResult) -> (Result<ExecutionReport, EngineError>, TenantRunData) {
    match result {
        Ok((report, data)) => (Ok(report), data),
        Err(e) => (Err(e), TenantRunData::default()),
    }
}
