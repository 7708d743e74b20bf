//! Idle-poll parking is exact.
//!
//! The engine skips a Phentos worker's repeated failed fetch polls while the RoCC fabric is
//! quiet for that core, and charges them in closed form (see `tis_machine::engine`). Every
//! test here runs a cell twice: parked, and stepwise through [`Stepwise`], a fabric that
//! forwards every Table-I operation to a [`TisFabric`] but keeps the default never-quiet hook,
//! so the same engine steps every poll. The two runs must agree on the report, on the
//! per-core delegate and manager statistics the report does not carry, on the rendered
//! Perfetto and metrics exports, and on engine errors down to the cycle. A counting runtime
//! wrapper then guards that parking actually engages on a `tenants-mesh`-shaped cell.

use std::cell::Cell;

use tis::bench::{figure7_workloads, Harness, Platform};
use tis::core::delegate::DelegateStats;
use tis::core::manager::ManagerStats;
use tis::core::{Phentos, PhentosConfig, TisFabric};
use tis::exp::{StreamingSynth, SynthFamily, SynthSpec};
use tis::machine::fabric::{CoreId, FabricOutcome, FabricStats, IdlePoll};
use tis::machine::{
    run_machine, run_machine_observed, CoreCtx, CoreStatus, EngineError, ExecutionReport,
    FaultConfig, MemoryModel, RuntimeSystem, SchedulerFabric,
};
use tis::nanos::{Nanos, NanosVariant};
use tis::obs::{ObsConfig, Recorder};
use tis::sim::{Cycle, SimRng};
use tis::taskmodel::{
    ArrivalProcess, Dependence, Direction, ExecRecord, MaterializedSource, Payload,
    ProgramBuilder, TaskProgram, TaskSource, TenantReport, TenantSet, TenantTrackerPolicy,
};
use tis::workloads::paper_catalog_for_cores;

/// The stepwise reference: forwards every operation to the wrapped fabric and keeps the
/// default [`SchedulerFabric::quiet_horizon`], so the engine never skips a poll.
struct Stepwise(TisFabric);

impl SchedulerFabric for Stepwise {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn set_time_horizon(&mut self, safe_now: Cycle) {
        self.0.set_time_horizon(safe_now);
    }
    fn submission_request(&mut self, core: CoreId, n: u32, now: Cycle) -> (Cycle, FabricOutcome<()>) {
        self.0.submission_request(core, n, now)
    }
    fn submit_packets(&mut self, core: CoreId, p: &[u32], now: Cycle) -> (Cycle, FabricOutcome<()>) {
        self.0.submit_packets(core, p, now)
    }
    fn ready_task_request(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<()>) {
        self.0.ready_task_request(core, now)
    }
    fn fetch_sw_id(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<u64>) {
        self.0.fetch_sw_id(core, now)
    }
    fn fetch_picos_id(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<u32>) {
        self.0.fetch_picos_id(core, now)
    }
    fn retire_task(&mut self, core: CoreId, picos_id: u32, now: Cycle) -> Cycle {
        self.0.retire_task(core, picos_id, now)
    }
    fn stats(&self) -> FabricStats {
        self.0.stats()
    }
    fn set_observing(&mut self, on: bool) {
        self.0.set_observing(on);
    }
    fn drain_ready_log(&mut self, sink: &mut dyn FnMut(Cycle, u64)) {
        self.0.drain_ready_log(sink);
    }
    fn occupancy(&self) -> (usize, usize) {
        self.0.occupancy()
    }
}

/// Forwards a runtime, parking hooks included, and counts the engine steps it is given.
struct Counting<R> {
    inner: R,
    steps: Cell<u64>,
}

impl<R: RuntimeSystem> RuntimeSystem for Counting<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn step_core(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> CoreStatus {
        self.steps.set(self.steps.get() + 1);
        self.inner.step_core(ctx, fabric)
    }
    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
    fn exec_records(&self) -> Vec<ExecRecord> {
        self.inner.exec_records()
    }
    fn tasks_retired(&self) -> u64 {
        self.inner.tasks_retired()
    }
    fn peak_resident_tasks(&self) -> u64 {
        self.inner.peak_resident_tasks()
    }
    fn tenant_reports(&self) -> Vec<TenantReport> {
        self.inner.tenant_reports()
    }
    fn idle_poll(&self, core: usize) -> Option<IdlePoll> {
        self.inner.idle_poll(core)
    }
    fn charge_idle_polls(&mut self, core: usize, n: u64) {
        self.inner.charge_idle_polls(core, n);
    }
}

/// The runtimes that drive the RoCC fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rt {
    Phentos,
    NanosRv,
}

/// Everything a run leaves behind that parking must not change.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<ExecutionReport, EngineError>,
    delegates: Vec<DelegateStats>,
    manager: ManagerStats,
    /// Rendered Perfetto trace and metrics timeline (observed runs only).
    exports: Option<(String, String)>,
}

/// One cell: machine and platform configuration, runtime, how to build its source.
struct Scenario<'a> {
    label: String,
    harness: Harness,
    rt: Rt,
    source: &'a dyn Fn() -> Box<dyn TaskSource>,
    records: bool,
    observe: bool,
}

fn build_runtime(sc: &Scenario<'_>) -> Box<dyn RuntimeSystem> {
    let cores = sc.harness.machine.cores;
    match sc.rt {
        Rt::Phentos => {
            let mut r = Phentos::from_source((sc.source)(), cores, sc.harness.phentos);
            r.set_collect_records(sc.records);
            Box::new(r)
        }
        Rt::NanosRv => {
            let mut r =
                Nanos::from_source((sc.source)(), cores, NanosVariant::PicosRocc, sc.harness.nanos);
            r.set_collect_records(sc.records);
            Box::new(r)
        }
    }
}

fn run(sc: &Scenario<'_>, stepwise: bool) -> Outcome {
    let cores = sc.harness.machine.cores;
    let mut runtime = build_runtime(sc);
    let mut recorder = sc.observe.then(|| Recorder::new(ObsConfig::default()));
    let mut drive = |fabric: &mut dyn SchedulerFabric| match recorder.as_mut() {
        Some(r) => run_machine_observed(&sc.harness.machine, runtime.as_mut(), fabric, r),
        None => run_machine(&sc.harness.machine, runtime.as_mut(), fabric),
    };
    let mut fabric = TisFabric::new(cores, sc.harness.tis);
    let result = if stepwise {
        let mut wrapped = Stepwise(fabric);
        let result = drive(&mut wrapped);
        fabric = wrapped.0;
        result
    } else {
        drive(&mut fabric)
    };
    let makespan = result.as_ref().map_or(0, |r| r.total_cycles);
    Outcome {
        exports: recorder.map(|r| {
            (r.perfetto_json(&sc.label, cores).render(), r.metrics_json(&sc.label, makespan).render())
        }),
        delegates: (0..cores).map(|c| fabric.delegate(c).stats().clone()).collect(),
        manager: fabric.manager().stats().clone(),
        result,
    }
}

/// Runs the cell parked and stepwise, asserts the two agree, and returns the outcome.
fn assert_exact(sc: &Scenario<'_>) -> Outcome {
    let parked = run(sc, false);
    let stepwise = run(sc, true);
    assert!(
        parked == stepwise,
        "parking changed {} ({:?}):\nparked:   {:?}\nstepwise: {:?}",
        sc.label,
        sc.rt,
        parked.result.as_ref().map(|r| r.total_cycles),
        stepwise.result.as_ref().map(|r| r.total_cycles),
    );
    parked
}

fn materialized(program: &TaskProgram) -> impl Fn() -> Box<dyn TaskSource> + '_ {
    move || Box::new(MaterializedSource::new(program)) as Box<dyn TaskSource>
}

/// A scenario with records on and no observer.
fn scenario<'a>(
    label: &str,
    harness: &Harness,
    rt: Rt,
    source: &'a dyn Fn() -> Box<dyn TaskSource>,
) -> Scenario<'a> {
    Scenario { label: label.to_string(), harness: harness.clone(), rt, source, records: true, observe: false }
}

/// Random DAG with taskwaits, as the chaos suite draws them.
fn random_program(seed: u64, tasks: usize) -> TaskProgram {
    let mut rng = SimRng::new(seed);
    let mut b = ProgramBuilder::new(format!("parking-{seed}"));
    for _ in 0..tasks {
        let mut deps = Vec::new();
        for _ in 0..rng.below(4) {
            let addr = 0x6000_0000 + rng.below(12) * 64;
            if deps.iter().any(|d: &Dependence| d.addr == addr) {
                continue;
            }
            let dir = match rng.below(3) {
                0 => Direction::In,
                1 => Direction::Out,
                _ => Direction::InOut,
            };
            deps.push(Dependence::new(addr, dir));
        }
        b.spawn(Payload::compute(rng.range(100, 3_000)), deps);
        if rng.chance(0.1) {
            b.taskwait();
        }
    }
    b.taskwait();
    b.build()
}

#[test]
fn figure7_microbenchmarks_are_parking_exact() {
    for cores in [1, 8] {
        let harness = Harness::with_cores(cores);
        for (name, program) in figure7_workloads(100) {
            let source = materialized(&program);
            for rt in [Rt::Phentos, Rt::NanosRv] {
                let out = assert_exact(&scenario(&format!("{name} x{cores}"), &harness, rt, &source));
                out.result.expect("figure 7 run completes");
            }
        }
    }
}

#[test]
fn figure9_catalog_is_parking_exact_at_eight_cores() {
    let harness = Harness::paper_prototype();
    for w in paper_catalog_for_cores(8) {
        let source = materialized(&w.program);
        for rt in [Rt::Phentos, Rt::NanosRv] {
            let out = assert_exact(&scenario(&w.label(), &harness, rt, &source));
            out.result.unwrap_or_else(|e| panic!("{} failed: {e}", w.label()));
        }
    }
}

#[test]
fn streamed_runs_are_parking_exact_with_records_on_and_off() {
    let harness = Harness::paper_prototype();
    let specs = [
        (SynthSpec { family: SynthFamily::Chain, tasks: 3_000, task_cycles: 500, jitter: 0.25 }, 256),
        (
            SynthSpec {
                family: SynthFamily::ErdosRenyi { density: 0.05 },
                tasks: 3_000,
                task_cycles: 2_000,
                jitter: 0.25,
            },
            512,
        ),
    ];
    for (spec, window) in specs {
        let source = || Box::new(StreamingSynth::new(spec, window, SimRng::new(5))) as Box<dyn TaskSource>;
        for records in [true, false] {
            let sc = Scenario { records, ..scenario(&spec.name(), &harness, Rt::Phentos, &source) };
            let report = assert_exact(&sc).result.expect("streamed run completes");
            assert_eq!(report.tasks_retired, spec.tasks as u64);
        }
    }
}

/// A `tenants-mesh`-shaped tenant set: a Poisson ER victim and three bursty fork-join
/// antagonists, `tasks` each.
fn tenant_source(tasks: usize, partitioned: bool, harness: &Harness, seed: u64) -> Box<dyn TaskSource> {
    let root = SimRng::new(seed);
    let policy = if partitioned {
        TenantTrackerPolicy::Partitioned { per_tenant_entries: harness.tis.picos.tracker.per_tenant_entries(4) }
    } else {
        TenantTrackerPolicy::Shared
    };
    let victim = SynthSpec { family: SynthFamily::ErdosRenyi { density: 0.05 }, tasks, task_cycles: 2_000, jitter: 0.25 };
    let antagonist = SynthSpec { family: SynthFamily::ForkJoin { width: 32 }, tasks, task_cycles: 2_000, jitter: 0.25 };
    let mut set = TenantSet::new().with_policy(policy).tenant(
        "victim",
        Box::new(StreamingSynth::new(victim, 1_024, root.stream("tenant", 0))),
        ArrivalProcess::Poisson { mean_interarrival: 400 },
    );
    for t in 1..4u64 {
        set = set.tenant(
            format!("antagonist{t}"),
            Box::new(StreamingSynth::new(antagonist, 1_024, root.stream("tenant", t))),
            ArrivalProcess::Bursty { burst: 96, period: 40_000 },
        );
    }
    Box::new(set.into_source(SimRng::new(seed).stream("tenant-arrivals", 0)))
}

fn mesh_harness(cores: usize) -> Harness {
    Harness::with_cores(cores).with_memory_model(MemoryModel::directory_mesh_contended())
}

#[test]
fn tenant_cells_are_parking_exact_shared_and_partitioned() {
    for cores in [8, 32] {
        let harness = mesh_harness(cores);
        for partitioned in [false, true] {
            let source = || tenant_source(150, partitioned, &harness, 3);
            let label = format!("tenants x{cores} partitioned={partitioned}");
            let sc = Scenario { records: false, ..scenario(&label, &harness, Rt::Phentos, &source) };
            let report = assert_exact(&sc).result.expect("tenant cell completes");
            assert_eq!(report.tasks_retired, 600);
        }
    }
}

#[test]
fn observed_runs_export_identical_traces_and_metrics() {
    let harness = Harness::paper_prototype();
    let w = paper_catalog_for_cores(8).into_iter().find(|w| w.benchmark == "sparselu").expect("sparselu");
    let source = materialized(&w.program);
    let sc = Scenario { observe: true, ..scenario(&w.label(), &harness, Rt::Phentos, &source) };
    let (trace, metrics) = assert_exact(&sc).exports.expect("observed run exports");
    assert!(trace.contains("traceEvents") && !metrics.is_empty());

    // The `tenants-mesh` benchmark cell itself.
    let mesh = mesh_harness(32);
    let source = || tenant_source(1_000, true, &mesh, 1);
    let sc = Scenario { observe: true, records: false, ..scenario("tenants observed", &mesh, Rt::Phentos, &source) };
    assert_exact(&sc).result.expect("observed tenant cell completes");
}

#[test]
fn fault_injection_cells_are_parking_exact() {
    let program = random_program(0xC4A0, 64);
    let source = materialized(&program);
    let recoverable = mesh_harness(8).with_faults(FaultConfig::recoverable());
    for rt in [Rt::Phentos, Rt::NanosRv] {
        let out = assert_exact(&scenario("recoverable faults", &recoverable, rt, &source));
        out.result.expect("a recoverable schedule completes");
    }
    let dead = mesh_harness(8).with_faults(FaultConfig { dead_links: u32::MAX, ..FaultConfig::none() });
    let out = assert_exact(&scenario("dead links", &dead, Rt::Phentos, &source));
    assert!(matches!(out.result, Err(EngineError::UnrecoverableFault { .. })), "{:?}", out.result);
}

#[test]
fn capped_and_deadlocked_runs_fail_identically() {
    let program = random_program(0xCA9, 80);
    let source = materialized(&program);
    let harness = Harness::paper_prototype();
    let makespan = harness.run(Platform::Phentos, &program).expect("uncapped run").total_cycles;
    for cap in [makespan / 4, makespan / 3, makespan / 2] {
        let mut capped = harness.clone();
        capped.machine.max_cycles = cap;
        let out = assert_exact(&scenario("capped", &capped, Rt::Phentos, &source));
        assert!(matches!(out.result, Err(EngineError::CycleLimitExceeded { .. })), "{:?}", out.result);
    }

    // Workers that never flush their retirements leave the main thread's barrier waiting
    // forever, while the workers that retired nothing park: a genuine deadlock. Several
    // watchdog windows, so that a parked worker's poll is the one that trips it in some.
    let mut b = ProgramBuilder::new("unflushed");
    for i in 0..2u64 {
        b.spawn(Payload::compute(5_000), vec![Dependence::write(0x7000 + i * 64)]);
    }
    b.taskwait();
    let unflushed = b.build();
    let source = materialized(&unflushed);
    for window in [200_000, 200_011, 200_023, 200_037] {
        let mut deadlocked = harness.clone();
        deadlocked.phentos = PhentosConfig {
            flush_after_failures: u32::MAX,
            taskwait_poll_interval: 5_000,
            ..PhentosConfig::default()
        };
        deadlocked.machine.fault.watchdog_cycles = window;
        let out = assert_exact(&scenario("deadlock", &deadlocked, Rt::Phentos, &source));
        assert!(matches!(out.result, Err(EngineError::NoProgress { .. })), "{:?}", out.result);
    }

    // A watchdog tight enough to trip in the gaps between chain links, while workers park.
    let chain = tis::workloads::task_chain(60, 1);
    let source = materialized(&chain);
    for window in [30, 60, 150, 400] {
        let mut tight = harness.clone();
        tight.machine.fault.watchdog_cycles = window;
        assert_exact(&scenario("tight watchdog", &tight, Rt::Phentos, &source));
    }
}

/// Parking must engage, not silently degrade to stepping every poll: the engine steps the
/// `tenants-mesh` cell (unobserved here) in fewer than 20 steps per task, where stepping
/// every poll takes about 250.
#[test]
fn parking_guard_tenant_mesh_steps_per_task() {
    let harness = mesh_harness(32);
    let mut runtime = Counting {
        inner: Phentos::from_source(tenant_source(1_000, true, &harness, 1), 32, harness.phentos),
        steps: Cell::new(0),
    };
    runtime.inner.set_collect_records(false);
    let mut fabric = TisFabric::new(32, harness.tis);
    let report = run_machine(&harness.machine, &mut runtime, &mut fabric).expect("tenant cell completes");
    assert_eq!(report.tasks_retired, 4_000);
    let per_task = runtime.steps.get() as f64 / report.tasks_retired as f64;
    assert!(per_task < 20.0, "{per_task:.1} engine steps per task: parking did not engage");
}
