//! The sweep runner: evaluates grid cells through `tis_machine::engine::run_machine`,
//! optionally fanning independent cells out across host threads.
//!
//! Every cell is a fully deterministic, self-contained simulation — it builds its own
//! [`Harness`], instantiates its own program from a pure per-cell RNG stream
//! ([`Sweep::cell_rng`]), and shares no mutable state with other cells. Workers pull cell
//! indices from an atomic counter and write results into the cell's own slot, so the report is
//! assembled in grid order and is **bit-identical for any worker count** (pinned by
//! `tests/sweep_determinism.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tis_bench::{measure_lifetime_overhead, measure_task_throughput, Harness};
use tis_machine::{mtt_speedup_bound_from_throughput, FaultConfig};
use tis_sim::SimRng;
use tis_taskmodel::{MaterializedSource, TaskProgram, TenantSet, TenantSource, TenantTrackerPolicy};
use tis_workloads::task_chain;

use crate::grid::{CellSpec, Sweep, TenantScenario};
use crate::report::{ObsCellData, SweepCell, SweepReport, TenantCellData};

/// Number of tasks in the Task-Chain probe used to measure per-platform lifetime overhead.
const OVERHEAD_PROBE_TASKS: usize = 100;

/// Scheduler-saturation probes measured once per `(memory model, tracker, cores, platform)`
/// combination and shared by every cell at that point: the single-core lifetime overhead `Lo`
/// (the Figure 7 metric, reported for context) and the maximum task throughput `MTT` at the
/// cell's core count, from which the cell's speedup bound `min(cores, t × MTT)` is derived.
/// Measuring MTT *at the swept core count* — instead of assuming `1 / Lo`, which is only tight
/// when per-task overhead serialises — is what keeps the bound honest for runtimes whose
/// overhead parallelises across workers (the 8-core shortcut the ROADMAP's sweep item calls
/// out). The memory model is part of the probe coordinates because directory/NoC latencies
/// slow the scheduling paths themselves: a bound measured on the snooping bus would be
/// inconsistent with cells simulated on the mesh.
struct SchedulerProbes {
    /// `Lo` per `(memory, tracker, platform)` in cycles per task.
    lifetime_overhead: Vec<f64>,
    /// `MTT` per `(memory, tracker, core_axis, platform)` in tasks per cycle.
    throughput: Vec<f64>,
}

impl SchedulerProbes {
    fn measure(sweep: &Sweep) -> Self {
        let chain = task_chain(OVERHEAD_PROBE_TASKS, 1);
        let mut lifetime_overhead = Vec::with_capacity(
            sweep.memory_models.len() * sweep.trackers.len() * sweep.platforms.len(),
        );
        let mut throughput = Vec::with_capacity(
            sweep.memory_models.len()
                * sweep.trackers.len()
                * sweep.cores.len()
                * sweep.platforms.len(),
        );
        for &memory in &sweep.memory_models {
            for &tracker in &sweep.trackers {
                let prototype =
                    Harness::paper_prototype().with_tracker(tracker).with_memory_model(memory);
                for &platform in &sweep.platforms {
                    lifetime_overhead.push(measure_lifetime_overhead(&prototype, platform, &chain));
                }
                for &cores in &sweep.cores {
                    let harness =
                        Harness::with_cores(cores).with_tracker(tracker).with_memory_model(memory);
                    // Enough independent empty tasks that steady-state throughput dominates the
                    // ramp-up, at every swept core count.
                    let probe_tasks = (cores * 32).max(256);
                    for &platform in &sweep.platforms {
                        throughput.push(measure_task_throughput(&harness, platform, probe_tasks));
                    }
                }
            }
        }
        SchedulerProbes { lifetime_overhead, throughput }
    }

    fn lifetime_overhead(&self, sweep: &Sweep, cell: &CellSpec) -> f64 {
        let per_memory = sweep.trackers.len() * sweep.platforms.len();
        self.lifetime_overhead
            [cell.memory * per_memory + cell.tracker * sweep.platforms.len() + cell.platform]
    }

    fn throughput(&self, sweep: &Sweep, cell: &CellSpec) -> f64 {
        let per_tracker = sweep.cores.len() * sweep.platforms.len();
        let per_memory = sweep.trackers.len() * per_tracker;
        self.throughput[cell.memory * per_memory
            + cell.tracker * per_tracker
            + cell.core_axis * sweep.platforms.len()
            + cell.platform]
    }
}

/// Runs a sweep sequentially (one worker).
pub fn run_sweep(sweep: &Sweep) -> SweepReport {
    run_sweep_with_workers(sweep, 1)
}

/// Worker count for the curated sweep benches: the `TIS_SWEEP_WORKERS` environment variable
/// when set to a valid number, otherwise the host's available parallelism (1 as a last
/// resort). One place, so the policy cannot diverge between bench targets.
pub fn workers_from_env() -> usize {
    std::env::var("TIS_SWEEP_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Runs a sweep with `workers` host threads (clamped to the cell count; `0` is treated as 1).
///
/// # Panics
///
/// Panics if the sweep definition is invalid ([`Sweep::check`]), if any cell's simulation
/// deadlocks or exceeds its cycle cap, or if validation is enabled and a schedule violates the
/// reference dependence graph.
pub fn run_sweep_with_workers(sweep: &Sweep, workers: usize) -> SweepReport {
    sweep.check();
    let cells = sweep.cells();

    // Scheduler probes depend only on axis coordinates, not on the workload; measuring them
    // once up front keeps the per-cell work purely cell-local. Likewise, all cells of one
    // (workload, cores) grid point schedule the same program, so it is instantiated once here
    // and shared, not regenerated per platform/tracker cell.
    let probes = SchedulerProbes::measure(sweep);
    let mut programs = Vec::with_capacity(sweep.workloads.len() * sweep.cores.len());
    for (wi, spec) in sweep.workloads.iter().enumerate() {
        for &cores in &sweep.cores {
            let mut rng = sweep.cell_rng(wi, cores);
            let program = spec.instantiate(cores, &mut rng);
            // Preflight chokepoint: prove the graph acyclic, reference-clean,
            // and conflict-covered before a single cell simulates it.
            if sweep.analysis.preflight {
                if let Err(e) = tis_analyze::analyze_program(&program) {
                    panic!(
                        "sweep '{}': preflight failed for {} at {cores} cores: {e}",
                        sweep.name,
                        spec.label()
                    );
                }
            }
            programs.push(program);
        }
    }
    let program_of = |cell: &CellSpec| &programs[cell.workload * sweep.cores.len() + cell.core_axis];

    let workers = workers.max(1).min(cells.len().max(1));
    let mut slots: Vec<Option<SweepCell>> = vec![None; cells.len()];
    if workers <= 1 {
        for cell in &cells {
            slots[cell.index] = Some(run_cell(sweep, cell, program_of(cell), &probes));
        }
    } else {
        let next = AtomicUsize::new(0);
        let results = Mutex::new(&mut slots);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let done = run_cell(sweep, cell, program_of(cell), &probes);
                    results.lock().expect("no worker panicked holding the slot lock")[cell.index] =
                        Some(done);
                });
            }
        });
    }

    SweepReport {
        name: sweep.name.clone(),
        seed: sweep.seed,
        cells: slots.into_iter().map(|c| c.expect("every cell index was evaluated")).collect(),
    }
}

/// Evaluates one cell over its list of programs: the grid point's shared program alone for a
/// plain cell, or, for a co-scheduled cell, that program as tenant 0 followed by tenants
/// `1..n`, independent instances of the same workload spec drawn from per-tenant substreams of
/// the cell RNG. The 1-tenant batch/shared scenario is the degenerate case, pinned
/// cycle-identical to the plain cell. Every cell replays bit-exactly from
/// `(sweep seed, cell coordinates)` alone.
///
/// Schedule validation and race detection run on plain cells only: both check against a single
/// program's reference graph, and a merged run's global task IDs span all tenants. The
/// per-tenant critical paths (observed cells) cover the merged run instead.
fn run_cell(sweep: &Sweep, cell: &CellSpec, program: &TaskProgram, probes: &SchedulerProbes) -> SweepCell {
    let scenario = sweep.tenants[cell.tenant];
    let lifetime_overhead = probes.lifetime_overhead(sweep, cell);
    let tasks_per_cycle = probes.throughput(sweep, cell);
    let spec = &sweep.workloads[cell.workload];
    let platform = sweep.platforms[cell.platform];
    let tracker = sweep.trackers[cell.tracker];
    let memory = sweep.memory_models[cell.memory];
    // Each engaging cell replays its own fault schedule: the schedule seed is a pure function
    // of the sweep seed and the cell's grid index, so it is identical at any worker count and
    // the resolved config recorded in the report replays the cell exactly. A non-engaging
    // config is passed through untouched, constructing no fault layer at all.
    let base_fault = sweep.faults[cell.fault];
    let fault = if base_fault.engages() {
        let mut seeds = SimRng::new(sweep.seed).stream("sweep-fault", cell.index as u64);
        FaultConfig { seed: seeds.next_u64(), ..base_fault }
    } else {
        base_fault
    };
    let harness = Harness::with_cores(cell.cores)
        .with_tracker(tracker)
        .with_memory_model(memory)
        .with_faults(fault);
    let context = || {
        format!(
            "sweep '{}' cell {}: {}{} on {} cores, {}, {}, {}, fault {}",
            sweep.name,
            cell.index,
            spec.label(),
            scenario.map(|s| format!(" ({})", s.key())).unwrap_or_default(),
            cell.cores,
            memory.label(),
            platform.label(),
            tracker.label(),
            fault.key()
        )
    };
    let co_tenants: Vec<TaskProgram> = (1..scenario.map_or(1, |s| s.tenants))
        .map(|t| {
            let mut rng = sweep.cell_rng(cell.workload, cell.cores).stream("tenant", t as u64);
            spec.instantiate(cell.cores, &mut rng)
        })
        .collect();
    let programs: Vec<&TaskProgram> = std::iter::once(program).chain(&co_tenants).collect();
    // An observed cell runs with a recorder attached through the engine's observer
    // chokepoint. Observation is a pure tap — the simulated cycle counts are identical either
    // way (`observing_a_sweep_changes_no_measurement` pins this) — so observed and unobserved
    // cells of one report remain directly comparable.
    let cell_obs = sweep.cell_obs(cell.index);
    let mut recorder = cell_obs.map(tis_obs::Recorder::new);
    let observer = recorder.as_mut().map(|r| r as &mut dyn tis_obs::Observer);
    let (report, run_data) = match scenario {
        None => match observer {
            Some(o) => harness.run_observed(platform, program, o),
            None => harness.run(platform, program),
        }
        .map(|report| (report, None)),
        Some(scenario) => {
            let source = tenant_source(sweep, cell, scenario, &programs);
            harness.run_tenants(platform, source, false, observer).map(|(r, data)| (r, Some(data)))
        }
    }
    .unwrap_or_else(|e| panic!("{} failed: {e}", context()));
    let mut race_pairs_checked = 0;
    if scenario.is_none() {
        if sweep.validate {
            report
                .validate_against(program)
                .unwrap_or_else(|e| panic!("{} produced an invalid schedule: {e}", context()));
        }
        // Dynamic race check over the dispatch/retire trace. A detected race means the
        // platform executed a conflicting pair without a happens-before path — like a
        // validation failure, that is a bug to surface, not a data point to record.
        if sweep.analysis.races {
            let spec_graph = tis_analyze::GraphSpec::from_program(program);
            let analysis = tis_analyze::detect_races(&spec_graph, &report.records);
            if !analysis.is_race_free() {
                let mut detail = String::new();
                for race in &analysis.races {
                    detail.push_str(&format!("\n  {race}"));
                }
                panic!(
                    "{} raced ({} of {} conflicting pairs unordered, {} unrecorded):{detail}",
                    context(),
                    analysis.races.len(),
                    analysis.pairs_checked,
                    analysis.pairs_skipped
                );
            }
            race_pairs_checked = analysis.pairs_checked as u64;
        }
    }
    // Fold the recorder into the cell: critical path over the run's happens-before edges
    // (the same edges the race detector walks), plus the rendered trace/metrics documents.
    let obs = recorder.map(|r| {
        let edges: Vec<Vec<(usize, usize)>> =
            programs.iter().map(|p| tis_analyze::GraphSpec::from_program(p).edges).collect();
        let label = format!("{} cell {} ({})", sweep.name, cell.index, spec.label());
        let (critical, tenant_critical, trace) = match &run_data {
            None => (
                r.critical_path(&edges[0], report.total_cycles),
                Vec::new(),
                r.perfetto_json(&label, cell.cores),
            ),
            Some(data) => (
                r.critical_path(&merged_edges(&edges, &data.assignment), report.total_cycles),
                tis_obs::critical_path_per_tenant(r.spans(), &data.assignment, &edges),
                tis_obs::trace_json_tenants(
                    &label,
                    cell.cores,
                    r.spans(),
                    r.metrics().samples(),
                    &data.names,
                    &data.assignment,
                ),
            ),
        };
        Box::new(ObsCellData {
            config: cell_obs.expect("a recorder implies an engaged obs config"),
            task_events: r.task_events(),
            samples: r.metrics().samples().len() as u64,
            critical,
            tenant_critical,
            trace_json: trace.render(),
            metrics_json: r.metrics_json(&label, report.total_cycles).render(),
        })
    });
    // Workload statistics aggregate across programs; the serial baseline is one machine doing
    // every program's work back to back, so speedup stays speedup-over-serial for the whole
    // offered load. A single program keeps its own mean: re-deriving it as `mean × n / n` is
    // not bit-exact.
    let stats: Vec<_> = programs.iter().map(|p| p.stats(harness.machine.dram_bytes_per_cycle)).collect();
    let tasks: usize = stats.iter().map(|s| s.tasks).sum();
    let serial: u64 = programs.iter().map(|p| harness.serial_cycles(p)).sum();
    let mean_task_cycles = match &stats[..] {
        [one] => one.mean_task_cycles,
        _ if tasks == 0 => 0.0,
        _ => {
            stats.iter().fold(0.0, |sum, s| sum + s.mean_task_cycles * s.tasks as f64)
                / tasks as f64
        }
    };
    SweepCell {
        workload: spec.label(),
        family: spec.family(),
        cores: cell.cores,
        memory,
        platform,
        tracker,
        tasks,
        mean_task_cycles,
        serial_cycles: serial,
        total_cycles: report.total_cycles,
        speedup: report.speedup_over(serial),
        lifetime_overhead,
        mtt_tasks_per_cycle: tasks_per_cycle,
        mtt_bound: mtt_speedup_bound_from_throughput(mean_task_cycles, tasks_per_cycle, cell.cores),
        mem_accesses: report.memory_stats.accesses,
        mem_stall_cycles: report.memory_stats.stall_cycles,
        mean_mem_latency: report.memory_stats.mean_access_latency(),
        noc_link_wait_cycles: report.memory_stats.noc_link_wait_cycles,
        max_link_occupancy: report.memory_stats.max_link_occupancy,
        fault,
        fault_drops: report.memory_stats.fault.drops,
        fault_delays: report.memory_stats.fault.delays,
        fault_retries: report.memory_stats.fault.retries + report.fabric_stats.tracker_resubmits,
        fault_tracker_losses: report.fabric_stats.tracker_losses,
        fault_recovery_cycles: report.memory_stats.fault.recovery_cycles
            + report.fabric_stats.tracker_recovery_cycles,
        analysis: sweep.analysis,
        race_pairs_checked,
        tenant: scenario.map(|scenario| {
            Box::new(TenantCellData {
                scenario: scenario.key(),
                reports: report.tenants.clone(),
                jain: report.tenant_jain_fairness(),
            })
        }),
        obs,
    }
}

/// Merges a co-scheduled cell's programs into one [`TenantSource`] under the scenario's
/// tracker policy and arrival processes.
fn tenant_source(
    sweep: &Sweep,
    cell: &CellSpec,
    scenario: TenantScenario,
    programs: &[&TaskProgram],
) -> TenantSource {
    let policy = if scenario.partitioned {
        TenantTrackerPolicy::Partitioned {
            per_tenant_entries: sweep.trackers[cell.tracker].per_tenant_entries(scenario.tenants),
        }
    } else {
        TenantTrackerPolicy::Shared
    };
    let mut set = TenantSet::new().with_policy(policy);
    for (t, p) in programs.iter().enumerate() {
        let arrival = if t == 0 { scenario.victim_arrival } else { scenario.co_arrival };
        set = set.tenant(format!("t{t}"), Box::new(MaterializedSource::new(p)), arrival);
    }
    // Arrival draws are offered load, not schedule: deriving them from the cell's
    // (workload, cores) stream — never from the policy or the grid index — keeps a
    // shared-vs-partitioned pair of cells facing byte-identical arrival times, so the pair
    // isolates the tracker policy and nothing else.
    set.into_source(sweep.cell_rng(cell.workload, cell.cores).stream("tenant-arrivals", 0))
}

/// A merged run's happens-before edges: each tenant's program edges remapped to global task
/// IDs through the release-order assignment (tenant t's k-th release is the k-th global ID
/// assigned to t), so the whole-run critical path stays machine-checked.
fn merged_edges(tenant_edges: &[Vec<(usize, usize)>], assignment: &[u32]) -> Vec<(usize, usize)> {
    let mut globals: Vec<Vec<usize>> = vec![Vec::new(); tenant_edges.len()];
    for (global, &t) in assignment.iter().enumerate() {
        globals[t as usize].push(global);
    }
    tenant_edges
        .iter()
        .zip(&globals)
        .flat_map(|(edges, map)| edges.iter().map(move |&(a, b)| (map[a], map[b])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::WorkloadSpec;
    use crate::synth::{SynthFamily, SynthSpec};
    use tis_bench::Platform;
    use tis_picos::TrackerConfig;

    fn small_sweep() -> Sweep {
        Sweep::new("unit")
            .over_cores([1, 4])
            .over_platforms([Platform::Phentos, Platform::NanosSw])
            .with_workload(WorkloadSpec::synth(SynthSpec::uniform(
                SynthFamily::ForkJoin { width: 8 },
                32,
                20_000,
            )))
            .with_workload(WorkloadSpec::synth(SynthSpec {
                family: SynthFamily::ErdosRenyi { density: 0.1 },
                tasks: 24,
                task_cycles: 10_000,
                jitter: 0.25,
            }))
    }

    #[test]
    fn sequential_run_fills_every_cell_in_grid_order() {
        let sweep = small_sweep();
        let report = sweep.run();
        assert_eq!(report.cells.len(), sweep.cell_count());
        for (cell, spec) in report.cells.iter().zip(sweep.cells()) {
            assert_eq!(cell.workload, sweep.workloads[spec.workload].label());
            assert_eq!(cell.cores, spec.cores);
            assert_eq!(cell.platform, sweep.platforms[spec.platform]);
            assert!(cell.total_cycles > 0);
            assert!(cell.speedup > 0.0);
            assert!(cell.lifetime_overhead > 0.0);
        }
        // Single-core speedup can never exceed 1; the 4-core fork-join must beat single-core.
        let single = &report.cells[0];
        assert_eq!(single.cores, 1);
        assert!(single.speedup <= 1.0 + 1e-9);
        let quad = &report.cells[2];
        assert_eq!(quad.cores, 4);
        assert!(quad.speedup > single.speedup, "more cores, more speedup on a fork-join");
        assert!(report.bound_violations().is_empty(), "{}", report.render_table());
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let sweep = small_sweep();
        let one = run_sweep_with_workers(&sweep, 1);
        let many = run_sweep_with_workers(&sweep, 8);
        assert_eq!(one, many);
        assert_eq!(one.to_json().render(), many.to_json().render());
    }

    #[test]
    fn fault_axis_reaches_the_machine_without_changing_the_work() {
        let sweep = Sweep::new("fault")
            .over_cores([4])
            .over_memory_models([tis_machine::MemoryModel::directory_mesh()])
            .over_faults([FaultConfig::none(), FaultConfig::recoverable()])
            .with_workload(WorkloadSpec::synth(SynthSpec::uniform(
                SynthFamily::ForkJoin { width: 8 },
                32,
                5_000,
            )));
        let report = sweep.run();
        assert_eq!(report.cells.len(), 2);
        let (clean, faulted) = (&report.cells[0], &report.cells[1]);
        assert!(!clean.fault.engages());
        assert_eq!(clean.fault_drops + clean.fault_retries + clean.fault_recovery_cycles, 0);
        assert!(faulted.fault.engages());
        assert_ne!(
            faulted.fault.seed,
            FaultConfig::recoverable().seed,
            "the cell's schedule seed is derived from the sweep seed and cell index"
        );
        // Faults are latency-only: the same program ran to completion, only slower.
        assert_eq!(faulted.tasks, clean.tasks);
        assert_eq!(faulted.serial_cycles, clean.serial_cycles);
        assert!(faulted.total_cycles > clean.total_cycles, "recovery latency must show up");
        assert!(faulted.fault_drops > 0 && faulted.fault_recovery_cycles > 0);
        // Replay: the same sweep produces the same faulted cell, bit for bit.
        assert_eq!(sweep.run().cells[1], *faulted);
    }

    #[test]
    fn analysis_passes_change_no_measurement() {
        // The analyses are pure observers: preflighting the graphs and race-checking the
        // traces must leave every simulated number — and the JSON the cells render to,
        // minus the analysis keys themselves — untouched.
        let plain = small_sweep().run();
        let analysed = small_sweep().with_analysis(tis_analyze::AnalysisConfig::full()).run();
        assert_eq!(plain.cells.len(), analysed.cells.len());
        for (p, a) in plain.cells.iter().zip(&analysed.cells) {
            assert_eq!(p.total_cycles, a.total_cycles);
            assert_eq!(p.speedup, a.speedup);
            assert_eq!(p.mem_stall_cycles, a.mem_stall_cycles);
            assert!(a.analysis.engages());
            assert!(!p.analysis.engages());
        }
        // The Erdős–Rényi cells declare address dependences, so their frontiers were
        // actually walked; fork-join cells order purely by barrier and have no conflicting
        // pairs at all. Nothing raced — the runner panics on a race, so reaching this
        // line is the proof.
        for c in &analysed.cells {
            if c.family == "synth-er" {
                assert!(c.race_pairs_checked > 0, "{} checked no pairs", c.workload);
            } else {
                assert_eq!(c.race_pairs_checked, 0, "{} has no conflicts to check", c.workload);
            }
        }
        assert!(plain.cells.iter().all(|c| c.race_pairs_checked == 0));
    }

    #[test]
    fn observing_a_sweep_changes_no_measurement() {
        // Observation is a pure tap on the engine: every simulated number is identical, and
        // the obs-off report renders byte-identical JSON (no obs keys at all).
        let plain = small_sweep().run();
        let observed = small_sweep().with_obs(tis_obs::ObsConfig::full()).run();
        assert_eq!(plain.cells.len(), observed.cells.len());
        for (p, o) in plain.cells.iter().zip(&observed.cells) {
            assert_eq!(p.total_cycles, o.total_cycles);
            assert_eq!(p.speedup, o.speedup);
            assert_eq!(p.mem_stall_cycles, o.mem_stall_cycles);
            assert!(p.obs.is_none());
            let obs = o.obs.as_ref().expect("every cell of a with_obs sweep is observed");
            // The critical path partitions the makespan exactly, and every task's full
            // lifecycle was seen (6 stages per task, minus software-tracked shortcuts).
            assert_eq!(obs.critical.total(), o.total_cycles);
            assert!(obs.task_events >= 6 * o.tasks as u64, "{}: {} events", o.workload, obs.task_events);
            assert!(obs.samples > 0, "full() samples every 1024 cycles");
            assert!(obs.trace_json.contains("traceEvents"));
            assert!(obs.metrics_json.contains("tis-metrics-v1"));
        }
        assert!(!plain.to_json().render().contains("obs_"));
    }

    #[test]
    fn per_cell_opt_in_observes_only_the_chosen_cells() {
        let report = small_sweep().with_obs(tis_obs::ObsConfig::default()).observe_only([2]).run();
        for (i, cell) in report.cells.iter().enumerate() {
            assert_eq!(cell.obs.is_some(), i == 2, "only cell 2 opted in");
        }
    }

    #[test]
    fn one_tenant_batch_cells_are_cycle_identical_to_the_plain_path() {
        // The degenerate scenario — one tenant, batch-at-zero, shared tracker — is a pure
        // passthrough: its cells must reproduce the plain single-program cells' cycle counts
        // exactly, on every platform in the sweep.
        let sweep = small_sweep().over_tenants([None, Some(TenantScenario::batch(1, false))]);
        let report = sweep.run();
        let (plain, tenant): (Vec<_>, Vec<_>) =
            report.cells.iter().partition(|c| c.tenant.is_none());
        assert_eq!(plain.len(), tenant.len());
        for (p, t) in plain.iter().zip(&tenant) {
            assert_eq!(p.total_cycles, t.total_cycles, "{}: degenerate tenant run", p.workload);
            assert_eq!(p.serial_cycles, t.serial_cycles);
            assert_eq!(p.speedup, t.speedup);
            assert_eq!(p.mem_stall_cycles, t.mem_stall_cycles);
            let data = t.tenant.as_ref().expect("co-scheduled cells carry tenant data");
            assert_eq!(data.scenario, "t1-batch-shared");
            assert_eq!(data.reports.len(), 1);
            assert_eq!(data.reports[0].tasks, t.tasks as u64);
            assert_eq!(data.jain, 1.0, "a single tenant is trivially fair");
        }
    }

    #[test]
    fn co_scheduled_cells_report_per_tenant_distributions() {
        let sweep = Sweep::new("mt")
            .over_cores([4])
            .over_platforms([Platform::Phentos, Platform::NanosSw])
            .over_tenants([Some(TenantScenario::batch(3, false))])
            .with_workload(WorkloadSpec::synth(SynthSpec::uniform(
                SynthFamily::ForkJoin { width: 8 },
                32,
                5_000,
            )));
        let report = sweep.run();
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            let data = cell.tenant.as_ref().expect("tenant axis engaged");
            assert_eq!(data.reports.len(), 3);
            let total: u64 = data.reports.iter().map(|r| r.tasks).sum();
            assert_eq!(total, cell.tasks as u64, "per-tenant tasks sum to the cell total");
            assert_eq!(cell.tasks, 96, "three instances of the 32-task workload");
            for r in &data.reports {
                assert!(r.tasks > 0 && r.makespan > 0);
                assert!(r.p50 <= r.p90 && r.p90 <= r.p99, "{}: percentiles are ordered", r.name);
                assert!(r.p99 <= r.makespan, "a turnaround cannot exceed the tenant makespan");
            }
            assert!(data.jain > 0.0 && data.jain <= 1.0 + 1e-12);
            assert!(cell.serial_cycles > 0 && cell.total_cycles > 0);
        }
        // Replay: same sweep, same cells, bit for bit — and worker count changes nothing.
        assert_eq!(sweep.run(), report);
        assert_eq!(run_sweep_with_workers(&sweep, 8), report);
    }

    #[test]
    fn observed_tenant_cells_carry_per_tenant_tracks_and_critical_paths() {
        let sweep = Sweep::new("mt-obs")
            .over_cores([4])
            .over_platforms([Platform::Phentos])
            .over_tenants([Some(TenantScenario::batch(2, false))])
            .with_obs(tis_obs::ObsConfig::default())
            .with_workload(WorkloadSpec::synth(SynthSpec::uniform(
                SynthFamily::ForkJoin { width: 8 },
                32,
                5_000,
            )));
        let report = sweep.run();
        let cell = &report.cells[0];
        let obs = cell.obs.as_ref().expect("observed sweep");
        // The merged-run critical path still partitions the makespan exactly.
        assert_eq!(obs.critical.total(), cell.total_cycles);
        assert_eq!(obs.tenant_critical.len(), 2);
        for (cp, r) in obs.tenant_critical.iter().zip(
            &cell.tenant.as_ref().expect("tenant data").reports,
        ) {
            assert!(cp.makespan > 0);
            assert!(cp.makespan <= r.last_retire, "tenant path is bounded by its last retire");
        }
        // The trace groups tasks into per-tenant process tracks.
        assert!(obs.trace_json.contains("tenant 0"));
        assert!(obs.trace_json.contains("tenant 1"));
    }

    #[test]
    fn tracker_axis_reaches_the_fabric() {
        // A tracker with a single task-memory entry serialises Phentos completely: the
        // makespan must be strictly worse than with the prototype capacities.
        let base = Sweep::new("tracker")
            .over_cores([4])
            .over_trackers([TrackerConfig::default(), TrackerConfig::new(1, 16)])
            .with_workload(WorkloadSpec::synth(SynthSpec::uniform(
                SynthFamily::ForkJoin { width: 8 },
                32,
                5_000,
            )));
        let report = base.run();
        assert_eq!(report.cells.len(), 2);
        let (roomy, starved) = (&report.cells[0], &report.cells[1]);
        assert_eq!(starved.tracker.task_memory_entries, 1);
        assert!(
            starved.total_cycles > roomy.total_cycles,
            "a one-entry task memory must hurt: {} vs {}",
            starved.total_cycles,
            roomy.total_cycles
        );
    }
}
