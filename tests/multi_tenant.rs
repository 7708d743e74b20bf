//! The multi-tenant differential and property wall.
//!
//! PR 10 threads tenants through every layer — taskmodel source merging, Picos admission
//! policy, engine accounting, sweep grid, observability. The contract that keeps the rest of
//! the repo honest is *degeneracy*: a 1-tenant batch-at-zero [`TenantSet`] is the legacy
//! single-program run, byte for byte, on every platform. These tests pin that, plus the
//! serving-layer properties the `sweep_multi_tenant` CI bench relies on: worker-count
//! invariance of tenant sweeps, sum-consistent per-tenant accounting, and bit-exact Poisson
//! arrival replay. The last section closes two PR 9 test gaps: the critical-path profiler's
//! typed rejection of streamed records-off runs, and `WindowedPreflight` boundary behaviour.

use proptest::prelude::*;
use tis::analyze::WindowedPreflight;
use tis::bench::{Harness, Platform};
use tis::exp::{
    run_sweep_with_workers, StreamingSynth, Sweep, SynthFamily, SynthSpec, TenantScenario,
    WorkloadSpec,
};
use tis::machine::ExecutionReport;
use tis::obs::{critical_path_for_run, CriticalPathError};
use tis::sim::SimRng;
use tis::taskmodel::{
    ArrivalGen, ArrivalProcess, Dependence, MaterializedSource, TaskProgram, TenantSet,
    TenantTrackerPolicy,
};
use tis::workloads::task_chain;

fn er_program(seed: u64) -> TaskProgram {
    let spec = SynthSpec {
        family: SynthFamily::ErdosRenyi { density: 0.12 },
        tasks: 48,
        task_cycles: 900,
        jitter: 0.5,
    };
    spec.generate(&mut SimRng::new(seed))
}

/// Strips the two fields that are *allowed* to differ between the legacy path and a 1-tenant
/// set: the runtime label (it embeds the source name) and the per-tenant report list (empty
/// on the legacy path by design). Everything else — cycle counts, per-core stats, records,
/// fabric and memory statistics — must be identical.
fn comparable(mut report: ExecutionReport) -> ExecutionReport {
    report.runtime = String::new();
    report.tenants = Vec::new();
    report
}

/// Satellite 1, the differential wall: a 1-tenant batch-at-zero `TenantSet` is
/// *report-equal* (not just cycle-equal) to the legacy single-program path on all four
/// platforms, for both a serial chain and a random DAG.
#[test]
fn one_tenant_set_is_report_equal_to_the_single_program_path() {
    let harness = Harness::paper_prototype();
    for program in [task_chain(64, 2), er_program(7)] {
        for platform in Platform::ALL {
            let legacy = harness.run(platform, &program).expect("legacy run");
            let set = TenantSet::new().tenant(
                "t0",
                Box::new(MaterializedSource::new(&program)),
                ArrivalProcess::BatchAtZero,
            );
            let (tenant_report, data) = harness
                .run_tenants(platform, set.into_source(SimRng::new(99)), true, None)
                .expect("tenant run");

            // The tenant wrapper reports exactly one tenant, owning every task.
            assert_eq!(data.names, vec!["t0".to_string()]);
            assert_eq!(tenant_report.tenants.len(), 1);
            assert_eq!(tenant_report.tenants[0].tasks, legacy.tasks_retired);
            assert!(data.assignment.iter().all(|&t| t == 0));

            assert_eq!(
                comparable(legacy),
                comparable(tenant_report),
                "1-tenant set diverged from the single-program path on {platform:?} \
                 ({})",
                program.name()
            );
        }
    }
}

/// Per-tenant accounting on a genuinely co-scheduled run: task counts sum to the aggregate,
/// every distribution is ordered, and fairness stays in range. Runs on the hardware-tracked
/// platform and the all-software baseline.
#[test]
fn co_scheduled_accounting_is_sum_consistent_and_ordered() {
    let harness = Harness::with_cores(8);
    for platform in [Platform::Phentos, Platform::NanosSw] {
        let set = TenantSet::new()
            .tenant(
                "victim",
                Box::new(MaterializedSource::new(&er_program(11))),
                ArrivalProcess::Poisson { mean_interarrival: 1_000 },
            )
            .tenant(
                "burst",
                Box::new(MaterializedSource::new(&er_program(12))),
                ArrivalProcess::Bursty { burst: 16, period: 40_000 },
            )
            .tenant(
                "batch",
                Box::new(MaterializedSource::new(&task_chain(32, 1))),
                ArrivalProcess::BatchAtZero,
            )
            .with_policy(TenantTrackerPolicy::Partitioned { per_tenant_entries: 8 });
        let (report, data) = harness
            .run_tenants(platform, set.into_source(SimRng::new(3)), true, None)
            .expect("co-scheduled run");

        assert_eq!(report.tenants.len(), 3);
        let total: u64 = report.tenants.iter().map(|t| t.tasks).sum();
        assert_eq!(total, report.tasks_retired, "per-tenant tasks must sum to the aggregate");
        assert_eq!(data.assignment.len(), report.tasks_retired as usize);
        for t in &report.tenants {
            assert!(t.p50 <= t.p90 && t.p90 <= t.p99, "{platform:?}/{}: disordered", t.name);
            assert!(t.p99 <= t.makespan, "{platform:?}/{}: p99 above makespan", t.name);
            assert!(t.makespan <= report.total_cycles);
            assert!(t.turnaround_total >= t.p50, "totals can never undercut the median");
            assert!(t.mean_turnaround() > 0.0);
        }
        let jain = report.tenant_jain_fairness();
        assert!((0.0..=1.0 + 1e-12).contains(&jain), "Jain index out of range: {jain}");
    }
}

fn arbitrary_scenario() -> impl Strategy<Value = TenantScenario> {
    (2usize..=8, 0u8..3, 1u64..5_000, any::<bool>()).prop_map(|(n, kind, param, part)| {
        match kind {
            0 => TenantScenario::batch(n, part),
            1 => TenantScenario::poisson(n, param.max(1), part),
            _ => TenantScenario::bursty(n, 1 + param % 32, 10_000 + param * 7, part),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite 2a: for arbitrary (seed, tenant count, arrival process, policy), the sweep
    /// artifact — down to the rendered JSON bytes — is identical at 1, 2 and 8 host workers,
    /// and per-tenant accounting inside every cell stays sum-consistent.
    #[test]
    fn tenant_sweeps_are_worker_count_invariant(seed in any::<u64>(), scenario in arbitrary_scenario()) {
        let sweep = Sweep::new("tenant-prop")
            .over_cores([4])
            .over_platforms([Platform::Phentos])
            .over_tenants([None, Some(scenario)])
            .with_seed(seed)
            .with_workload(WorkloadSpec::synth(SynthSpec {
                family: SynthFamily::ErdosRenyi { density: 0.15 },
                tasks: 24,
                task_cycles: 700,
                jitter: 0.25,
            }));
        let baseline = run_sweep_with_workers(&sweep, 1);
        let json = baseline.to_json().render();
        for workers in [2, 8] {
            let parallel = run_sweep_with_workers(&sweep, workers);
            prop_assert_eq!(&json, &parallel.to_json().render(),
                "{}-worker tenant sweep diverged", workers);
        }
        for cell in &baseline.cells {
            if let Some(data) = &cell.tenant {
                let total: u64 = data.reports.iter().map(|r| r.tasks).sum();
                prop_assert_eq!(total, cell.tasks as u64);
                prop_assert!((0.0..=1.0 + 1e-12).contains(&data.jain));
            }
        }
    }

    /// Satellite 2b: Poisson arrivals replay bit-exact from `(seed, config)` — the whole
    /// schedule is a pure function of the RNG substream — and arrival times never decrease.
    #[test]
    fn poisson_arrivals_replay_bit_exact(seed in any::<u64>(), mean in 1u64..100_000) {
        let gen = |s: u64| {
            let mut g = ArrivalGen::new(
                ArrivalProcess::Poisson { mean_interarrival: mean },
                SimRng::new(s).stream("tenant-arrivals", 0),
            );
            (0..256).map(|_| g.next_arrival()).collect::<Vec<u64>>()
        };
        let a = gen(seed);
        let b = gen(seed);
        prop_assert_eq!(&a, &b, "same (seed, config) must replay the same schedule");
        prop_assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals must be monotone");
        // A different seed draws a different schedule (256 draws make a collision
        // astronomically unlikely for any mean that can produce distinct gaps).
        if mean > 2 {
            prop_assert_ne!(a, gen(seed ^ 0xDEAD_BEEF));
        }
    }
}

/// The arrival substream is pinned: these exact draws back the checked-in
/// `BENCH_sweep_multi-tenant.json` baseline, so silent RNG drift fails here before it fails
/// the CI trajectory diff.
#[test]
fn poisson_arrival_schedule_is_pinned() {
    let mut g = ArrivalGen::new(
        ArrivalProcess::Poisson { mean_interarrival: 1_000 },
        SimRng::new(42).stream("tenant-arrivals", 0),
    );
    let first: Vec<u64> = (0..8).map(|_| g.next_arrival()).collect();
    assert_eq!(first, PINNED_POISSON_42, "Poisson arrival stream drifted from the pinned replay");
}

/// First eight arrivals of `Poisson{mean=1000}` under `SimRng::new(42).stream("tenant-arrivals", 0)`.
const PINNED_POISSON_42: [u64; 8] = [2, 467, 2105, 2646, 2648, 5427, 5967, 7068];

/// PR 9 gap, per-platform: a streamed records-off run retires tasks that no trace observed;
/// the critical-path profiler must reject it with the typed error instead of decomposing the
/// makespan into all-scheduler noise.
#[test]
fn streamed_records_off_runs_are_rejected_by_the_critical_path_profiler() {
    let spec = SynthSpec::uniform(SynthFamily::Chain, 2_000, 300);
    for platform in Platform::ALL {
        let source = StreamingSynth::new(spec, 128, SimRng::new(5));
        let report = Harness::paper_prototype()
            .run_source(platform, Box::new(source), false)
            .expect("streamed run");
        assert_eq!(report.tasks_retired, 2_000);
        let verdict = critical_path_for_run(&[], &[], report.total_cycles, report.tasks_retired);
        assert_eq!(
            verdict,
            Err(CriticalPathError::NoObservedSpans { tasks_retired: 2_000 }),
            "{platform:?}: an unobserved streamed run must be rejected, not mis-profiled"
        );
    }
}

/// PR 9 gap: a window of 1 (including the clamp from 0) still proves every adjacent
/// same-address conflict; only pairs bridged by an evicted frontier age out.
#[test]
fn windowed_preflight_window_one_proves_adjacent_conflicts() {
    for requested in [0usize, 1] {
        let mut pf = WindowedPreflight::new(requested);
        for id in 0..10u64 {
            pf.observe_spawn(id, &[Dependence::read_write(0x100)]).expect("valid spawn");
        }
        let analysis = pf.finish();
        assert_eq!(analysis.window, 1, "window clamps to at least 1");
        assert_eq!(analysis.tasks, 10);
        // Every task rewrites the address the previous one just touched, so the frontier
        // entry is always inside the 1-task window: all 9 adjacent pairs are proven.
        assert_eq!(analysis.conflict_pairs, 9);
        assert_eq!(analysis.covered_in_window, 9);
        assert_eq!(analysis.aged_out_addresses, 0);
    }

    // Alternate two addresses: with a 1-task window each frontier entry is evicted before
    // the next touch of its address, so no pair is provable and the age-outs are counted.
    let mut pf = WindowedPreflight::new(1);
    for id in 0..10u64 {
        let addr = if id % 2 == 0 { 0x200 } else { 0x240 };
        pf.observe_spawn(id, &[Dependence::read_write(addr)]).expect("valid spawn");
    }
    let analysis = pf.finish();
    assert_eq!(analysis.conflict_pairs, 0, "distance-2 pairs are invisible to a 1-task window");
    assert!(analysis.aged_out_addresses > 0, "evictions must be counted, not silent");
}

/// PR 9 gap: the degenerate single-task program flows through the windowed checker.
#[test]
fn windowed_preflight_accepts_a_single_task_program() {
    let mut pf = WindowedPreflight::new(4);
    pf.observe_spawn(0, &[Dependence::read_write(0x300), Dependence::read(0x340)])
        .expect("valid spawn");
    let analysis = pf.finish();
    assert_eq!(analysis.tasks, 1);
    assert_eq!(analysis.taskwaits, 0);
    assert_eq!(analysis.phases, 1);
    assert_eq!(analysis.conflict_pairs, 0);
    assert_eq!(analysis.peak_tracked_addresses, 2);
    assert_eq!(analysis.aged_out_addresses, 0);
}

/// PR 9 gap: a conflict whose endpoints sit exactly one window apart is still proven — the
/// amortised age-out sweep keeps state touched at the horizon — while a pair one full sweep
/// beyond is evicted and counted as aged out.
#[test]
fn windowed_preflight_frontier_at_the_window_boundary() {
    // Distance exactly `window` (4): writer at T0, fillers at T1..T3, writer again at T4.
    let mut pf = WindowedPreflight::new(4);
    pf.observe_spawn(0, &[Dependence::read_write(0x400)]).expect("valid spawn");
    for id in 1..4u64 {
        pf.observe_spawn(id, &[Dependence::read_write(0x400 + id * 0x40)]).expect("valid spawn");
    }
    pf.observe_spawn(4, &[Dependence::read_write(0x400)]).expect("valid spawn");
    let analysis = pf.finish();
    assert_eq!(analysis.conflict_pairs, 1, "a pair at exactly window distance is provable");
    assert_eq!(analysis.covered_in_window, 1);
    assert_eq!(analysis.aged_out_addresses, 0);

    // Two windows apart: the sweep at T8 evicts T0's frontier before T8's write lands.
    let mut pf = WindowedPreflight::new(4);
    pf.observe_spawn(0, &[Dependence::read_write(0x500)]).expect("valid spawn");
    for id in 1..8u64 {
        pf.observe_spawn(id, &[Dependence::read_write(0x500 + id * 0x40)]).expect("valid spawn");
    }
    pf.observe_spawn(8, &[Dependence::read_write(0x500)]).expect("valid spawn");
    let analysis = pf.finish();
    assert_eq!(analysis.conflict_pairs, 0, "a pair two windows apart is not provable");
    assert!(analysis.aged_out_addresses > 0, "the bridged eviction must be counted");
}
