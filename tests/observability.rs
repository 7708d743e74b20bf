//! Tier-1 gates for the observability layer (`tis-obs`).
//!
//! Two claims are machine-checked here:
//!
//! 1. **Observation is free when off and invisible when on.** Attaching a [`NullObserver`]
//!    (or a full [`Recorder`]) to any run produces an [`ExecutionReport`] *equal* to the
//!    unobserved run — same cycles, same records, same stats — on the whole Figure 7 grid, a
//!    two-tenant co-scheduled run on all four platforms, and a Figure 9 subset. The five checked-in `bench-baselines/` artifacts carry no obs keys,
//!    so obs-off artifacts stay byte-identical to the pre-obs seed.
//! 2. **What it reports is exact.** The critical-path profiler partitions every makespan into
//!    gap-free segments whose totals sum to the makespan *exactly*, across the entire paper
//!    catalog on all four platforms; per-core busy/idle splits partition `cores × makespan`
//!    the same way; and a hand-built diamond DAG exports a byte-pinned Perfetto document
//!    (golden file: `bench-baselines/TRACE_diamond_golden.json`, regenerate with
//!    `TIS_REPIN=1 cargo test --test observability`).

use std::path::Path;

use tis::analyze::GraphSpec;
use tis::bench::{figure7_workloads, Harness, Platform};
use tis::machine::MachineConfig;
use tis::obs::{trace_json_tenants, NullObserver, ObsConfig, Recorder};
use tis::sim::json::Json;
use tis::sim::SimRng;
use tis::taskmodel::{
    ArrivalProcess, Dependence, MaterializedSource, Payload, ProgramBuilder, TaskProgram, TenantSet,
};
use tis::workloads::{entry_for_cores, paper_catalog_for_cores};

/// The five artifacts CI diffs against; any obs key in one would mean obs-off output moved.
const BASELINES: &[&str] = &[
    "BENCH_fig09.json",
    "BENCH_sweep_fault-injection.json",
    "BENCH_sweep_memory-scaling.json",
    "BENCH_sweep_noc-contention.json",
    "BENCH_sweep_tracker-capacity.json",
];

fn baseline_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/bench-baselines"))
}

/// A 4-task diamond: t0 fans out to t1/t2, which join in t3. Fixed payloads (t1 carries a
/// DRAM transfer so a memory-stall segment exists), so the export is fully deterministic.
fn diamond_program() -> TaskProgram {
    let mut b = ProgramBuilder::new("diamond-golden");
    b.spawn(Payload::new(2_000, 0), vec![Dependence::write(0x1000)]);
    b.spawn(Payload::new(3_000, 4_096), vec![Dependence::read(0x1000), Dependence::write(0x2000)]);
    b.spawn(Payload::new(2_500, 0), vec![Dependence::read(0x1000), Dependence::write(0x3000)]);
    b.spawn(Payload::new(1_500, 0), vec![Dependence::read(0x2000), Dependence::read(0x3000)]);
    b.taskwait();
    b.build()
}

#[test]
fn observers_change_nothing_on_the_fig07_grid() {
    // Every cell of the Figure 7 grid, three ways: unobserved, NullObserver, full Recorder.
    // All three reports must be *equal* — not just same-makespan: same records, same stats.
    let prototype = Harness::paper_prototype();
    let single =
        Harness { machine: MachineConfig { cores: 1, ..prototype.machine }, ..prototype.clone() };
    for platform in Platform::ALL {
        for (label, program) in figure7_workloads(50) {
            let plain = single.run(platform, &program).expect(label);
            let mut null = NullObserver;
            let nulled = single.run_observed(platform, &program, &mut null).expect(label);
            assert_eq!(plain, nulled, "{label} on {}: NullObserver moved the run", platform.key());
            let mut rec = Recorder::new(ObsConfig::full());
            let recorded = single.run_observed(platform, &program, &mut rec).expect(label);
            assert_eq!(plain, recorded, "{label} on {}: recording moved the run", platform.key());
            // And the recording itself is coherent: all 50 tasks seen start to finish.
            let complete =
                rec.spans().iter().filter(|s| s.submit.is_some() && s.retire.is_some()).count();
            assert_eq!(complete, 50, "{label} on {}: incomplete spans", platform.key());
        }
    }
    // Co-scheduled runs take the same observer path: two Figure 7 workloads as tenants of one
    // eight-core machine, run with and without a recorder.
    let tenants = || {
        let [(free, free_program), (chain, chain_program), ..] = &figure7_workloads(50)[..] else {
            unreachable!("Figure 7 has four workloads")
        };
        TenantSet::new()
            .tenant(*free, Box::new(MaterializedSource::new(free_program)), ArrivalProcess::BatchAtZero)
            .tenant(
                *chain,
                Box::new(MaterializedSource::new(chain_program)),
                ArrivalProcess::Poisson { mean_interarrival: 500 },
            )
            .into_source(SimRng::new(7))
    };
    for platform in Platform::ALL {
        let (plain, plain_data) =
            prototype.run_tenants(platform, tenants(), true, None).expect("tenant run");
        let mut rec = Recorder::new(ObsConfig::full());
        let (recorded, data) =
            prototype.run_tenants(platform, tenants(), true, Some(&mut rec)).expect("tenant run");
        assert_eq!(plain, recorded, "tenants on {}: recording moved the run", platform.key());
        assert_eq!(plain_data, data, "tenants on {}: recording moved the assignment", platform.key());
        // The per-tenant trace renders one task-body slice per retired task, on its tenant's
        // track group.
        let trace = trace_json_tenants(
            "fig07-tenants",
            prototype.cores(),
            rec.spans(),
            rec.metrics().samples(),
            &data.names,
            &data.assignment,
        );
        let parsed = Json::parse(&trace.render()).expect("tenant trace parses");
        let Some(Json::Arr(events)) = parsed.get("traceEvents") else {
            panic!("traceEvents must be an array");
        };
        for (t, tenant) in plain.tenants.iter().enumerate() {
            let bodies = events
                .iter()
                .filter(|e| e.get("cat").and_then(Json::as_str) == Some("task"))
                .filter(|e| e.get("pid").and_then(Json::as_f64) == Some(t as f64))
                .count();
            assert_eq!(bodies as u64, tenant.tasks, "tenant {t} on {}: trace lost tasks", platform.key());
        }
    }
}

#[test]
fn observers_change_nothing_on_a_fig09_subset() {
    // The paper's 8-core scale, one dependence-heavy catalog entry per platform trio.
    let harness = Harness::paper_prototype();
    let w = entry_for_cores("sparselu", "N32 M4", harness.cores()).expect("catalog entry");
    for platform in Platform::FIGURE9 {
        let plain = harness.run(platform, &w.program).expect("plain run");
        let mut rec = Recorder::new(ObsConfig::default());
        let recorded = harness.run_observed(platform, &w.program, &mut rec).expect("observed run");
        assert_eq!(plain, recorded, "sparselu on {}: observation moved the run", platform.key());
        assert!(rec.task_events() > 0);
    }
}

#[test]
fn checked_in_baselines_carry_no_obs_keys() {
    // The obs keys are emitted only for observed cells, so the five pre-obs artifacts must be
    // reproducible byte-for-byte by an obs-off sweep: no obs key may ever appear in them.
    for name in BASELINES {
        let path = baseline_dir().join(name);
        let contents = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for needle in ["obs_sample_interval", "obs_task_events", "obs_samples", "critical_path"] {
            assert!(!contents.contains(needle), "{name} contains obs key {needle}");
        }
        Json::parse(&contents).unwrap_or_else(|e| panic!("{name} is not valid JSON: {e}"));
    }
}

#[test]
fn diamond_perfetto_export_matches_the_golden_file() {
    let program = diamond_program();
    let harness = Harness::with_cores(2);
    let mut rec = Recorder::new(ObsConfig::full());
    let report = harness.run_observed(Platform::Phentos, &program, &mut rec).expect("diamond");
    let doc = rec.perfetto_json("diamond-golden", harness.cores());
    let rendered = doc.render();

    let golden_path = baseline_dir().join("TRACE_diamond_golden.json");
    if std::env::var_os("TIS_REPIN").is_some_and(|v| !v.is_empty()) {
        std::fs::write(&golden_path, &rendered).expect("write golden trace");
        println!("re-pinned {}", golden_path.display());
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{}: {e} (regenerate with TIS_REPIN=1)", golden_path.display()));
    assert_eq!(
        rendered, golden,
        "diamond Perfetto export drifted from the golden file; if intentional, regenerate \
         with TIS_REPIN=1 cargo test --test observability"
    );

    // Schema checks on top of the byte pin: the document is loadable trace-event JSON.
    let parsed = Json::parse(&golden).expect("golden trace parses");
    assert_eq!(parsed, doc);
    let Some(Json::Arr(events)) = parsed.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("every event has a phase");
        assert!(matches!(ph, "M" | "X" | "C"), "unexpected phase {ph}");
    }
    // Three slices per executed task (fetch overhead, body, retire overhead).
    let slices = events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).count();
    assert_eq!(slices, 3 * program.task_count());
    // The four task bodies appear, each timestamped inside the run.
    for task in 0..4u64 {
        let body = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(&format!("task {task}")))
            .unwrap_or_else(|| panic!("task {task} has no body slice"));
        let ts = body.get("ts").and_then(Json::as_f64).expect("body has ts") as u64;
        assert!(ts < report.total_cycles);
    }
}

#[test]
fn critical_path_partitions_every_catalog_makespan_exactly() {
    // The profiler's exactness guarantee, exercised at full breadth: every catalog workload ×
    // all four platforms. Also the satellite check: per-core busy/idle splits partition
    // `cores × makespan` exactly on the same runs.
    let harness = Harness::with_cores(4);
    for w in paper_catalog_for_cores(harness.cores()) {
        let edges = GraphSpec::from_program(&w.program).edges;
        for platform in Platform::ALL {
            let mut rec = Recorder::new(ObsConfig { sample_interval: 0, mem_events: false });
            let report = harness
                .run_observed(platform, &w.program, &mut rec)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", w.label(), platform.key()));
            let cp = rec.critical_path(&edges, report.total_cycles);
            assert_eq!(
                cp.total(),
                report.total_cycles,
                "{} on {}: decomposition must sum to the makespan",
                w.label(),
                platform.key()
            );
            assert!(!cp.tasks().is_empty(), "{} on {}: empty path", w.label(), platform.key());
            let util = report.core_utilisation();
            assert_eq!(util.len(), harness.cores());
            let split: u64 = util.iter().map(|u| u.busy_cycles + u.idle_cycles).sum();
            assert_eq!(
                split,
                report.total_cycles * harness.cores() as u64,
                "{} on {}: busy+idle must partition cores × makespan",
                w.label(),
                platform.key()
            );
        }
    }
}
