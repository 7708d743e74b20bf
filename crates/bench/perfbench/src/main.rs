//! Host-speed benchmark of the simulator: one workload per process.
//!
//! ```text
//! tis-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tis-perfbench --workload <name> --seed <n> --once
//! tis-perfbench --fidelity
//! ```
//!
//! Repeats the workload (a "rep": build inputs from the seed, simulate, check every run)
//! until `--seconds` have passed, with at least [`MIN_REPS`] timed reps after one warm-up
//! rep. Every rep of a run simulates the same inputs, so rep times differ only by host
//! interference, which can only slow a rep down.
//!
//! - `--trace 0` reports `tasks_per_host_s` from each simulated run's fastest time over
//!   the timed reps (a rep of `paper-repro` holds 31 runs, the others one), and `setup_s`
//!   as the fastest set-up over the same reps.
//! - `--trace 1` alternates an untraced rep with a traced one and reports the per-layer
//!   metrics as medians over the traced reps. Layer times have the tap overhead subtracted
//!   per tapped call (see [`layer_metrics`]).
//! - `--once` runs a single rep and reports the process's peak RSS, which is then one
//!   rep's.
//! - `--fidelity` runs Figures 7 and 9 in full once and reports their errors against the
//!   paper.
//!
//! The last line of stdout is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
//! A human-readable table goes to stderr. `run.py` next to this package builds and drives it.

#![forbid(unsafe_code)]

mod cells;
mod exec;
mod gate;
mod taps;

use std::time::Instant;

use cells::{fidelity_rep, run_rep, Layers, Mode, Rep, Workload};
use gate::Gate;
use taps::{Layer, SourceLayer, TapCost};

/// Fewest timed reps a run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Args {
    /// `None` only with `fidelity`.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    once: bool,
    fidelity: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: tis-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    eprintln!("       tis-perfbench --workload <name> --seed <n> --once");
    eprintln!("       tis-perfbench --fidelity");
    eprintln!(
        "workloads: {}",
        Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0, 10.0, false);
    let (mut once, mut fidelity) = (false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--once" => once = true,
            "--fidelity" => fidelity = true,
            _ => {}
        }
        if matches!(flag.as_str(), "--once" | "--fidelity") {
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if workload.is_none() && !fidelity {
        usage("--workload is required");
    }
    Args {
        workload,
        seed,
        seconds,
        trace,
        once,
        fidelity,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of one traced rep; `plain_run_s` is the paired untraced rep's.
/// Layer times have the tap overhead subtracted per tapped call: `calibrated`'s split between
/// a tap's window and its surroundings, scaled to the traced rep's time over the untraced.
fn layer_metrics(rep: &Rep, l: &Layers, plain_run_s: f64, calibrated: TapCost) -> Vec<Metric> {
    let t = &l.tally;
    let cost = calibrated.scaled_to(rep.run_s - plain_run_s, t.total_taps());
    let s = &l.sums;
    let tasks = rep.tasks as f64;
    let per_task = |n: u64| ratio(n as f64, tasks);
    let exp = SourceLayer::Exp as usize;
    vec![
        (
            "machine.steps_per_task",
            per_task(t.total_steps()),
            "steps/task",
        ),
        (
            "machine.waiting_steps_per_task",
            per_task(t.steps[1]),
            "steps/task",
        ),
        ("machine.loop_self_s", t.loop_self_s(l.engine_s, cost), "s"),
        ("machine.validate_s", l.validate_s, "s"),
        ("machine.sim_cycles", s.sim_cycles as f64, "cycles"),
        (
            "machine.idle_cycle_frac",
            ratio(s.idle_cycles as f64, s.core_cycles as f64),
            "ratio",
        ),
        ("machine.tasks", tasks, "count"),
        ("machine.steps_progressed", t.steps[0] as f64, "count"),
        ("machine.steps_waiting", t.steps[1] as f64, "count"),
        ("core.step_self_s", t.step_self_s(Layer::Core, cost), "s"),
        ("core.fabric_s", t.fabric_s(Layer::Core, cost), "s"),
        (
            "core.fabric_ops",
            t.fabric_ops[Layer::Core as usize] as f64,
            "count",
        ),
        (
            "core.fabric_ops_per_task",
            per_task(t.fabric_ops[Layer::Core as usize]),
            "ops/task",
        ),
        ("core.fetch_failures", s.tis_fetch_failures as f64, "count"),
        (
            "core.fetch_hit_ratio",
            ratio(
                s.tis_dispatched as f64,
                (s.tis_dispatched + s.tis_fetch_failures) as f64,
            ),
            "ratio",
        ),
        (
            "picos.submit_fail_ratio",
            ratio(
                s.tis_submit_failures as f64,
                (s.tis_submitted + s.tis_submit_failures) as f64,
            ),
            "ratio",
        ),
        ("nanos.step_self_s", t.step_self_s(Layer::Nanos, cost), "s"),
        ("nanos.fabric_s", t.fabric_s(Layer::Nanos, cost), "s"),
        (
            "nanos.fabric_ops",
            t.fabric_ops[Layer::Nanos as usize] as f64,
            "count",
        ),
        (
            "exp.source_poll_s",
            t.source_time_s(SourceLayer::Exp, cost),
            "s",
        ),
        ("exp.source_polls", t.source_polls[exp] as f64, "count"),
        (
            "exp.source_polls_per_task",
            per_task(t.source_polls[exp]),
            "polls/task",
        ),
        ("exp.source_blocked", t.source_blocked[exp] as f64, "count"),
        (
            "exp.source_blocked_ratio",
            ratio(t.source_blocked[exp] as f64, t.source_polls[exp] as f64),
            "ratio",
        ),
        ("taskmodel.tenant_self_s", t.tenant_self_s(cost), "s"),
        ("analyze.preflight_s", l.preflight_s, "s"),
        ("analyze.race_s", l.race_s, "s"),
        ("analyze.race_pairs", l.race_pairs as f64, "count"),
        ("workloads.gen_s", l.gen_s, "s"),
        (
            "mem.accesses_per_task",
            per_task(s.mem_accesses),
            "accesses/task",
        ),
        ("mem.stall_cycles", s.mem_stall_cycles as f64, "cycles"),
        (
            "mem.noc_messages_per_task",
            per_task(s.noc_messages),
            "msgs/task",
        ),
        (
            "mem.noc_link_wait_cycles",
            s.noc_link_wait_cycles as f64,
            "cycles",
        ),
        ("obs.record_s", l.record_s, "s"),
        ("obs.export_s", l.export_s, "s"),
        ("obs.trace_mb", l.trace_bytes as f64 / 1e6, "MB"),
        ("obs.spans", l.spans as f64, "count"),
        (
            "trace_overhead_frac",
            ratio(rep.run_s, plain_run_s),
            "ratio",
        ),
        ("tap_cost_ns", cost.total_s() * 1e9, "ns"),
    ]
}

/// Per-metric medians over several reps' metric lists (all in the same order).
fn median_metrics(per_rep: &[Vec<Metric>]) -> Vec<Metric> {
    per_rep[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| (name, median(per_rep.iter().map(|m| m[i].1).collect()), unit))
        .collect()
}

fn print_result(gate: &Gate, metrics: &[Metric]) {
    eprintln!(
        "runs: {} attempted, {} failed (fail_frac {})",
        gate.attempted,
        gate.failed,
        ratio(gate.failed as f64, gate.attempted as f64)
    );
    for (name, value, unit) in metrics {
        eprintln!("  {name:<34} {value:>16.6} {unit}");
    }
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed
    );
}

/// A finite JSON number; a non-finite value (an empty median) becomes `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// This process's peak resident set (`VmHWM`), in MB. Unlike `getrusage`'s `ru_maxrss`, it
/// covers only the current program image, not the parent's memory at the time of `exec`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn fidelity_metrics(rep: &Rep) -> Vec<Metric> {
    let (fig7, fig9) = rep.fidelity.unwrap_or((f64::NAN, f64::NAN));
    vec![("fig7_err_pct", fig7, "%"), ("fig9_err_pct", fig9, "%")]
}

fn main() {
    let args = parse_args();
    let mut gate = Gate::default();
    if args.fidelity {
        eprintln!("fidelity: Figures 7 and 9 in full, once");
        let rep = fidelity_rep(&mut gate);
        print_result(&gate, &fidelity_metrics(&rep));
        return;
    }
    let workload = args.workload.expect("parse_args requires --workload");
    eprintln!(
        "{}: seed {} ({}), {}",
        workload.name(),
        args.seed,
        if workload.seeded() {
            "seeded inputs"
        } else {
            "fixed paper inputs; the seed is unused"
        },
        if args.once {
            "one rep".to_string()
        } else {
            format!("{} s, trace {}", args.seconds, u8::from(args.trace))
        }
    );
    if args.once {
        run_rep(workload, args.seed, Mode::Plain, None, &mut gate);
        print_result(&gate, &[("peak_rss_mb", peak_rss_mb(), "MB")]);
        return;
    }
    let start = Instant::now();
    // Rep 0 warms caches and lazy set-up; the loop then times at least MIN_REPS more.
    let more = |reps: usize| reps <= MIN_REPS || start.elapsed().as_secs_f64() < args.seconds;
    let metrics = if args.trace {
        let cost = TapCost::calibrate();
        let mut per_rep = Vec::new();
        let mut first: Option<Rep> = None;
        while more(per_rep.len()) {
            let plain = run_rep(workload, args.seed, Mode::Plain, first.as_ref(), &mut gate);
            let traced = run_rep(workload, args.seed, Mode::Traced, Some(&plain), &mut gate);
            if let Some(layers) = &traced.layers {
                per_rep.push(layer_metrics(&traced, layers, plain.run_s, cost));
            }
            first.get_or_insert(plain);
        }
        median_metrics(&per_rep[1..])
    } else {
        let mut reps: Vec<Rep> = Vec::new();
        while more(reps.len()) {
            let mut rep = run_rep(workload, args.seed, Mode::Plain, reps.first(), &mut gate);
            eprintln!(
                "  rep {}: setup {:.6} s, {} tasks in {:.3} s ({:.0} tasks/host-s)",
                reps.len(),
                rep.setup_s,
                rep.tasks,
                rep.run_s,
                ratio(rep.tasks as f64, rep.run_s)
            );
            if !reps.is_empty() {
                rep.reports.clear();
            }
            reps.push(rep);
        }
        // Each run's fastest time, and the fastest set-up, over the timed reps: identical
        // work, least interference.
        let timed = &reps[1..];
        let fastest_s: f64 = (0..timed[0].run_secs.len())
            .map(|k| {
                timed
                    .iter()
                    .map(|r| r.run_secs[k])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        vec![
            (
                "tasks_per_host_s",
                ratio(timed[0].tasks as f64, fastest_s),
                "1/s",
            ),
            (
                "setup_s",
                timed
                    .iter()
                    .map(|r| r.setup_s)
                    .fold(f64::INFINITY, f64::min),
                "s",
            ),
        ]
    };
    print_result(&gate, &metrics);
}
