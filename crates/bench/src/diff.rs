//! Diffing of `BENCH_*.json` artifacts across runs (the ROADMAP's trajectory follow-up).
//!
//! [`diff`] walks two parsed JSON trees in parallel and collects every numeric leaf present in
//! both, keyed by its path (e.g. `workloads[3].platforms.phentos.speedup_over_serial`). The
//! result classifies each changed leaf by whether the change is an improvement, a regression or
//! direction-neutral, using the metric's name: `speedup`/`geomean`/`utilisation` metrics are
//! better when higher, `cycles`/`overhead` metrics are better when lower, and anything else is
//! reported but never gates. The `bench-diff` binary turns this into a human-readable report
//! and a CI exit code.

use crate::Json;

/// Which direction of change is an improvement for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger values are better (speedups, geomeans, utilisation).
    HigherIsBetter,
    /// Smaller values are better (cycle counts, overheads).
    LowerIsBetter,
    /// The metric carries no quality direction (task counts, configuration echoes).
    Neutral,
}

/// Infers the quality direction of a metric from its path. Workload-description echoes
/// (`serial_cycles`, `mean_task_cycles`) are neutral: they restate the input, so a change
/// there means the workload changed, not that the model regressed.
pub fn direction_of(path: &str) -> Direction {
    if path.contains("serial_cycles") || path.contains("mean_task_cycles") {
        Direction::Neutral
    } else if path.contains("speedup") || path.contains("geomean") || path.contains("utilisation") {
        Direction::HigherIsBetter
    } else if path.contains("cycles") || path.contains("overhead") {
        Direction::LowerIsBetter
    } else {
        Direction::Neutral
    }
}

/// One numeric leaf present in both artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Dotted path of the leaf, with catalog rows keyed by workload label where possible.
    pub path: String,
    /// Value in the baseline artifact.
    pub before: f64,
    /// Value in the candidate artifact.
    pub after: f64,
}

impl DiffRow {
    /// Relative change `(after - before) / |before|`; an absolute change when `before` is zero.
    pub fn relative_change(&self) -> f64 {
        if self.before == 0.0 {
            self.after - self.before
        } else {
            (self.after - self.before) / self.before.abs()
        }
    }

    /// Whether this row is a regression worse than `threshold` (a fraction, e.g. `0.05`),
    /// honouring the metric's direction.
    pub fn is_regression(&self, threshold: f64) -> bool {
        match direction_of(&self.path) {
            Direction::HigherIsBetter => self.relative_change() < -threshold,
            Direction::LowerIsBetter => self.relative_change() > threshold,
            Direction::Neutral => false,
        }
    }
}

/// Result of diffing two benchmark artifacts.
#[derive(Debug, Clone, Default)]
pub struct BenchDiff {
    /// Numeric leaves present in both artifacts, in the baseline's order.
    pub rows: Vec<DiffRow>,
    /// Paths present only in the baseline.
    pub only_before: Vec<String>,
    /// Paths present only in the candidate.
    pub only_after: Vec<String>,
}

impl BenchDiff {
    /// Rows whose value changed at all.
    pub fn changed(&self) -> impl Iterator<Item = &DiffRow> {
        self.rows.iter().filter(|r| r.before != r.after)
    }

    /// Rows that regress by more than `threshold` (a fraction).
    pub fn regressions(&self, threshold: f64) -> Vec<&DiffRow> {
        self.rows.iter().filter(|r| r.is_regression(threshold)).collect()
    }

    /// Renders the human-readable report: every changed row, schema differences, and a
    /// regression summary against `threshold`.
    pub fn render(&self, threshold: f64) -> String {
        let mut out = String::new();
        let changed: Vec<&DiffRow> = self.changed().collect();
        if changed.is_empty() {
            out.push_str("no numeric changes\n");
        } else {
            out.push_str(&format!(
                "{:>14} {:>14} {:>9}  metric\n",
                "before", "after", "delta"
            ));
            for r in &changed {
                let marker = if r.is_regression(threshold) {
                    " REGRESSION"
                } else {
                    ""
                };
                out.push_str(&format!(
                    "{:>14.4} {:>14.4} {:>+8.2}%  {}{}\n",
                    r.before,
                    r.after,
                    r.relative_change() * 100.0,
                    r.path,
                    marker
                ));
            }
        }
        for p in &self.only_before {
            out.push_str(&format!("only in baseline:  {p}\n"));
        }
        for p in &self.only_after {
            out.push_str(&format!("only in candidate: {p}\n"));
        }
        let regressions = self.regressions(threshold);
        out.push_str(&format!(
            "{} leaves compared, {} changed, {} regression(s) beyond {:.1}%\n",
            self.rows.len(),
            changed.len(),
            regressions.len(),
            threshold * 100.0
        ));
        out
    }
}

/// Key for an array element: prefer a human-stable identity over the positional index, so
/// reordered or extended artifacts still line up. Catalog rows are keyed by benchmark+input;
/// sweep cells additionally carry their axis coordinates (core count, memory model,
/// NoC-contention point, platform, tracker capacities), because one sweep emits many cells
/// sharing a workload label.
fn element_key(item: &Json, index: usize) -> String {
    let by = |k: &str| item.get(k).and_then(Json::as_str).map(str::to_string);
    let base = match (by("benchmark"), by("input")) {
        (Some(b), Some(i)) => Some(format!("{b} {i}")),
        _ => by("workload").or_else(|| by("label")).or_else(|| by("name")),
    };
    let Some(mut key) = base else {
        return index.to_string();
    };
    if let Some(cores) = item.get("cores").and_then(Json::as_f64) {
        key.push_str(&format!(" c{cores:.0}"));
    }
    if let Some(memory) = by("memory") {
        key.push_str(&format!(" {memory}"));
    }
    if let Some(noc) = by("noc") {
        key.push_str(&format!(" {noc}"));
    }
    if let Some(platform) = by("platform") {
        key.push_str(&format!(" {platform}"));
    }
    if let Some(tracker) = item.get("tracker") {
        if let (Some(tm), Some(at)) = (
            tracker.get("task_memory_entries").and_then(Json::as_f64),
            tracker.get("address_table_entries").and_then(Json::as_f64),
        ) {
            key.push_str(&format!(" tm{tm:.0}-at{at:.0}"));
        }
    }
    if let Some(fault) = by("fault") {
        key.push_str(&format!(" {fault}"));
    }
    key
}

/// Element keys for a whole array, disambiguated: the n-th occurrence of a repeated key gets a
/// `#n` suffix, so duplicate-labelled elements pair up in order instead of all matching the
/// first occurrence.
fn element_keys(items: &[Json]) -> Vec<String> {
    let mut seen: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    items
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let key = element_key(v, i);
            let n = seen.entry(key.clone()).or_insert(0);
            let disambiguated = if *n == 0 { key } else { format!("{key}#{n}") };
            *n += 1;
            disambiguated
        })
        .collect()
}

fn walk(prefix: &str, before: &Json, after: &Json, out: &mut BenchDiff) {
    match (before, after) {
        (Json::Obj(b), Json::Obj(_)) => {
            for (key, bv) in b {
                let path = if prefix.is_empty() { key.clone() } else { format!("{prefix}.{key}") };
                match after.get(key) {
                    Some(av) => walk(&path, bv, av, out),
                    None => collect_paths(&path, bv, &mut out.only_before),
                }
            }
            if let Json::Obj(a) = after {
                for (key, av) in a {
                    if before.get(key).is_none() {
                        let path =
                            if prefix.is_empty() { key.clone() } else { format!("{prefix}.{key}") };
                        collect_paths(&path, av, &mut out.only_after);
                    }
                }
            }
        }
        (Json::Arr(b), Json::Arr(a)) => {
            let b_keys = element_keys(b);
            let a_keys = element_keys(a);
            for (bv, key) in b.iter().zip(&b_keys) {
                let path = format!("{prefix}[{key}]");
                match a_keys.iter().position(|k| k == key) {
                    Some(j) => walk(&path, bv, &a[j], out),
                    None => collect_paths(&path, bv, &mut out.only_before),
                }
            }
            for (av, key) in a.iter().zip(&a_keys) {
                if !b_keys.contains(key) {
                    collect_paths(&format!("{prefix}[{key}]"), av, &mut out.only_after);
                }
            }
        }
        _ => match (before.as_f64(), after.as_f64()) {
            (Some(bn), Some(an)) => {
                out.rows.push(DiffRow { path: prefix.to_string(), before: bn, after: an })
            }
            // Non-numeric leaves (labels, nulls) only matter when their kind disagrees.
            _ if std::mem::discriminant(before) != std::mem::discriminant(after) => {
                out.only_before.push(prefix.to_string());
                out.only_after.push(prefix.to_string());
            }
            _ => {}
        },
    }
}

fn collect_paths(prefix: &str, value: &Json, out: &mut Vec<String>) {
    match value {
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                collect_paths(&format!("{prefix}.{k}"), v, out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                collect_paths(&format!("{prefix}[{}]", element_key(v, i)), v, out);
            }
        }
        _ => out.push(prefix.to_string()),
    }
}

/// Diffs two parsed benchmark artifacts.
pub fn diff(before: &Json, after: &Json) -> BenchDiff {
    let mut out = BenchDiff::default();
    walk("", before, after, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(speedup: f64, cycles: u64) -> Json {
        Json::obj([
            ("figure", Json::Str("fig09".into())),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("benchmark", Json::Str("blackscholes".into())),
                    ("input", Json::Str("4K B64".into())),
                    (
                        "platforms",
                        Json::obj([(
                            "phentos",
                            Json::obj([
                                ("cycles", Json::UInt(cycles)),
                                ("speedup_over_serial", Json::Num(speedup)),
                            ]),
                        )]),
                    ),
                ])]),
            ),
            ("geomeans", Json::obj([("phentos_over_nanos_sw", Json::Num(speedup))])),
        ])
    }

    #[test]
    fn identical_artifacts_have_no_changes_or_regressions() {
        let d = diff(&artifact(4.0, 1000), &artifact(4.0, 1000));
        assert_eq!(d.rows.len(), 3);
        assert_eq!(d.changed().count(), 0);
        assert!(d.regressions(0.0).is_empty());
        assert!(d.render(0.05).contains("0 regression(s)"));
    }

    #[test]
    fn speedup_drop_and_cycle_rise_are_regressions() {
        let d = diff(&artifact(4.0, 1000), &artifact(3.0, 1200));
        let regs = d.regressions(0.05);
        assert_eq!(regs.len(), 3, "two speedup leaves down 25% and cycles up 20%: {regs:?}");
        assert!(d.regressions(0.30).is_empty(), "threshold above the change gates nothing");
        let rendered = d.render(0.05);
        assert!(rendered.contains("REGRESSION"));
        assert!(rendered.contains("workloads[blackscholes 4K B64].platforms.phentos.cycles"));
    }

    #[test]
    fn improvements_are_not_regressions() {
        let d = diff(&artifact(4.0, 1000), &artifact(5.0, 800));
        assert!(d.regressions(0.0).is_empty());
        assert_eq!(d.changed().count(), 3);
    }

    #[test]
    fn workload_rows_match_by_label_not_position() {
        let mut before = artifact(4.0, 1000);
        // Prepend an unrelated workload to the candidate: the original row must still pair up.
        let after = {
            let extra = Json::obj([
                ("benchmark", Json::Str("jacobi".into())),
                ("input", Json::Str("N128 B1".into())),
                ("platforms", Json::obj([("phentos", Json::obj([("cycles", Json::UInt(7))]))])),
            ]);
            let mut a = artifact(4.0, 1000);
            if let Json::Obj(pairs) = &mut a {
                for (k, v) in pairs.iter_mut() {
                    if k == "workloads" {
                        if let Json::Arr(items) = v {
                            items.insert(0, extra.clone());
                        }
                    }
                }
            }
            a
        };
        let d = diff(&before, &after);
        assert_eq!(d.changed().count(), 0, "matched rows are unchanged");
        assert_eq!(d.only_after.len(), 3, "every leaf of the new row is candidate-only");
        assert!(d.only_after.iter().all(|p| p.contains("jacobi N128 B1")));

        // And deleting a key reports baseline-only paths.
        if let Json::Obj(pairs) = &mut before {
            pairs.push(("extra_metric".into(), Json::Num(1.0)));
        }
        let d = diff(&before, &artifact(4.0, 1000));
        assert_eq!(d.only_before, vec!["extra_metric".to_string()]);
    }

    #[test]
    fn sweep_cells_sharing_a_workload_label_pair_by_axis_coordinates() {
        let cell = |cores: u64, platform: &str, cycles: u64| {
            Json::obj([
                ("workload", Json::Str("synth-er(d=0.02) x256 t12000".into())),
                ("cores", Json::UInt(cores)),
                ("platform", Json::Str(platform.to_string())),
                (
                    "tracker",
                    Json::obj([
                        ("task_memory_entries", Json::UInt(256)),
                        ("address_table_entries", Json::UInt(2048)),
                    ]),
                ),
                ("cycles", Json::UInt(cycles)),
            ])
        };
        let sweep = |c2: u64, c4: u64| {
            Json::obj([(
                "cells",
                Json::Arr(vec![cell(2, "phentos", c2), cell(4, "phentos", c4)]),
            )])
        };
        // Only the 4-core cell changes; the 2-core cell must not produce a spurious delta.
        let d = diff(&sweep(1_000, 2_000), &sweep(1_000, 2_500));
        let changed: Vec<&DiffRow> = d.changed().collect();
        assert_eq!(changed.len(), 1, "exactly the 4-core cell changed: {changed:?}");
        assert!(changed[0].path.contains("c4"), "path names the cell's coordinates: {}", changed[0].path);
        assert!(d.only_before.is_empty() && d.only_after.is_empty());

        // Truly identical duplicate keys still pair in order rather than all-to-first.
        let dup = |x: u64, y: u64| {
            Json::Arr(vec![
                Json::obj([("name", Json::Str("probe".into())), ("cycles", Json::UInt(x))]),
                Json::obj([("name", Json::Str("probe".into())), ("cycles", Json::UInt(y))]),
            ])
        };
        let d = diff(&dup(10, 20), &dup(10, 25));
        let changed: Vec<&DiffRow> = d.changed().collect();
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].path, "[probe#1].cycles");
        assert_eq!((changed[0].before, changed[0].after), (20.0, 25.0));
    }

    #[test]
    fn cells_differing_only_in_the_noc_coordinate_pair_by_it() {
        // A contention sweep emits cells identical in every axis except the NoC parameter
        // point; the `noc` coordinate must keep their trajectories label-stable.
        let cell = |noc: &str, cycles: u64| {
            Json::obj([
                ("workload", Json::Str("synth-er(d=0.3) x192 t4000".into())),
                ("cores", Json::UInt(64)),
                ("memory", Json::Str("dir-mesh-c".into())),
                ("noc", Json::Str(noc.to_string())),
                ("platform", Json::Str("phentos".into())),
                ("cycles", Json::UInt(cycles)),
            ])
        };
        let sweep = |a: u64, b: u64| {
            Json::obj([(
                "cells",
                Json::Arr(vec![cell("bw8-buf4-flit16", a), cell("bw4-buf2-flit16", b)]),
            )])
        };
        let d = diff(&sweep(1_000, 2_000), &sweep(1_000, 2_500));
        let changed: Vec<&DiffRow> = d.changed().collect();
        assert_eq!(changed.len(), 1, "only the narrow-link cell changed: {changed:?}");
        assert!(
            changed[0].path.contains("bw4-buf2-flit16"),
            "path names the contention point: {}",
            changed[0].path
        );
        assert!(d.only_before.is_empty() && d.only_after.is_empty());
    }

    #[test]
    fn cells_differing_only_in_the_fault_schedule_pair_by_it() {
        // A fault-injection sweep emits a fault-free cell (no `fault` key at all) next to
        // engaging cells distinguished only by their fault schedule.
        let cell = |fault: Option<&str>, cycles: u64| {
            let mut pairs = vec![
                ("workload".to_string(), Json::Str("blackscholes 4K B64".into())),
                ("cores".to_string(), Json::UInt(8)),
                ("platform".to_string(), Json::Str("phentos".into())),
                ("cycles".to_string(), Json::UInt(cycles)),
            ];
            if let Some(f) = fault {
                pairs.push(("fault".to_string(), Json::Str(f.to_string())));
            }
            Json::Obj(pairs)
        };
        let sweep = |clean: u64, faulted: u64| {
            Json::obj([(
                "cells",
                Json::Arr(vec![
                    cell(None, clean),
                    cell(Some("s1-drop20000-delay50000-dead0-loss10000-r3"), faulted),
                ]),
            )])
        };
        let d = diff(&sweep(1_000, 2_000), &sweep(1_000, 2_500));
        let changed: Vec<&DiffRow> = d.changed().collect();
        assert_eq!(changed.len(), 1, "only the faulted cell changed: {changed:?}");
        assert!(
            changed[0].path.contains("drop20000"),
            "path names the fault schedule: {}",
            changed[0].path
        );
        assert!(d.only_before.is_empty() && d.only_after.is_empty());
    }

    #[test]
    fn direction_inference() {
        assert_eq!(direction_of("geomeans.phentos_over_nanos_sw"), Direction::HigherIsBetter);
        assert_eq!(direction_of("a.b.cycles"), Direction::LowerIsBetter);
        assert_eq!(direction_of("cells[x].lifetime_overhead"), Direction::LowerIsBetter);
        assert_eq!(direction_of("workloads[w].tasks"), Direction::Neutral);
        // Zero baselines fall back to absolute change and never divide by zero.
        let row = DiffRow { path: "x.cycles".into(), before: 0.0, after: 2.0 };
        assert_eq!(row.relative_change(), 2.0);
        assert!(row.is_regression(1.0));
    }
}
