//! Rendering: the metric tables a person reads, the one-line result the
//! driver reads, and the result file `compare` reads.

use crate::json::{obj, Value};
use crate::metrics::Metric;
use crate::spec;

/// What one workload produced: both passes' metrics and the op counts.
pub struct WorkloadResult {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// `min(cost.bound_*)` equals `sim_mops` (traced runs only).
    pub bounds_agree: Option<bool>,
    /// Labelled raw series of the untraced pass, printed beside the
    /// metrics taken from them: segment rates, per-cycle recovery times.
    pub series: Vec<(&'static str, Vec<f64>)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.bounds_agree != Some(false)
    }
}

fn unit_of(name: &str) -> &'static str {
    spec::end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| {
            spec::PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.unit)
        })
        .unwrap_or("")
}

/// The share by which a host median's own samples scatter (or drift),
/// if that exceeds the metric's bound: such a value is `unresolved`.
pub fn unsteady(m: &Metric) -> Option<f64> {
    let bound = spec::end_to_end(m.name)?.bound;
    let scatter = m.spread.unwrap_or(0.0).max(m.drift.unwrap_or(0.0).abs());
    (scatter > bound).then_some(scatter)
}

pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let mut notes = Vec::new();
        if m.samples > 0 {
            notes.push(format!("n={}", m.samples));
        }
        if let Some(s) = m.spread {
            notes.push(format!("iqr {:.1}%", s * 100.0));
        }
        if let Some(d) = m.drift {
            notes.push(format!("drift {:+.1}%", d * 100.0));
        }
        if unsteady(m).is_some() {
            notes.push("unresolved: scatter wider than the bound".into());
        }
        println!(
            "  {:<34} {:>16.6} {:<7} {}",
            m.name,
            m.value,
            unit_of(m.name),
            notes.join(", ")
        );
    }
}

fn metric_map(metrics: &[Metric], detail: bool) -> Value {
    obj(metrics.iter().map(|m| {
        let mut members = vec![
            ("value", Value::Num(m.value)),
            ("unit", Value::Str(unit_of(m.name).into())),
        ];
        if detail {
            if m.samples > 0 {
                members.push(("samples", Value::Num(m.samples as f64)));
            }
            if let Some(s) = m.spread {
                members.push(("spread", Value::Num(s)));
            }
            if let Some(d) = m.drift {
                members.push(("drift", Value::Num(d)));
            }
        }
        (m.name, obj(members))
    }))
}

/// The last line of a driver run: exactly `correct`, `attempted`,
/// `failed` and `metrics`, on one line.
pub fn contract_line(r: &WorkloadResult, metrics: &[Metric]) -> String {
    obj([
        ("correct", Value::Bool(r.correct())),
        ("attempted", Value::Num(r.attempted as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("metrics", metric_map(metrics, false)),
    ])
    .render()
}

/// Where and how a result file was produced.
pub struct Provenance {
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

/// The result file of `run`: every workload, both metric sets.
pub fn results_json(p: &Provenance, results: &[WorkloadResult]) -> String {
    let bounds = obj(spec::END_TO_END.iter().map(|m| {
        (
            m.name,
            obj([
                ("better", Value::Str(m.better.label().into())),
                ("clock", Value::Str(m.clock.label().into())),
                ("bound", Value::Num(m.bound)),
            ]),
        )
    }));
    let workloads = obj(results.iter().map(|r| {
        (
            r.name,
            obj([
                ("correct", Value::Bool(r.correct())),
                ("attempted", Value::Num(r.attempted as f64)),
                ("failed", Value::Num(r.failed as f64)),
                (
                    "errors",
                    Value::Arr(r.errors.iter().cloned().map(Value::Str).collect()),
                ),
                ("end_to_end", metric_map(&r.end_to_end, true)),
                ("per_layer", metric_map(&r.per_layer, true)),
            ]),
        )
    }));
    obj([
        ("schema", Value::Str("aceso.benchmark.v1".into())),
        ("seed", Value::Str(format!("{:#x}", p.seed))),
        ("seconds", Value::Num(p.seconds as f64)),
        ("smoke", Value::Bool(p.smoke)),
        ("nproc", Value::Num(p.nproc as f64)),
        ("rustc", Value::Str(p.rustc.clone())),
        ("commit", Value::Str(p.commit.clone())),
        ("bounds", bounds),
        ("workloads", workloads),
    ])
    .render_pretty(4)
}
