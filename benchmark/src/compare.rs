//! `compare <a.json> <b.json>`: did `b` get worse than `a`?
//!
//! One row per workload × end-to-end metric, each judged by the bound the
//! benchmark fixed for that metric. A difference inside a metric's own
//! scatter is reported as `unresolved`, never as `same`.

use crate::json::{parse, Value};
use crate::spec::{self, Better};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The value's own samples scatter (or drift) by more than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against the base `a`. `scatter` is the larger of the two
/// sides' spread (or drift) as a share of their medians.
pub fn classify(better: Better, bound: f64, a: f64, b: f64, scatter: f64) -> Verdict {
    if scatter > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn scatter_of(metric: &Value) -> f64 {
    let get = |k| metric.get(k).and_then(Value::as_f64).unwrap_or(0.0).abs();
    get("spread").max(get("drift"))
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `Ok(true)` if no metric got worse.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let describe = |v: &Value| {
        format!(
            "seed {} commit {}",
            v.get("seed").and_then(Value::as_str).unwrap_or("?"),
            v.get("commit").and_then(Value::as_str).unwrap_or("?")
        )
    };
    println!("a (base): {path_a}: {}", describe(&a));
    println!("b:        {path_b}: {}", describe(&b));
    println!(
        "{:<11} {:<21} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    let mut counts = [0usize; 4];
    let empty = Value::Obj(Vec::new());
    let workloads_b = b.get("workloads").unwrap_or(&empty);
    for (workload, wa) in a.get("workloads").unwrap_or(&empty).members() {
        let Some(wb) = workloads_b.get(workload) else {
            println!("{workload:<11} missing from b");
            continue;
        };
        for m in &spec::END_TO_END {
            let side = |w: &Value| w.get("end_to_end").and_then(|e| e.get(m.name)).cloned();
            let (Some(ma), Some(mb)) = (side(wa), side(wb)) else {
                continue;
            };
            let value = |v: &Value| v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let (va, vb) = (value(&ma), value(&mb));
            let bound = m.bound;
            let verdict = classify(
                m.better,
                bound,
                va,
                vb,
                scatter_of(&ma).max(scatter_of(&mb)),
            );
            counts[verdict as usize] += 1;
            println!(
                "{workload:<11} {:<21} {va:>14.6} {vb:>14.6} {:>9.4} {:>5.0}%  {}",
                m.name,
                vb / va,
                bound * 100.0,
                verdict.label()
            );
        }
    }
    println!(
        "{} better, {} same, {} worse, {} unresolved (ratios are b/a; a is the base)",
        counts[Verdict::Better as usize],
        counts[Verdict::Same as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(counts[Verdict::Worse as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_respects_direction_bound_and_scatter() {
        use Better::{Higher, Lower};
        // Lower is better, 10 % bound.
        assert_eq!(classify(Lower, 0.10, 100.0, 105.0, 0.02), Verdict::Same);
        assert_eq!(classify(Lower, 0.10, 100.0, 111.0, 0.02), Verdict::Worse);
        assert_eq!(classify(Lower, 0.10, 100.0, 85.0, 0.02), Verdict::Better);
        // Higher is better: the same numbers flip.
        assert_eq!(classify(Higher, 0.10, 100.0, 111.0, 0.02), Verdict::Better);
        assert_eq!(classify(Higher, 0.10, 100.0, 85.0, 0.02), Verdict::Worse);
        // Exact class: identical is same, 2 % is already a regression.
        assert_eq!(classify(Lower, 0.01, 3.36, 3.36, 0.0), Verdict::Same);
        assert_eq!(classify(Higher, 0.01, 1.00, 0.98, 0.0), Verdict::Worse);
        // Scatter wider than the bound decides nothing, whatever moved.
        assert_eq!(
            classify(Lower, 0.10, 100.0, 150.0, 0.12),
            Verdict::Unresolved
        );
        assert_eq!(
            classify(Lower, 0.10, 100.0, 100.0, 0.12),
            Verdict::Unresolved
        );
        // Exactly on the bound is not beyond it.
        assert_eq!(classify(Lower, 0.25, 4.0, 5.0, 0.25), Verdict::Same);
    }
}
