//! Point-in-time metric snapshots: text table and stable JSON rendering.

use crate::hist::HistSnapshot;
use crate::json::JsonWriter;
use std::collections::BTreeMap;

/// A point-in-time copy of a [`crate::Registry`], taken by
/// [`crate::Registry::snapshot`]. Maps are `BTreeMap`s so both renderings
/// enumerate metrics in sorted-name order, deterministically.
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// The value of counter `name`, if it exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The value of gauge `name`, if it exists.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The state of histogram `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms.get(name)
    }

    /// A human-readable table: one section per metric kind, names sorted.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<42} {v:>14}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<42} {:>14}\n", JsonWriter::fmt_f64(*v)));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "histograms (µs) {:>32} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "count", "mean", "p50", "p99", "p999", "max"
            ));
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name:<46} {:>10} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
                    h.count,
                    h.mean_us(),
                    h.quantile_us(0.50),
                    h.quantile_us(0.99),
                    h.quantile_us(0.999),
                    h.max_us(),
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }

    /// A deterministic JSON document:
    ///
    /// ```json
    /// {"counters":{...},"gauges":{...},
    ///  "histograms":{"name":{"count":n,"mean_us":..,"p50_us":..,
    ///                        "p99_us":..,"p999_us":..,"max_us":..}}}
    /// ```
    ///
    /// Keys are sorted and floats format through
    /// [`JsonWriter::fmt_f64`], so equal metric states always serialize
    /// to identical bytes.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.begin_object_key("counters");
        for (name, v) in &self.counters {
            w.u64_field(name, *v);
        }
        w.end_object();
        w.begin_object_key("gauges");
        for (name, v) in &self.gauges {
            w.f64_field(name, *v);
        }
        w.end_object();
        w.begin_object_key("histograms");
        for (name, h) in &self.histograms {
            w.begin_object_key(name)
                .u64_field("count", h.count)
                .f64_field("mean_us", h.mean_us())
                .f64_field("p50_us", h.quantile_us(0.50))
                .f64_field("p99_us", h.quantile_us(0.99))
                .f64_field("p999_us", h.quantile_us(0.999))
                .f64_field("max_us", h.max_us())
                .end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn renderings_are_deterministic() {
        let mk = || {
            let reg = Registry::new();
            reg.counter("ops").add(7);
            reg.gauge("util").set(0.5);
            reg.histogram("lat.us").record(12.0);
            reg.histogram("lat.us").record(30.0);
            reg.snapshot()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render_table(), b.render_table());
        assert!(a.to_json().starts_with(r#"{"counters":{"ops":7}"#));
        assert!(a.render_table().contains("lat.us"));
    }

    #[test]
    fn empty_snapshot_renders() {
        let snap = Registry::new().snapshot();
        assert_eq!(
            snap.to_json(),
            r#"{"counters":{},"gauges":{},"histograms":{}}"#
        );
        assert_eq!(snap.render_table(), "(no metrics recorded)\n");
    }
}
