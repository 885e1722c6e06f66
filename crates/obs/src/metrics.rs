//! Deterministic metrics registry with Prometheus-style text
//! exposition.
//!
//! Series are keyed by their full exposition name, labels included
//! (`fc_jobs_total{tenant="bulk",outcome="shed"}`), and stored in
//! `BTreeMap`s so [`MetricsRegistry::render`] is a pure, sorted
//! function of the registered values — the same ledger always renders
//! the same bytes. Histograms reuse the fixed 1024-bin
//! [`fcdram::SuccessAccumulator`]: observations are scaled into
//! `[0, 1]`, quantiles are scaled back out, so the bin edges (and
//! therefore the exposition) are backend- and shard-invariant.

use fcdram::SuccessAccumulator;
use std::collections::BTreeMap;

/// Fixed-bin histogram over `[0, scale]` modeled values.
#[derive(Debug, Clone)]
pub(crate) struct ScaledHistogram {
    acc: SuccessAccumulator,
    scale: f64,
    sum: f64,
}

impl ScaledHistogram {
    /// A histogram whose bins span `[0, scale]`.
    pub(crate) fn new(scale: f64) -> Self {
        ScaledHistogram {
            acc: SuccessAccumulator::new(),
            scale,
            sum: 0.0,
        }
    }

    /// Record one observation (clamped into the binned range).
    pub(crate) fn observe(&mut self, v: f64) {
        self.acc.push((v / self.scale).clamp(0.0, 1.0));
        self.sum += v;
    }

    /// Number of observations.
    pub(crate) fn count(&self) -> u64 {
        self.acc.count()
    }

    /// Sum of raw observations.
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// Quantile `q` in raw units (bin-resolution, deterministic).
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.acc.is_empty() {
            0.0
        } else {
            self.acc.quantile(q) * self.scale
        }
    }
}

/// Counters, gauges, and histograms with a deterministic snapshot.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    help: BTreeMap<String, String>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, ScaledHistogram>,
}

/// Family name of a series key: everything before the label block.
fn family(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// Build a series key from a family name and label pairs.
fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", body.join(","))
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `v` to the counter series `name{labels}`.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], help: &str, v: u64) {
        self.help
            .entry(name.to_string())
            .or_insert_with(|| help.to_string());
        *self.counters.entry(series_key(name, labels)).or_insert(0) += v;
    }

    /// Set the gauge series `name{labels}` to `v`.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], help: &str, v: f64) {
        self.help
            .entry(name.to_string())
            .or_insert_with(|| help.to_string());
        self.gauges.insert(series_key(name, labels), v);
    }

    /// Record `v` into the histogram series `name{labels}` whose bins
    /// span `[0, scale]`.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], help: &str, scale: f64, v: f64) {
        self.help
            .entry(name.to_string())
            .or_insert_with(|| help.to_string());
        self.histograms
            .entry(series_key(name, labels))
            .or_insert_with(|| ScaledHistogram::new(scale))
            .observe(v);
    }

    /// Render the Prometheus-style text exposition. Counters come
    /// first, then gauges, then histograms (as summaries); inside each
    /// block the series are sorted by key, and `# HELP`/`# TYPE`
    /// headers are emitted once per family.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let mut header =
            |out: &mut String, key: &str, kind: &str, help: &BTreeMap<String, String>| {
                let fam = family(key);
                if fam != last_family {
                    let h = help.get(fam).map(String::as_str).unwrap_or("");
                    out.push_str(&format!("# HELP {fam} {h}\n# TYPE {fam} {kind}\n"));
                    last_family = fam.to_string();
                }
            };
        for (key, v) in &self.counters {
            header(&mut out, key, "counter", &self.help);
            out.push_str(&format!("{key} {v}\n"));
        }
        for (key, v) in &self.gauges {
            header(&mut out, key, "gauge", &self.help);
            out.push_str(&format!("{key} {v}\n"));
        }
        for (key, h) in &self.histograms {
            header(&mut out, key, "summary", &self.help);
            let fam = family(key);
            let labels = &key[fam.len()..];
            let inner = labels
                .strip_prefix('{')
                .and_then(|s| s.strip_suffix('}'))
                .unwrap_or("");
            for q in ["0.5", "0.9", "0.99"] {
                let sep = if inner.is_empty() {
                    String::new()
                } else {
                    format!("{inner},")
                };
                let quant: f64 = q.parse().unwrap_or(0.5);
                out.push_str(&format!(
                    "{fam}{{{sep}quantile=\"{q}\"}} {}\n",
                    h.quantile(quant)
                ));
            }
            let tail = if inner.is_empty() {
                String::new()
            } else {
                format!("{{{inner}}}")
            };
            out.push_str(&format!("{fam}_sum{tail} {}\n", h.sum()));
            out.push_str(&format!("{fam}_count{tail} {}\n", h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_sorted_and_stable() {
        let mut m = MetricsRegistry::new();
        m.counter("fc_b_total", &[("tenant", "z")], "b things", 2);
        m.counter("fc_b_total", &[("tenant", "a")], "b things", 3);
        m.counter("fc_a_total", &[], "a things", 1);
        m.gauge("fc_depth", &[("q", "x")], "queue depth", 4.5);
        let r1 = m.render();
        let r2 = m.render();
        assert_eq!(r1, r2, "render must be pure");
        let a = r1.find("fc_a_total 1").unwrap();
        let ba = r1.find("fc_b_total{tenant=\"a\"} 3").unwrap();
        let bz = r1.find("fc_b_total{tenant=\"z\"} 2").unwrap();
        assert!(a < ba && ba < bz, "sorted by series key");
        assert_eq!(
            r1.matches("# TYPE fc_b_total counter").count(),
            1,
            "one header per family"
        );
        assert!(r1.contains("fc_depth{q=\"x\"} 4.5"));
    }

    #[test]
    fn histogram_renders_summary_with_quantiles() {
        let mut m = MetricsRegistry::new();
        for v in [100.0, 200.0, 300.0, 400.0] {
            m.observe("fc_lat_ns", &[("tenant", "t")], "latency", 1000.0, v);
        }
        let r = m.render();
        assert!(r.contains("# TYPE fc_lat_ns summary"));
        assert!(r.contains("fc_lat_ns{tenant=\"t\",quantile=\"0.5\"}"));
        assert!(r.contains("fc_lat_ns_sum{tenant=\"t\"} 1000\n"));
        assert!(r.contains("fc_lat_ns_count{tenant=\"t\"} 4\n"));
    }

    #[test]
    fn scaled_histogram_quantiles_scale_back_out() {
        let mut h = ScaledHistogram::new(1_000.0);
        h.observe(100.0);
        for _ in 0..9 {
            h.observe(900.0);
        }
        assert_eq!(h.count(), 10);
        assert!((h.sum() - 8_200.0).abs() < 1e-9);
        let q99 = h.quantile(0.99);
        assert!((890.0..=910.0).contains(&q99), "q99 {q99}");
        let q0 = h.quantile(0.0);
        assert!((95.0..=105.0).contains(&q0), "q0 {q0}");
    }

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.counter("c_total", &[], "c", 1);
        m.counter("c_total", &[], "c", 2);
        assert!(m.render().contains("c_total 3"));
        assert_eq!(m.counters.len() + m.gauges.len() + m.histograms.len(), 1);
    }
}
