//! Snapshot of one run's metrics, with JSON and plain-text renderings.

use std::collections::BTreeMap;

use crate::json::JsonWriter;
use crate::trace::PHASE_HIST;

/// Version tag written into every JSON report; bump when the layout of
/// the report object changes incompatibly.
pub const SCHEMA_VERSION: &str = "hgobs/2";

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// Sparse log-linear bucket counts, sorted by bucket index
    /// ([`crate::buckets`]): `(bucket_index, observations)` for every
    /// non-empty bucket. Quantiles are read off these boundaries.
    pub buckets: Vec<(u32, u64)>,
}

impl HistSummary {
    /// An empty summary (`min` reported as 0, like the registry does).
    pub fn empty() -> Self {
        HistSummary::default()
    }

    /// Summarize a slice of observations; the bucketed result is
    /// identical to recording each value through the registry.
    pub fn from_values(values: &[u64]) -> Self {
        let mut s = HistSummary {
            count: values.len() as u64,
            sum: 0,
            min: values.iter().copied().min().unwrap_or(0),
            max: values.iter().copied().max().unwrap_or(0),
            buckets: Vec::new(),
        };
        let mut dense = vec![0u64; crate::buckets::NUM_BUCKETS];
        for &v in values {
            s.sum = s.sum.saturating_add(v);
            dense[crate::buckets::bucket_index(v)] += 1;
        }
        s.buckets = dense_to_sparse(&dense);
        s
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `(lower, upper)` bounds of the bucket holding the `q`-quantile
    /// (rank `ceil(q * count)`, the same order statistic a sorted vector
    /// would index): the exact quantile is guaranteed to lie inside.
    /// `(0, 0)` when the histogram is empty.
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return (
                    crate::buckets::bucket_lower_bound(idx as usize),
                    crate::buckets::bucket_upper_bound(idx as usize),
                );
            }
        }
        // Only reachable when buckets were not populated (e.g. a summary
        // merged from a pre-bucket report): fall back to the range.
        (self.min, self.max)
    }

    /// Point estimate for the `q`-quantile: the upper bound of its
    /// bucket, clamped to the observed `max` so estimates never exceed
    /// any real observation.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_bounds(q).1.min(self.max)
    }
}

fn dense_to_sparse(dense: &[u64]) -> Vec<(u32, u64)> {
    dense
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, &n)| (i as u32, n))
        .collect()
}

/// Drained registry contents. Maps are ordered, so renders are stable.
/// Phase durations are the histograms named `phase_ns.<phase>`.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistSummary>,
}

/// Drain the global registry into a [`Report`]; subsequent recording
/// starts from empty.
pub fn take_report() -> Report {
    registry_to_report(crate::metrics::drain())
}

/// Copy the global registry into a [`Report`] without draining it.
/// Long-lived processes (e.g. `hg serve`) use this to render cumulative
/// `/metrics` while recording continues.
pub fn snapshot_report() -> Report {
    registry_to_report(crate::metrics::snapshot())
}

fn registry_to_report(reg: crate::metrics::Registry) -> Report {
    Report {
        counters: reg.counters,
        histograms: reg
            .hists
            .into_iter()
            .map(|(k, h)| {
                (
                    k,
                    HistSummary {
                        count: h.count,
                        sum: h.sum,
                        min: if h.count == 0 { 0 } else { h.min },
                        max: h.max,
                        buckets: dense_to_sparse(&h.buckets),
                    },
                )
            })
            .collect(),
    }
}

/// Merge `report` back into the global registry (counters add,
/// histogram statistics combine), regardless of the enabled flag. Lets a
/// caller drain per-phase sections while keeping whole-run totals
/// available for a final report.
pub fn absorb(report: &Report) {
    crate::metrics::absorb_report(report);
}

impl Report {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Fold `other` into `self`: counters and histogram statistics
    /// combine exactly as the registry would have aggregated them.
    pub fn merge(&mut self, other: &Report) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            let e = self.histograms.entry(k.clone()).or_insert(HistSummary {
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
                buckets: Vec::new(),
            });
            e.count += h.count;
            e.sum = e.sum.saturating_add(h.sum);
            if h.count > 0 {
                e.min = e.min.min(h.min);
                e.max = e.max.max(h.max);
            }
            if e.count == 0 {
                e.min = 0;
            }
            // Merge the two sorted sparse bucket lists.
            let mut merged = Vec::with_capacity(e.buckets.len() + h.buckets.len());
            let (mut i, mut j) = (0, 0);
            while i < e.buckets.len() || j < h.buckets.len() {
                match (e.buckets.get(i), h.buckets.get(j)) {
                    (Some(&(ai, an)), Some(&(bi, bn))) if ai == bi => {
                        merged.push((ai, an + bn));
                        i += 1;
                        j += 1;
                    }
                    (Some(&a), Some(&b)) if a.0 < b.0 => {
                        merged.push(a);
                        i += 1;
                    }
                    (Some(_), Some(&b)) => {
                        merged.push(b);
                        j += 1;
                    }
                    (Some(&a), None) => {
                        merged.push(a);
                        i += 1;
                    }
                    (None, Some(&b)) => {
                        merged.push(b);
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
            e.buckets = merged;
        }
    }

    /// Write this report as a JSON object into `w` (no surrounding
    /// schema field; see [`Report::to_json`] for the standalone form).
    pub fn write_body(&self, w: &mut JsonWriter) {
        w.key("counters").begin_object();
        for (k, v) in &self.counters {
            w.key(k).uint(*v);
        }
        w.end_object();

        w.key("histograms").begin_object();
        for (k, h) in &self.histograms {
            w.key(k).begin_object();
            w.key("count").uint(h.count);
            w.key("sum").uint(h.sum);
            w.key("min").uint(h.min);
            w.key("max").uint(h.max);
            w.key("mean").float(h.mean());
            w.key("p50").uint(h.quantile(0.5));
            w.key("p95").uint(h.quantile(0.95));
            w.key("p99").uint(h.quantile(0.99));
            // `[upper_bound, observations]` per non-empty bucket.
            w.key("buckets").begin_array();
            for &(idx, n) in &h.buckets {
                w.begin_array();
                w.uint(crate::buckets::bucket_upper_bound(idx as usize));
                w.uint(n);
                w.end_array();
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
    }

    /// Standalone schema-versioned JSON document. Counters come first
    /// so deterministic sections precede timing-dependent ones.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string(SCHEMA_VERSION);
        self.write_body(&mut w);
        w.end_object();
        w.finish()
    }

    /// Render this report in the Prometheus text exposition format, the
    /// payload `hg serve` answers on `GET /metrics`. Metric names are the
    /// registry names sanitized ([`sanitize_metric_name`]) with an `hg_`
    /// prefix: counters become `hg_<name>_total`, histograms are proper
    /// Prometheus histograms (cumulative `_bucket{le="…"}` series plus
    /// `_sum`/`_count`, and `_min`/`_max` gauges); a phase histogram
    /// reads `hg_phase_ns_<phase>_…`. Maps are ordered, so the output is
    /// stable.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let n = sanitize_metric_name(k);
            out.push_str(&format!("# TYPE hg_{n}_total counter\n"));
            out.push_str(&format!("hg_{n}_total {v}\n"));
        }
        for (k, h) in &self.histograms {
            let n = sanitize_metric_name(k);
            out.push_str(&format!("# TYPE hg_{n} histogram\n"));
            let mut cumulative = 0u64;
            for &(idx, count) in &h.buckets {
                cumulative += count;
                let le = crate::buckets::bucket_upper_bound(idx as usize);
                out.push_str(&format!("hg_{n}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("hg_{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("hg_{n}_sum {}\n", h.sum));
            out.push_str(&format!("hg_{n}_count {}\n", h.count));
            out.push_str(&format!("hg_{n}_min {}\n", h.min));
            out.push_str(&format!("hg_{n}_max {}\n", h.max));
        }
        out
    }

    /// Human-readable phase breakdown for CLI output: each phase
    /// histogram by bare phase name with its total time and count, then
    /// counters, then the other histograms.
    pub fn render_text(&self) -> String {
        let (phases, others): (Vec<_>, Vec<_>) = self
            .histograms
            .iter()
            .partition(|(k, _)| k.starts_with(PHASE_HIST));
        let mut out = String::new();
        if !phases.is_empty() {
            out.push_str("phase breakdown:\n");
            let width = phases
                .iter()
                .map(|(k, _)| k.len() - PHASE_HIST.len())
                .max()
                .unwrap_or(0);
            for (k, h) in phases {
                out.push_str(&format!(
                    "  {:<width$}  {:>10}  x{}\n",
                    &k[PHASE_HIST.len()..],
                    crate::format_time(h.sum as f64 / 1e9),
                    h.count,
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        if !others.is_empty() {
            out.push_str("histograms:\n");
            for (k, h) in others {
                out.push_str(&format!(
                    "  {k}: n={} mean={:.2} min={} max={} p50={} p99={}\n",
                    h.count,
                    h.mean(),
                    h.min,
                    h.max,
                    h.quantile(0.5),
                    h.quantile(0.99),
                ));
            }
        }
        out
    }
}

/// Map an arbitrary registry name to a valid Prometheus metric-name
/// fragment: every run of non-alphanumeric characters (`.`, `/`, `-`,
/// spaces, …) collapses to a single `_`, and an empty or all-invalid
/// name becomes `"other"`. The caller prepends `hg_`, so a leading digit
/// is already legal. Bounding cardinality is the *recorder's* job (see
/// `hgserve`'s endpoint label mapping); this keeps whatever does get
/// recorded lexically valid.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut gap = false;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            if gap && !out.is_empty() {
                out.push('_');
            }
            gap = false;
            out.push(c);
        } else {
            gap = true;
        }
    }
    if out.is_empty() {
        "other".to_string()
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::default();
        r.counters.insert("kcore.rounds".into(), 3);
        r.histograms.insert(
            "bfs.frontier".into(),
            HistSummary::from_values(&[1, 2, 3, 4]),
        );
        r.histograms.insert(
            "phase_ns.total".into(),
            HistSummary::from_values(&[2_000_000]),
        );
        r.histograms.insert(
            "phase_ns.kcore.peel".into(),
            HistSummary::from_values(&[400_000, 600_000]),
        );
        r
    }

    #[test]
    fn json_shape() {
        let js = sample().to_json();
        assert_eq!(
            js,
            "{\"schema\":\"hgobs/2\",\
             \"counters\":{\"kcore.rounds\":3},\
             \"histograms\":{\"bfs.frontier\":{\"count\":4,\"sum\":10,\"min\":1,\"max\":4,\"mean\":2.5,\
             \"p50\":2,\"p95\":4,\"p99\":4,\"buckets\":[[1,1],[2,1],[3,1],[5,1]]},\
             \"phase_ns.kcore.peel\":{\"count\":2,\"sum\":1000000,\"min\":400000,\"max\":600000,\
             \"mean\":500000,\"p50\":524287,\"p95\":600000,\"p99\":600000,\
             \"buckets\":[[524287,1],[786431,1]]},\
             \"phase_ns.total\":{\"count\":1,\"sum\":2000000,\"min\":2000000,\"max\":2000000,\
             \"mean\":2000000,\"p50\":2000000,\"p95\":2000000,\"p99\":2000000,\
             \"buckets\":[[2097151,1]]}}}"
        );
    }

    #[test]
    fn text_breakdown_lists_phases_and_counters() {
        // Each phase histogram appears once, by bare name, in the
        // breakdown; only the other histograms follow it.
        assert_eq!(
            sample().render_text(),
            "phase breakdown:\n  \
             kcore.peel      0.001s  x2\n  \
             total           0.002s  x1\n\
             counters:\n  \
             kcore.rounds = 3\n\
             histograms:\n  \
             bfs.frontier: n=4 mean=2.50 min=1 max=4 p50=2 p99=4\n"
        );
    }

    #[test]
    fn prometheus_rendering_is_stable_and_sanitized() {
        // Cumulative bucket series ending in the +Inf catch-all; names
        // sanitized under the `hg_` prefix.
        assert_eq!(
            sample().render_prometheus(),
            "# TYPE hg_kcore_rounds_total counter\n\
             hg_kcore_rounds_total 3\n\
             # TYPE hg_bfs_frontier histogram\n\
             hg_bfs_frontier_bucket{le=\"1\"} 1\n\
             hg_bfs_frontier_bucket{le=\"2\"} 2\n\
             hg_bfs_frontier_bucket{le=\"3\"} 3\n\
             hg_bfs_frontier_bucket{le=\"5\"} 4\n\
             hg_bfs_frontier_bucket{le=\"+Inf\"} 4\n\
             hg_bfs_frontier_sum 10\n\
             hg_bfs_frontier_count 4\n\
             hg_bfs_frontier_min 1\n\
             hg_bfs_frontier_max 4\n\
             # TYPE hg_phase_ns_kcore_peel histogram\n\
             hg_phase_ns_kcore_peel_bucket{le=\"524287\"} 1\n\
             hg_phase_ns_kcore_peel_bucket{le=\"786431\"} 2\n\
             hg_phase_ns_kcore_peel_bucket{le=\"+Inf\"} 2\n\
             hg_phase_ns_kcore_peel_sum 1000000\n\
             hg_phase_ns_kcore_peel_count 2\n\
             hg_phase_ns_kcore_peel_min 400000\n\
             hg_phase_ns_kcore_peel_max 600000\n\
             # TYPE hg_phase_ns_total histogram\n\
             hg_phase_ns_total_bucket{le=\"2097151\"} 1\n\
             hg_phase_ns_total_bucket{le=\"+Inf\"} 1\n\
             hg_phase_ns_total_sum 2000000\n\
             hg_phase_ns_total_count 1\n\
             hg_phase_ns_total_min 2000000\n\
             hg_phase_ns_total_max 2000000\n"
        );
    }

    #[test]
    fn metric_names_sanitize_to_valid_fragments() {
        assert_eq!(sanitize_metric_name("kcore.rounds"), "kcore_rounds");
        assert_eq!(
            sanitize_metric_name("serve.latency_us.v1/kcore"),
            "serve_latency_us_v1_kcore"
        );
        assert_eq!(sanitize_metric_name("a..//--b"), "a_b");
        assert_eq!(sanitize_metric_name("...",), "other");
        assert_eq!(sanitize_metric_name(""), "other");
    }

    #[test]
    fn quantile_bounds_bracket_the_exact_order_statistic() {
        let values: Vec<u64> = (0..500).map(|i| i * i % 7919).collect();
        let h = HistSummary::from_values(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &q in &[0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let (lo, hi) = h.quantile_bounds(q);
            assert!(
                lo <= exact && exact <= hi,
                "q={q}: {exact} not in [{lo},{hi}]"
            );
            assert!(h.quantile(q) <= h.max);
        }
    }

    #[test]
    fn merged_histograms_preserve_buckets_and_quantiles() {
        let mut a = Report::default();
        a.histograms
            .insert("h".into(), HistSummary::from_values(&[1, 100]));
        let mut b = Report::default();
        b.histograms
            .insert("h".into(), HistSummary::from_values(&[100, 5000]));
        a.merge(&b);
        let h = &a.histograms["h"];
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 4);
        assert_eq!(h, &HistSummary::from_values(&[1, 100, 100, 5000]));
    }

    #[test]
    fn empty_report_renders_empty() {
        let r = Report::default();
        assert!(r.is_empty());
        assert_eq!(r.render_text(), "");
        assert_eq!(r.render_prometheus(), "");
        assert_eq!(
            r.to_json(),
            "{\"schema\":\"hgobs/2\",\"counters\":{},\"histograms\":{}}"
        );
    }
}
