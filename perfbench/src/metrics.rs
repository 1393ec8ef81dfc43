//! The metric names and units this benchmark reports; `BENCHMARK.json`
//! lists the same ones (a test keeps the two in step).

use std::collections::BTreeMap;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("op_ms.p50", "ms"), ("op_ms.p99", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, printed by every traced run. README.md says which
/// workload times which layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("marketplace.crawl_ms", "ms"),
    ("search.study_ms", "ms"),
    ("core.cube.emd_ms", "ms"),
    ("core.cube.exposure_ms", "ms"),
    ("core.cube.kendall_ms", "ms"),
    ("core.cube.jaccard_ms", "ms"),
    ("core.cube.cells_per_s", "1/s"),
    ("core.index.build_ms", "ms"),
    ("core.algo.ta_us.p50", "us"),
    ("core.algo.ta_us.p99", "us"),
    ("core.algo.naive_us.p50", "us"),
    ("core.algo.naive_us.p99", "us"),
    ("core.algo.compare_us.p50", "us"),
    ("core.algo.compare_us.p99", "us"),
    ("core.algo.ta_cells_per_query", "count"),
    ("core.algo.naive_cells_per_query", "count"),
    ("store.snapshot_load_ms", "ms"),
    ("store.log_replay_ms", "ms"),
    ("store.log_append_us.p50", "us"),
    ("store.ingest_us.p50", "us"),
    ("store.publish_ms.p50", "ms"),
    ("store.log_bytes_per_cell", "B"),
    ("mitigate.market.fair_us.p50", "us"),
    ("mitigate.market.det-greedy_us.p50", "us"),
    ("mitigate.market.det-cons_us.p50", "us"),
    ("mitigate.market.det-relaxed_us.p50", "us"),
    ("mitigate.market.exposure-opt_us.p50", "us"),
    ("mitigate.search.fair_us.p50", "us"),
    ("mitigate.search.det-greedy_us.p50", "us"),
    ("mitigate.search.det-cons_us.p50", "us"),
    ("mitigate.search.det-relaxed_us.p50", "us"),
    ("mitigate.search.exposure-opt_us.p50", "us"),
    ("repro.tables_ms", "ms"),
    ("par.cube_scaling_x", "x"),
    ("bench.trace_overhead_pct", "%"),
];

/// Renders `defs` as the result line's `metrics` object. A declared
/// metric missing from `values`, a non-finite value and an undeclared
/// metric are errors.
pub fn render(defs: &[(&'static str, &'static str)], values: &Values) -> Result<String, String> {
    let mut parts = Vec::with_capacity(defs.len());
    for &(name, unit) in defs {
        let Some(&v) = values.get(name) else {
            return Err(format!("metric {name} was not measured"));
        };
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        parts.push(format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#));
    }
    if let Some(extra) = values.keys().find(|k| !defs.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {extra} is not declared"));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric declared here is in `BENCHMARK.json` with the same
    /// unit, and the other way round.
    #[test]
    fn declarations_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = json.find(&format!(r#""{section}""#)).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let listed = body.matches(r#""name""#).count();
            assert_eq!(listed, defs.len(), "{section}: count differs");
            for (name, unit) in defs {
                let needle = format!(r#""name": "{name}", "unit": "{unit}""#);
                assert!(body.contains(&needle), "{section}: {name} ({unit}) missing");
            }
        }
    }

    #[test]
    fn render_rejects_missing_and_undeclared_metrics() {
        let mut v = Values::new();
        v.insert("setup_s", 0.5);
        assert!(render(END_TO_END, &v).is_err());
        assert!(render(&PER_LAYER[..1], &Values::new()).is_err());
        let one = render(&END_TO_END[..1], &v).expect("setup_s measured");
        assert_eq!(one, r#"{"setup_s": {"value": 0.5, "unit": "s"}}"#);
        v.insert("undeclared", 1.0);
        assert!(render(&END_TO_END[..1], &v).is_err());
    }
}
