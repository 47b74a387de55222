//! The metrics, by name: what `BENCHMARK.json` promises and what a run
//! prints. A unit test holds the two together.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system sees. `bound`
/// is the share of the parent's median it may worsen by.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every one of these.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer, measured in the traced run by timing the
/// layer's public call from outside. `exact` counts must repeat bit for
/// bit at a fixed seed.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// Every traced run reports every one of these.
pub const PER_LAYER: [PerLayer; 44] = [
    rate("datagen.nref_rows_per_s", "1/s"),
    rate("datagen.tpch_rows_per_s", "1/s"),
    timing("storage.build_p_ms", "ms"),
    timing("storage.build_1c_ms", "ms"),
    timing("storage.build_r_ms", "ms"),
    timing("families.prepare_ms", "ms"),
    timing("sqlq.parse_us", "us"),
    timing("engine.plan_us", "us"),
    timing("engine.estimate_us", "us"),
    timing("engine.exec_p50_ms", "ms"),
    timing("engine.exec_p90_ms", "ms"),
    exact("engine.exec_units", "units"),
    rate("engine.units_per_s", "1/s"),
    timing("engine.snapshot_ns", "ns"),
    timing("storage.state_clone_ms", "ms"),
    timing("engine.insert_ms", "ms"),
    timing("engine.insert_durable_ms", "ms"),
    timing("storage.wal.append_us", "us"),
    exact("storage.wal.bytes_per_record", "bytes"),
    timing("storage.wal.open_ms", "ms"),
    timing("engine.replay_ms_per_record", "ms"),
    timing("storage.pool.hit_ns", "ns"),
    timing("storage.pool.miss_us", "us"),
    exact("storage.pool.hit_rate", "%"),
    exact("storage.pool.evictions", "count"),
    exact("storage.pager.spill_mb", "MB"),
    exact("advisor.candidates", "count"),
    timing("advisor.candidates_ms", "ms"),
    timing("advisor.recommend_a_ms", "ms"),
    timing("advisor.recommend_b_ms", "ms"),
    timing("advisor.recommend_c_ms", "ms"),
    exact("advisor.picks", "count"),
    timing("server.boot_s", "s"),
    timing("server.connect_ms", "ms"),
    timing("server.ping_rtt_ms", "ms"),
    timing("server.explain_rtt_ms", "ms"),
    timing("server.wire_overhead_ms", "ms"),
    timing("server.read_beside_write_ms", "ms"),
    timing("server.parse_request_us", "us"),
    timing("bench.traced_op_p50_ms", "ms"),
    timing("bench.op_tail_ms", "ms"),
    rate("bench.op_tail_pct", "%"),
    rate("bench.op_samples", "count"),
    timing("bench.trace_overhead_share", "%"),
];

/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
pub const RUN_SECONDS: u32 = 8;

/// The text of `BENCHMARK.json`: the workloads and metrics above, in
/// the driver's schema.
pub fn manifest() -> String {
    let workloads: Vec<String> = crate::workloads::WHY
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--locked\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }

    #[test]
    fn names_are_unique_and_within_the_schema_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(crate::workloads::NAMES);
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for (_, why) in crate::workloads::WHY {
            assert!(why.len() <= 200 && !why.contains('"'), "{why}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
