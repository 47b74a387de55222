//! Helpers the repro-level integration tests share.

use std::collections::BTreeMap;
use std::path::Path;

use tab_bench::eval::{BenchSpec, Parallelism};
use tab_bench_harness::repro::ReproConfig;

/// A repro run small enough for a test, at `threads` grid threads,
/// writing into `out`.
pub fn tiny(out: &Path, threads: usize) -> ReproConfig {
    ReproConfig {
        spec: BenchSpec {
            nref_proteins: 400,
            tpch_scale: 0.002,
            workload_size: 8,
            timeout_units: 500.0,
            seed: 7,
            threads: Parallelism::new(threads),
            ..BenchSpec::small()
        },
        out_dir: out.to_path_buf(),
        trace: None,
        faults: None,
    }
}

/// Read every output file, excluding `timings.json` (wall-clock, which
/// varies run to run) and the `BENCH_*` records, which callers compare
/// one by one.
pub fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read output dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == "timings.json" || name.starts_with("BENCH_") {
            continue;
        }
        out.insert(name, std::fs::read(entry.path()).expect("read output file"));
    }
    out
}
