//! Run sharing through the process-wide run cache: the design flow's NVFI
//! profile run is the NVFI baseline run, and a fault-free capped sweep
//! cell's static run is its uncapped twin's. Each distinct
//! `(config, app, variant)` system run is simulated once, and every
//! consumer of a shared run sees exactly what a fresh simulation returns.
//!
//! The tests count cache lookups and telemetry spans, which are global to
//! the process, so they run one at a time and each uses its own seed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use mapwave::governed::{govern, run_system_governed};
use mapwave::orchestrator::{self, design_cached, run_cached, RunVariant};
use mapwave::prelude::*;
use mapwave_faults::FaultStats;
use mapwave_governor::GovernorConfig;
use mapwave_harness::cache::CacheStats;
use mapwave_harness::telemetry;
use mapwave_phoenix::apps::App;
use mapwave_sweep::prelude::*;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn cfg(seed: u64) -> PlatformConfig {
    PlatformConfig::small().with_scale(0.002).with_seed(seed)
}

fn run_stats() -> CacheStats {
    orchestrator::cache_stats()
        .into_iter()
        .find(|(name, _)| *name == "run")
        .expect("the run cache reports its statistics")
        .1
}

fn assert_runs_identical(a: &RunReport, b: &RunReport) {
    assert_eq!(a.label, b.label);
    assert_eq!(a.net.digest(), b.net.digest());
    for (x, y) in [
        (a.exec_seconds, b.exec_seconds),
        (a.core_energy_j, b.core_energy_j),
        (a.net_energy_j, b.net_energy_j),
        (a.edp, b.edp),
    ] {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn cached_design_shares_its_profile_with_the_nvfi_baseline() {
    let _guard = serial();
    let flow = DesignFlow::new(cfg(0x5A_01)).expect("valid config");
    let app = App::WordCount;

    let cached = design_cached(&flow, app);
    let fresh = flow.design(app);
    assert_eq!(
        format!("{cached:?}"),
        format!("{fresh:?}"),
        "the cached design must equal the uncached flow exactly"
    );

    let before = run_stats();
    let baseline = run_cached(&flow, &cached, RunVariant::Nvfi);
    let after = run_stats();
    assert_eq!(
        after.hits,
        before.hits + 1,
        "the baseline is the profile run"
    );
    assert_eq!(after.misses, before.misses, "no second NVFI simulation");

    let direct = run_system(
        &flow.nvfi_spec(),
        &fresh.workload,
        flow.config(),
        flow.power(),
    );
    assert_runs_identical(&baseline, &direct);
    assert_eq!(
        format!("{:?}", cached.profile),
        format!("{:?}", direct.exec)
    );
}

#[test]
fn governing_a_cached_base_equals_a_governed_run() {
    let _guard = serial();
    let flow = DesignFlow::new(cfg(0x5A_02)).expect("valid config");
    let design = design_cached(&flow, App::WordCount);
    let gov = GovernorConfig::new(6.0).with_epoch_cycles(20_000);

    for variant in [RunVariant::Nvfi, RunVariant::WinocMaxWireless] {
        let spec = variant.spec(&flow, &design);
        let base = FaultRunReport {
            report: run_cached(&flow, &design, variant),
            faults: FaultStats::default(),
        };
        let shared = govern(base, &spec, flow.config(), flow.power(), &gov, None);
        let direct =
            run_system_governed(&spec, &design.workload, flow.config(), flow.power(), &gov);

        assert_runs_identical(&shared.base.report, &direct.base.report);
        assert_eq!(shared.base.faults, direct.base.faults);
        assert_eq!(shared.cap_w.to_bits(), direct.cap_w.to_bits());
        assert_eq!(shared.epochs, direct.epochs);
        for (x, y) in [
            (shared.governed_exec_seconds, direct.governed_exec_seconds),
            (shared.governed_core_energy_j, direct.governed_core_energy_j),
            (shared.governed_edp, direct.governed_edp),
            (shared.static_peak_power_w, direct.static_peak_power_w),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{}", variant.name());
        }
        assert_eq!(shared.stats, direct.stats);
        assert_eq!(shared.reassigned, direct.reassigned);
        assert!(!direct.epochs.is_empty());
    }
}

#[test]
fn governed_sweep_simulates_each_distinct_run_once() {
    let _guard = serial();
    let mut spec = SweepSpec::smoke();
    spec.workload_seeds = vec![0x5A_03];
    spec.fault_rates = vec![0.0];
    spec.power_caps = vec![6.0];
    spec.epoch_cycles = 20_000;
    assert_eq!(
        spec.cell_count(),
        4,
        "{{nvfi, winoc}} × {{uncapped, capped}}"
    );

    let root = std::env::temp_dir().join(format!("mapwave-run-sharing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let opts = EngineOptions {
        jobs: 1,
        backoff_base_ms: 0,
        ..EngineOptions::default()
    };

    let before = run_stats();
    telemetry::reset();
    telemetry::enable();
    let summary = SweepEngine::create(&root, spec, opts)
        .and_then(|engine| engine.run())
        .expect("sweep runs");
    let trace = telemetry::snapshot();
    telemetry::disable();
    telemetry::reset();
    let after = run_stats();
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(summary.completed, 4);
    // Five consumers, two simulations: the NVFI run serves the design
    // profile, the NVFI cell and its capped twin; the WiNoC run serves the
    // WiNoC cell and its capped twin.
    assert_eq!(trace.spans_named("core.run_system").count(), 2);
    assert_eq!(after.misses - before.misses, 2);
    assert_eq!(after.hits - before.hits, 3);
    assert_eq!(trace.spans_named("core.run_governed").count(), 2);
}

/// `{WC, KMEANS} × {nvfi, winoc-max-wireless} × rates {0, 0.05} ×
/// {uncapped, 6 W}` on the small preset: sixteen cells, in which every app
/// is designed once and every clean run serves an anchor and its capped
/// twin.
fn shared_stage_spec(seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::smoke();
    spec.workload_seeds = vec![seed];
    spec.apps = vec![App::WordCount, App::Kmeans];
    spec.fault_rates = vec![0.0, 0.05];
    spec.power_caps = vec![6.0];
    spec.epoch_cycles = 20_000;
    assert_eq!(spec.cell_count(), 16);
    spec
}

fn sweep_opts(jobs: usize, commit_limit: Option<usize>) -> EngineOptions {
    EngineOptions {
        jobs,
        backoff_base_ms: 0,
        commit_limit,
        ..EngineOptions::default()
    }
}

fn store_root(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("mapwave-run-sharing-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A store's files by relative path: the spec, the manifest and the
/// artifacts.
type StoreFiles = BTreeMap<String, Vec<u8>>;

/// Reads every file of the store at `root`.
fn store_files(root: &Path) -> StoreFiles {
    fn walk(root: &Path, dir: &Path, out: &mut StoreFiles) {
        for entry in std::fs::read_dir(dir).expect("store directory is readable") {
            let path = entry.expect("store entry is readable").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("under the root");
                let bytes = std::fs::read(&path).expect("store file is readable");
                out.insert(rel.display().to_string(), bytes);
            }
        }
    }
    let mut out = StoreFiles::new();
    walk(root, root, &mut out);
    out
}

/// Runs `spec` to completion in a fresh store and returns its files.
fn full_store(spec: &SweepSpec, jobs: usize, tag: &str) -> StoreFiles {
    let root = store_root(tag);
    let summary = SweepEngine::create(&root, spec.clone(), sweep_opts(jobs, None))
        .and_then(|engine| engine.run())
        .expect("sweep runs");
    assert_eq!(summary.completed, spec.cell_count());
    let files = store_files(&root);
    let _ = std::fs::remove_dir_all(&root);
    files
}

#[test]
fn parallel_sweep_designs_each_app_once_and_runs_each_distinct_run_once() {
    let _guard = serial();
    let spec = shared_stage_spec(0x5A_04);
    let cells = spec.cells();
    // A clean run is shared by its anchor and capped twin (and the NVFI
    // run is also the design profile); every faulted cell's plan is seeded
    // by its own index, so its run is its own.
    let distinct_runs = cells
        .iter()
        .filter(|c| c.fault_rate == 0.0 && c.power_cap_w.is_none())
        .count()
        + cells.iter().filter(|c| c.fault_rate > 0.0).count();
    assert_eq!(distinct_runs, 12);

    let root = store_root("counts");
    telemetry::reset();
    telemetry::enable();
    let summary = SweepEngine::create(&root, spec.clone(), sweep_opts(2, None))
        .and_then(|engine| engine.run())
        .expect("sweep runs");
    let trace = telemetry::snapshot();
    telemetry::disable();
    telemetry::reset();
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(summary.completed, cells.len());
    for app in &spec.apps {
        let designs = trace
            .spans_named("core.design")
            .filter(|s| s.label.as_deref() == Some(app.name()))
            .count();
        assert_eq!(designs, 1, "{} is designed once at 2 workers", app.name());
    }
    assert_eq!(trace.spans_named("core.design").count(), spec.apps.len());
    assert_eq!(
        trace.spans_named("core.run_system").count(),
        distinct_runs,
        "no two workers simulate the same run"
    );
}

#[test]
fn sweep_store_is_byte_identical_across_worker_counts() {
    let _guard = serial();
    let spec = shared_stage_spec(0x5A_05);
    let serial_store = full_store(&spec, 1, "jobs1");
    assert!(serial_store.contains_key("manifest.txt"));
    for jobs in [2, 4] {
        // Cold caches, so every worker count computes every stage itself.
        orchestrator::clear_caches();
        let pooled = full_store(&spec, jobs, &format!("jobs{jobs}"));
        assert!(pooled == serial_store, "store differs at {jobs} workers");
    }
}

#[test]
fn killed_sweeps_resume_to_the_full_store_at_every_commit_point() {
    let _guard = serial();
    let spec = shared_stage_spec(0x5A_06);
    let n = spec.cell_count();
    let reference = full_store(&spec, 1, "reference");
    for k in 1..n {
        orchestrator::clear_caches();
        let root = store_root(&format!("killed{k}"));
        let killed = SweepEngine::create(&root, spec.clone(), sweep_opts(2, Some(k)))
            .and_then(|engine| engine.run())
            .expect("killed sweep runs");
        // The summary counts cells, never the design jobs between them.
        assert_eq!(killed.completed, k, "limit {k}");
        assert_eq!(killed.dead_lettered, 0);
        assert_eq!(killed.pending, n - k, "limit {k}");

        // A fresh process: nothing of the killed run is cached, so a
        // resumed capped cell whose twin is committed computes its base.
        orchestrator::clear_caches();
        let resumed = SweepEngine::resume(&root, sweep_opts(2, None))
            .and_then(|engine| engine.run())
            .expect("resumed sweep runs");
        assert_eq!(resumed.completed, n - k, "limit {k}");
        assert_eq!(resumed.pending, 0);
        assert!(
            store_files(&root) == reference,
            "kill after {k} cells + resume differs from the full run"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
