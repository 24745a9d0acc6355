//! Run sharing through the process-wide run cache: the design flow's NVFI
//! profile run is the NVFI baseline run, and a fault-free capped sweep
//! cell's static run is its uncapped twin's. Each distinct
//! `(config, app, variant)` system run is simulated once, and every
//! consumer of a shared run sees exactly what a fresh simulation returns.
//!
//! The tests count cache lookups and telemetry spans, which are global to
//! the process, so they run one at a time and each uses its own seed.

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
