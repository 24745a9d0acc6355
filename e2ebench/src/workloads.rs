//! The three workloads: what one pass runs, its set-up, its output checks
//! and the traced-mode probes that time layer entry points the program
//! itself does not span.

use mapwave::design_flow::{Design, DesignFlow};
use mapwave::experiments::ExperimentContext;
use mapwave::orchestrator::{self, RunVariant};
use mapwave::system::{RunReport, SystemSpec};
use mapwave::{PlacementStrategy, PlatformConfig};
use mapwave_harness::jobs::JobGraph;
use mapwave_harness::telemetry;
use mapwave_noc::NodeId;
use mapwave_phoenix::apps::App;
use mapwave_sweep::prelude::*;
use mapwave_vfi::clustering::{Clustering, ClusteringProblem};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

/// The paper's canonical workload seed (the `mapwave` CLI default).
pub const CANONICAL_SEED: u64 = 0xDAC_2015;
/// Input scale of the `report` and `sweep_faulted` workloads (the scale
/// CI and the verify notes use).
pub const SMOKE_SCALE: f64 = 0.002;
/// Input scale of the `design` workload: large enough that input
/// generation is a real share of the design flow.
pub const DESIGN_SCALE: f64 = 0.2;
/// Chip power cap of the governed sweep cells, W (binds on every app).
pub const SWEEP_CAP_W: f64 = 20.0;

/// The result of checking one pass's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Checked {
    /// Operations the pass performed (system runs, designs, sweep cells).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Hash of every simulated output of the pass; passes at one seed
    /// must agree on it exactly, whatever their worker count.
    pub fingerprint: u64,
}

/// One benchmark workload.
pub trait Workload {
    /// What a pass returns (dropped outside the timed region).
    type Output;

    /// Operations one pass performs.
    fn ops_per_pass(&self) -> u64;

    /// Validates the configuration, builds the design flow and generates
    /// the pass's application inputs with `App::workload`.
    fn setup(&self) -> Result<(), String>;

    /// Untimed preparation: every pass must redo all of its work, so the
    /// process-wide design/run stage caches are emptied here.
    fn prepare(&mut self) -> Result<(), String> {
        orchestrator::clear_caches();
        Ok(())
    }

    /// The timed pass on `jobs` worker threads.
    fn run(&self, jobs: usize) -> Result<Self::Output, String>;

    /// Checks a pass's outputs.
    fn check(&self, out: &Self::Output) -> Checked;

    /// Traced mode: repeats, under benchmark spans, the calls into layers
    /// that the pass made inside the program without a span of their own
    /// (clustering solve, WiNoC placement), on the pass's own inputs.
    /// Returns per-layer figures read from the pass's output itself.
    fn probe(&self, out: &Self::Output) -> Vec<(&'static str, f64)>;

    /// Removes whatever the passes left on disk.
    fn cleanup(&mut self) {}
}

fn setup_inputs(cfg: &PlatformConfig, apps: &[App]) -> Result<(), String> {
    cfg.validate()?;
    let flow = DesignFlow::new(cfg.clone())?;
    black_box(&flow);
    for &app in apps {
        let _span = telemetry::span_labeled("apps.workload", app.name());
        black_box(app.workload(cfg.scale, cfg.seed, cfg.cores()));
    }
    Ok(())
}

fn run_ok(r: &RunReport) -> bool {
    let positive = |v: f64| v.is_finite() && v > 0.0;
    positive(r.exec_seconds) && positive(r.total_energy_j()) && positive(r.edp)
}

fn equal_clusters(c: &Clustering, clusters: usize) -> bool {
    c.cluster_count() == clusters && (0..clusters).all(|j| c.members(j).len() * clusters == c.len())
}

fn hash_run(r: &RunReport, h: &mut DefaultHasher) {
    r.net.digest().to_hex().hash(h);
    r.exec.tasks_per_core.hash(h);
    r.exec.steals.hash(h);
    [r.exec_seconds, r.core_energy_j, r.net_energy_j, r.edp]
        .map(f64::to_bits)
        .hash(h);
}

/// Re-solves a design's clustering problem from its profile, exactly as
/// `DesignFlow::design` builds it, under a benchmark span.
fn probe_clustering(design: &Design, clusters: usize) {
    let n = design.profile.utilization.len();
    let traffic: Vec<Vec<f64>> = (0..n)
        .map(|s| {
            (0..n)
                .map(|d| design.profile.traffic.rate(NodeId(s), NodeId(d)))
                .collect()
        })
        .collect();
    let problem = ClusteringProblem::new(design.profile.utilization.clone(), traffic, clusters)
        .expect("a profile the design flow accepted is a well-formed instance");
    let _span = telemetry::span_labeled("vfi.solve_multilevel", design.app.name());
    black_box(problem.solve_multilevel());
}

fn placement_span(strategy: PlacementStrategy) -> &'static str {
    match strategy {
        PlacementStrategy::MinHopCount => "placement.min_hop",
        PlacementStrategy::MaxWirelessUtilization => "placement.max_wireless",
    }
}

/// `flow.winoc_spec` under the benchmark span of its strategy.
fn winoc_spec(flow: &DesignFlow, design: &Design, strategy: PlacementStrategy) -> SystemSpec {
    let _span = telemetry::span_labeled(placement_span(strategy), design.app.name());
    flow.winoc_spec(design, strategy)
}

// ---------------------------------------------------------------------------
// report
// ---------------------------------------------------------------------------

/// `mapwave report --scale 0.002`: six apps × five variants plus six
/// design profiles.
pub struct Report {
    cfg: PlatformConfig,
}

impl Report {
    pub fn new(seed: u64) -> Report {
        Report {
            cfg: PlatformConfig::paper()
                .with_scale(SMOKE_SCALE)
                .with_seed(seed),
        }
    }
}

/// The paper's average EDP saving of the VFI WiNoC over the NVFI mesh, %.
const PAPER_AVG_EDP_SAVING_PCT: f64 = 33.7;
/// The paper's worst execution-time penalty of the VFI WiNoC, %.
const PAPER_MAX_TIME_PENALTY_PCT: f64 = 3.22;

/// Distance of the headline from the paper's, in percentage points:
/// `(|avg EDP saving − 33.7|, |worst time penalty − 3.22|)`.
pub fn headline_gaps(ctx: &ExperimentContext) -> (f64, f64) {
    let h = ctx.headline();
    (
        (h.avg_edp_saving * 100.0 - PAPER_AVG_EDP_SAVING_PCT).abs(),
        (h.max_time_penalty * 100.0 - PAPER_MAX_TIME_PENALTY_PCT).abs(),
    )
}

impl Workload for Report {
    type Output = (ExperimentContext, String);

    fn ops_per_pass(&self) -> u64 {
        (App::ALL.len() * (1 + RunVariant::ALL.len())) as u64
    }

    fn setup(&self) -> Result<(), String> {
        setup_inputs(&self.cfg, &App::ALL)
    }

    fn run(&self, jobs: usize) -> Result<Self::Output, String> {
        let ctx = ExperimentContext::new_parallel(self.cfg.clone(), jobs)?;
        let text = mapwave::report::full_report(&ctx);
        Ok((ctx, text))
    }

    fn check(&self, (ctx, text): &Self::Output) -> Checked {
        let mut h = DefaultHasher::new();
        text.hash(&mut h);
        let mut failed = 0;
        for app in App::ALL {
            if !equal_clusters(&ctx.design(app).clustering, self.cfg.clusters) {
                failed += 1;
            }
            let r = ctx.runs(app);
            for run in [
                &r.nvfi,
                &r.vfi1_mesh,
                &r.vfi_mesh,
                &r.winoc_min_hop,
                &r.winoc_max_wireless,
            ] {
                if !run_ok(run) {
                    failed += 1;
                }
                hash_run(run, &mut h);
            }
        }
        Checked {
            attempted: self.ops_per_pass(),
            failed,
            fingerprint: h.finish(),
        }
    }

    fn probe(&self, (ctx, _): &Self::Output) -> Vec<(&'static str, f64)> {
        for app in App::ALL {
            let design = ctx.design(app);
            probe_clustering(design, self.cfg.clusters);
            for strategy in [
                PlacementStrategy::MinHopCount,
                PlacementStrategy::MaxWirelessUtilization,
            ] {
                black_box(winoc_spec(ctx.flow(), design, strategy));
            }
        }
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// design
// ---------------------------------------------------------------------------

/// `DesignFlow::design` plus both WiNoC specs for every app at scale 0.2.
pub struct DesignOnly {
    cfg: PlatformConfig,
}

impl DesignOnly {
    pub fn new(seed: u64) -> DesignOnly {
        DesignOnly {
            cfg: PlatformConfig::paper()
                .with_scale(DESIGN_SCALE)
                .with_seed(seed),
        }
    }
}

impl Workload for DesignOnly {
    type Output = Vec<(Design, SystemSpec, SystemSpec)>;

    fn ops_per_pass(&self) -> u64 {
        App::ALL.len() as u64
    }

    fn setup(&self) -> Result<(), String> {
        setup_inputs(&self.cfg, &App::ALL)
    }

    /// One job per app on the harness job graph, as the report dispatches
    /// its designs.
    fn run(&self, jobs: usize) -> Result<Self::Output, String> {
        let flow = Arc::new(DesignFlow::new(self.cfg.clone())?);
        let mut graph = JobGraph::new();
        for app in App::ALL {
            let flow = Arc::clone(&flow);
            graph.add(format!("design/{}", app.name()), vec![], move |_| {
                let design = flow.design(app);
                let min_hop = winoc_spec(&flow, &design, PlacementStrategy::MinHopCount);
                let max_wireless =
                    winoc_spec(&flow, &design, PlacementStrategy::MaxWirelessUtilization);
                (design, min_hop, max_wireless)
            });
        }
        Ok(graph.run(jobs))
    }

    fn check(&self, out: &Self::Output) -> Checked {
        let wis = self.cfg.clusters * self.cfg.wis_per_cluster;
        let mut h = DefaultHasher::new();
        let mut failed = 0;
        for (design, min_hop, max_wireless) in out {
            let ok = equal_clusters(&design.clustering, self.cfg.clusters)
                && min_hop.overlay.len() == wis
                && max_wireless.overlay.len() == wis;
            if !ok {
                failed += 1;
            }
            design.clustering.as_slice().hash(&mut h);
            format!("{:?}{:?}", design.vfi1, design.vfi2).hash(&mut h);
            format!("{:?}{:?}", design.steal_vfi1, design.steal_vfi2).hash(&mut h);
            for spec in [min_hop, max_wireless] {
                format!("{:?}{:?}", spec.overlay, spec.mapping).hash(&mut h);
            }
        }
        Checked {
            attempted: self.ops_per_pass(),
            failed: failed + self.ops_per_pass().saturating_sub(out.len() as u64),
            fingerprint: h.finish(),
        }
    }

    fn probe(&self, out: &Self::Output) -> Vec<(&'static str, f64)> {
        for (design, _, _) in out {
            probe_clustering(design, self.cfg.clusters);
        }
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// sweep_faulted
// ---------------------------------------------------------------------------

/// A 24-cell faulted, power-capped, banked-DRAM sweep into a fresh store,
/// then the records read back and an EDP-saving query table.
pub struct SweepFaulted {
    spec: SweepSpec,
    out_dir: PathBuf,
    passes: usize,
}

/// What a sweep pass leaves: the engine summary, the records read back
/// from the store and the rendered query.
pub struct SweepOutput {
    summary: RunSummary,
    records: Vec<CellRecord>,
    table: String,
}

impl SweepFaulted {
    /// The seed picks the fault schedule; the app inputs stay the Paper
    /// preset's (see the README for why).
    pub fn new(seed: u64, out_dir: PathBuf) -> SweepFaulted {
        let mut spec = SweepSpec::paper();
        spec.scales = vec![SMOKE_SCALE];
        spec.fault_seed = seed;
        spec.apps = vec![App::WordCount, App::Kmeans, App::Pca];
        spec.variants = vec![RunVariant::Nvfi, RunVariant::WinocMaxWireless];
        spec.fault_rates = vec![0.0, 0.05];
        spec.power_caps = vec![SWEEP_CAP_W];
        spec.dram_banked = true;
        SweepFaulted {
            spec,
            out_dir,
            passes: 0,
        }
    }

    /// The current pass's store directory.
    fn store(&self) -> PathBuf {
        self.out_dir
            .join(format!("sweep-{}-{}", std::process::id(), self.passes))
    }

    fn remove_store(&self) -> Result<(), String> {
        let store = self.store();
        match std::fs::remove_dir_all(&store) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                Err(format!("cannot remove {}: {e}", store.display()))
            }
            _ => Ok(()),
        }
    }

    fn store_bytes(&self) -> u64 {
        fn walk(dir: &std::path::Path) -> u64 {
            std::fs::read_dir(dir)
                .into_iter()
                .flatten()
                .flatten()
                .map(|entry| match entry.metadata() {
                    Ok(m) if m.is_dir() => walk(&entry.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.store())
    }
}

impl Workload for SweepFaulted {
    type Output = SweepOutput;

    fn ops_per_pass(&self) -> u64 {
        self.spec.cell_count() as u64
    }

    fn setup(&self) -> Result<(), String> {
        let cfg = self.spec.cells()[0].config();
        setup_inputs(&cfg, &self.spec.apps)
    }

    /// Empties the stage caches and points the pass at a fresh store.
    fn prepare(&mut self) -> Result<(), String> {
        orchestrator::clear_caches();
        self.remove_store()?;
        self.passes += 1;
        self.remove_store()
    }

    fn run(&self, jobs: usize) -> Result<Self::Output, String> {
        let opts = EngineOptions {
            jobs,
            ..EngineOptions::default()
        };
        let store = self.store();
        let io = |e: std::io::Error| format!("sweep store {}: {e}", store.display());
        let engine = SweepEngine::create(&store, self.spec.clone(), opts).map_err(io)?;
        let summary = engine.run().map_err(io)?;
        let _span = telemetry::span("sweep.query");
        let records = load_records(engine.store()).map_err(io)?;
        let table = render_table(&records, &QueryFilter::default(), Metric::EdpSaving);
        Ok(SweepOutput {
            summary,
            records,
            table,
        })
    }

    fn check(&self, out: &Self::Output) -> Checked {
        let cells = self.ops_per_pass();
        let mut h = DefaultHasher::new();
        out.table.hash(&mut h);
        let complete = out.summary.completed as u64 == cells
            && out.summary.dead_lettered == 0
            && out.summary.pending == 0
            && out.records.len() as u64 == cells
            && out.table.lines().count() as u64 == cells + 1;
        let positive = |v: f64| v.is_finite() && v > 0.0;
        let mut failed = 0;
        for r in &out.records {
            r.encode().hash(&mut h);
            let mut ok =
                positive(r.exec_seconds) && positive(r.edp) && positive(r.total_energy_j());
            if let Some(g) = &r.governed {
                ok &= g.cap_respected
                    && g.peak_power_w <= g.power_cap_w
                    && positive(g.governed_exec_seconds)
                    && positive(g.governed_edp);
            }
            if !ok {
                failed += 1;
            }
        }
        Checked {
            attempted: cells,
            failed: if complete { failed } else { cells },
            fingerprint: h.finish(),
        }
    }

    fn probe(&self, _out: &Self::Output) -> Vec<(&'static str, f64)> {
        // The pass left its designs in the stage cache: these are hits.
        let cells = self.spec.cells();
        let flow = DesignFlow::new(cells[0].config()).expect("the sweep validated this config");
        for &app in &self.spec.apps {
            probe_clustering(
                &orchestrator::design_cached(&flow, app),
                flow.config().clusters,
            );
        }
        for cell in &cells {
            if let RunVariant::WinocMaxWireless = cell.variant {
                let design = orchestrator::design_cached(&flow, cell.app);
                black_box(winoc_spec(
                    &flow,
                    &design,
                    PlacementStrategy::MaxWirelessUtilization,
                ));
            }
        }
        vec![("sweep.store_bytes", self.store_bytes() as f64)]
    }

    fn cleanup(&mut self) {
        let _ = self.remove_store();
    }
}
