//! Per-layer metrics from the traced passes: span self times and the
//! program's telemetry counters.

use mapwave_harness::telemetry::{SpanRecord, TelemetrySummary};
use std::collections::BTreeMap;

/// Count, total and self time (seconds) of every span name.
#[derive(Debug, Default)]
pub struct SpanTimes {
    by_name: BTreeMap<&'static str, (u64, f64, f64)>,
}

impl SpanTimes {
    /// A span's self time is its duration minus the part of it covered by
    /// the spans nested directly inside it on the same thread.
    pub fn of(spans: &[SpanRecord]) -> SpanTimes {
        let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
        sorted.sort_by_key(|s| (s.tid, s.start_ns, std::cmp::Reverse(s.dur_ns)));
        let mut child_ns = vec![0u64; sorted.len()];
        // Open spans on the current thread: (index, end).
        let mut stack: Vec<(usize, u64)> = Vec::new();
        let mut tid = None;
        for (i, s) in sorted.iter().enumerate() {
            if tid != Some(s.tid) {
                stack.clear();
                tid = Some(s.tid);
            }
            while stack.last().is_some_and(|&(_, end)| end <= s.start_ns) {
                stack.pop();
            }
            if let Some(&(parent, end)) = stack.last() {
                let end_child = (s.start_ns + s.dur_ns).min(end);
                child_ns[parent] += end_child - s.start_ns;
            }
            stack.push((i, s.start_ns + s.dur_ns));
        }
        let mut by_name: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in sorted.iter().zip(child_ns) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns as f64 * 1e-9;
            e.2 += s.dur_ns.saturating_sub(child) as f64 * 1e-9;
        }
        SpanTimes { by_name }
    }

    pub fn count(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.0 as f64)
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.1)
    }

    pub fn self_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.2)
    }
}

/// `num / den`, 0 when nothing was attempted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything one traced run measured.
pub struct Traced<'a> {
    /// The set-up traced once (`apps.workload` spans).
    pub setup: &'a TelemetrySummary,
    /// The traced pass at one worker.
    pub serial: &'a TelemetrySummary,
    /// Host seconds of that pass.
    pub serial_wall_s: f64,
    /// The benchmark-side probes after the serial pass.
    pub probes: &'a TelemetrySummary,
    /// The traced pass at `nproc` workers.
    pub parallel: &'a TelemetrySummary,
    /// Host seconds of that pass.
    pub parallel_wall_s: f64,
    /// Worker threads of the parallel pass.
    pub nproc: usize,
    /// Corrected, reference-speed medians of the same run's timed passes.
    pub wall_s: f64,
    pub wall_par_s: f64,
    /// Figures the workload read from its own output.
    pub extras: Vec<(&'static str, f64)>,
}

/// The per-layer metrics, in `BENCHMARK.json` order, as
/// `(name, value, unit)`.
pub fn metrics(t: &Traced) -> Vec<(&'static str, f64, &'static str)> {
    let s = SpanTimes::of(&t.serial.spans);
    let p = SpanTimes::of(&t.probes.spans);
    let par = SpanTimes::of(&t.parallel.spans);
    let setup = SpanTimes::of(&t.setup.spans);
    let c = |name: &str| t.serial.counter(name) as f64;

    let windows = s.count("noc.sim.run");
    let noc_busy = s.total_s("noc.sim.run");
    let stepped = c("noc.cycles_simulated");
    let skipped = c("noc.cycles_fast_forwarded") + c("noc.cycles_steady_replayed");
    let memoized = c("core.windows_memoized");
    let gen_s = setup.total_s("apps.workload");
    let jobs_busy = par.total_s("harness.job");
    let extra = |name: &str| {
        t.extras
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };

    vec![
        ("noc.windows", windows, "count"),
        ("noc.busy_s", noc_busy, "s"),
        ("noc.cycles_stepped", stepped, "cycles"),
        ("noc.ns_per_cycle", ratio(noc_busy * 1e9, stepped), "ns"),
        (
            "noc.cycles_skipped_frac",
            ratio(skipped, stepped + skipped),
            "fraction",
        ),
        ("noc.share", ratio(noc_busy, t.serial_wall_s), "fraction"),
        ("system.runs", s.count("core.run_system"), "count"),
        ("system.self_s", s.self_s("core.run_system"), "s"),
        (
            "system.memo_hit_frac",
            ratio(memoized, memoized + windows),
            "fraction",
        ),
        (
            "system.rounds_saved",
            c("core.relaxation_rounds_saved"),
            "count",
        ),
        // Includes the design's own `App::workload` call: the program has
        // no span around it, and subtracting `apps.gen_s` (a separate
        // call) leaves mostly noise at scale 0.2.
        ("design.self_s", s.self_s("core.design"), "s"),
        (
            "placement.min_hop_s",
            s.total_s("placement.min_hop") + p.total_s("placement.min_hop"),
            "s",
        ),
        (
            "placement.max_wireless_s",
            s.total_s("placement.max_wireless") + p.total_s("placement.max_wireless"),
            "s",
        ),
        (
            "placement.sa_moves",
            c("placement.sa_moves_evaluated"),
            "count",
        ),
        ("vfi.solve_s", p.total_s("vfi.solve_multilevel"), "s"),
        ("vfi.swap_moves", c("vfi.swap_moves_evaluated"), "count"),
        (
            "vfi.swap_accept_frac",
            ratio(c("vfi.swap_moves_accepted"), c("vfi.swap_moves_evaluated")),
            "fraction",
        ),
        ("apps.gen_s", gen_s, "s"),
        ("phoenix.busy_s", s.total_s("phoenix.exec"), "s"),
        ("phoenix.tasks", c("phoenix.tasks_executed"), "count"),
        (
            "phoenix.steal_frac",
            ratio(c("phoenix.tasks_stolen"), c("phoenix.tasks_executed")),
            "fraction",
        ),
        ("jobs.busy_s", jobs_busy, "s"),
        (
            "jobs.idle_s",
            t.nproc as f64 * t.parallel_wall_s - jobs_busy,
            "s",
        ),
        (
            "jobs.par_efficiency",
            ratio(t.wall_s, t.nproc as f64 * t.wall_par_s),
            "fraction",
        ),
        (
            "cache.hit_frac",
            ratio(c("cache.hit"), c("cache.hit") + c("cache.miss")),
            "fraction",
        ),
        ("dram.requests", c("dram.requests"), "count"),
        (
            "dram.row_hit_frac",
            ratio(c("dram.row_hits"), c("dram.requests")),
            "fraction",
        ),
        ("dram.stall_cycles", c("dram.stall_cycles"), "cycles"),
        ("governor.epochs", c("governor.epochs"), "count"),
        ("governor.throttles", c("governor.throttles"), "count"),
        (
            "governor.cap_violations",
            c("governor.cap_violations"),
            "count",
        ),
        ("governor.replay_s", s.self_s("core.run_governed"), "s"),
        ("fault.injected", c("fault.injected"), "count"),
        ("fault.task_retries", c("fault.task_retries"), "count"),
        ("sweep.cells", c("sweep.cells_completed"), "count"),
        (
            "sweep.dead_lettered",
            c("sweep.cells_dead_lettered"),
            "count",
        ),
        ("sweep.store_bytes", extra("sweep.store_bytes"), "bytes"),
        ("sweep.query_s", s.total_s("sweep.query"), "s"),
        ("trace.wall_s", t.serial_wall_s, "s"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u64, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            label: None,
            tid,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_on_the_same_thread() {
        let spans = [
            span("run", 0, 0, 100),
            span("noc", 0, 10, 30),
            span("inner", 0, 15, 5),
            span("noc", 0, 50, 20),
            // Another thread's span overlapping in time is not a child.
            span("noc", 1, 0, 100),
        ];
        let t = SpanTimes::of(&spans);
        assert_eq!(t.count("noc"), 3.0);
        assert!((t.self_s("run") - 50e-9).abs() < 1e-15);
        assert!((t.self_s("noc") - 145e-9).abs() < 1e-15);
        assert!((t.total_s("noc") - 150e-9).abs() < 1e-15);
    }
}
