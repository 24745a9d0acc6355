//! Host-contention correction of timed work.
//!
//! On a host shared with other tenants a vCPU alternates, every second or
//! so, between running at full speed and running up to ~1.5× slower, and
//! the share of slow time drifts from minute to minute. A pass of several
//! seconds averages whatever mix it met, so raw pass times of one code
//! spread by 15–30% between runs. The spans the pass records are shorter
//! than those phases: the fastest time a span took in any pass of a run is
//! its cost on a quiet host, and the ratio of a pass's spans' fastest
//! times to their times in that pass is the slowdown the pass suffered.
//! A pass's corrected time is its wall time scaled by that ratio, so work
//! outside any span (report rendering, store commits) is kept, and work a
//! pass really did twice (two workers racing to fill one cache entry)
//! still counts twice.

use mapwave_harness::telemetry::SpanRecord;
use std::collections::HashMap;

/// One timed piece of work: its wall time and the self time of every span
/// it recorded, keyed by the span's place in the span tree.
#[derive(Debug)]
pub struct Sample {
    pub secs: f64,
    spans: Vec<(String, f64)>,
}

impl Sample {
    /// A span's key is its path of `name:label` from the outermost span on
    /// its thread, with a sibling index for repeats (the windows of one
    /// system run), so the same span of two passes of the same work gets
    /// the same key whatever the worker count interleaved. Its self time
    /// is its duration minus its direct children's.
    pub fn of(secs: f64, spans: &[SpanRecord]) -> Sample {
        let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
        sorted.sort_by_key(|s| (s.tid, s.start_ns, std::cmp::Reverse(s.dur_ns)));
        let mut keys: Vec<String> = Vec::with_capacity(sorted.len());
        let mut self_ns: Vec<u64> = sorted.iter().map(|s| s.dur_ns).collect();
        let mut siblings: HashMap<String, u32> = HashMap::new();
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
            let parent = stack.last().map(|&(p, end)| {
                let child = (s.start_ns + s.dur_ns).min(end) - s.start_ns;
                self_ns[p] = self_ns[p].saturating_sub(child);
                p
            });
            let prefix = parent.map_or("", |p| keys[p].as_str());
            let base = format!(
                "{prefix}/{}:{}",
                s.name,
                s.label.as_deref().unwrap_or_default()
            );
            let n = siblings.entry(base.clone()).or_insert(0);
            *n += 1;
            keys.push(format!("{base}#{n}"));
            stack.push((i, s.start_ns + s.dur_ns));
        }
        Sample {
            secs,
            spans: keys
                .into_iter()
                .zip(self_ns)
                .map(|(k, ns)| (k, ns as f64 * 1e-9))
                .collect(),
        }
    }
}

/// The corrected time of every sample: `secs × Σ fastest / Σ own` over
/// the sample's spans, where `fastest` is the least self time the span
/// took in any of `samples`. A sample without spans keeps its wall time.
/// Pass only samples of the same work at the same worker count.
pub fn corrected(samples: &[Sample]) -> Vec<f64> {
    let mut fastest: HashMap<&str, f64> = HashMap::new();
    for s in samples {
        for (key, secs) in &s.spans {
            let f = fastest.entry(key.as_str()).or_insert(f64::INFINITY);
            *f = f.min(*secs);
        }
    }
    samples
        .iter()
        .map(|s| {
            let own: f64 = s.spans.iter().map(|(_, secs)| secs).sum();
            let best: f64 = s.spans.iter().map(|(key, _)| fastest[key.as_str()]).sum();
            if own > 0.0 {
                s.secs * best / own
            } else {
                s.secs
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, label: &str, tid: u64, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            label: Some(label.to_string()),
            tid,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn keys_follow_the_span_tree_and_self_times_exclude_children() {
        let s = Sample::of(
            1.0,
            &[
                span("job", "a", 0, 0, 100),
                span("win", "", 0, 10, 30),
                span("win", "", 0, 50, 20),
                span("job", "b", 1, 0, 40),
            ],
        );
        let get = |k: &str| s.spans.iter().find(|(key, _)| key == k).unwrap().1;
        assert!((get("/job:a#1") - 50e-9).abs() < 1e-15);
        assert!((get("/job:a#1/win:#1") - 30e-9).abs() < 1e-15);
        assert!((get("/job:a#1/win:#2") - 20e-9).abs() < 1e-15);
        assert!((get("/job:b#1") - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn each_span_is_held_to_its_fastest_time_across_samples() {
        // Two passes of two spans; each pass was slowed in a different span.
        let a = Sample::of(
            4.0,
            &[
                span("job", "x", 0, 0, 2_000),
                span("job", "y", 0, 2_000, 1_000),
            ],
        );
        let b = Sample::of(
            3.0,
            &[
                span("job", "x", 0, 0, 1_000),
                span("job", "y", 0, 1_000, 2_000),
            ],
        );
        let c = corrected(&[a, b]);
        assert!((c[0] - 4.0 * 2.0 / 3.0).abs() < 1e-12);
        assert!((c[1] - 3.0 * 2.0 / 3.0).abs() < 1e-12);
        // Without spans, a sample keeps its wall time.
        assert_eq!(corrected(&[Sample::of(2.5, &[])]), vec![2.5]);
    }
}
