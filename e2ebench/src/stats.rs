//! Sample statistics, host provenance and the JSON result line.

use std::process::{Command, Stdio};

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so the numbers printed here match an outside re-check.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`; `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut data = values.to_vec();
        data.sort_by(f64::total_cmp);
        let len = data.len();
        if len == 0 {
            return None;
        }
        if len == 1 {
            let v = data[0];
            return Some(Summary {
                n: 1,
                q1: v,
                median: v,
                q3: v,
            });
        }
        let m = len + 1;
        let quartile = |i: usize| {
            let j = (i * m / 4).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
        };
        Some(Summary {
            n: len,
            q1: quartile(1),
            median: quartile(2),
            q3: quartile(3),
        })
    }
}

/// Where and with what a result was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
    pub date: String,
}

impl Provenance {
    /// Collects the host facts; tools that are missing read `unknown`.
    pub fn collect(root: &std::path::Path) -> Provenance {
        let rustc = tool_output(Command::new("rustc").arg("--version"));
        // The ceiling keeps git from looking for a repository above the
        // checkout; an exported tree reads `unknown`.
        let mut git = Command::new("git");
        git.args(["rev-parse", "--short=12", "HEAD"])
            .current_dir(root)
            .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root));
        let commit = tool_output(&mut git);
        Provenance {
            nproc: mapwave_harness::jobs::available_parallelism(),
            rustc,
            commit,
            date: utc_now(),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"rustc\": {}, \"commit\": {}, \"date\": {}}}",
            self.nproc,
            quote(&self.rustc),
            quote(&self.commit),
            quote(&self.date)
        )
    }
}

/// First line of a tool's stdout, or `unknown` if it cannot run or fails.
/// `output()` waits for the child, so no process outlives the call.
fn tool_output(cmd: &mut Command) -> String {
    cmd.stdin(Stdio::null()).stderr(Stdio::null());
    match cmd.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("unknown")
            .trim()
            .to_string(),
        _ => "unknown".into(),
    }
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (proleptic Gregorian), after H. Hinnant.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number at full precision (Rust's shortest round-trip form).
/// Non-finite values have no JSON form; callers count them as failures.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The process's peak resident set size in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
