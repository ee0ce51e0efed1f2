//! Result records, the final JSON line, and the machine/build stamp.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run measured and whether its outputs checked out.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations (mines or refreshes) attempted.
    pub attempted: u64,
    /// Operations that returned an error or whose output failed a check.
    pub failed: u64,
    /// Names of the checks that failed, for the human-readable report.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Lines printed ahead of the JSON result: sample counts, fingerprints
    /// and the figures the JSON line does not gate.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count a failed check against `ops` operations.
    pub fn fail(&mut self, ops: u64, what: String) {
        self.failed += ops;
        self.failures.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    pub fn error_rate(&self) -> f64 {
        self.failed.min(self.attempted) as f64 / self.attempted.max(1) as f64
    }

    /// The single-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed.min(self.attempted)
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            );
        }
        out.push_str("}}");
        out
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Full-precision JSON number; non-finite values (which no metric should
/// produce) become `-1` so the line stays parseable and the value stands out.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

/// Core count, compiler and commit the result was produced with.
pub fn stamp_json() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "\"cores\":{cores},\"rustc\":{},\"commit\":{}",
        json_string(env!("PERFBENCH_RUSTC")),
        json_string(env!("PERFBENCH_COMMIT"))
    )
}

/// Hand freed heap pages back to the kernel, then restart this process's
/// peak-RSS mark (Linux `clear_refs` command 5), so the next
/// [`peak_rss_mb`] reads the peak of what ran since rather than memory an
/// earlier operation freed but the allocator kept. Returns `false` where
/// the kernel refuses the reset; peaks are then process-wide.
pub fn reset_peak_rss() -> bool {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes a plain integer, has no
    // preconditions, and only returns unused pages of the allocator's own
    // arenas to the kernel.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Derive an independent sub-seed (SplitMix64 finaliser), so neighbouring
/// run seeds do not share generated instances.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive FNV-1a fingerprint of a DC sequence.
pub fn fingerprint<'a>(dcs: impl IntoIterator<Item = &'a [usize]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for dc in dcs {
        eat(dc.len() as u64);
        for &p in dc {
            eat(p as u64);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.5, "s");
        assert_eq!(
            o.json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let a: [&[usize]; 2] = [&[1, 2], &[3]];
        let b: [&[usize]; 2] = [&[3], &[1, 2]];
        assert_ne!(fingerprint(a), fingerprint(b));
    }
}
