//! Measurement primitives: the tail-percentile rule, process CPU and
//! peak-memory readers, the host-speed reference kernel, artifact
//! digests, and the attempted/failed tally behind `error_rate`.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Ops that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest whole percentile that still has at least
/// [`TAIL_BEYOND`] samples strictly after it in rank order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, 0–99.
    pub percentile: u32,
    /// The sample at that percentile (nearest-rank definition).
    pub value: f64,
    /// Samples ranked beyond it (always ≥ [`TAIL_BEYOND`]).
    pub beyond: usize,
    /// Samples in total.
    pub count: usize,
}

/// The tail-percentile rule. With `n` samples the highest whole
/// percentile `q` whose nearest-rank index `ceil(q·n/100)` leaves at
/// least [`TAIL_BEYOND`] samples after it is `floor(100·(n−10)/n)`.
/// `None` when fewer than `TAIL_BEYOND + 1` samples exist.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = (100 * (n - TAIL_BEYOND) / n) as u32;
    let rank = (q as usize * n).div_ceil(100).max(1);
    Some(Tail {
        percentile: q,
        value: v[rank - 1],
        beyond: n - rank,
        count: n,
    })
}

/// Kernel clock ticks per second for `/proc` CPU fields. `USER_HZ` is
/// part of the Linux user-space ABI and fixed at 100.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`
/// (fields 14 and 15, counted after the parenthesised command name,
/// which may itself contain spaces).
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state): utime is field 14, stime 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// This process's user + system CPU seconds so far, all threads
/// (exited ones included).
pub fn cpu_seconds() -> Option<f64> {
    parse_stat_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`
/// (the `VmHWM` line, in kB).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb as f64 / 1024.0)
}

/// This process's peak resident set size so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Run the reference kernel once and return its wall seconds. It is fixed
/// work owned by the benchmark — a 48×48 dense matrix product repeated 20
/// times, 200,000 splitmix steps and a sort of 3,125 words, about 4 ms —
/// so no change to the program can move it. Timed between ops, it
/// tracks how fast the shared host runs at that moment.
pub fn reference_kernel_s() -> f64 {
    const N: usize = 48;
    let t = std::time::Instant::now();
    let a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.5).collect();
    let b: Vec<f64> = (0..N * N).map(|i| (i % 5) as f64 * 0.25).collect();
    let mut acc = 0.0;
    for _ in 0..20 {
        let mut c = vec![0.0; N * N];
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        acc += std::hint::black_box(&c)[7];
    }
    let mut x = 0u64;
    let mut words = Vec::with_capacity(3_125);
    for i in 0..200_000u64 {
        x = x
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ i;
        if i % 64 == 0 {
            words.push(x);
        }
    }
    words.sort_unstable();
    std::hint::black_box((acc, words));
    t.elapsed().as_secs_f64()
}

/// 64-bit FNV-1a over named artifacts: order, names and bytes all count.
pub fn digest<'a>(artifacts: impl IntoIterator<Item = (&'a str, &'a str)>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, body) in artifacts {
        eat(name.as_bytes());
        eat(&[0]);
        eat(&(body.len() as u64).to_le_bytes());
        eat(body.as_bytes());
    }
    h
}

/// Ops attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Tally {
    /// Run one op, counting it as attempted and as failed when it returns
    /// `Err` or panics. Returns the op's output on success.
    pub fn run<T>(&mut self, label: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(format!("{label}: {e}"));
                None
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".to_string());
                self.fail(format!("{label}: panicked: {msg}"));
                None
            }
        }
    }

    /// Mark the op just attempted as failed by a later output check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Failed ops divided by attempted ops (0 when nothing ran).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Per-seed reference digests: the first op of a seed records its digest,
/// every later op of the same seed must reproduce it.
#[derive(Debug, Default)]
pub struct DigestBook {
    seen: std::collections::BTreeMap<u64, u64>,
}

impl DigestBook {
    /// Record or check `digest` for `seed`; `Err` when it differs from an
    /// earlier repeat of the same seed.
    pub fn check(&mut self, seed: u64, digest: u64) -> Result<(), String> {
        match self.seen.get(&seed) {
            Some(&first) if first != digest => Err(format!(
                "seed {seed:#x}: artifact digest {digest:016x} differs from earlier repeat {first:016x}"
            )),
            Some(_) => Ok(()),
            None => {
                self.seen.insert(seed, digest);
                Ok(())
            }
        }
    }

    /// Every recorded `(seed, digest)`, by seed.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.seen.iter().map(|(&s, &d)| (s, d))
    }
}
