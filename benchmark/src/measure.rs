//! The measurement core: order statistics, the tail-percentile rule, the
//! noise probe and the host record.

use std::time::{Duration, Instant};

use crate::json::Json;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of the samples (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller takes at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile: the smallest sample with at least `q` of the
/// samples at or below it.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The highest of p99/p95/p90/p75/p50 that leaves at least ten samples
/// beyond it, so p99 is refused below 1 000 samples. `None` below 20.
pub fn percentile_rule(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75, 50]
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= 1000)
}

/// The tail a sample count can support: the percentile the rule above
/// names, and the median where it names none above it — a dozen samples
/// have not ten beyond any percentile, and a "tail" read off two or three
/// of them is the noise of the machine, not a property of the program.
pub fn tail(samples: &[f64]) -> f64 {
    match percentile_rule(samples.len()) {
        Some(p) if p > 50 => quantile(samples, p as f64 / 100.0),
        _ => median(samples),
    }
}

/// Wall time of a fixed amount of integer work that touches no memory.
fn spin_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000_000u64 {
        x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
    }
    std::hint::black_box(x);
    ms(t.elapsed())
}

/// One look at the machine: the spin on one thread, then on every thread
/// the harness uses at once (the slowest counts). On a machine that has
/// its cores the two read alike; on the 2-vCPU sandbox they often do not,
/// for seconds to minutes at a time, because both vCPUs then share a core.
#[derive(Debug, Clone, Copy)]
struct Probe {
    single_ms: f64,
    together_ms: f64,
}

impl Probe {
    fn take() -> Probe {
        let single_ms = spin_ms();
        let together_ms = std::thread::scope(|scope| {
            let spinners: Vec<_> = (0..threads()).map(|_| scope.spawn(spin_ms)).collect();
            spinners
                .into_iter()
                .map(|s| s.join().expect("the spin does not panic"))
                .fold(0.0, f64::max)
        });
        Probe {
            single_ms,
            together_ms,
        }
    }
}

/// Watches the machine across a workload, so that samples taken while it
/// was short of a core, or slower than it can be, are told from the rest.
/// The verdict comes from the probe alone, never from the samples: a
/// program that stalls now and then is not excused by it.
#[derive(Debug)]
pub struct Gate {
    first: Probe,
    last: Probe,
    /// Whether `last` found the machine quiet.
    last_quiet: bool,
    fastest_single_ms: f64,
    probes: u32,
    quiet_probes: u32,
}

impl Gate {
    /// Threads spinning together may take this much longer than one.
    const CONTENTION: f64 = 1.25;
    /// One thread may spin this much slower than the fastest seen.
    const SLOWDOWN: f64 = 1.15;

    pub fn open() -> Gate {
        let first = Probe::take();
        let mut gate = Gate {
            first,
            last: first,
            last_quiet: false,
            fastest_single_ms: first.single_ms,
            probes: 0,
            quiet_probes: 0,
        };
        gate.last_quiet = gate.judge(first);
        gate
    }

    fn judge(&mut self, probe: Probe) -> bool {
        self.fastest_single_ms = self.fastest_single_ms.min(probe.single_ms);
        let quiet = probe.together_ms <= probe.single_ms * Self::CONTENTION
            && probe.single_ms <= self.fastest_single_ms * Self::SLOWDOWN;
        self.probes += 1;
        self.quiet_probes += quiet as u32;
        quiet
    }

    /// Probes again. True if the machine was quiet at both ends of the
    /// stretch since the previous probe: what ran in between may be used.
    pub fn quiet(&mut self) -> bool {
        let probe = Probe::take();
        let was_quiet = self.last_quiet;
        self.last = probe;
        self.last_quiet = self.judge(probe);
        was_quiet && self.last_quiet
    }

    /// How far one thread's speed moved between the first probe and the
    /// latest, in percent.
    pub fn noise_pct(&self) -> f64 {
        (self.last.single_ms - self.first.single_ms).abs() / self.first.single_ms * 100.0
    }

    /// Share of the probes that found the machine quiet.
    pub fn quiet_share(&self) -> f64 {
        self.quiet_probes as f64 / self.probes as f64
    }
}

/// Samples, each tagged with whether the machine was quiet around it.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    all: Vec<f64>,
    quiet: Vec<f64>,
}

impl Samples {
    /// Below this many quiet samples, every sample is used.
    const MIN_QUIET: usize = 2;

    pub fn push(&mut self, value: f64, quiet: bool) {
        self.all.push(value);
        if quiet {
            self.quiet.push(value);
        }
    }

    /// The samples taken on a quiet machine when there are enough of them,
    /// else all: a run on a machine that never settles still reports.
    pub fn preferred(&self) -> &[f64] {
        if self.quiet.len() >= Self::MIN_QUIET {
            &self.quiet
        } else {
            &self.all
        }
    }

    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }
}

/// Worker, client and runner threads are clamped to this.
pub fn threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// User + system CPU seconds of this process, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks; Linux fixes `USER_HZ` at 100).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields count from its `)`.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and with what the numbers were taken.
pub fn host() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let unknown = || "unknown".to_string();
    Json::obj([
        ("nproc", Json::from(nproc() as u64)),
        ("threads_used", Json::from(threads() as u64)),
        ("threads_clamped", Json::from(nproc() > threads())),
        ("cpu", cpu.into()),
        // Both fixed when the binary was built (see build.rs).
        ("rustc", env!("BENCH_RUSTC").into()),
        ("rustflags", env!("BENCH_RUSTFLAGS").into()),
        (
            "commit",
            command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(unknown)
                .into(),
        ),
    ])
}

/// Runs rounds of `step(i)` until `seconds` have passed, and at least once.
pub fn until(seconds: f64, mut step: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    loop {
        step(i);
        i += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_wants_ten_samples_beyond() {
        assert_eq!(percentile_rule(19), None);
        assert_eq!(percentile_rule(20), Some(50));
        assert_eq!(percentile_rule(40), Some(75));
        assert_eq!(percentile_rule(100), Some(90));
        assert_eq!(percentile_rule(200), Some(95));
        assert_eq!(percentile_rule(999), Some(95), "p99 refused below 1000");
        assert_eq!(percentile_rule(1000), Some(99));
        assert_eq!(percentile_rule(1800), Some(99));
    }

    #[test]
    fn order_statistics() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&s), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(tail(&s), 90.0);
        assert_eq!(tail(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn cpu_seconds_reads_this_process() {
        let before = cpu_seconds();
        spin_ms();
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn quiet_samples_are_preferred_once_there_are_enough() {
        let mut s = Samples::default();
        assert!(s.is_empty());
        s.push(9.0, false);
        s.push(1.0, true);
        assert_eq!(s.preferred(), [9.0, 1.0], "one quiet sample is too few");
        s.push(2.0, true);
        assert_eq!(s.preferred(), [1.0, 2.0]);
    }

    #[test]
    fn the_gate_judges_probes_not_samples() {
        let mut gate = Gate::open();
        let calm = Probe {
            single_ms: gate.fastest_single_ms,
            together_ms: gate.fastest_single_ms * 1.1,
        };
        assert!(gate.judge(calm));
        let short_of_a_core = Probe {
            together_ms: calm.single_ms * 1.9,
            ..calm
        };
        assert!(!gate.judge(short_of_a_core));
        let slowed = Probe {
            single_ms: calm.single_ms * 1.3,
            together_ms: calm.single_ms * 1.3,
        };
        assert!(!gate.judge(slowed));
        assert!(gate.quiet_share() < 1.0);
    }
}
