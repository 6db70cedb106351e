//! What the host was doing while a run measured, and what it can do at
//! best: CPU steal and load from `/proc`, peak resident memory, core count
//! and a measured FMA peak.  On a system without `/proc` the readings are
//! absent and reported as zero.

use std::hint::black_box;
use std::time::Instant;

/// Aggregate jiffies of `/proc/stat`'s first line: (all states, steal).
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let steal = *fields.get(7)?;
    Some((fields.iter().take(8).sum(), steal))
}

/// 1-, 5- and 15-minute load averages.
pub fn loadavg() -> [f64; 3] {
    let mut out = [0.0; 3];
    if let Ok(text) = std::fs::read_to_string("/proc/loadavg") {
        for (slot, field) in out.iter_mut().zip(text.split_whitespace()) {
            *slot = field.parse().unwrap_or(0.0);
        }
    }
    out
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host state at the start of a run; [`HostWatch::finish`] turns it into
/// the disturbance record of that run.
pub struct HostWatch {
    jiffies: Option<(u64, u64)>,
    load_before: [f64; 3],
}

/// Disturbance record of one run.
#[derive(Clone, Copy, Debug)]
pub struct HostRecord {
    /// Share of all CPU time the hypervisor gave to other guests, percent.
    pub steal_pct: f64,
    /// Load averages when the run started.
    pub load_before: [f64; 3],
    /// Load averages when the run ended.
    pub load_after: [f64; 3],
    /// Logical CPUs.
    pub nproc: usize,
}

impl HostWatch {
    /// Sample the host now.
    pub fn start() -> Self {
        HostWatch {
            jiffies: cpu_jiffies(),
            load_before: loadavg(),
        }
    }

    /// Sample again and report what happened in between.
    pub fn finish(&self) -> HostRecord {
        let steal_pct = match (self.jiffies, cpu_jiffies()) {
            (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => {
                100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        };
        HostRecord {
            steal_pct,
            load_before: self.load_before,
            load_after: loadavg(),
            nproc: nproc(),
        }
    }
}

/// Independent accumulator chains of the FMA loop: enough to cover two FMA
/// ports times a 4-5 cycle latency while staying inside 16 vector registers
/// (12 accumulators + 2 constants).
const CHAINS: usize = 12;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_block_avx2(iters: u64) -> (f64, f64) {
    use std::arch::x86_64::*;
    let mul = _mm256_set1_pd(black_box(0.999_999));
    let add = _mm256_set1_pd(black_box(1.0e-6));
    let mut acc = [_mm256_set1_pd(1.0); CHAINS];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = _mm256_fmadd_pd(*a, mul, add);
        }
    }
    let mut total = acc[0];
    for a in &acc[1..] {
        total = _mm256_add_pd(total, *a);
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), total);
    (lanes.iter().sum(), (iters * CHAINS as u64 * 4 * 2) as f64)
}

fn fma_block_scalar(iters: u64) -> (f64, f64) {
    let mul = black_box(0.999_999f64);
    let add = black_box(1.0e-6f64);
    let mut acc = [1.0f64; CHAINS];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            // Separate multiply and add: without hardware FMA `mul_add`
            // would call into libm.
            *a = *a * mul + add;
        }
    }
    (acc.iter().sum(), (iters * CHAINS as u64 * 2) as f64)
}

/// One block of the register-resident FMA loop: (checksum, flops done).
fn fma_block(iters: u64) -> (f64, f64) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: the two features the function is compiled for were just
        // detected on the running CPU.
        return unsafe { fma_block_avx2(iters) };
    }
    fma_block_scalar(iters)
}

/// Rates of the register-resident multiply-add loop run for about
/// `seconds` on the calling thread, in GFlop/s.
#[derive(Clone, Copy, Debug)]
pub struct FmaRate {
    /// The best block.  A peak is the one place a maximum is the right
    /// estimator: anything slower is the host interfering, not the core.
    pub peak: f64,
    /// All the work over all the time.
    pub sustained: f64,
}

/// Run the FMA loop for about `seconds`.
pub fn fma_rate(seconds: f64) -> FmaRate {
    const ITERS: u64 = 200_000;
    let start = Instant::now();
    let (mut peak, mut total_flops) = (0.0f64, 0.0f64);
    loop {
        let t0 = Instant::now();
        let (checksum, flops) = fma_block(black_box(ITERS));
        let dt = t0.elapsed().as_secs_f64();
        black_box(checksum);
        peak = peak.max(flops / dt / 1e9);
        total_flops += flops;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds {
            return FmaRate {
                peak,
                sustained: total_flops / elapsed / 1e9,
            };
        }
    }
}

/// Sustained FMA rate of two threads running the loop at once, as a
/// multiple of one thread's: near 2 when the host gives this process two
/// cores' worth of FMA units, near 1 when its two CPUs share one core or
/// the second is busy elsewhere.  Every 2-thread number of the benchmark is
/// read against it.
pub fn fma_scaling_2t(seconds: f64, one_thread: FmaRate) -> f64 {
    let both: f64 = std::thread::scope(|scope| {
        let threads = [(); 2].map(|()| scope.spawn(|| fma_rate(seconds).sustained));
        threads
            .into_iter()
            .map(|t| t.join().expect("the FMA loop does not panic"))
            .sum()
    });
    both / one_thread.sustained
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma_blocks_do_the_work_they_count() {
        // x <- x * m + a from x = 1 stays at the fixed point a / (1 - m) = 1.
        let (sum, flops) = fma_block_scalar(1000);
        assert!((sum - CHAINS as f64).abs() < 1e-6);
        assert_eq!(flops, 1000.0 * CHAINS as f64 * 2.0);
        let (sum, flops) = fma_block(1000);
        assert!((sum / (flops / 2000.0) - 1.0).abs() < 1e-6, "{sum} {flops}");
        let rate = fma_rate(0.01);
        assert!(rate.peak >= rate.sustained && rate.sustained > 0.0);
        assert!(fma_scaling_2t(0.01, rate) > 0.0);
    }

    #[test]
    fn host_readings_are_sane() {
        let watch = HostWatch::start();
        let rec = watch.finish();
        assert!((0.0..=100.0).contains(&rec.steal_pct));
        assert!(rec.nproc >= 1);
        assert!(peak_rss_mib() >= 0.0);
    }
}
