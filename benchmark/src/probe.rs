//! A probe of the host's memory system, run beside every timed window.
//!
//! The simulator is bound by memory latency, and on a shared host that
//! latency is not the benchmark's own: on the reference sandbox identical
//! repetitions ran up to 2.6 × slower for a minute or two at a time, while
//! a pure-ALU loop beside them did not move and a pointer chase did (shared
//! cache and memory bandwidth taken by other tenants). Medians over
//! repetitions cannot remove noise that lasts longer than an invocation,
//! so the benchmark measures it: a dependent-load chase through 16 MiB,
//! code of the benchmark's own that no change to the repo can speed up,
//! sampled between the slices of the timed window. When it reads slower
//! than it does beside the same workload on a quiet host, wall metrics are
//! scaled back by `metrics::quiet_factor`; the raw wall and the probe's
//! reading are reported next to them.

use std::time::Instant;

/// 16 MiB of `u32` links: past the private caches, inside what a quiet
/// shared cache holds — the regime the simulator's working sets live in.
const ENTRIES: usize = 4 << 20;
/// Dependent loads per sample (≈ 20 ms on the reference sandbox).
const STEPS: usize = 200_000;

pub struct Probe {
    /// One cycle through every entry, in random order.
    chain: Vec<u32>,
    pos: u32,
}

impl Probe {
    pub fn new() -> Probe {
        // Sattolo's algorithm with a fixed xorshift stream: the same single
        // cycle every time, so every sample walks comparable ground.
        let mut chain: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for i in (1..ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chain.swap(i, (x % i as u64) as usize);
        }
        Probe { chain, pos: 0 }
    }

    /// Nanoseconds per dependent load, over one sample.
    pub fn sample(&mut self) -> f64 {
        let started = Instant::now();
        let mut pos = self.pos;
        for _ in 0..STEPS {
            pos = self.chain[pos as usize];
        }
        self.pos = std::hint::black_box(pos);
        started.elapsed().as_nanos() as f64 / STEPS as f64
    }
}

/// The probe at work beside one timed window: its samples, the time it
/// took, and how much of the process's peak RSS is its own.
pub struct Probing {
    probe: Probe,
    samples: Vec<f64>,
    busy_s: f64,
    /// `VmHWM` just before the probe's buffer existed.
    peak_rss_before: u64,
}

impl Probing {
    /// Build the probe. Keep the value alive until the process's peak RSS
    /// has been read through [`Probing::peak_rss_without_probe`].
    pub fn start() -> Probing {
        let peak_rss_before = profile::peak_rss_bytes();
        let started = Instant::now();
        let probe = Probe::new();
        Probing {
            probe,
            samples: Vec::new(),
            busy_s: started.elapsed().as_secs_f64(),
            peak_rss_before,
        }
    }

    pub fn sample(&mut self) {
        let started = Instant::now();
        self.samples.push(self.probe.sample());
        self.busy_s += started.elapsed().as_secs_f64();
    }

    /// Mean reading so far, ns per load.
    pub fn mean_ns(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Wall seconds spent building and sampling the probe.
    pub fn busy_s(&self) -> f64 {
        self.busy_s
    }

    /// Peak RSS of the process as if the probe had never been there. Every
    /// page of the buffer is resident from construction on (the shuffle
    /// writes them all), so since then the process's RSS is the program's
    /// plus the buffer, and before then `VmHWM` was the program's alone.
    pub fn peak_rss_without_probe(&self) -> u64 {
        let buffer = (ENTRIES * std::mem::size_of::<u32>()) as u64;
        self.peak_rss_before
            .max(profile::peak_rss_bytes().saturating_sub(buffer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_is_one_cycle_and_samples_advance_along_it() {
        let mut probe = Probe::new();
        let mut seen = vec![false; ENTRIES];
        let mut pos = 0u32;
        for _ in 0..ENTRIES {
            assert!(!seen[pos as usize], "the chain revisits {pos} early");
            seen[pos as usize] = true;
            pos = probe.chain[pos as usize];
        }
        assert_eq!(pos, 0, "the chain does not close");
        let ns = probe.sample();
        assert!(ns > 0.0 && ns.is_finite());
        assert_ne!(probe.pos, 0);
    }

    #[test]
    fn probing_accounts_for_its_own_time_and_memory() {
        let before = profile::peak_rss_bytes();
        let mut probing = Probing::start();
        probing.sample();
        probing.sample();
        assert!(probing.mean_ns() > 0.0);
        assert!(probing.busy_s() > 0.0);
        if before > 0 {
            // Other tests share the process, so only the direction is
            // checkable: the buffer's 16 MiB are not reported.
            let with_probe = profile::peak_rss_bytes();
            assert!(probing.peak_rss_without_probe() >= before);
            assert!(probing.peak_rss_without_probe() <= with_probe);
        }
    }
}
