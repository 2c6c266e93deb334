//! The host-speed probe: a fixed piece of work, independent of the
//! program, timed beside the program's reps.
//!
//! The reference box is a few cores of a shared host. What its other
//! tenants do to the shared cache and memory system slows the
//! cache-hungry workloads by 10-40 % for minutes at a time, on both
//! cores at once (two copies of `steady_10k` run side by side slow down
//! together, correlation 0.92 over 20 s windows), and no statistic over
//! one run's samples sees through a slow-down that outlasts the run.
//! The probe slows down with the rounds (correlation 0.86 over 20 s
//! windows, 0.9 between runs), so a run divides its round timings by the
//! slow-down its probe samples imply and reports them as at reference
//! host speed (README, "Host speed").
//!
//! The work is four interleaved dependent pointer chases through one
//! random cycle over an 8 MiB table: far larger than a core's private
//! cache, well inside the shared one. Sampled right after a round has
//! pushed the table out of the private cache, every step is a
//! shared-cache hit or a memory access, whose latency the host's other
//! tenants set. A single chain moves too little with the rounds; four in
//! flight also queue behind each other, as the program's loads do.

use std::hint::black_box;
use std::time::Instant;

/// Table entries: 2 Mi x 4 B = 8 MiB.
const ENTRIES: usize = 2 << 20;
/// Steps each of the four chains takes per sample.
const STEPS: usize = 200_000;

/// The probe's table: a single cycle through all entries.
pub struct Probe {
    next: Vec<u32>,
}

impl Probe {
    /// Build the table: Sattolo's shuffle from a fixed seed, so every
    /// run chases the same cycle.
    pub fn new() -> Probe {
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for i in (1..ENTRIES).rev() {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Probe { next }
    }

    /// Seconds one sample takes now.
    pub fn sample(&self) -> f64 {
        let next = &self.next;
        let quarter = (ENTRIES / 4) as u32;
        let (mut a, mut b, mut c, mut d) = (0, quarter, 2 * quarter, 3 * quarter);
        let t = Instant::now();
        for _ in 0..STEPS {
            a = next[a as usize];
            b = next[b as usize];
            c = next[c as usize];
            d = next[d as usize];
        }
        black_box((a, b, c, d));
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_one_cycle_through_every_entry() {
        let probe = Probe::new();
        let mut at = 0u32;
        let mut steps = 0usize;
        loop {
            at = probe.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, ENTRIES);
    }
}
