//! The seeded generator: inputs, tenant draws and arrival times all
//! come from the one `Rng64` the workload seeds with `--seed`, so a
//! seed fixes everything the library is given.

use crate::api::Rng64;
use std::time::{Duration, Instant};

/// One request of an open-loop schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// When the request is due, from the start of the schedule.
    pub due: Duration,
    pub tenant: u64,
    pub input: Vec<f64>,
}

/// A model input: `dim` values uniform in `[-1, 1)`.
pub fn input(rng: &mut Rng64, dim: usize) -> Vec<f64> {
    (0..dim).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
}

/// Draws a tenant: tenant `i` with probability `shares[i]` (the last
/// tenant takes the remainder).
pub fn draw_tenant(rng: &mut Rng64, shares: &[f64]) -> u64 {
    let u = rng.next_f64();
    let mut edge = 0.0;
    for (i, share) in shares.iter().enumerate() {
        edge += share;
        if u < edge {
            return i as u64;
        }
    }
    shares.len() as u64 - 1
}

/// `count` Poisson arrivals over exactly `span`: exponential gaps,
/// scaled so the first request is due at 0 and the last at `span`.
/// Conditioning the process on its count keeps the offered rate the
/// same for every seed, so a seed changes the burstiness a run sees
/// but not how much work it is offered.
pub fn poisson_schedule(
    rng: &mut Rng64,
    count: usize,
    span: Duration,
    shares: &[f64],
    dim: usize,
) -> Vec<Arrival> {
    let gaps: Vec<f64> = (1..count).map(|_| -(1.0 - rng.next_f64()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let mut at = 0.0;
    let mut schedule = Vec::with_capacity(count);
    for i in 0..count {
        if i > 0 {
            at += gaps[i - 1] / total;
        }
        schedule.push(Arrival {
            due: span.mul_f64(at.min(1.0)),
            tenant: draw_tenant(rng, shares),
            input: input(rng, dim),
        });
    }
    schedule
}

/// Sleeps until `due`; returns at once when it has passed. The sender
/// never skips a request it is late for.
pub fn sleep_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over everything a schedule hands the system.
    fn schedule_hash(schedule: &[Arrival]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for a in schedule {
            eat(a.due.as_nanos() as u64);
            eat(a.tenant);
            a.input.iter().for_each(|v| eat(v.to_bits()));
        }
        h
    }

    const SHARES: [f64; 4] = [0.7, 0.1, 0.1, 0.1];

    #[test]
    fn a_seed_pins_the_schedule() {
        let make = |seed| {
            poisson_schedule(
                &mut Rng64::new(seed),
                300,
                Duration::from_secs(10),
                &SHARES,
                16,
            )
        };
        assert_eq!(make(7), make(7));
        assert_ne!(schedule_hash(&make(7)), schedule_hash(&make(8)));
        assert_eq!(schedule_hash(&make(7)), 0x9369_5289_0894_aed6);
    }

    #[test]
    fn the_schedule_spans_exactly_its_length_in_order() {
        let span = Duration::from_secs(10);
        let s = poisson_schedule(&mut Rng64::new(3), 300, span, &SHARES, 16);
        assert_eq!(s.len(), 300);
        assert_eq!(s[0].due, Duration::ZERO);
        assert!((s[299].due.as_secs_f64() - 10.0).abs() < 1e-6);
        assert!(s.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(s.iter().all(|a| a.input.len() == 16 && a.tenant < 4));
        assert!(s
            .iter()
            .all(|a| a.input.iter().all(|v| (-1.0..1.0).contains(v))));
        let majority = s.iter().filter(|a| a.tenant == 0).count();
        assert!((180..=240).contains(&majority), "tenant 0 drew {majority}");
    }

    #[test]
    fn sleep_until_returns_at_once_when_late() {
        let start = Instant::now();
        sleep_until(start - Duration::from_secs(1));
        assert!(start.elapsed() < Duration::from_millis(50));
    }
}
