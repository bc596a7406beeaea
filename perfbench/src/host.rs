//! Host-speed probe, and the scaling of reported times to a reference host
//! speed.
//!
//! The benchmark runs on shared hosts whose speed drifts by more than the
//! bounds its end-to-end metrics are gated by: on a 2-vCPU VM, ten
//! consecutive 20 s runs of `tweets_feed` spread by 16–28% (interquartile
//! range over the median) on every timing metric, and this probe, timed
//! once per round in the same runs, drifted with them (fitted log-log
//! slopes 0.75–1.4 against each metric). Each round of every workload
//! therefore runs [`probe_ms`] outside its timed sections, and each run
//! reports its times as they would read on a host where the probe takes
//! [`REFERENCE_MS`]: times are multiplied, and rates divided, by
//! `REFERENCE_MS / median probe time of the run`. On those ten runs this
//! cut the spreads to 4–12%. Set-up times are scaled by the probes run
//! after each set-up instead, as the host's speed moves within seconds.
//! The raw wall-clock values and the probes' medians are printed beside
//! the scaled ones.
//!
//! The probe uses no crate of the repository, so a change to the system
//! under test cannot move it; it allocates, chases pointers and touches
//! fresh memory, as the system does.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::common::Rng;

/// Probe time, in ms, of the host speed every scaled time refers to.
pub const REFERENCE_MS: f64 = 20.0;

/// Time fixed reference work: insert 50 000 seeded keys into a
/// `BTreeMap`, sort 2 MiB of seeded keys, and write one byte per cache
/// line of 16 MiB of fresh memory.
pub fn probe_ms() -> f64 {
    let t = Instant::now();
    let mut rng = Rng::new(0x5EED, 0);
    let mut map = BTreeMap::new();
    for i in 0..50_000u64 {
        map.insert(rng.next_u64(), i);
    }
    black_box(map.values().step_by(3).sum::<u64>());
    let mut keys: Vec<u64> = (0..1 << 18).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    black_box(keys.iter().step_by(7).fold(0u64, |a, &k| a.wrapping_add(k)));
    let mut bytes = vec![0u8; 16 << 20];
    for i in (0..bytes.len()).step_by(64) {
        bytes[i] = i as u8;
    }
    black_box(bytes.iter().step_by(4096).map(|&b| u64::from(b)).sum::<u64>());
    t.elapsed().as_secs_f64() * 1e3
}

/// How a metric of `unit` scales with host speed: +1 for a time (it
/// grows on a slower host), -1 for a rate, 0 for anything else.
pub fn speed_exponent(unit: &str) -> i32 {
    match unit {
        "s" | "ms" | "us" | "ns" => 1,
        u if u.ends_with("/s") => -1,
        _ => 0,
    }
}

/// `value` in `unit` as it would read on the reference host, given the
/// run's median probe time.
pub fn to_reference(value: f64, unit: &str, probe_median_ms: f64) -> f64 {
    value * (REFERENCE_MS / probe_median_ms).powi(speed_exponent(unit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_and_rates_scale_inversely_and_ratios_not_at_all() {
        // A host twice as slow as the reference: the probe takes 40 ms.
        let slow = 2.0 * REFERENCE_MS;
        assert_eq!(to_reference(10.0, "ms", slow), 5.0);
        assert_eq!(to_reference(3.0, "s", slow), 1.5);
        assert_eq!(to_reference(80.0, "us", slow), 40.0);
        assert_eq!(to_reference(1000.0, "records/s", slow), 2000.0);
        assert_eq!(to_reference(6.0, "1/s", slow), 12.0);
        assert_eq!(to_reference(0.7, "ratio", slow), 0.7);
        assert_eq!(to_reference(600.0, "MB", slow), 600.0);
        assert_eq!(to_reference(12.5, "ms", REFERENCE_MS), 12.5);
    }

    #[test]
    fn probe_takes_time() {
        let ms = probe_ms();
        assert!(ms.is_finite() && ms > 0.0, "{ms}");
    }
}
