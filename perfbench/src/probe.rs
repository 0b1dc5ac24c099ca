//! A host-speed probe: a fixed CPU kernel timed at regular points of the
//! timed window.
//!
//! The host this benchmark runs on changes speed by up to 1.5x for
//! stretches of seconds to minutes (other tenants on the same cores,
//! frequency scaling), and every op of a run slows down with it. The
//! probe does the same work every time — ordered-map inserts and probes
//! and a string sort, the kind of work the engine does — so its duration
//! tracks the host's speed and nothing else: it calls no code of the
//! repository.

use std::collections::BTreeMap;
use std::time::Instant;

/// Keys the probe inserts and then looks up.
const KEYS: u64 = 2_000;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the kernel once; returns its duration in microseconds.
pub fn run() -> f64 {
    let start = Instant::now();
    let mut x = 7u64;
    let mut map = BTreeMap::new();
    for i in 0..KEYS {
        map.insert(splitmix(&mut x) % 100_000, i);
    }
    let hits = (0..KEYS)
        .filter(|_| map.contains_key(&(splitmix(&mut x) % 100_000)))
        .count();
    let mut words: Vec<String> = (0..512u64)
        .map(|i| format!("w{}", splitmix(&mut x) % (1_000 + i)))
        .collect();
    words.sort_unstable();
    std::hint::black_box((hits, words));
    start.elapsed().as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    #[test]
    fn probe_takes_measurable_time() {
        let t = super::run();
        assert!(t > 0.0 && t < 1e6, "{t}");
    }
}
