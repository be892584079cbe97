//! Small numeric helpers shared by the end-to-end and traced runs.

use drone_math::hash::{FNV_OFFSET, FNV_PRIME};

/// 64-bit FNV-1a over bytes: the reply digest the generator folds in
/// the timed loop, cheap enough to keep off the latency path.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// The `q`-quantile of `values`, interpolated linearly between order
/// statistics; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    drone_math::stats::quantile(values, q).unwrap_or(f64::NAN)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_vectors() {
        let _serial = crate::serial_test();
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
