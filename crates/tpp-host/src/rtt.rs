//! Smoothed round-trip-time estimation from probe echoes, in the style
//! of RFC 6298 (SRTT/RTTVAR EWMAs). RCP's control equation needs "the
//! average round-trip time of flows traversing the link" (§2.2); in the
//! end-host refactoring each flow measures its own RTT from echoed TPPs.

/// EWMA RTT estimator.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt_ns: Option<f64>,
    rttvar_ns: f64,
    /// Number of samples absorbed.
    pub samples: u64,
}

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl RttEstimator {
    /// An estimator with no samples yet.
    pub fn new() -> Self {
        RttEstimator {
            srtt_ns: None,
            rttvar_ns: 0.0,
            samples: 0,
        }
    }

    /// Absorb one RTT sample (send → echo-receive time), ns.
    pub fn on_sample(&mut self, rtt_ns: u64) {
        let r = rtt_ns as f64;
        self.samples += 1;
        match self.srtt_ns {
            None => {
                self.srtt_ns = Some(r);
                self.rttvar_ns = r / 2.0;
            }
            Some(srtt) => {
                // RFC 6298 weights: alpha = 1/8, beta = 1/4.
                self.rttvar_ns = 0.75 * self.rttvar_ns + 0.25 * (srtt - r).abs();
                self.srtt_ns = Some(0.875 * srtt + 0.125 * r);
            }
        }
    }

    /// The smoothed RTT, if any samples have arrived.
    pub(crate) fn srtt_ns(&self) -> Option<u64> {
        self.srtt_ns.map(|v| v as u64)
    }

    /// The smoothed RTT or a caller-supplied fallback for the cold-start
    /// period.
    pub fn srtt_or(&self, fallback_ns: u64) -> u64 {
        self.srtt_ns().unwrap_or(fallback_ns)
    }

    /// Mean deviation of the RTT.
    pub(crate) fn rttvar_ns(&self) -> u64 {
        self.rttvar_ns as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut est = RttEstimator::new();
        assert_eq!(est.srtt_ns(), None);
        assert_eq!(est.srtt_or(7), 7);
        est.on_sample(1_000_000);
        assert_eq!(est.srtt_ns(), Some(1_000_000));
        assert_eq!(est.rttvar_ns(), 500_000);
    }

    #[test]
    fn converges_to_steady_rtt() {
        let mut est = RttEstimator::new();
        est.on_sample(5_000_000); // one outlier
        for _ in 0..100 {
            est.on_sample(1_000_000);
        }
        let srtt = est.srtt_ns().unwrap();
        assert!((990_000..=1_050_000).contains(&srtt), "srtt {srtt}");
        assert!(est.rttvar_ns() < 100_000);
        assert_eq!(est.samples, 101);
    }

    #[test]
    fn smooths_rather_than_tracks_spikes() {
        let mut est = RttEstimator::new();
        for _ in 0..50 {
            est.on_sample(1_000_000);
        }
        est.on_sample(10_000_000); // spike
        let srtt = est.srtt_ns().unwrap();
        assert!(srtt < 3_000_000, "one spike moves srtt by <= 1/8: {srtt}");
    }
}
