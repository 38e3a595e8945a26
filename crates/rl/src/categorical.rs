//! Masked categorical action distribution.
//!
//! X-RLflow's action space is padded to a constant size and a boolean mask
//! marks which candidates actually exist at the current step ("invalid
//! action masking", Section 3.3.2). Invalid logits are driven to a large
//! negative value so that both their probability and their gradient vanish.

use xrlflow_tensor::XorShiftRng;

/// Logit value assigned to masked-out (invalid) actions.
pub(crate) const MASK_VALUE: f32 = -1.0e9;

/// A categorical distribution over a padded, partially valid action space.
#[derive(Debug, Clone)]
pub struct MaskedCategorical {
    probs: Vec<f32>,
}

impl MaskedCategorical {
    /// Creates the distribution from raw logits and a validity mask.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or no action is valid.
    pub fn new(logits: Vec<f32>, mask: Vec<bool>) -> Self {
        assert_eq!(logits.len(), mask.len(), "logits and mask must have equal length");
        assert!(mask.iter().any(|&m| m), "at least one action must be valid");
        let masked: Vec<f32> =
            logits.iter().zip(&mask).map(|(&l, &m)| if m { l } else { MASK_VALUE }).collect();
        let max = masked.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = masked.iter().map(|&l| (l - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        let probs = exps.iter().map(|&e| e / sum).collect();
        Self { probs }
    }

    /// Number of (padded) actions.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Returns `true` if the distribution has no actions (never constructed).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// The masked probabilities (invalid actions have probability ~0).
    pub fn probs(&self) -> &[f32] {
        &self.probs
    }

    /// Samples an action index.
    pub fn sample(&self, rng: &mut XorShiftRng) -> usize {
        rng.sample_weighted(&self.probs)
    }

    /// The most probable action.
    pub fn argmax(&self) -> usize {
        self.probs.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap_or(0)
    }

    /// Log-probability of an action.
    pub fn log_prob(&self, action: usize) -> f32 {
        self.probs[action].max(1e-12).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_actions_have_zero_probability() {
        let d = MaskedCategorical::new(vec![5.0, 1.0, 3.0], vec![false, true, true]);
        assert!(d.probs()[0] < 1e-6);
        assert!((d.probs().iter().sum::<f32>() - 1.0).abs() < 1e-5);
        let mut rng = XorShiftRng::new(3);
        for _ in 0..200 {
            assert_ne!(d.sample(&mut rng), 0);
        }
    }

    #[test]
    fn argmax_respects_mask() {
        let d = MaskedCategorical::new(vec![10.0, 1.0, 3.0], vec![false, true, true]);
        assert_eq!(d.argmax(), 2);
    }

    #[test]
    fn log_prob_matches_probs() {
        let d = MaskedCategorical::new(vec![0.3, 0.9], vec![true, true]);
        assert!((d.log_prob(1) - d.probs()[1].ln()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one action must be valid")]
    fn all_masked_panics() {
        MaskedCategorical::new(vec![1.0, 2.0], vec![false, false]);
    }

    #[test]
    fn sampling_distribution_roughly_matches_probs() {
        let d = MaskedCategorical::new(vec![0.0, 2.0], vec![true, true]);
        let mut rng = XorShiftRng::new(11);
        let n = 5000;
        let ones = (0..n).filter(|_| d.sample(&mut rng) == 1).count() as f32 / n as f32;
        assert!((ones - d.probs()[1]).abs() < 0.05);
    }
}
