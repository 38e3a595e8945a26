//! PPO hyper-parameters and training statistics.
//!
//! The PPO loss itself (Eq. 3–5) is built on the tape in `xrlflow-core`
//! (`transition_grad_into`), where it is differentiated.

/// PPO hyper-parameters (defaults follow Table 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpoHyperParams {
    /// Learning rate of the policy and value networks (Table 4: 5e-4).
    pub learning_rate: f32,
    /// Value-loss coefficient `c1` (Table 4: 0.5).
    pub value_loss_coefficient: f32,
    /// Entropy-loss coefficient `c2` (Table 4: 0.01).
    pub entropy_coefficient: f32,
    /// PPO clip range `epsilon`.
    pub clip_epsilon: f32,
    /// Discount factor `gamma`.
    pub gamma: f32,
    /// GAE smoothing factor `lambda`.
    pub gae_lambda: f32,
    /// Number of episodes collected between updates (Table 4: 10).
    pub update_frequency: usize,
    /// Mini-batch size (Table 4: 16).
    pub batch_size: usize,
    /// Number of optimisation epochs per update.
    pub epochs_per_update: usize,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
}

impl Default for PpoHyperParams {
    fn default() -> Self {
        Self {
            learning_rate: 5e-4,
            value_loss_coefficient: 0.5,
            entropy_coefficient: 0.01,
            clip_epsilon: 0.2,
            gamma: 0.99,
            gae_lambda: 0.95,
            update_frequency: 10,
            batch_size: 16,
            epochs_per_update: 4,
            max_grad_norm: 0.5,
        }
    }
}

/// Explained variance of value predictions — a standard diagnostic for the
/// value head (1 is perfect, 0 is no better than predicting the mean).
pub fn explained_variance(predicted: &[f32], targets: &[f32]) -> f32 {
    assert_eq!(predicted.len(), targets.len(), "length mismatch");
    if targets.is_empty() {
        return 0.0;
    }
    let mean = targets.iter().sum::<f32>() / targets.len() as f32;
    let var: f32 = targets.iter().map(|t| (t - mean) * (t - mean)).sum::<f32>() / targets.len() as f32;
    if var < 1e-12 {
        return 0.0;
    }
    let residual: f32 =
        predicted.iter().zip(targets).map(|(p, t)| (t - p) * (t - p)).sum::<f32>() / targets.len() as f32;
    1.0 - residual / var
}

/// Aggregate statistics of one PPO update, used for logging and tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainingStats {
    /// Mean total policy loss.
    pub policy_loss: f32,
    /// Mean value loss.
    pub value_loss: f32,
    /// Mean entropy of the action distribution.
    pub entropy: f32,
    /// Mean episode reward in the rollout.
    pub mean_episode_reward: f32,
    /// Explained variance of the value head.
    pub explained_variance: f32,
    /// Global gradient norm before clipping.
    pub grad_norm: f32,
    /// Fraction of transition evaluations whose probability ratio left the
    /// `[1-ε, 1+ε]` trust region (the clip in the surrogate objective was
    /// active). Persistently high values mean the policy moves too far per
    /// update.
    pub clip_fraction: f32,
    /// Number of transitions used in the update.
    pub transitions: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table4() {
        let p = PpoHyperParams::default();
        assert_eq!(p.learning_rate, 5e-4);
        assert_eq!(p.value_loss_coefficient, 0.5);
        assert_eq!(p.entropy_coefficient, 0.01);
        assert_eq!(p.update_frequency, 10);
        assert_eq!(p.batch_size, 16);
    }

    #[test]
    fn explained_variance_bounds() {
        let targets = [1.0, 2.0, 3.0, 4.0];
        assert!((explained_variance(&targets, &targets) - 1.0).abs() < 1e-6);
        let mean_pred = [2.5; 4];
        assert!(explained_variance(&mean_pred, &targets).abs() < 1e-6);
    }
}
