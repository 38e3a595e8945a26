//! Generalised advantage estimation (Schulman et al., 2015), used to compute
//! the advantages `A` in the PPO-clip objective (Eq. 3).

/// Computes GAE advantages and value targets (returns).
///
/// `rewards[t]`, `values[t]` and `dones[t]` describe step `t` of a rollout;
/// `last_value` bootstraps the value of the state after the final step
/// (zero when the episode terminated).
///
/// Returns `(advantages, returns)` where `returns[t] = advantages[t] + values[t]`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn gae(
    rewards: &[f32],
    values: &[f32],
    dones: &[bool],
    last_value: f32,
    gamma: f32,
    lambda: f32,
) -> (Vec<f32>, Vec<f32>) {
    assert_eq!(rewards.len(), values.len(), "rewards/values length mismatch");
    assert_eq!(rewards.len(), dones.len(), "rewards/dones length mismatch");
    let n = rewards.len();
    let mut advantages = vec![0.0f32; n];
    let mut next_advantage = 0.0f32;
    let mut next_value = last_value;
    for t in (0..n).rev() {
        let not_done = if dones[t] { 0.0 } else { 1.0 };
        let delta = rewards[t] + gamma * next_value * not_done - values[t];
        next_advantage = delta + gamma * lambda * not_done * next_advantage;
        advantages[t] = next_advantage;
        next_value = values[t];
    }
    let returns = advantages.iter().zip(values).map(|(a, v)| a + v).collect();
    (advantages, returns)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plain discounted returns: the oracle of GAE with `lambda = 1`.
    fn discounted_returns(rewards: &[f32], dones: &[bool], gamma: f32) -> Vec<f32> {
        let mut out = vec![0.0f32; rewards.len()];
        let mut acc = 0.0;
        for t in (0..rewards.len()).rev() {
            if dones[t] {
                acc = 0.0;
            }
            acc = rewards[t] + gamma * acc;
            out[t] = acc;
        }
        out
    }

    #[test]
    fn single_step_episode() {
        let (adv, ret) = gae(&[1.0], &[0.4], &[true], 0.0, 0.99, 0.95);
        assert!((adv[0] - (1.0 - 0.4)).abs() < 1e-6);
        assert!((ret[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn terminal_state_does_not_bootstrap() {
        // With a termination at t=0, the last_value must not leak in.
        let (adv, _) = gae(&[1.0], &[0.0], &[true], 100.0, 0.99, 0.95);
        assert!((adv[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gae_with_lambda_one_matches_discounted_returns_minus_value() {
        let rewards = [0.5, 0.1, 0.1, 2.0];
        let dones = [false, false, false, true];
        let values = [0.2, 0.3, 0.1, 0.4];
        let (adv, _) = gae(&rewards, &values, &dones, 0.0, 0.9, 1.0);
        let returns = discounted_returns(&rewards, &dones, 0.9);
        for t in 0..rewards.len() {
            assert!((adv[t] - (returns[t] - values[t])).abs() < 1e-5, "mismatch at {t}");
        }
    }

    #[test]
    fn positive_rewards_give_positive_advantages_for_zero_values() {
        let (adv, ret) = gae(&[0.1, 0.1, 1.0], &[0.0, 0.0, 0.0], &[false, false, true], 0.0, 0.99, 0.95);
        assert!(adv.iter().all(|&a| a > 0.0));
        assert!(ret.iter().all(|&r| r > 0.0));
        // Earlier steps see the discounted future, so the first advantage is
        // larger than the immediate reward alone.
        assert!(adv[0] > 0.1);
    }

    #[test]
    fn returns_equal_advantages_plus_values() {
        let rewards = [1.0, -0.5, 0.3];
        let values = [0.5, 0.2, 0.7];
        let dones = [false, false, false];
        let (adv, ret) = gae(&rewards, &values, &dones, 0.25, 0.99, 0.95);
        for t in 0..3 {
            assert!((ret[t] - (adv[t] + values[t])).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        gae(&[1.0, 2.0], &[0.0], &[false], 0.0, 0.99, 0.95);
    }
}
