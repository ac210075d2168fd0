//! Action-selection policies.
//!
//! The simulation's rational agents use the Boltzmann policy
//! ([`crate::boltzmann::BoltzmannPolicy`]); the greedy policy here is its
//! zero-exploration counterpart.

use serde::{Deserialize, Serialize};

/// An action-selection policy over a row of Q-values.
///
/// Policies are object-safe so a simulation can hold heterogeneous policies
/// behind `Box<dyn Policy>`; randomness comes in through a `dyn RngCore` to
/// keep the trait object-safe while remaining deterministic under seeding.
pub trait Policy: Send + Sync {
    /// Selects an action index given the Q-values of the current state.
    fn select_action(&self, q_row: &[f64], rng: &mut dyn rand::RngCore) -> usize;

    /// Short name used in logs and ablation tables.
    fn name(&self) -> &'static str;
}

/// Always selects the greedy (highest-Q) action, breaking ties towards the
/// smallest index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GreedyPolicy;

impl Policy for GreedyPolicy {
    fn select_action(&self, q_row: &[f64], _rng: &mut dyn rand::RngCore) -> usize {
        assert!(!q_row.is_empty(), "cannot select from an empty Q-row");
        let mut best = 0usize;
        let mut best_value = q_row[0];
        for (a, &v) in q_row.iter().enumerate().skip(1) {
            if v > best_value {
                best = a;
                best_value = v;
            }
        }
        best
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boltzmann::BoltzmannPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    #[test]
    fn greedy_picks_maximum() {
        let q = [1.0, 5.0, 3.0];
        assert_eq!(GreedyPolicy.select_action(&q, &mut rng()), 1);
    }

    #[test]
    fn greedy_tie_break_lowest_index() {
        let q = [2.0, 2.0, 1.0];
        assert_eq!(GreedyPolicy.select_action(&q, &mut rng()), 0);
    }

    #[test]
    fn names_are_distinct() {
        assert_ne!(GreedyPolicy.name(), BoltzmannPolicy::new(1.0).name());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn greedy_empty_row_panics() {
        let _ = GreedyPolicy.select_action(&[], &mut rng());
    }
}
