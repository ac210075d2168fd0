//! Phase 1 — action selection.

use super::{StepContext, StepPhase};
use crate::action::CollabAction;
use crate::agent::AgentState;
use crate::behavior::BehaviorType;
use crate::world::SimWorld;
use collabsim_rl::boltzmann::{boltzmann_distribution_into, sample_probs};

/// Every *online* agent observes its state (reputation bucket) and picks
/// its composite action: rational agents sample the Boltzmann distribution
/// over their Q-values at the step temperature, altruistic and irrational
/// agents return their fixed actions. Offline peers (departed under churn)
/// keep the pre-filled [`CollabAction::idle`] without being visited at all
/// — the phase iterates the online bitset, so a churn-free run draws
/// exactly as before and offline peers cost nothing. Peers under a forced
/// adversary action (set by the `adversary` phase this step) record that
/// action instead of consulting their agent — likewise without consuming
/// any randomness, so a run without adversaries draws exactly as before.
///
/// Fills [`StepContext::current_states`] and [`StepContext::actions`] in
/// place (no per-step allocation in steady state).
pub struct SelectionPhase;

/// Memoises Boltzmann distributions per state bucket for the selection
/// phase.
///
/// Rational peers in the same state bucket with bit-identical Q-rows (all
/// of them during training, cohorts of never-updated rows during
/// evaluation) share one distribution instead of recomputing 27
/// exponentials each. Correctness does not depend on hit rate: an entry is
/// only reused when the stored temperature bits *and* the full Q-row bits
/// match, and the cached vector is exactly what
/// [`boltzmann_distribution_into`] would produce, so the sampled stream is
/// bit-identical to the uncached policy.
#[derive(Debug, Clone, Default)]
pub struct BoltzmannCache {
    temperature: f64,
    temperature_bits: u64,
    /// Whether the temperature takes `boltzmann_distribution`'s uniform
    /// shortcut (the training phase's `T = f64::MAX`), where the
    /// distribution is `1/n` for *any* Q-row.
    uniform: bool,
    uniform_probs: Vec<f64>,
    entries: Vec<CacheEntry>,
}

#[derive(Debug, Clone, Default)]
struct CacheEntry {
    valid: bool,
    row: Vec<f64>,
    probs: Vec<f64>,
}

impl BoltzmannCache {
    /// Prepares the cache for one step over `buckets` state buckets and
    /// `actions` actions at the step temperature; a temperature change
    /// invalidates every entry.
    pub fn begin_step(&mut self, buckets: usize, actions: usize, temperature: f64) {
        if self.entries.len() != buckets {
            self.entries.clear();
            self.entries.resize_with(buckets, CacheEntry::default);
        }
        if temperature.to_bits() != self.temperature_bits {
            self.temperature = temperature;
            self.temperature_bits = temperature.to_bits();
            for entry in &mut self.entries {
                entry.valid = false;
            }
        }
        // Mirror of the uniform shortcut inside `boltzmann_distribution`:
        // under it the distribution is exactly `1/n` regardless of the
        // Q-row, so one shared vector serves every draw of the step.
        self.uniform = !temperature.is_finite() || temperature >= 1e300;
        if self.uniform && self.uniform_probs.len() != actions {
            self.uniform_probs.clear();
            self.uniform_probs.resize(actions, 1.0 / actions as f64);
        }
    }

    /// Samples an action index from the Boltzmann distribution over `row`
    /// at the step temperature, consuming exactly one `next_u64` — the
    /// same draw [`BoltzmannPolicy::select_action`] performs.
    ///
    /// [`BoltzmannPolicy::select_action`]: collabsim_rl::boltzmann::BoltzmannPolicy
    #[inline]
    pub fn sample(&mut self, bucket: usize, row: &[f64], rng: &mut dyn rand::RngCore) -> usize {
        if self.uniform {
            return sample_probs(&self.uniform_probs, rng);
        }
        let entry = &mut self.entries[bucket];
        let hit = entry.valid
            && entry.row.len() == row.len()
            && entry
                .row
                .iter()
                .zip(row)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !hit {
            boltzmann_distribution_into(row, self.temperature, &mut entry.probs);
            entry.row.clear();
            entry.row.extend_from_slice(row);
            entry.valid = true;
        }
        sample_probs(&entry.probs, rng)
    }
}

impl StepPhase for SelectionPhase {
    fn name(&self) -> &'static str {
        "selection"
    }

    fn execute(&self, world: &mut SimWorld, ctx: &mut StepContext) {
        let population = world.population();
        // Pre-fill in place: offline peers keep the idle action and a
        // placeholder state (no downstream phase reads an offline peer's
        // state — utility and learning skip them via the same bitset).
        ctx.actions.clear();
        ctx.actions.resize(population, CollabAction::idle());
        ctx.current_states.clear();
        ctx.current_states
            .resize(population, AgentState { bucket: 0 });
        ctx.boltzmann.begin_step(
            world.agents.state_count(),
            world.agents.action_count(),
            ctx.temperature,
        );

        // Split the world borrow: the loop reads the ledger/propagation
        // state, streams the agent table and draws from the step RNG.
        let SimWorld {
            agents,
            active,
            adversaries,
            rng,
            ledger,
            propagated_service_reputation,
            config,
            states,
            ..
        } = world;
        let propagated = propagated_service_reputation.as_deref();
        let min_reputation = config.min_reputation;
        let states = *states;
        let ledger = &*ledger;

        for p in active.iter_online() {
            let reputation = match propagated {
                Some(values) => values[p],
                None => ledger.sharing_reputation(p),
            };
            let state = AgentState::from_reputation(reputation, min_reputation, states);
            ctx.current_states[p] = state;
            let action = if let Some(forced) = adversaries.forced_action(p) {
                // A forced peer does not consult its agent and records no
                // choice (its learner is suspended while the strategy
                // drives) — and consumes no randomness.
                adversaries.note_forced(p);
                forced
            } else {
                match agents.behavior(p) {
                    BehaviorType::Altruistic => {
                        let action = CollabAction::altruistic();
                        agents.record_choice(p, state.bucket, action.to_index());
                        action
                    }
                    BehaviorType::Irrational => {
                        let action = CollabAction::irrational();
                        agents.record_choice(p, state.bucket, action.to_index());
                        action
                    }
                    BehaviorType::Rational => {
                        let row = agents.q_row(p, state.bucket);
                        let index = ctx.boltzmann.sample(state.bucket, row, rng);
                        agents.record_choice(p, state.bucket, index);
                        CollabAction::from_index(index)
                    }
                }
            };
            ctx.actions[p] = action;
        }
    }
}
