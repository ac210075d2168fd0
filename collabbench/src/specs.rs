//! Spec text generated from the workload seed. The program receives only
//! this text (through `ScenarioSpec::parse`, or as cell files written by
//! the grid coordinator).

use crate::common::derive_seed;
use std::fmt::Write as _;

/// The keys every generated spec shares: the paper's Section-IV model.
const PAPER_MODEL: &str = "\
reputation_states = 10
min_reputation = 0.05
reputation_beta = 0.2
incentive = reputation
learning_rate = 0.1
discount = 0.9
initial_q = 0
utility_sharing = 10,0.5,0.5
utility_editing = 2,0.25
contribution = 1,2,0.05,1,2,0.05
service = 0.1,0.65,0.5
punishment = 5,3,1
ledger_shards = 0
intra_step_threads = 0
evaluation_temperature = 1
";

/// The variable part of one spec.
struct Cell<'a> {
    label: &'a str,
    parameter: f64,
    population: usize,
    /// rational, altruistic, irrational shares.
    mix: [f64; 3],
    training_steps: u64,
    evaluation_steps: u64,
    initial_articles: usize,
    download_probability: f64,
    edit_probability: f64,
    restrict_voters_to_editors: bool,
    seed: u64,
    /// Extra `key = value` lines (propagation, network, churn, adversary).
    extra: &'a [String],
}

fn render(cell: &Cell<'_>) -> String {
    let mut text = String::from("# collabsim scenario spec v1\n");
    let [rational, altruistic, irrational] = cell.mix;
    let _ = write!(
        text,
        "label = {}\nparameter = {}\npopulation = {}\nmix = {rational},{altruistic},{irrational}\n\
         training_steps = {}\nevaluation_steps = {}\ntraining_temperature = {}\n\
         initial_articles = {}\ndownload_probability = {}\nedit_probability = {}\n\
         restrict_voters_to_editors = {}\nmax_voters_per_edit = 10\nseed = {}\n",
        cell.label,
        cell.parameter,
        cell.population,
        cell.training_steps,
        cell.evaluation_steps,
        f64::MAX,
        cell.initial_articles,
        cell.download_probability,
        cell.edit_probability,
        cell.restrict_voters_to_editors,
        cell.seed,
    );
    text.push_str(PAPER_MODEL);
    for line in cell.extra {
        text.push_str(line);
        text.push('\n');
    }
    text
}

/// Population share swept by the Section IV-B mix cells, in percent.
const MIX_PERCENTAGES: [u32; 9] = [10, 20, 30, 40, 50, 60, 70, 80, 90];

/// `paper-sweep`: the paper cell (100 rational peers, 10 000 + 2 000
/// steps) and the 18 Section IV-B mix cells (altruistic or irrational
/// share 10–90 %, 600 + 300 steps), each with a seed derived from `seed`.
pub fn paper_sweep(seed: u64) -> Vec<String> {
    let paper = |label: &str, parameter: f64, mix: [f64; 3], steps: (u64, u64), stream: u64| {
        render(&Cell {
            label,
            parameter,
            population: 100,
            mix,
            training_steps: steps.0,
            evaluation_steps: steps.1,
            initial_articles: 50,
            download_probability: 1.0,
            edit_probability: 0.2,
            restrict_voters_to_editors: false,
            seed: derive_seed(seed, stream),
            extra: &[],
        })
    };
    let mut specs = vec![paper(
        "paper-cell",
        0.0,
        [1.0, 0.0, 0.0],
        (10_000, 2_000),
        0,
    )];
    for (axis, primary) in [(1, "altruistic"), (2, "irrational")] {
        for pct in MIX_PERCENTAGES {
            let fraction = f64::from(pct) / 100.0;
            let rest = (1.0 - fraction) / 2.0;
            let mut mix = [rest; 3];
            mix[axis] = fraction;
            let label = format!("{primary}={pct}%");
            let stream = u64::from(pct) + 100 * axis as u64;
            specs.push(paper(&label, f64::from(pct), mix, (600, 300), stream));
        }
    }
    specs
}

/// `population-5e4`: one 5×10⁴-peer rational population (the scale-tier
/// configuration) over 20 + 10 steps.
pub fn population(seed: u64) -> String {
    render(&Cell {
        label: "population-5e4",
        parameter: 50_000.0,
        population: 50_000,
        mix: [1.0, 0.0, 0.0],
        training_steps: 20,
        evaluation_steps: 10,
        initial_articles: 200,
        download_probability: 0.2,
        edit_probability: 0.05,
        restrict_voters_to_editors: true,
        seed: derive_seed(seed, 0),
        extra: &[],
    })
}

/// Peers of the `warm-grid` population.
pub const WARM_POPULATION: usize = 400;

/// Training steps of every `warm-grid` spec; the base is equilibrated to
/// [`WARM_PREFIX`] of them before the panel forks.
const WARM_TRAINING: u64 = 1_000;
const WARM_EVALUATION: u64 = 400;

/// Step at which the `warm-grid` base is checkpointed.
pub const WARM_PREFIX: u64 = 800;

/// Propagation backends of the `warm-grid` panel (`none` = the ledger).
const WARM_PROPAGATION: [&str; 3] = ["none", "eigentrust@50", "gossip@50"];

/// Adversary strategies of the `warm-grid` panel: 20 units each.
const WARM_ADVERSARIES: [&str; 3] = [
    "naive-whitewash,20,0.02",
    "collusion-ring,20,0",
    "sybil-slander,20,0",
];

fn warm_spec(label: &str, seed: u64, propagation: &str, adversary: Option<&str>) -> String {
    let mut extra = vec![
        format!("propagation = {propagation}"),
        format!(
            "reputation_source = {}",
            if propagation == "none" {
                "ledger"
            } else {
                "propagated"
            }
        ),
        "network = lossy,0.05".to_string(),
        "churn = 0.2,0.002,0.002".to_string(),
    ];
    let mut phases = vec!["churn"];
    if let Some(adversary) = adversary {
        extra.push(format!("adversary = {adversary}"));
        phases.push("adversary");
    }
    phases.extend([
        "selection",
        "sharing",
        "download",
        "edit-vote",
        "utility",
        "learning",
    ]);
    if propagation != "none" {
        phases.push("propagation");
    }
    extra.push(format!("phases = {}", phases.join(",")));
    render(&Cell {
        label,
        parameter: 0.0,
        population: WARM_POPULATION,
        mix: [0.5, 0.25, 0.25],
        training_steps: WARM_TRAINING,
        evaluation_steps: WARM_EVALUATION,
        initial_articles: 100,
        download_probability: 1.0,
        edit_probability: 0.2,
        restrict_voters_to_editors: false,
        seed: derive_seed(seed, 0),
        extra: &extra,
    })
}

/// `warm-grid`: the adversary-free base (churn, lossy links) and the
/// panel forked from it, propagation backend × adversary strategy. Every
/// spec describes the same population, as a warm-start fork requires.
pub fn warm_grid(seed: u64) -> (String, Vec<String>) {
    let base = warm_spec("warm-base", seed, "none", None);
    let mut panel = Vec::new();
    for propagation in WARM_PROPAGATION {
        for adversary in WARM_ADVERSARIES {
            let strategy = adversary.split(',').next().unwrap_or(adversary);
            let backend = propagation.split('@').next().unwrap_or(propagation);
            let label = format!("warm/{backend}/{strategy}");
            panel.push(warm_spec(&label, seed, propagation, Some(adversary)));
        }
    }
    (base, panel)
}
