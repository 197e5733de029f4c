//! One module per experiment; see DESIGN.md for the per-experiment index.
//!
//! | id | paper artifact | module |
//! |----|----------------|--------|
//! | E1 | Figure 1 (packings) | [`e01_figure1`] |
//! | E2 | Figure 2 (LPF head/tail shape) | [`e02_figure2`] |
//! | E3 | Theorem 4.2 (FIFO lower bound) | [`e03_fifo_lower_bound`] |
//! | E4 | Lemma 4.1 (U(t) dynamics) | [`e04_sublayer_dynamics`] |
//! | E5 | Corollary 5.4 (LPF optimality) | [`e05_lpf_optimality`] |
//! | E6 | Lemma 5.3 (α-competitiveness) | [`e06_alpha_competitive`] |
//! | E7 | Lemma 5.5 (MC busyness) | [`e07_mc_busy`] |
//! | E8 | Theorem 5.6 (Algorithm 𝒜, semi-batched) | [`e08_algo_a`] |
//! | E9 | Theorem 5.7 (guess-and-double) | [`e09_guess_double`] |
//! | E10 | Theorem 6.1 (FIFO batched upper bound) | [`e10_fifo_batched`] |
//! | E11 | Ablation: FIFO intra-job tie-breaks | [`e11_tiebreak_ablation`] |
//! | E12 | Ablation: α/β choices in 𝒜 | [`e12_alpha_ablation`] |
//! | E13 | Extension: speed augmentation (context of \[4\]) | [`e13_speed_augmentation`] |
//! | E14 | Extension: Section 6 invariants measured live | [`e14_section6_invariants`] |
//! | E15 | Extension: LPF suboptimality witnesses on DAGs | [`e15_dag_lpf_gap`] |
//! | E16 | Extension: scheduler × scenario matrix | [`e16_scheduler_matrix`] |
//! | E17 | Extension: per-tie-break nemesis instances | [`e17_nonclairvoyant_nemesis`] |

pub mod e01_figure1;
pub mod e02_figure2;
pub mod e03_fifo_lower_bound;
pub mod e04_sublayer_dynamics;
pub mod e05_lpf_optimality;
pub mod e06_alpha_competitive;
pub mod e07_mc_busy;
pub mod e08_algo_a;
pub mod e09_guess_double;
pub mod e10_fifo_batched;
pub mod e11_tiebreak_ablation;
pub mod e12_alpha_ablation;
pub mod e13_speed_augmentation;
pub mod e14_section6_invariants;
pub mod e15_dag_lpf_gap;
pub mod e16_scheduler_matrix;
pub mod e17_nonclairvoyant_nemesis;

use crate::{Effort, Report};

/// All experiment ids in order.
pub const ALL: [&str; 17] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17",
];

/// Run an experiment by id ("e1".."e17"); `None` for unknown ids.
pub fn run(id: &str, effort: Effort) -> Option<Report> {
    Some(match id.to_ascii_lowercase().as_str() {
        "e1" => e01_figure1::run(effort),
        "e2" => e02_figure2::run(effort),
        "e3" => e03_fifo_lower_bound::run(effort),
        "e4" => e04_sublayer_dynamics::run(effort),
        "e5" => e05_lpf_optimality::run(effort),
        "e6" => e06_alpha_competitive::run(effort),
        "e7" => e07_mc_busy::run(effort),
        "e8" => e08_algo_a::run(effort),
        "e9" => e09_guess_double::run(effort),
        "e10" => e10_fifo_batched::run(effort),
        "e11" => e11_tiebreak_ablation::run(effort),
        "e12" => e12_alpha_ablation::run(effort),
        "e13" => e13_speed_augmentation::run(effort),
        "e14" => e14_section6_invariants::run(effort),
        "e15" => e15_dag_lpf_gap::run(effort),
        "e16" => e16_scheduler_matrix::run(effort),
        "e17" => e17_nonclairvoyant_nemesis::run(effort),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(run("e99", Effort::Quick).is_none());
        assert!(run("", Effort::Quick).is_none());
    }

    #[test]
    fn ids_are_case_insensitive() {
        assert!(run("E1", Effort::Quick).is_some());
    }
}
