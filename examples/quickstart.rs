//! Quickstart: the paper's §3 toy example end to end.
//!
//! Builds the ten-worker "Home Cleaning in San Francisco" ranking of
//! Tables 2–3, computes the unfairness of Black Females under both
//! marketplace measures (reproducing Figure 5's 0.04), and then asks the
//! framework's two generic questions on the one-cell study.
//!
//! Run with: `cargo run --example quickstart`

use fbox::core::algo::{RankOrder, Restriction};
use fbox::core::observations::MarketObservations;
use fbox::core::paper_toy;
use fbox::core::unfairness::MarketMeasure;
use fbox::FBox;

fn main() {
    // Table 3's ranking over the gender × ethnicity universe, wrapped as a
    // one-cell study.
    let (mut universe, ranking) = paper_toy::table3_ranking();
    println!(
        "Toy marketplace: {} workers ranked for \"Home Cleaning\" in San Francisco\n",
        ranking.len()
    );
    let q = universe.add_query("Home Cleaning", Some("General Cleaning"));
    let l = universe.add_location("San Francisco, CA", Some("West Coast"));
    let mut observations = MarketObservations::new();
    observations.insert(q, l, ranking);
    let emd = FBox::from_market(universe.clone(), &observations, MarketMeasure::emd());
    let exposure = FBox::from_market(universe, &observations, MarketMeasure::exposure());
    let universe = exposure.universe();

    // Per-group unfairness under both measures (Eq. 2 and §3.3.2).
    println!("{:<28} {:>8} {:>10}", "group", "EMD", "exposure");
    for g in universe.group_ids() {
        println!(
            "{:<28} {:>8} {:>10}",
            universe.group_name(g),
            emd.unfairness(g, q, l).map_or("-".into(), |v| format!("{v:.3}")),
            exposure.unfairness(g, q, l).map_or("-".into(), |v| format!("{v:.3}")),
        );
    }

    // Figure 5's headline number.
    let bf =
        universe.group_id_by_text("gender=Female & ethnicity=Black").expect("group registered");
    let fig5 = exposure.unfairness(bf, q, l).expect("toy data complete");
    println!("\nFigure 5 check: exposure unfairness of Black Females = {fig5:.3} (paper: ≈0.04)");

    // The framework's two generic questions on the one-cell study.
    println!("\nProblem 1 — the 3 most unfair groups here:");
    for (name, v) in exposure.top_k_groups(3, RankOrder::MostUnfair, &Restriction::none()) {
        println!("  {name:<24} {v:.3}");
    }
    println!("Problem 1 — the 3 least unfair groups here:");
    for (name, v) in exposure.top_k_groups(3, RankOrder::LeastUnfair, &Restriction::none()) {
        println!("  {name:<24} {v:.3}");
    }
}
