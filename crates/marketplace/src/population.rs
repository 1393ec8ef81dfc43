//! The simulated tasker population (paper Figures 7–8: 3,311 unique
//! taskers, ≈ 72 % male, ≈ 66 % white).

use crate::demographics::{Demographic, PopulationMarginals};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One tasker. Profile attributes mirror what the paper's crawler
/// extracted per worker: rank position comes from the engine; badges,
/// reviews (ratings), and hourly rates live here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Worker {
    /// Stable worker id, unique across the marketplace.
    pub id: u64,
    /// Demographic profile (in the paper, inferred from profile pictures
    /// by AMT labeling; in the simulator, ground truth that a
    /// `fbox-crowd` labeling pass may perturb).
    pub demographic: Demographic,
    /// Home city index into [`crate::city::CITIES`].
    pub city: usize,
    /// Mean review rating in `[3.0, 5.0]`.
    pub rating: f64,
    /// Number of completed jobs.
    pub jobs_completed: u32,
    /// Days since joining the platform.
    pub tenure_days: u32,
    /// Advertised hourly rate in USD.
    pub hourly_rate: f64,
    /// Whether the worker holds an elite badge.
    pub badge: bool,
}

/// Distributes `total` workers over `n_cities` markets: every market gets
/// the floor share and the first `total % n_cities` markets get one more,
/// so the sum is exact.
pub fn allocate(total: usize, n_cities: usize) -> Vec<usize> {
    let markets = n_cities;
    assert!(markets > 0, "allocate needs at least one market");
    let base = total / markets;
    let extra = total % markets;
    (0..markets).map(|i| base + usize::from(i < extra)).collect()
}

/// The demographic mix of one city of `count` workers: largest-remainder
/// apportionment over the six gender × ethnicity cells, so every city's
/// composition matches the marginals to within one worker per cell.
pub fn stratified_demographics(count: usize, marginals: &PopulationMarginals) -> Vec<Demographic> {
    use crate::demographics::{Ethnicity, Gender};
    let eth_p = |e: Ethnicity| match e {
        Ethnicity::Asian => marginals.asian,
        Ethnicity::Black => marginals.black,
        Ethnicity::White => marginals.white,
    };
    let cells: Vec<(Demographic, f64)> = Gender::ALL
        .iter()
        .flat_map(|&gender| {
            let gp = if gender == Gender::Male { marginals.male } else { 1.0 - marginals.male };
            Ethnicity::ALL
                .iter()
                .map(move |&ethnicity| (Demographic { gender, ethnicity }, gp * eth_p(ethnicity)))
        })
        .collect();

    let quotas: Vec<f64> = cells.iter().map(|&(_, p)| p * count as f64).collect();
    let mut counts: Vec<usize> = quotas
        .iter()
        .map(|&q| {
            // Quotas are products of validated probabilities and a finite
            // count; the guard pins that invariant at the conversion.
            let quota = if q.is_finite() && q >= 0.0 { q } else { 0.0 };
            debug_assert!(quota.is_finite() && quota >= 0.0, "guard clamps the quota");
            fbox_core::measures::float::floor_index(quota)
        })
        .collect();
    let mut assigned: usize = counts.iter().sum();
    // Hand out the remaining seats by descending fractional remainder
    // (ties by cell order, deterministic).
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = quotas[a] - quotas[a].floor();
        let rb = quotas[b] - quotas[b].floor();
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let mut i = 0;
    while assigned < count {
        counts[order[i % order.len()]] += 1;
        assigned += 1;
        i += 1;
    }

    let mut out = Vec::with_capacity(count);
    for (&n, &(demo, _)) in counts.iter().zip(&cells) {
        out.extend(std::iter::repeat_n(demo, n));
    }
    out
}

/// Generates the full tasker population, seeded for reproducibility.
///
/// `total` defaults to the paper's 3,311 in [`Population::paper`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Population {
    workers: Vec<Worker>,
    by_city: Vec<Vec<usize>>,
}

impl Population {
    /// Samples a population of `total` workers over `n_cities` markets.
    ///
    /// Demographics are *stratified per city*: each city receives group
    /// counts matching the marginals as closely as integer rounding allows
    /// (largest-remainder apportionment over the six gender × ethnicity
    /// cells). Without stratification, binomial sampling would give each
    /// city its own demographic quirk, and those quirks — not the injected
    /// bias — would dominate cross-city unfairness comparisons.
    pub fn generate(
        total: usize,
        n_cities: usize,
        marginals: PopulationMarginals,
        seed: u64,
    ) -> Self {
        marginals.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let counts = allocate(total, n_cities);
        let mut workers = Vec::with_capacity(total);
        let mut by_city = vec![Vec::new(); n_cities];
        let mut id = 0u64;
        for (city, &count) in counts.iter().enumerate() {
            let demographics = stratified_demographics(count, &marginals);
            // Merit is stratified within each (city, demographic) cell:
            // members get evenly spaced latent quantiles, individually
            // jittered per attribute. Every group then has the same merit
            // profile in every city; cross-city unfairness differences are
            // caused by the injected bias, not by which handful of
            // high-rated workers a 3-person group happens to contain.
            let mut cell_seen: std::collections::HashMap<Demographic, usize> =
                std::collections::HashMap::new();
            let cell_total: std::collections::HashMap<Demographic, usize> = {
                let mut m = std::collections::HashMap::new();
                for &d in &demographics {
                    *m.entry(d).or_insert(0) += 1;
                }
                m
            };
            for demographic in demographics {
                let idx = *cell_seen.entry(demographic).and_modify(|c| *c += 1).or_insert(0);
                // `demographic` is drawn from the same list `cell_total`
                // counts, so its count is ≥ 1; the clamp keeps the divisor
                // visibly nonzero on every path.
                let n_cell = cell_total[&demographic].max(1);
                let latent = (idx as f64 + 0.5) / n_cell as f64;
                let q = |salt: u64| {
                    let jitter = (crate::scoring::mix(id.wrapping_add(1), salt) >> 11) as f64
                        / (1u64 << 53) as f64;
                    (latent + 0.25 * (jitter - 0.5)).rem_euclid(1.0)
                };
                let rating = 3.0 + 2.0 * q(1);
                let q_jobs = q(2);
                debug_assert!((0.0..=1.0).contains(&q_jobs), "quantile out of unit range");
                let jobs_completed = (500.0 * q_jobs).floor() as u32;
                let q_tenure = q(3);
                debug_assert!((0.0..=1.0).contains(&q_tenure), "quantile out of unit range");
                let tenure_days = 10 + (1990.0 * q_tenure).floor() as u32;
                let hourly_rate = 15.0 + rng.random_range(0.0..85.0);
                let badge = q(4) < 0.15;
                by_city[city].push(workers.len());
                workers.push(Worker {
                    id,
                    demographic,
                    city,
                    rating,
                    jobs_completed,
                    tenure_days,
                    hourly_rate,
                    badge,
                });
                id += 1;
            }
        }
        Self { workers, by_city }
    }

    /// The paper's population: 3,311 taskers over the 56 cities with the
    /// Figure 7–8 marginals.
    pub fn paper(seed: u64) -> Self {
        Self::generate(3311, crate::city::CITIES.len(), PopulationMarginals::default(), seed)
    }

    /// All workers.
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// Indices of the workers based in a city.
    pub fn in_city(&self, city: usize) -> &[usize] {
        &self.by_city[city]
    }

    /// Total number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Demographic breakdown: `(male share, per-ethnicity shares in
    /// [Asian, Black, White] order)` — the data behind Figures 7 and 8.
    pub fn breakdown(&self) -> (f64, [f64; 3]) {
        let n = self.workers.len().max(1) as f64;
        let male = self
            .workers
            .iter()
            .filter(|w| w.demographic.gender == crate::demographics::Gender::Male)
            .count() as f64
            / n;
        let mut eth = [0.0f64; 3];
        for w in &self.workers {
            eth[w.demographic.ethnicity.value_id().0 as usize] += 1.0;
        }
        for e in &mut eth {
            *e /= n;
        }
        (male, eth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_sums_exactly() {
        let counts = allocate(3311, 56);
        assert_eq!(counts.len(), 56);
        assert_eq!(counts.iter().sum::<usize>(), 3311);
        // Balanced: no market differs from another by more than one.
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn paper_population_shape() {
        let p = Population::paper(42);
        assert_eq!(p.len(), 3311);
        let (male, eth) = p.breakdown();
        assert!((male - 0.72).abs() < 0.03, "male share {male}");
        assert!((eth[2] - 0.66).abs() < 0.03, "white share {}", eth[2]);
        assert!((eth.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Population::paper(7);
        let b = Population::paper(7);
        assert_eq!(a.workers(), b.workers());
        let c = Population::paper(8);
        assert_ne!(a.workers(), c.workers());
    }

    #[test]
    fn city_index_is_consistent() {
        let p = Population::paper(1);
        for city in 0..56 {
            for &wi in p.in_city(city) {
                assert_eq!(p.workers()[wi].city, city);
            }
        }
        let per_city: usize = (0..56).map(|c| p.in_city(c).len()).sum();
        assert_eq!(per_city, 3311);
    }

    #[test]
    fn attribute_ranges() {
        let p = Population::paper(3);
        for w in p.workers() {
            assert!((3.0..=5.0).contains(&w.rating));
            assert!(w.jobs_completed < 500);
            assert!((15.0..=100.0).contains(&w.hourly_rate));
            assert!((10..2000).contains(&w.tenure_days));
        }
    }
}
