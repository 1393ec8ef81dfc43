//! Bit-exact oracles for the two platform simulators.
//!
//! Both simulators compute each score term once, at the outermost scope
//! where it is constant (see `fbox_search::engine` and
//! `Marketplace::run_query`). The oracles below are the single-function
//! formulas that score every request from scratch; the hoisted engines
//! must return the same pages with the same score bits.

use fbox::core::measures::float::floor_units;
use fbox::core::observations::{MarketRanking, RankedWorker, UserList};
use fbox::marketplace::jobs;
use fbox::marketplace::{
    BiasOverride, Demographic, Ethnicity, Gender, Marketplace, OverrideAction, Population,
    ScoringModel, PAGE_SIZE,
};
use fbox::repro::calibrate;
use fbox::search::corpus::{PostingPool, RESULT_SIZE};
use fbox::search::extension::borda_merge;
use fbox::search::hash::{mix, mix_str, signed};
use fbox::search::terms::formulations;
use fbox::search::{ExtensionRunner, NoiseModel, RequestContext, SearchEngine, SearchUser};
use std::collections::BTreeMap;

const SEED: u64 = 0x0AC1_E5EE;

// ---------------------------------------------------------------------------
// Search oracle.

/// One user's (query, category, location) study cell.
#[derive(Debug, Clone, Copy)]
struct Cell<'a> {
    user: &'a SearchUser,
    query: &'a str,
    category: &'a str,
    location: &'a str,
}

/// One request scored from scratch, every key folded from the seed and
/// the whole sum evaluated per posting: `(id, score)` in pool order.
/// `engine` must have been built with [`SEED`].
fn oracle_scores(
    engine: &SearchEngine,
    cell: Cell<'_>,
    formulation: &str,
    ctx: &RequestContext,
) -> Vec<(u64, f64)> {
    let Cell { user, query, category, location } = cell;
    let seed = SEED;
    let noise = engine.noise();
    let pool = PostingPool::new(seed, query, location);
    let strength = engine.personalization().strength(user.demographic, query, category, location);
    let group_key = mix(
        mix_str(seed, "group-affinity"),
        (user.demographic.gender.value_id().0 as u64) << 8
            | user.demographic.ethnicity.value_id().0 as u64,
    );
    let user_key = mix(mix_str(seed, "user-taste"), user.id);
    let formulation_key = mix_str(mix_str(seed, "formulation"), formulation);
    let carry = ctx.minutes_since_previous().map(|dt| {
        let (prev, _) = ctx.previous.as_ref().expect("previous present");
        let key = mix(mix_str(mix_str(seed, "carryover"), prev), user.id);
        (noise.carryover_at(dt), key)
    });
    let ab_bucket = if noise.ab_buckets > 1 {
        mix(mix_str(seed, "ab"), user.id ^ floor_units(ctx.time_min)) % noise.ab_buckets
    } else {
        0
    };
    let ab_key = mix(mix_str(seed, "ab-direction"), ab_bucket);
    let geo_key = (!ctx.proxied).then(|| {
        let secs = ctx.time_min * 60.0;
        let secs = if secs.is_finite() && secs >= 0.0 { secs } else { 0.0 };
        mix(mix_str(seed, "geo"), secs as u64 ^ user.id)
    });

    (0..pool.len())
        .map(|i| {
            let id = pool.ids()[i];
            let mut s = pool.base(i)
                + strength * signed(mix(group_key, id))
                + 0.02 * signed(mix(user_key, id))
                + 0.03 * signed(mix(formulation_key, id));
            if let Some((mag, key)) = carry {
                s += mag * signed(mix(key, id));
            }
            if ab_bucket != 0 {
                s += noise.ab_strength * signed(mix(ab_key, id));
            }
            if let Some(g) = geo_key {
                s += noise.geo_strength * signed(mix(g, id));
            }
            (id, s)
        })
        .collect()
}

/// The page of [`oracle_scores`]: the pool fully sorted, best first.
fn oracle_search(
    engine: &SearchEngine,
    cell: Cell<'_>,
    formulation: &str,
    ctx: &RequestContext,
) -> Vec<u64> {
    let mut scored = oracle_scores(engine, cell, formulation, ctx);
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(RESULT_SIZE);
    scored.into_iter().map(|(id, _)| id).collect()
}

/// The list occurring strictly more often than any other, if any
/// (counted in a map).
fn oracle_majority(runs: &[Vec<u64>]) -> Option<Vec<u64>> {
    let mut counts: BTreeMap<&[u64], usize> = BTreeMap::new();
    for r in runs {
        *counts.entry(r.as_slice()).or_default() += 1;
    }
    let (&best, &n) = counts.iter().max_by_key(|&(_, n)| *n)?;
    let runner_up = counts.iter().filter(|(l, _)| **l != best).map(|(_, n)| *n).max().unwrap_or(0);
    (n > runner_up).then(|| best.to_vec())
}

/// The extension protocol issuing one from-scratch request per attempt.
fn oracle_run_query(
    runner: &ExtensionRunner,
    engine: &SearchEngine,
    cell: Cell<'_>,
    start_min: f64,
) -> (UserList, f64) {
    let mut time = start_min;
    let mut previous: Option<(String, f64)> = None;
    let mut resolved = Vec::new();
    for term in formulations(cell.query, cell.location) {
        let mut runs: Vec<Vec<u64>> = Vec::new();
        for attempt in 0..runner.repeats + runner.max_extra_runs {
            let ctx = RequestContext {
                time_min: time,
                previous: previous.clone(),
                proxied: runner.proxied,
            };
            runs.push(oracle_search(engine, cell, &term, &ctx));
            previous = Some((term.clone(), time));
            time += runner.spacing_min;
            if attempt + 1 >= runner.repeats && oracle_majority(&runs).is_some() {
                break;
            }
        }
        resolved.push(oracle_majority(&runs).unwrap_or_else(|| runs[0].clone()));
    }
    let assignment = cell.user.demographic.assignment();
    (UserList { assignment, results: borda_merge(&resolved) }, time)
}

/// Study cells covering every override scope of the calibrated profile:
/// Bristol's female override, the "run errand" / "general cleaning"
/// ethnicity overrides, an unscoped query, and the near-unpersonalized
/// Washington, DC.
const SEARCH_QUERIES: [(&str, &str); 3] = [
    ("run errand", "Run Errands"),
    ("general cleaning", "General Cleaning"),
    ("yard work", "Yard Work"),
];
const SEARCH_LOCATIONS: [&str; 3] = ["Bristol, UK", "London, UK", "Washington, DC"];

fn study_users() -> Vec<SearchUser> {
    let mut users = Vec::new();
    for gender in Gender::ALL {
        for ethnicity in Ethnicity::ALL {
            for k in 0..2u64 {
                let id = mix(SEED, users.len() as u64 ^ (k << 32));
                users.push(SearchUser::new(id, Demographic { gender, ethnicity }));
            }
        }
    }
    users
}

#[test]
fn protocol_pages_match_the_from_scratch_oracle() {
    let engine =
        SearchEngine::new(calibrate::google_personalization(), NoiseModel::default(), SEED);
    for runner in [ExtensionRunner::default(), ExtensionRunner::naive()] {
        for user in study_users() {
            for location in SEARCH_LOCATIONS {
                // The study's clock runs on across a participant's queries.
                let mut clock = 0.0f64;
                let mut oracle_clock = 0.0f64;
                for (query, category) in SEARCH_QUERIES {
                    let (list, end) =
                        runner.run_query(&engine, &user, query, category, location, clock);
                    let cell = Cell { user: &user, query, category, location };
                    let (want, want_end) = oracle_run_query(&runner, &engine, cell, oracle_clock);
                    assert_eq!(list, want, "{runner:?} {user:?} {query} @ {location}");
                    assert_eq!(end.to_bits(), want_end.to_bits());
                    clock = end;
                    oracle_clock = want_end;
                }
            }
        }
    }
}

#[test]
fn single_search_scores_match_the_from_scratch_oracle() {
    let engine =
        SearchEngine::new(calibrate::google_personalization(), NoiseModel::default(), SEED);
    let contexts = [
        RequestContext::clean(),
        RequestContext { time_min: 7.25, previous: None, proxied: true },
        RequestContext {
            time_min: 1.0,
            previous: Some(("other query".into(), 0.5)),
            proxied: true,
        },
        RequestContext {
            time_min: 36.0,
            previous: Some(("yard work jobs".into(), 24.0)),
            proxied: false,
        },
        RequestContext { time_min: 3.5, previous: Some(("same".into(), 3.5)), proxied: false },
        RequestContext { time_min: 131.75, previous: None, proxied: false },
    ];
    for user in study_users() {
        for location in SEARCH_LOCATIONS {
            for (query, category) in SEARCH_QUERIES {
                let cell = Cell { user: &user, query, category, location };
                let session = engine.session(&user, query, category, location);
                for term in formulations(query, location) {
                    let scores = session.term(&term);
                    for ctx in &contexts {
                        let previous = ctx
                            .previous
                            .as_ref()
                            .map(|(prev, t)| (session.carryover_key(prev), *t));
                        let got = session.scores(&scores, ctx.time_min, previous, ctx.proxied);
                        let want = oracle_scores(&engine, cell, &term, ctx);
                        let bits = |v: &[(u64, f64)]| {
                            v.iter().map(|&(id, s)| (id, s.to_bits())).collect::<Vec<_>>()
                        };
                        assert_eq!(bits(&got), bits(&want), "{user:?} {term} {ctx:?}");
                        assert_eq!(
                            engine.search(&user, query, &term, category, location, ctx),
                            oracle_search(&engine, cell, &term, ctx),
                            "{user:?} {term} {ctx:?}"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Marketplace oracle.

/// One query ranked from scratch: per-worker sign-up test and full
/// `ScoringModel::score` (penalty looked up per worker).
fn oracle_ranking(m: &Marketplace, seed: u64, q: usize, ci: usize) -> Option<Vec<(usize, f64)>> {
    if !jobs::offered(q, ci) {
        return None;
    }
    let (_, _, query) = jobs::all_queries().nth(q)?;
    let category = jobs::category_of(q).name;
    let location = fbox::marketplace::city::CITIES[ci].name;
    let noise_seed = mix_str(mix_str(seed, query), location);
    let workers = m.population().workers();
    let scoring = ScoringModel::default();
    let mut scored: Vec<(usize, f64)> = m
        .population()
        .in_city(ci)
        .iter()
        .filter(|&&wi| m.serves(workers[wi].id, category))
        .map(|&wi| {
            (wi, scoring.score(&workers[wi], m.bias(), query, category, location, noise_seed))
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(workers[a.0].id.cmp(&workers[b.0].id)));
    scored.truncate(PAGE_SIZE);
    Some(scored)
}

/// Labels that differ from ground truth for every third worker.
fn relabel(population: &Population) -> Vec<Demographic> {
    population
        .workers()
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let mut d = w.demographic;
            if i % 3 == 0 {
                d.ethnicity = Ethnicity::ALL[(d.ethnicity.value_id().0 as usize + 1) % 3];
            }
            d
        })
        .collect()
}

#[test]
fn marketplace_pages_match_the_from_scratch_oracle() {
    let population = Population::paper(SEED);
    let labels = relabel(&population);
    let swapped = calibrate::taskrabbit_bias().with_override(BiasOverride {
        location: Some("Chicago, IL".into()),
        query: None,
        category: Some("Handyman".into()),
        gender: None,
        ethnicity: None,
        action: OverrideAction::SwapGenders,
    });
    let markets = [
        (
            Marketplace::new(
                population.clone(),
                ScoringModel::default(),
                calibrate::taskrabbit_bias(),
                SEED,
            ),
            None,
        ),
        (Marketplace::new(population.clone(), ScoringModel::default(), swapped, SEED), None),
        (
            Marketplace::new(
                population,
                ScoringModel::default(),
                calibrate::taskrabbit_bias(),
                SEED,
            )
            .with_observed_labels(labels.clone()),
            Some(&labels),
        ),
    ];
    let city_index = |name: &str| {
        fbox::marketplace::city::CITIES.iter().position(|c| c.name == name).expect("catalog city")
    };
    // Birmingham (strongest amplifier), Chicago (scoped overrides),
    // Bristol, and Baton Rouge (the partial city).
    let cities = [
        city_index("Birmingham, UK"),
        city_index("Chicago, IL"),
        city_index("Bristol, UK"),
        city_index("Baton Rouge, LA"),
    ];
    let mut unoffered = 0;
    for (m, labels) in &markets {
        for q in 0..jobs::N_QUERIES {
            for &ci in &cities {
                let want = oracle_ranking(m, SEED, q, ci);
                let Some(want) = want else {
                    assert!(
                        m.run_query(q, ci).is_none() && m.run_query_with_scores(q, ci).is_none()
                    );
                    unoffered += 1;
                    continue;
                };
                let workers = m.population().workers();
                let scores = m.run_query_with_scores(q, ci).expect("offered");
                assert_eq!(scores.len(), want.len());
                for (&(id, s), &(wi, w)) in scores.iter().zip(&want) {
                    assert_eq!((id, s.to_bits()), (workers[wi].id, w.to_bits()), "q {q} city {ci}");
                }
                let page = MarketRanking::new(
                    want.iter()
                        .enumerate()
                        .map(|(i, &(wi, _))| RankedWorker {
                            assignment: labels
                                .map_or(workers[wi].demographic, |l| l[wi])
                                .assignment(),
                            rank: i + 1,
                            score: None,
                        })
                        .collect(),
                );
                assert_eq!(m.run_query(q, ci), Some(page), "q {q} city {ci}");
            }
        }
    }
    assert_eq!(unoffered, 3 * 15, "the partial city lacks its last 15 sub-queries");
}
