//! The Prolific user study (paper §5.1.2, Figure 9): recruit participants
//! per demographic group, have each run the query protocol at their
//! location, and assemble the F-Box inputs.
//!
//! Design notes vs. the paper:
//!
//! - The paper lists ten study locations but reports Washington, DC as the
//!   fairest Google location (§5.2.2); DC is therefore included as an
//!   11th location so that finding can be reproduced. Similarly,
//!   Furniture Assembly queries are included because §5.2.2 reports them
//!   as the fairest, although Table 7 omits the category.
//! - The paper's crawl covered 1–4 locations per job (Table 7); the
//!   simulator runs every query at every location so the unfairness cube
//!   is complete and the threshold algorithm (rather than the naive
//!   fallback) answers the quantification problems. [`paper_coverage`]
//!   preserves Table 7's numbers for the dataset-statistics reproduction.

use crate::engine::SearchEngine;
use crate::extension::ExtensionRunner;
use crate::user::SearchUser;
use fbox_core::model::{Schema, Universe};
use fbox_core::observations::SearchObservations;
use fbox_marketplace::demographics::{Demographic, Ethnicity, Gender};
use fbox_resilience::{hash, Disposition, Journal, PayloadFault, Resilience};
use serde::{Deserialize, Serialize};

/// The study's locations: the paper's ten plus Washington, DC.
pub const LOCATIONS: [&str; 11] = [
    "London, UK",
    "New York City, NY",
    "Los Angeles, CA",
    "Boston, MA",
    "Bristol, UK",
    "Charlotte, NC",
    "Pittsburgh, PA",
    "Birmingham, UK",
    "Manchester, UK",
    "Detroit, MI",
    "Washington, DC",
];

/// The 20 study queries `(name, category)` — the paper's "top 10 and
/// bottom 10 frequently searched" TaskRabbit queries, drawn from the
/// categories of Table 7 plus Furniture Assembly (see module docs).
/// Sub-query names reuse the marketplace taxonomy so cross-platform
/// hypotheses transfer (paper §5.2.1 → §5.2.2).
pub const QUERIES: [(&str, &str); 20] = [
    ("yard work", "Yard Work"),
    ("Lawn Mowing", "Yard Work"),
    ("Leaf Raking", "Yard Work"),
    ("Hedge Trimming", "Yard Work"),
    ("general cleaning", "General Cleaning"),
    ("office cleaning jobs", "General Cleaning"),
    ("private cleaning jobs", "General Cleaning"),
    ("Home Cleaning", "General Cleaning"),
    ("Deep Cleaning", "General Cleaning"),
    ("event staffing", "Event Staffing"),
    ("Event Decorating", "Event Staffing"),
    ("moving job", "Moving"),
    ("Help Moving", "Moving"),
    ("run errand", "Run Errands"),
    ("Running Errands", "Run Errands"),
    ("Shopping Errand", "Run Errands"),
    ("Wait In Line", "Run Errands"),
    ("furniture assembly", "Furniture Assembly"),
    ("IKEA Assembly", "Furniture Assembly"),
    ("Bed Assembly", "Furniture Assembly"),
];

/// Table 7 verbatim: number of locations per job in the paper's own
/// crawl.
pub const PAPER_COVERAGE: [(&str, usize); 5] = [
    ("yard work", 4),
    ("general cleaning", 3),
    ("event staffing", 1),
    ("moving job", 1),
    ("run errand", 1),
];

/// Table 7's coverage map (paper data, reproduced as-is by the
/// dataset-statistics runner).
pub fn paper_coverage() -> &'static [(&'static str, usize)] {
    &PAPER_COVERAGE
}

/// Study configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StudyDesign {
    /// Participants recruited per (full demographic group, location) —
    /// the paper recruited "an average of 3 participants per study".
    pub participants_per_group: usize,
    /// Seed for participant identity derivation.
    pub seed: u64,
}

impl Default for StudyDesign {
    fn default() -> Self {
        Self { participants_per_group: 3, seed: 0xF0CA }
    }
}

/// Summary statistics of a completed study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyStats {
    /// Number of (group, location) studies — 6 × 11 = 66 here; the paper
    /// ran 60 over its 10 locations.
    pub n_studies: usize,
    /// Total participants.
    pub n_participants: usize,
    /// Queries each participant ran.
    pub n_queries: usize,
    /// Total search requests issued (incl. repeats and formulations).
    pub n_requests_lower_bound: usize,
    /// Participant lists lost to exhausted retry budgets.
    pub n_failed: usize,
    /// Participant lists dropped because the payload arrived corrupted.
    pub n_quarantined: usize,
    /// Participant lists delivered truncated (their top half is used).
    pub n_truncated: usize,
    /// Total retries across all (participant, query) sessions.
    pub n_retries: u64,
    /// Total virtual backoff time spent in retries, in milliseconds.
    pub backoff_virtual_ms: u64,
    /// Fraction of participant lists delivered:
    /// `delivered / (delivered + n_failed + n_quarantined)`; 1.0 for a
    /// fault-free study.
    pub coverage: f64,
}

/// The universe of the Google study: 11-group lattice, the 20 queries with
/// category tags, and the 11 locations.
pub fn google_universe() -> Universe {
    let mut u = Universe::with_all_groups(Schema::gender_ethnicity());
    for (name, category) in QUERIES {
        u.add_query(name, Some(category));
    }
    for name in LOCATIONS {
        u.add_location(name, city_region(name));
    }
    u
}

fn city_region(name: &str) -> Option<&'static str> {
    fbox_marketplace::city::city(name).map(|c| c.region)
}

/// One participant's assignment: identity plus where their lists go.
/// Enumerated in serial recruitment order so ids — and therefore the
/// derived user seeds and fault keys — are independent of how the
/// sessions are scheduled.
struct Participant {
    /// Recruitment-order id: the stable identity faults are keyed by.
    uid: u64,
    user: SearchUser,
    location: &'static str,
    l: fbox_core::model::LocationId,
}

/// What one (participant, query) session delivered, with its resilience
/// accounting. Public because it is the unit the study journal persists:
/// `fbox-store`'s durable driver encodes one [`ParticipantRecord`] (all 20
/// sessions) per segment-log record.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// The query this session ran.
    pub q: fbox_core::model::QueryId,
    /// `None` when the list was lost (budget exhausted or corrupted).
    pub list: Option<fbox_core::observations::UserList>,
    /// The payload arrived truncated; `list` holds its surviving top half.
    pub truncated: bool,
    /// The payload arrived corrupted and the list was dropped.
    pub quarantined: bool,
    /// Every attempt failed at the transport level.
    pub failed: bool,
    /// Retries consumed before resolution.
    pub retries: u32,
    /// Virtual backoff accumulated across those retries, in milliseconds.
    pub backoff_ms: u64,
}

/// One journal entry: everything one participant's session delivered. The
/// crash boundary of a durable study is the participant — a crash loses at
/// most the participants not yet journaled, and recovery re-runs exactly
/// those (deterministically, so the result is unchanged).
#[derive(Debug, Clone, PartialEq)]
pub struct ParticipantRecord {
    /// The participant's 20 query sessions, in protocol order.
    pub sessions: Vec<SessionRecord>,
}

/// The study's write-ahead journal, keyed by recruitment-order uid.
pub type StudyJournal = Journal<ParticipantRecord>;

/// Everything a (possibly degraded, possibly partial) study produced.
#[derive(Debug, Clone)]
pub struct StudyRun {
    /// The Google universe ([`google_universe`]).
    pub universe: Universe,
    /// Observations folded from every journaled participant so far.
    pub observations: SearchObservations,
    /// Statistics folded over the journal.
    pub stats: StudyStats,
    /// Whether every participant has been resolved. `false` after an
    /// interrupted run — resume by calling [`run_study_journaled`] again
    /// with the same journal.
    pub complete: bool,
}

/// Runs the full study under the resilience configuration from the
/// environment ([`Resilience::from_env`]; inert unless `FBOX_FAULTS` is
/// set): for every location and every full demographic group,
/// `participants_per_group` users each execute all 20 queries via the
/// extension protocol.
///
/// Participant sessions are independent (each starts a fresh clock), so
/// they are fanned out across `FBOX_THREADS` workers; each cell's lists
/// are merged back in recruitment order, making the observations
/// identical to a serial run at any thread count.
pub fn run_study(
    design: &StudyDesign,
    engine: &SearchEngine,
    runner: &ExtensionRunner,
) -> (Universe, SearchObservations, StudyStats) {
    run_study_resilient(design, engine, runner, &Resilience::from_env())
}

/// [`run_study`] under an explicit [`Resilience`] configuration.
///
/// Faults are keyed per `(participant, query)` — a pure function of the
/// participant's recruitment id and the query name — so the degraded
/// observations are byte-identical at any `FBOX_THREADS`. Transient and
/// rate-limit faults are absorbed by retries (the engine is deterministic,
/// so a retry re-delivers the same page; the cost is virtual backoff
/// time); a corrupted payload drops the list into quarantine; a truncated
/// payload keeps its top half; an exhausted retry budget loses the list.
/// Lost lists simply shrink the affected `(query, location)` cell — and if
/// a cell loses every list it becomes a missing cube cell, which the
/// downstream algorithms handle (see `fbox-core`'s partial-cube top-k).
pub fn run_study_resilient(
    design: &StudyDesign,
    engine: &SearchEngine,
    runner: &ExtensionRunner,
    resilience: &Resilience,
) -> (Universe, SearchObservations, StudyStats) {
    let mut journal = StudyJournal::new();
    let run = run_study_journaled(design, engine, runner, resilience, &mut journal, &mut |_, _| {});
    (run.universe, run.observations, run.stats)
}

/// [`run_study_resilient`] with a write-ahead journal and a durable sink,
/// mirroring the crawl's `crawl_with_sink`.
///
/// Participants already present in `journal` (keyed by recruitment uid)
/// are **replayed**, not re-run; `resilience.interrupt_after` stops
/// *executing* new participants after that many (replays are free), which
/// is how crash tests interrupt a study at a deterministic participant
/// boundary. Newly resolved participants are journaled — and handed to
/// `sink(uid, record)` — in recruitment order during the sequential merge
/// pass, so a persisting sink assigns every record the same on-disk index
/// at any `FBOX_THREADS`. Observations and statistics fold from the
/// *whole* journal in recruitment order, making an interrupted-and-resumed
/// study byte-identical to an uninterrupted one.
pub fn run_study_journaled(
    design: &StudyDesign,
    engine: &SearchEngine,
    runner: &ExtensionRunner,
    resilience: &Resilience,
    journal: &mut StudyJournal,
    sink: &mut dyn FnMut(u64, &ParticipantRecord),
) -> StudyRun {
    let _span = fbox_telemetry::span("search.run_study");
    let universe = google_universe();
    let mut participants = Vec::new();
    let mut user_id = 0u64;

    for (li, &location) in LOCATIONS.iter().enumerate() {
        let l = universe.location_id(location).expect("registered");
        for gender in Gender::ALL {
            for ethnicity in Ethnicity::ALL {
                for p in 0..design.participants_per_group {
                    let user = SearchUser::new(
                        design.seed ^ crate::hash::mix(user_id, (li as u64) << 32 | p as u64),
                        Demographic { gender, ethnicity },
                    );
                    participants.push(Participant { uid: user_id, user, location, l });
                    user_id += 1;
                }
            }
        }
    }
    let n_participants = participants.len();

    // Work list: participants not yet journaled, in recruitment order,
    // truncated at the configured interrupt point.
    let mut work: Vec<&Participant> = Vec::new();
    let mut interrupted = false;
    for participant in &participants {
        if journal.contains(participant.uid) {
            continue;
        }
        if let Some(cap) = resilience.interrupt_after {
            if work.len() >= cap {
                interrupted = true;
                break;
            }
        }
        work.push(participant);
    }

    let sessions = fbox_par::par_map(&work, |&participant| {
        // Each participant's session starts fresh; queries run
        // back-to-back under the protocol's spacing. The protocol clock is
        // deliberately not advanced by retry backoff: fault injection must
        // stay orthogonal to the engine's noise model, or the fault seed
        // would leak into the *content* of recovered pages.
        let _participant_span = fbox_telemetry::span_args("study.participant", |a| {
            a.u64("uid", participant.uid);
            a.str("location", participant.location);
        });
        let mut clock = 0.0f64;
        QUERIES
            .iter()
            .map(|(query, category)| {
                let q = universe.query_id(query).expect("registered");
                let key = hash::mix(
                    hash::cell_key("search.study", participant.location, query),
                    participant.uid,
                );
                let plan = resilience.plan_cell_traced(key);
                let mut cell = SessionRecord {
                    q,
                    list: None,
                    truncated: false,
                    quarantined: false,
                    failed: false,
                    retries: plan.retries,
                    backoff_ms: plan.backoff_ms,
                };
                match plan.disposition {
                    Disposition::Exhausted => cell.failed = true,
                    Disposition::Run(payload) => {
                        let (mut list, end) = runner.run_query(
                            engine,
                            &participant.user,
                            query,
                            category,
                            participant.location,
                            clock,
                        );
                        clock = end;
                        match payload {
                            None => cell.list = Some(list),
                            Some(PayloadFault::Truncate) => {
                                let keep = list.results.len().div_ceil(2);
                                list.results.truncate(keep);
                                cell.truncated = true;
                                cell.list = Some(list);
                            }
                            Some(PayloadFault::Corrupt) => {
                                cell.quarantined = true;
                                fbox_trace::instant_args("study.quarantine", |a| {
                                    a.u64("uid", participant.uid);
                                    a.str("query", *query);
                                });
                            }
                        }
                    }
                }
                cell
            })
            .collect::<Vec<_>>()
    });

    // Merge pass, sequential in recruitment order: journal each newly
    // executed participant and hand the record to the durable sink.
    for (participant, sessions) in work.iter().zip(sessions) {
        let rejected = journal.append(participant.uid, ParticipantRecord { sessions });
        assert!(
            rejected.is_none(),
            "work list never contains journaled participants (uid {})",
            participant.uid
        );
        sink(participant.uid, journal.get(participant.uid).expect("record was just appended"));
    }

    // Fold pass: rebuild observations and statistics from the *whole*
    // journal, in recruitment order.
    let mut observations = SearchObservations::new();
    let mut n_failed = 0usize;
    let mut n_quarantined = 0usize;
    let mut n_truncated = 0usize;
    let mut n_retries = 0u64;
    let mut backoff_virtual_ms = 0u64;
    let mut delivered = 0usize;
    for participant in &participants {
        let Some(record) = journal.get(participant.uid) else { continue };
        for cell in &record.sessions {
            n_retries += u64::from(cell.retries);
            backoff_virtual_ms += cell.backoff_ms;
            n_failed += usize::from(cell.failed);
            n_quarantined += usize::from(cell.quarantined);
            n_truncated += usize::from(cell.truncated);
            if let Some(list) = &cell.list {
                observations.push(cell.q, participant.l, list.clone());
                delivered += 1;
            }
        }
    }
    let lost = n_failed + n_quarantined;
    let attempted = delivered + lost;
    let coverage = if attempted == 0 { 0.0 } else { delivered as f64 / attempted as f64 };

    let stats = StudyStats {
        n_studies: LOCATIONS.len() * 6,
        n_participants,
        n_queries: QUERIES.len(),
        n_requests_lower_bound: n_participants
            * QUERIES.len()
            * crate::terms::N_FORMULATIONS
            * runner.repeats,
        n_failed,
        n_quarantined,
        n_truncated,
        n_retries,
        backoff_virtual_ms,
        coverage,
    };
    let t = fbox_telemetry::global();
    if t.enabled() {
        t.counter("study.participants").add(stats.n_participants as u64);
        t.counter("study.requests").add(stats.n_requests_lower_bound as u64);
        t.counter("study.retries").add(n_retries);
        t.counter("study.lists_failed").add(n_failed as u64);
        t.counter("study.lists_quarantined").add(n_quarantined as u64);
        t.counter("study.lists_truncated").add(n_truncated as u64);
        if backoff_virtual_ms > 0 {
            t.histogram("study.backoff_virtual_ms")
                .record(std::time::Duration::from_millis(backoff_virtual_ms));
        }
    }
    let complete = !interrupted && journal.len() == n_participants;
    StudyRun { universe, observations, stats, complete }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseModel;
    use crate::personalize::PersonalizationProfile;

    #[test]
    fn universe_dimensions() {
        let u = google_universe();
        assert_eq!(u.n_groups(), 11);
        assert_eq!(u.n_queries(), 20);
        assert_eq!(u.n_locations(), 11);
        assert!(u.location_id("Washington, DC").is_some());
        assert_eq!(u.queries_in_category("General Cleaning").len(), 5);
    }

    #[test]
    fn paper_coverage_matches_table7() {
        let total: usize = paper_coverage().iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 10, "Table 7 sums to the 10 study locations");
    }

    #[test]
    fn study_produces_complete_observations() {
        let design = StudyDesign { participants_per_group: 2, seed: 1 };
        let engine = SearchEngine::new(PersonalizationProfile::uniform(0.1), NoiseModel::none(), 3);
        let runner = ExtensionRunner { repeats: 1, max_extra_runs: 0, ..Default::default() };
        let (universe, obs, stats) = run_study(&design, &engine, &runner);
        assert_eq!(stats.n_participants, 11 * 6 * 2);
        assert_eq!(obs.n_cells(), 20 * 11, "every (query, location) cell observed");
        // Each cell holds one list per participant at that location.
        let q = universe.query_id("yard work").unwrap();
        let l = universe.location_id("Boston, MA").unwrap();
        assert_eq!(obs.get(q, l).unwrap().len(), 6 * 2);
    }

    #[test]
    fn faulted_study_degrades_gracefully() {
        use fbox_resilience::{FaultPlan, FaultProfile};
        let design = StudyDesign { participants_per_group: 2, seed: 1 };
        let engine = SearchEngine::new(PersonalizationProfile::uniform(0.1), NoiseModel::none(), 3);
        let runner = ExtensionRunner { repeats: 1, max_extra_runs: 0, ..Default::default() };
        let r = Resilience::with_plan(FaultPlan::new(5, FaultProfile::heavy()));
        let (_, obs, stats) = run_study_resilient(&design, &engine, &runner, &r);
        let (_, clean_obs, clean) = run_study(&design, &engine, &runner);

        // The clean run is inert and fully covered…
        assert_eq!(clean.n_failed + clean.n_quarantined + clean.n_truncated, 0);
        assert_eq!(clean.coverage, 1.0);
        assert_eq!(clean_obs.n_cells(), 220);
        // …the faulted run loses lists in every mode but keeps going.
        assert!(stats.n_failed > 0);
        assert!(stats.n_quarantined > 0);
        assert!(stats.n_truncated > 0);
        assert!(stats.n_retries > 0);
        assert!(stats.backoff_virtual_ms > 0);
        assert!(stats.coverage > 0.5 && stats.coverage < 1.0);
        // Lost lists shrink cells; with 12 participants per cell it is
        // unlikely (but legal) for a whole cell to vanish.
        let total_lists: usize = obs.cells().map(|(_, lists)| lists.len()).sum();
        let clean_total: usize = clean_obs.cells().map(|(_, lists)| lists.len()).sum();
        assert!(total_lists < clean_total);
    }

    #[test]
    fn faulted_study_is_deterministic() {
        use fbox_resilience::{FaultPlan, FaultProfile};
        let design = StudyDesign { participants_per_group: 1, seed: 9 };
        let engine = SearchEngine::new(PersonalizationProfile::none(), NoiseModel::none(), 3);
        let runner = ExtensionRunner { repeats: 1, max_extra_runs: 0, ..Default::default() };
        let r = Resilience::with_plan(FaultPlan::new(13, FaultProfile::bursty()));
        let (_, obs1, stats1) = run_study_resilient(&design, &engine, &runner, &r);
        let (_, obs2, stats2) = run_study_resilient(&design, &engine, &runner, &r);
        assert_eq!(stats1, stats2);
        assert_eq!(obs1.n_cells(), obs2.n_cells());
        for ((q, l), lists) in obs1.cells() {
            assert_eq!(obs2.get(q, l), Some(lists));
        }
    }

    #[test]
    fn participants_are_unique_and_deterministic() {
        let design = StudyDesign::default();
        let engine = SearchEngine::new(PersonalizationProfile::none(), NoiseModel::none(), 3);
        let runner = ExtensionRunner { repeats: 1, max_extra_runs: 0, ..Default::default() };
        let (_, obs1, _) = run_study(&design, &engine, &runner);
        let (_, obs2, _) = run_study(&design, &engine, &runner);
        let q = fbox_core::model::QueryId(0);
        let l = fbox_core::model::LocationId(0);
        assert_eq!(obs1.get(q, l).unwrap(), obs2.get(q, l).unwrap());
    }
}
