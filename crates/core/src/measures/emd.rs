//! Earth Mover's Distance between score histograms (paper §3.3.1).
//!
//! Two solvers are provided:
//!
//! - [`emd_1d`]: the closed-form EMD for one-dimensional histograms over a
//!   shared equal-width binning — the L1 distance between the two CDFs
//!   scaled by the bin width. This is what the unfairness drivers use.
//! - [`emd_general`]: an exact transportation solver (integer-scaled
//!   min-cost max-flow with Dijkstra + potentials) for arbitrary ground
//!   costs, in the spirit of the fast-EMD solvers the paper cites (Pele &
//!   Werman 2009). It exists to validate the closed form and to support
//!   non-uniform ground distances.
//!
//! [`transport_plan`] returns the solver's plan itself, for the
//! exposure-optimal re-ranker; its docs say which of several tied minimal
//! plans that is.
//!
//! Both operate on *unit-mass* distributions: inputs are normalized
//! internally and empty histograms yield `None` (an empty group has no
//! score distribution to compare).

use super::float::approx_zero;
use super::histogram::{BinConfig, Histogram};

/// Closed-form 1-D EMD between two histograms sharing a [`BinConfig`]
/// (`Σ_i |CDF_a(i) − CDF_b(i)| · bin_width`), on unit-mass normalizations.
///
/// Returns `None` if either histogram is empty.
///
/// # Panics
///
/// Panics if the histograms use different binning configurations — EMD
/// between incompatible binnings is meaningless.
pub fn emd_1d(a: &Histogram, b: &Histogram) -> Option<f64> {
    assert!(a.config() == b.config(), "emd_1d requires identical bin configurations");
    let (ca, cb) = (unit_cdf(a)?, unit_cdf(b)?);
    Some(cdf_emd(&ca, &cb, a.config()))
}

/// [`emd_1d`] rescaled to `[0, 1]`: divided by the maximum possible EMD for
/// the binning (all mass in the first bin vs. all mass in the last,
/// `(bins − 1) · bin_width`). Single-bin histograms always compare equal.
pub fn emd_1d_normalized(a: &Histogram, b: &Histogram) -> Option<f64> {
    let raw = emd_1d(a, b)?;
    Some(rescale_emd(raw, a.config()))
}

/// The CDF of a non-empty histogram's unit-mass normalization.
fn unit_cdf(h: &Histogram) -> Option<Vec<f64>> {
    let mut cdf = h.counts().to_vec();
    unit_cdf_in_place(&mut cdf, h.total()).then_some(cdf)
}

/// Turns per-bin masses summing to `total` into the CDF of their unit-mass
/// normalization, bin by bin in bin order — the operand of [`cdf_emd`].
/// Returns `false`, leaving `counts` as they are, when
/// there is no mass ([`Histogram::is_empty`]). Callers keeping their own
/// bin counts (the market cell evaluator) share this,
/// [`cdf_emd`] and [`rescale_emd`], so their distances stay bit-identical
/// to [`emd_1d_normalized`].
pub(crate) fn unit_cdf_in_place(counts: &mut [f64], total: f64) -> bool {
    if approx_zero(total) {
        return false;
    }
    let mut acc = 0.0;
    for c in counts {
        acc += *c / total;
        *c = acc;
    }
    true
}

/// [`emd_1d`] of two unit-mass CDFs over `cfg`: `Σ_i |a_i − b_i|` in bin
/// order, times the bin width.
pub(crate) fn cdf_emd(a: &[f64], b: &[f64], cfg: BinConfig) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() * cfg.bin_width()
}

/// Rescales a raw [`emd_1d`] value over `cfg` into `[0, 1]`.
pub(crate) fn rescale_emd(raw: f64, cfg: BinConfig) -> f64 {
    // Zero for a single bin, where no distance is possible.
    let max = cfg.bins.saturating_sub(1) as f64 * cfg.bin_width();
    if max > 0.0 {
        (raw / max).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Exact EMD between two unit-mass distributions with an arbitrary ground
/// cost `cost(i, j) ≥ 0` between supply bin `i` and demand bin `j`.
///
/// `supply` and `demand` are non-negative masses; each is normalized to
/// total mass 1 before solving. Returns `None` if either side has zero
/// total mass.
///
/// Masses are scaled to integers (2³² resolution) and the resulting
/// balanced transportation problem is solved exactly with successive
/// shortest augmenting paths over Johnson potentials, so the result is the
/// true optimum of the discretized problem (absolute mass error ≤ 2⁻³²
/// per bin).
///
/// # Panics
///
/// Panics if any mass or cost is negative or non-finite.
pub fn emd_general(
    supply: &[f64],
    demand: &[f64],
    cost: impl Fn(usize, usize) -> f64,
) -> Option<f64> {
    let s = normalize_to_units(supply)?;
    let d = normalize_to_units(demand)?;
    let costs = cost_matrix(s.len(), d.len(), cost);
    Some(transport(&s, &d, &costs, d.len()).cost / SCALE as f64)
}

/// EMD between two histograms with ground distance = |bin center
/// difference|, solved by the general transportation solver. Agrees with
/// [`emd_1d`] (property-tested) but works for any non-negative cost.
pub fn emd_general_1d(a: &Histogram, b: &Histogram) -> Option<f64> {
    assert!(a.config() == b.config(), "emd_general_1d requires identical bin configurations");
    let cfg = a.config();
    emd_general(a.counts(), b.counts(), |i, j| (cfg.bin_center(i) - cfg.bin_center(j)).abs())
}

const SCALE: u64 = 1 << 32;

/// Normalizes non-negative masses to integers summing exactly to [`SCALE`],
/// by largest-remainder apportionment: floor every scaled mass, then hand
/// the missing units to the bins with the largest fractional remainders
/// (ties broken by lower index).
///
/// The drift is never dumped on a single bin: with thousands of near-equal
/// tiny masses the combined rounding drift can exceed any one bin's units,
/// and the old "fix the largest bin" correction underflowed there (panic in
/// debug, wrap in release). Largest-remainder spreads at most one unit per
/// bin per pass, so every intermediate value stays in range.
fn normalize_to_units(masses: &[f64]) -> Option<Vec<u64>> {
    for &x in masses {
        assert!(x >= 0.0 && x.is_finite(), "mass must be non-negative and finite");
    }
    let total: f64 = masses.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let scaled: Vec<f64> = masses.iter().map(|&x| (x / total) * SCALE as f64).collect();
    let mut units: Vec<u64> = scaled.iter().map(|&x| super::float::floor_units(x)).collect();
    let sum: u64 = units.iter().sum();
    if sum == SCALE {
        return Some(units);
    }
    // Bins ordered by descending fractional remainder, ties by lower index
    // (`sort_by` is stable), so the apportionment is deterministic.
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = scaled[a] - units[a] as f64;
        let rb = scaled[b] - units[b] as f64;
        rb.total_cmp(&ra)
    });
    if sum < SCALE {
        // Flooring loses < 1 unit per bin, so the deficit fits in one
        // cyclic pass in practice; the cycle guards against float-sum
        // drift ever pushing it past one unit per bin.
        let mut deficit = SCALE - sum;
        for &i in order.iter().cycle() {
            if deficit == 0 {
                break;
            }
            units[i] += 1;
            deficit -= 1;
        }
    } else {
        // Unreachable with flooring up to float-sum drift (each floor is
        // ≤ its exact share, so the integer sum cannot exceed SCALE by a
        // whole unit), but handled symmetrically: drain the excess from
        // the smallest remainders that still hold units.
        let mut excess = sum - SCALE;
        for &i in order.iter().rev().cycle() {
            if excess == 0 {
                break;
            }
            if units[i] > 0 {
                units[i] -= 1;
                excess -= 1;
            }
        }
    }
    Some(units)
}

/// An exact integer transportation plan: the minimum-cost routing of
/// `supply` units onto `demand` slots under a non-negative ground cost.
///
/// `flow[i][j]` is the number of units moved from supply bin `i` to demand
/// bin `j`; row sums equal `supply`, column sums equal `demand`, and the
/// total cost `Σ flow[i][j] · cost(i, j)` is minimal. Built for the
/// mitigation layer's exposure-optimal re-ranker (groups → rank positions),
/// which needs the *assignment*, not just the optimal cost that
/// [`emd_general`] reports.
///
/// When several plans tie at the minimal cost, which one is returned is
/// fixed (deterministic) but not specified: each augmenting search stops
/// at the sink, so ties can break differently from a search that settles
/// every node. On exposure-shaped costs (`|exposure(pos) − τ_class|`) the
/// two pick the same plan on every tested instance; on arbitrary costs
/// they agree on the cost only.
///
/// # Panics
///
/// Panics if the supply and demand totals differ (the transportation
/// problem must be balanced) or any cost is negative or non-finite.
#[must_use]
pub fn transport_plan(
    supply: &[u64],
    demand: &[u64],
    cost: impl Fn(usize, usize) -> f64,
) -> Vec<Vec<u64>> {
    let supply_total: u64 = supply.iter().sum();
    let demand_total: u64 = demand.iter().sum();
    assert!(
        supply_total == demand_total,
        "transport_plan requires balanced totals: supply {supply_total} vs demand {demand_total}"
    );
    let costs = cost_matrix(supply.len(), demand.len(), cost);
    transport(supply, demand, &costs, demand.len()).flow
}

/// `cost` evaluated over every (supply, demand) pair, row-major.
///
/// # Panics
///
/// Panics if any cost is negative or non-finite.
fn cost_matrix(n: usize, m: usize, cost: impl Fn(usize, usize) -> f64) -> Vec<f64> {
    let pairs = (0..n).flat_map(|i| (0..m).map(move |j| (i, j)));
    let costs: Vec<f64> = pairs.map(|(i, j)| cost(i, j)).collect();
    assert!(
        costs.iter().all(|&c| c >= 0.0 && c.is_finite()),
        "ground cost must be non-negative and finite"
    );
    costs
}

/// What [`transport`] solves for: the optimal cost and the realizing flow.
struct TransportSolution {
    /// Total cost of the optimal plan (in cost × unit terms).
    cost: f64,
    /// `flow[i][j]`: units routed from supply bin `i` to demand bin `j`.
    flow: Vec<Vec<u64>>,
}

/// Solves the balanced transportation problem exactly.
///
/// Successive shortest augmenting paths, each found by Dijkstra over
/// reduced costs (Johnson potentials). Node layout: `0` source, `1..=n`
/// supplies, `n+1..=n+m` demands, `n+m+1` sink. The residual graph is
/// implicit in a flat `n × m` flow matrix plus the units each supply has
/// left to send and each demand has left to receive (the residuals of
/// the source→supply and demand→sink arcs); supply→demand arcs are
/// uncapacitated and their reverse arcs hold the routed flow. A node
/// relaxes its arcs in the order an adjacency list built source arcs,
/// then sink arcs, then supply→demand arcs would hold them: the source
/// its supplies ascending; a supply its demands ascending; a demand the
/// sink, then its supplies ascending. (A supply's reverse arc to the
/// source never relaxes: the source sits at distance 0.)
///
/// Each search stops once the sink is settled, and every node's
/// potential grows by `min(dist, dist[sink])`: settled nodes by their
/// exact distance, the rest by the sink's, which keeps every residual
/// reduced cost non-negative. The arc order, the `.max(0.0)` clamp, the
/// `nd + 1e-15 < dist` test and the heap order are those of a search that
/// settles every node, so on equal potentials both see the same pushes
/// and pops up to the sink's pop. Later searches run on different
/// potentials and may break exact-cost ties another way: the contract is
/// *a* minimal plan. On exposure-shaped costs the plans equal the full
/// search's on every tested instance; that is a test result
/// (`early_exit_plans_equal_full_search_on_exposure_costs`), not a
/// theorem.
fn transport(supply: &[u64], demand: &[u64], costs: &[f64], m: usize) -> TransportSolution {
    let n = supply.len();
    let sink = n + m + 1;
    // Node → its supply or demand index (0 for the source and the sink).
    let idx: Vec<usize> = [0].into_iter().chain(0..n).chain(0..m).chain([0]).collect();
    let mut flow = vec![0u64; n * m];
    // Residual capacities of the source→supply and demand→sink arcs.
    let (mut supply_left, mut demand_left) = (supply.to_vec(), demand.to_vec());
    let mut potential = vec![0.0f64; sink + 1];
    let mut dist = vec![f64::INFINITY; sink + 1];
    // Each node's predecessor on its shortest path; only the sink's path
    // is read, and every node on it was reached by the current search.
    let mut prev = vec![0usize; sink + 1];
    let mut heap = std::collections::BinaryHeap::new();
    let mut total_cost = 0.0f64;
    let mut remaining: u64 = supply.iter().sum();
    let (mut iterations, mut settled) = (0u64, 0u64);

    while remaining > 0 {
        iterations += 1;
        dist.fill(f64::INFINITY);
        dist[0] = 0.0;
        heap.clear();
        heap.push(HeapEntry { dist: 0.0, node: 0 });
        while let Some(HeapEntry { dist: du, node: u }) = heap.pop() {
            if du > dist[u] {
                continue;
            }
            settled += 1;
            if u == sink {
                break;
            }
            let mut relax = |v: usize, cost: f64| {
                // Reduced costs are ≥ 0 up to rounding; clamp tiny negatives.
                let nd = du + (cost + potential[u] - potential[v]).max(0.0);
                if nd + 1e-15 < dist[v] {
                    dist[v] = nd;
                    prev[v] = u;
                    heap.push(HeapEntry { dist: nd, node: v });
                }
            };
            if u == 0 {
                (0..n).filter(|&i| supply_left[i] > 0).for_each(|i| relax(1 + i, 0.0));
            } else if u <= n {
                let row = idx[u] * m;
                (0..m).filter(|&j| demand[j] > 0).for_each(|j| relax(1 + n + j, costs[row + j]));
            } else {
                let j = idx[u];
                if demand_left[j] > 0 {
                    relax(sink, 0.0);
                }
                for i in (0..n).filter(|&i| flow[i * m + j] > 0) {
                    relax(1 + i, -costs[i * m + j]);
                }
            }
        }
        let reach = dist[sink];
        assert!(
            reach.is_finite(),
            "transportation problem infeasible: sink unreachable with {remaining} units left"
        );
        for (p, &d) in potential.iter_mut().zip(&dist) {
            *p += d.min(reach);
        }
        // Bottleneck along the path, from the sink back to the source.
        let mut bottleneck = remaining;
        let mut v = sink;
        while v != 0 {
            let u = prev[v];
            bottleneck = bottleneck.min(if v == sink {
                demand_left[idx[u]]
            } else if u == 0 {
                supply_left[idx[v]]
            } else if u > n {
                flow[idx[v] * m + idx[u]]
            } else {
                remaining
            });
            v = u;
        }
        // Augment. Arc costs add up in sink-to-source order, which fixes
        // the bits of the float total `emd_general` reports.
        let mut v = sink;
        while v != 0 {
            let u = prev[v];
            if v == sink {
                take(&mut demand_left[idx[u]], bottleneck);
            } else if u == 0 {
                take(&mut supply_left[idx[v]], bottleneck);
            } else if u > n {
                let k = idx[v] * m + idx[u];
                total_cost -= costs[k] * bottleneck as f64;
                take(&mut flow[k], bottleneck);
            } else {
                let k = idx[u] * m + idx[v];
                total_cost += costs[k] * bottleneck as f64;
                flow[k] += bottleneck;
            }
            v = u;
        }
        take(&mut remaining, bottleneck);
    }

    // One publish per solve: augmenting paths, and nodes their searches settled.
    let t = fbox_telemetry::global();
    if t.enabled() {
        t.counter("transport.iterations").add(iterations);
        t.counter("transport.nodes_settled").add(settled);
    }
    let flow = (0..n).map(|i| flow[i * m..][..m].to_vec()).collect();
    TransportSolution { cost: total_cost, flow }
}

/// `*units -= by`, for a `by` taken as a minimum that included `*units`.
fn take(units: &mut u64, by: u64) {
    let left = *units;
    debug_assert!(by <= left, "augmenting past a residual capacity");
    *units = left - by;
}

/// Max-heap entry ordered by *smallest* distance (reversed comparison).
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want smallest dist first.
        // Total order keeps the heap invariants even if a cost ever goes
        // NaN, instead of panicking mid-solve.
        other.dist.total_cmp(&self.dist)
    }
}

#[cfg(test)]
mod tests {
    use super::super::exposure::DiscountModel;
    use super::*;

    fn hist(values: &[f64]) -> Histogram {
        Histogram::from_values(BinConfig::unit(10), values.iter().copied())
    }

    #[test]
    fn identical_histograms_have_zero_emd() {
        let h = hist(&[0.1, 0.5, 0.9]);
        assert_eq!(emd_1d(&h, &h), Some(0.0));
        assert_eq!(emd_1d_normalized(&h, &h), Some(0.0));
    }

    #[test]
    fn extreme_histograms_have_max_emd() {
        let lo = hist(&[0.0, 0.01]);
        let hi = hist(&[0.99, 1.0]);
        // All mass moves 9 bins of width 0.1.
        let d = emd_1d(&lo, &hi).unwrap();
        assert!((d - 0.9).abs() < 1e-12);
        assert!((emd_1d_normalized(&lo, &hi).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn emd_shift_by_one_bin() {
        let a = hist(&[0.05]); // bin 0
        let b = hist(&[0.15]); // bin 1
        let d = emd_1d(&a, &b).unwrap();
        assert!((d - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_yields_none() {
        let h = hist(&[0.5]);
        let e = Histogram::empty(BinConfig::unit(10));
        assert_eq!(emd_1d(&h, &e), None);
        assert_eq!(emd_1d(&e, &h), None);
        assert_eq!(emd_general_1d(&e, &h), None);
    }

    #[test]
    #[should_panic(expected = "identical bin configurations")]
    fn mismatched_configs_rejected() {
        let a = Histogram::from_values(BinConfig::unit(10), [0.5]);
        let b = Histogram::from_values(BinConfig::unit(5), [0.5]);
        emd_1d(&a, &b);
    }

    #[test]
    fn emd_is_symmetric() {
        let a = hist(&[0.1, 0.2, 0.9]);
        let b = hist(&[0.4, 0.5]);
        assert!((emd_1d(&a, &b).unwrap() - emd_1d(&b, &a).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn normalization_makes_group_size_irrelevant() {
        // Same shape, different sizes → zero distance.
        let a = hist(&[0.1, 0.9]);
        let b = hist(&[0.1, 0.1, 0.9, 0.9]);
        assert!(emd_1d(&a, &b).unwrap().abs() < 1e-12);
    }

    #[test]
    fn general_solver_matches_closed_form() {
        let pairs = [
            (vec![0.1, 0.5, 0.9], vec![0.2, 0.6, 0.95]),
            (vec![0.05, 0.05, 0.95], vec![0.5]),
            (vec![0.0, 1.0], vec![0.5, 0.5]),
            (vec![0.3, 0.3, 0.3], vec![0.7, 0.7, 0.7, 0.7]),
        ];
        for (va, vb) in pairs {
            let a = hist(&va);
            let b = hist(&vb);
            let closed = emd_1d(&a, &b).unwrap();
            let general = emd_general_1d(&a, &b).unwrap();
            assert!(
                (closed - general).abs() < 1e-6,
                "closed={closed} general={general} for {va:?} vs {vb:?}"
            );
        }
    }

    #[test]
    fn general_solver_with_custom_cost() {
        // Two bins, unit cost between different bins: EMD = total mass that
        // must move = |p_a(0) - p_b(0)|.
        let d =
            emd_general(&[1.0, 0.0], &[0.25, 0.75], |i, j| if i == j { 0.0 } else { 1.0 }).unwrap();
        assert!((d - 0.75).abs() < 1e-6);
    }

    #[test]
    fn general_solver_zero_mass_side() {
        assert_eq!(emd_general(&[0.0, 0.0], &[1.0], |_, _| 1.0), None);
        assert_eq!(emd_general(&[1.0], &[0.0], |_, _| 1.0), None);
    }

    #[test]
    fn normalize_survives_drift_larger_than_any_bin() {
        // 300 000 equal masses: each bin's share is SCALE / 300 000 ≈
        // 14 316.56, so flooring loses ≈ 0.56 units per bin — a combined
        // drift of ≈ 167 000 units, an order of magnitude more than any
        // single bin holds. The old "subtract the drift from the largest
        // bin" correction underflowed here (debug panic, release wrap).
        let masses = vec![1.0; 300_000];
        let units = normalize_to_units(&masses).unwrap();
        assert_eq!(units.iter().sum::<u64>(), SCALE);
        // Largest-remainder keeps every bin within one unit of its share.
        let share = SCALE / 300_000;
        assert!(units.iter().all(|&u| u == share || u == share + 1));
    }

    #[test]
    fn normalize_handles_hundreds_of_equal_masses() {
        for n in [100usize, 300, 997] {
            let units = normalize_to_units(&vec![0.25; n]).unwrap();
            assert_eq!(units.iter().sum::<u64>(), SCALE, "n = {n}");
        }
    }

    #[test]
    fn normalize_is_exact_on_zero_and_tiny_mixes() {
        let units = normalize_to_units(&[0.0, 1e-300, 1.0, 0.0, 1e-12]).unwrap();
        assert_eq!(units.iter().sum::<u64>(), SCALE);
        assert_eq!(units[0], 0, "a zero mass stays a zero bin up to drift units");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn normalize_sums_to_scale(
            masses in proptest::collection::vec(0.0f64..1e12, 1..400),
        ) {
            if let Some(units) = normalize_to_units(&masses) {
                proptest::prop_assert_eq!(units.iter().sum::<u64>(), SCALE);
                proptest::prop_assert_eq!(units.len(), masses.len());
            } else {
                proptest::prop_assert!(masses.iter().sum::<f64>() <= 0.0);
            }
        }

        #[test]
        fn normalize_sums_to_scale_on_equal_masses(
            mass in 1e-9f64..1e9,
            n in 1usize..3000,
        ) {
            let units = normalize_to_units(&vec![mass; n]).unwrap();
            proptest::prop_assert_eq!(units.iter().sum::<u64>(), SCALE);
        }
    }

    #[test]
    fn transport_plan_routes_identity_for_free() {
        // Matching supply and demand with zero diagonal cost: everything
        // stays put.
        let plan = transport_plan(&[3, 5], &[3, 5], |i, j| if i == j { 0.0 } else { 1.0 });
        assert_eq!(plan, vec![vec![3, 0], vec![0, 5]]);
    }

    #[test]
    fn transport_plan_is_a_balanced_minimal_plan() {
        let supply = [4u64, 2, 3];
        let demand = [1u64, 1, 1, 1, 1, 1, 1, 1, 1];
        let cost = |i: usize, j: usize| (i as f64 - j as f64 / 3.0).abs();
        let plan = transport_plan(&supply, &demand, cost);
        for (i, row) in plan.iter().enumerate() {
            assert_eq!(row.iter().sum::<u64>(), supply[i], "row {i} sum");
        }
        for j in 0..demand.len() {
            assert_eq!(plan.iter().map(|r| r[j]).sum::<u64>(), demand[j], "col {j} sum");
        }
        // Cross-check the plan's cost against the cost-only solver on the
        // same (normalized) problem.
        let plan_cost: f64 = plan
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().enumerate().map(move |(j, &f)| f as f64 * cost(i, j)))
            .sum();
        let supply_f: Vec<f64> = supply.iter().map(|&s| s as f64).collect();
        let demand_f: Vec<f64> = demand.iter().map(|&d| d as f64).collect();
        let optimum = emd_general(&supply_f, &demand_f, cost).unwrap() * 9.0;
        assert!((plan_cost - optimum).abs() < 1e-5, "plan {plan_cost} vs optimum {optimum}");
    }

    #[test]
    #[should_panic(expected = "balanced")]
    fn transport_plan_rejects_unbalanced_totals() {
        let _ = transport_plan(&[2], &[1], |_, _| 0.0);
    }

    /// The solver before early exit, kept as the oracle: an explicit
    /// adjacency-list residual graph, and a Dijkstra per augmenting path
    /// that settles every reachable node.
    fn full_search_transport(
        supply: &[u64],
        demand: &[u64],
        costs: &[f64],
        m: usize,
    ) -> TransportSolution {
        #[derive(Clone)]
        struct Edge {
            to: usize,
            cap: u64,
            cost: f64,
            rev: usize,
        }
        const EDGE_CAP: u64 = u64::MAX / 4;
        let n = supply.len();
        let nodes = n + m + 2;
        let (source, sink) = (0usize, n + m + 1);
        let mut graph: Vec<Vec<Edge>> = vec![Vec::new(); nodes];
        let add_edge = |graph: &mut Vec<Vec<Edge>>, from: usize, to: usize, cap: u64, cost: f64| {
            let rev_from = graph[to].len();
            let rev_to = graph[from].len();
            graph[from].push(Edge { to, cap, cost, rev: rev_from });
            graph[to].push(Edge { to: from, cap: 0, cost: -cost, rev: rev_to });
        };
        for (i, &s) in supply.iter().enumerate().filter(|&(_, &s)| s > 0) {
            add_edge(&mut graph, source, 1 + i, s, 0.0);
        }
        for (j, &d) in demand.iter().enumerate().filter(|&(_, &d)| d > 0) {
            add_edge(&mut graph, 1 + n + j, sink, d, 0.0);
        }
        for i in (0..n).filter(|&i| supply[i] > 0) {
            for j in (0..m).filter(|&j| demand[j] > 0) {
                add_edge(&mut graph, 1 + i, 1 + n + j, EDGE_CAP, costs[i * m + j]);
            }
        }
        let mut potential = vec![0.0f64; nodes];
        let mut total_cost = 0.0f64;
        let mut remaining: u64 = supply.iter().sum();
        while remaining > 0 {
            let mut dist = vec![f64::INFINITY; nodes];
            let mut prev: Vec<Option<(usize, usize)>> = vec![None; nodes];
            dist[source] = 0.0;
            let mut heap = std::collections::BinaryHeap::new();
            heap.push(HeapEntry { dist: 0.0, node: source });
            while let Some(HeapEntry { dist: du, node: u }) = heap.pop() {
                if du > dist[u] {
                    continue;
                }
                for (ei, e) in graph[u].iter().enumerate().filter(|(_, e)| e.cap > 0) {
                    let nd = du + (e.cost + potential[u] - potential[e.to]).max(0.0);
                    if nd + 1e-15 < dist[e.to] {
                        dist[e.to] = nd;
                        prev[e.to] = Some((u, ei));
                        heap.push(HeapEntry { dist: nd, node: e.to });
                    }
                }
            }
            assert!(dist[sink].is_finite(), "oracle: sink unreachable");
            for (p, &d) in potential.iter_mut().zip(&dist).filter(|(_, d)| d.is_finite()) {
                *p += d;
            }
            let mut bottleneck = remaining;
            let mut v = sink;
            while let Some((u, ei)) = prev[v] {
                bottleneck = bottleneck.min(graph[u][ei].cap);
                v = u;
            }
            let mut v = sink;
            while let Some((u, ei)) = prev[v] {
                total_cost += graph[u][ei].cost * bottleneck as f64;
                graph[u][ei].cap -= bottleneck;
                let rev = graph[u][ei].rev;
                graph[v][rev].cap += bottleneck;
                v = u;
            }
            remaining -= bottleneck;
        }
        let mut flow = vec![vec![0u64; m]; n];
        for (i, row) in flow.iter_mut().enumerate() {
            for e in graph[1 + i].iter().filter(|e| e.to > n) {
                row[e.to - 1 - n] = EDGE_CAP - e.cap;
            }
        }
        TransportSolution { cost: total_cost, flow }
    }

    /// Splitmix-style deterministic PRNG, so a failing instance is
    /// reproducible from its index.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next() % (hi - lo + 1) as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// An exposure-optimal re-ranker's seed problem, built the way
    /// `fbox_mitigate::exposure_opt` builds it: one supply per present
    /// class (its size), one unit of demand per position, and cost
    /// `|exposure(pos) − τ_class|` with `τ` the class's relevance-share of
    /// the pool's exposure per member. Relevances mix zeros, ties from a
    /// coarse grid and free reals; the pool always carries some relevance.
    fn exposure_instance(rng: &mut Rng, model: DiscountModel) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
        let n = rng.range(1, 60);
        let classes = rng.range(1, 8);
        let mode = rng.range(0, 3);
        let mut members: Vec<Vec<f64>> = vec![Vec::new(); classes];
        for pos in 0..n {
            let relevance = match mode {
                0 => rng.range(0, 4) as f64 / 4.0,
                1 if rng.range(0, 2) == 0 => 0.0,
                2 => 1.0 - pos as f64 / n as f64,
                _ => rng.unit(),
            };
            members[rng.range(0, classes - 1)].push(relevance);
        }
        if members.iter().flatten().sum::<f64>() <= 1e-9 {
            members.iter_mut().flatten().for_each(|r| *r = 0.5);
        }
        let present: Vec<&Vec<f64>> = members.iter().filter(|c| !c.is_empty()).collect();
        let exposures: Vec<f64> = (1..=n).map(|rank| model.exposure(rank)).collect();
        let pool_exposure: f64 = exposures.iter().sum();
        let pool_relevance: f64 = present.iter().copied().flatten().sum();
        let targets: Vec<f64> = present
            .iter()
            .map(|c| pool_exposure * (c.iter().sum::<f64>() / pool_relevance) / c.len() as f64)
            .collect();
        let costs =
            targets.iter().flat_map(|&t| exposures.iter().map(move |&e| (e - t).abs())).collect();
        (present.iter().map(|c| c.len() as u64).collect(), vec![1; n], costs)
    }

    fn plan_cost(flow: &[Vec<u64>], costs: &[f64]) -> f64 {
        flow.iter().flatten().zip(costs).map(|(&f, &c)| f as f64 * c).sum()
    }

    fn assert_balanced(flow: &[Vec<u64>], supply: &[u64], demand: &[u64], case: usize) {
        for (i, row) in flow.iter().enumerate() {
            assert_eq!(row.iter().sum::<u64>(), supply[i], "case {case}: row {i}");
        }
        for (j, &d) in demand.iter().enumerate() {
            assert_eq!(flow.iter().map(|r| r[j]).sum::<u64>(), d, "case {case}: column {j}");
        }
    }

    #[test]
    fn early_exit_plans_equal_full_search_on_exposure_costs() {
        let models = [DiscountModel::NaturalLog, DiscountModel::Log2, DiscountModel::Reciprocal];
        let mut rng = Rng(0x7a5e_e0c5);
        for case in 0..6_000 {
            let (supply, demand, costs) = exposure_instance(&mut rng, models[case % 3]);
            let m = demand.len();
            let fast = transport(&supply, &demand, &costs, m);
            let full = full_search_transport(&supply, &demand, &costs, m);
            assert_eq!(fast.flow, full.flow, "case {case}: supply {supply:?}, costs {costs:?}");
            assert_eq!(fast.cost.to_bits(), full.cost.to_bits(), "case {case}: path-sum cost");
        }
    }

    #[test]
    fn early_exit_plans_are_minimal_on_arbitrary_costs() {
        let mut rng = Rng(0xc057_5eed);
        for case in 0..8_000 {
            let (n, m) = (rng.range(1, 8), rng.range(1, 12));
            let supply: Vec<u64> = (0..n).map(|_| rng.range(0, 6) as u64).collect();
            let mut demand = vec![0u64; m];
            for _ in 0..supply.iter().sum::<u64>() {
                demand[rng.range(0, m - 1)] += 1;
            }
            let integral = case % 2 == 0;
            let costs: Vec<f64> = (0..n * m)
                .map(|_| if integral { rng.range(0, 3) as f64 } else { rng.unit() * 10.0 })
                .collect();
            let fast = transport(&supply, &demand, &costs, m).flow;
            let full = full_search_transport(&supply, &demand, &costs, m).flow;
            assert_balanced(&fast, &supply, &demand, case);
            let (a, b) = (plan_cost(&fast, &costs), plan_cost(&full, &costs));
            assert!((a - b).abs() <= 1e-9 * b.max(1.0), "case {case}: cost {a} vs optimum {b}");
        }
    }

    #[test]
    fn triangle_inequality_on_sample() {
        let a = hist(&[0.1, 0.2]);
        let b = hist(&[0.5, 0.6]);
        let c = hist(&[0.9, 0.95]);
        let ab = emd_1d(&a, &b).unwrap();
        let bc = emd_1d(&b, &c).unwrap();
        let ac = emd_1d(&a, &c).unwrap();
        assert!(ac <= ab + bc + 1e-12);
    }
}
