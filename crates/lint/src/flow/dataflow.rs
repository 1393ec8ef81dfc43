//! A small forward-dataflow engine over [`Cfg`](super::cfg::Cfg)-shaped
//! successor lists: bitset facts, per-node gen/kill transfer functions,
//! and a worklist solver for *may* facts (a fact holds where it holds on
//! any incoming path) — reaching definitions.

use std::collections::VecDeque;

/// A fixed-width set of fact indices backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    bits: usize,
}

impl BitSet {
    /// The empty set over a universe of `bits` facts.
    pub fn empty(bits: usize) -> BitSet {
        BitSet { words: vec![0; bits.div_ceil(64)], bits }
    }

    /// Number of facts in the universe (not the population count).
    pub fn universe(&self) -> usize {
        self.bits
    }

    /// Adds `bit` to the set.
    pub fn insert(&mut self, bit: usize) {
        debug_assert!(bit < self.bits);
        self.words[bit / 64] |= 1u64 << (bit % 64);
    }

    /// Whether `bit` is in the set.
    pub fn contains(&self, bit: usize) -> bool {
        bit < self.bits && (self.words[bit / 64] >> (bit % 64)) & 1 == 1
    }

    /// `self ∪= other`; reports whether `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let next = *w | o;
            changed |= next != *w;
            *w = next;
        }
        changed
    }

    /// `self −= other` (set difference).
    pub fn subtract(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// Member indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.bits).filter(|&b| self.contains(b))
    }
}

/// Per-node in/out fact sets after the solver converges.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Facts holding on entry to each node.
    pub ins: Vec<BitSet>,
    /// Facts holding on exit from each node.
    pub outs: Vec<BitSet>,
}

/// Solves the forward dataflow problem `out[n] = gen[n] ∪ (in[n] − kill[n])`
/// with `in[n] = ∪ out[pred]` over `succ` by worklist iteration until
/// fixpoint. `gen`, `kill`, and `succ` must all have one entry per node;
/// in-sets start empty and only grow.
pub fn solve(succ: &[Vec<usize>], gen: &[BitSet], kill: &[BitSet]) -> Solution {
    let n = succ.len();
    let bits = gen.first().map(BitSet::universe).unwrap_or(0);
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (from, outs) in succ.iter().enumerate() {
        for &to in outs {
            preds[to].push(from);
        }
    }

    let mut ins: Vec<BitSet> = vec![BitSet::empty(bits); n];
    // Seed every node's out with its own transfer so single-visit nodes
    // are correct even before any propagation reaches them.
    let mut outs: Vec<BitSet> = (0..n)
        .map(|node| {
            let mut out = BitSet::empty(bits);
            out.union_with(&gen[node]);
            out
        })
        .collect();

    let mut queue: VecDeque<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(node) = queue.pop_front() {
        queued[node] = false;
        let mut inset = BitSet::empty(bits);
        for &p in &preds[node] {
            inset.union_with(&outs[p]);
        }
        let mut out = inset.clone();
        out.subtract(&kill[node]);
        out.union_with(&gen[node]);
        ins[node] = inset;
        if out != outs[node] {
            outs[node] = out;
            for &s in &succ[node] {
                if !queued[s] {
                    queued[s] = true;
                    queue.push_back(s);
                }
            }
        }
    }
    Solution { ins, outs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(bits: usize, members: &[usize]) -> BitSet {
        let mut s = BitSet::empty(bits);
        for &m in members {
            s.insert(m);
        }
        s
    }

    #[test]
    fn reaching_defs_union_over_a_diamond() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3; defs: node 1 gens fact 0,
        // node 2 gens fact 1 and both kill each other's fact.
        let succ = vec![vec![1, 2], vec![3], vec![3], vec![]];
        let gen = vec![set(2, &[]), set(2, &[0]), set(2, &[1]), set(2, &[])];
        let kill = vec![set(2, &[]), set(2, &[1]), set(2, &[0]), set(2, &[])];
        let sol = solve(&succ, &gen, &kill);
        assert_eq!(sol.ins[3], set(2, &[0, 1]), "both branches' defs reach the join");
    }

    #[test]
    fn loops_converge_and_kill_works() {
        // 0 -> 1 -> 2 -> 1 (loop), 2 -> 3. Node 0 gens fact 0; node 2
        // kills it. After the loop body the fact must be gone.
        let succ = vec![vec![1], vec![2], vec![1, 3], vec![]];
        let gen = vec![set(1, &[0]), set(1, &[]), set(1, &[]), set(1, &[])];
        let kill = vec![set(1, &[]), set(1, &[]), set(1, &[0]), set(1, &[])];
        let sol = solve(&succ, &gen, &kill);
        assert!(!sol.ins[3].contains(0));
        assert!(sol.ins[1].contains(0), "first iteration still sees it");
    }
}
