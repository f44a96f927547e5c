//! Typed reduction operators for first-class `forall` reductions.
//!
//! Kali programs are sequences of `forall`s interleaved with *global
//! reductions* — convergence tests, dot products — yet a reduction performed
//! with an ad-hoc `allreduce_sum_f64` call lives outside the planned
//! pipeline: uncosted, uncounted, and rounded however the backend happens to
//! combine.  This module makes the combining rule itself a typed value:
//!
//! * [`ReduceOp`] — one reduction semantics: an input type (what each loop
//!   iteration contributes), an accumulator type, an identity, a `lift` from
//!   input to accumulator, a `combine`, and a `finish` (e.g. the square root
//!   of a 2-norm).
//! * [`Sum`], [`Min`], [`Max`], [`Norm2`] — the built-in combiners.
//! * [`Reduce`] — the zero-sized token naming an op at a call site:
//!   `execute_reduce(…, Reduce::<Sum<f64>>::new(), …)`.
//!
//! ## Determinism contract
//!
//! Floating-point combining is not associative, so the *order* of a
//! reduction is part of its semantics.  Every reduction built on this module
//! uses one fixed order, everywhere:
//!
//! 1. each rank folds its contributions in **ascending iteration order**
//!    starting from the identity ([`ReduceOp::fold`]);
//! 2. the per-rank partials are combined with the **fixed binomial-tree
//!    bracketing** ([`tree_combine_partials`]): at stride 1 partials of
//!    ranks `2k` and `2k+1` combine (lower rank on the left), at stride 2
//!    the survivors `4k` and `4k+2` combine, and so on — the bracketing is
//!    a function of the rank count alone, never of timing or backend.  The
//!    generic [`Process::allreduce`](crate::Process::allreduce) realises
//!    exactly this bracketing as a binomial-tree reduce to rank 0 followed
//!    by a broadcast (`2(P−1)` messages instead of the flat allgather's
//!    `P·(P−1)`).
//!
//! A sequential replay that folds the same per-rank partial structure with
//! the same helpers reproduces the distributed result **bit for bit**; the
//! solvers' replays (`cg_sequential`, `redblack_sequential`) and the
//! reduction-determinism tests rely on this.  [`combine_partials`] (the
//! flat ascending-rank fold the collective used before the tree) is kept
//! for callers that want a plain left-to-right fold; it is **not** the
//! collective's bracketing.

/// One typed reduction semantics (see the module docs for the determinism
/// contract).
///
/// `combine` must be associative over exact values; it need *not* be exactly
/// associative over floats — the fixed fold order makes the rounding
/// reproducible anyway.
pub trait ReduceOp {
    /// What each loop iteration contributes.
    type Input: Copy + Send + 'static;
    /// The accumulator (and result) type.  `Wire` because the cross-rank
    /// combine ships partials through [`Process::allreduce`], which on a
    /// multi-process backend crosses an actual process boundary.
    ///
    /// [`Process::allreduce`]: crate::Process::allreduce
    type Acc: Copy + PartialEq + std::fmt::Debug + crate::Wire;

    /// The identity every per-rank fold starts from.
    fn identity() -> Self::Acc;

    /// Turn one contribution into an accumulator (e.g. squaring for a
    /// 2-norm).
    fn lift(v: Self::Input) -> Self::Acc;

    /// Combine two accumulators (left argument is the running value).
    fn combine(a: Self::Acc, b: Self::Acc) -> Self::Acc;

    /// Final transformation applied once, after the cross-rank combine
    /// (e.g. the square root of a 2-norm).  Defaults to the identity.
    fn finish(acc: Self::Acc) -> Self::Acc {
        acc
    }

    /// Short name for reports ("sum", "min", …).
    fn name() -> &'static str;

    /// Fold contributions in the order given, starting from the identity —
    /// the per-rank half of the determinism contract.
    fn fold(values: impl IntoIterator<Item = Self::Input>) -> Self::Acc {
        values
            .into_iter()
            .fold(Self::identity(), |acc, v| Self::combine(acc, Self::lift(v)))
    }
}

/// Combine per-rank partials with a flat left-to-right fold in ascending
/// rank order.
///
/// This was the collective's bracketing before the tree allreduce; it is
/// kept as the plain sequential fold.  The cross-rank half of the
/// determinism contract is [`tree_combine_partials`] — use that to replay
/// what [`Process::allreduce`][ar] computes.
///
/// [ar]: crate::Process::allreduce
pub fn combine_partials<R: ReduceOp>(partials: impl IntoIterator<Item = R::Acc>) -> R::Acc {
    partials
        .into_iter()
        .reduce(R::combine)
        .expect("a reduction needs at least one rank's partial")
}

/// Combine per-rank partials with the fixed binomial-tree bracketing — the
/// cross-rank half of the determinism contract, shared by
/// [`Process::allreduce`][ar] and the solvers' sequential replays.
///
/// `partials[r]` must be rank `r`'s partial.  At each doubling stride `s`,
/// the surviving partial of rank `r` (a multiple of `2s`) absorbs the
/// partial of rank `r + s` when that rank exists — lower-rank operand on
/// the left.  The resulting bracketing, e.g. for 7 ranks
/// `((p0+p1)+(p2+p3)) + ((p4+p5)+p6)`, depends only on the rank count, so
/// every backend (and this replay) rounds identically.
///
/// [ar]: crate::Process::allreduce
pub fn tree_combine_partials<R: ReduceOp>(partials: impl IntoIterator<Item = R::Acc>) -> R::Acc {
    let mut v: Vec<R::Acc> = partials.into_iter().collect();
    assert!(
        !v.is_empty(),
        "a reduction needs at least one rank's partial"
    );
    let p = v.len();
    let mut stride = 1;
    while stride < p {
        let mut r = 0;
        while r + stride < p {
            v[r] = R::combine(v[r], v[r + stride]);
            r += 2 * stride;
        }
        stride *= 2;
    }
    v[0]
}

/// The call-site token naming a reduction operator:
/// `Reduce::<Sum<f64>>::new()`.
#[derive(Debug, Clone, Copy)]
pub struct Reduce<R: ReduceOp> {
    _op: std::marker::PhantomData<R>,
}

impl<R: ReduceOp> Default for Reduce<R> {
    fn default() -> Self {
        Reduce::new()
    }
}

impl<R: ReduceOp> Reduce<R> {
    /// The token for reduction operator `R`.
    pub fn new() -> Self {
        Reduce {
            _op: std::marker::PhantomData,
        }
    }
}

/// Sum reduction (`+`), the dot-product / convergence-test combiner.
#[derive(Debug, Clone, Copy)]
pub struct Sum<T> {
    _t: std::marker::PhantomData<T>,
}

/// Minimum reduction.
#[derive(Debug, Clone, Copy)]
pub struct Min<T> {
    _t: std::marker::PhantomData<T>,
}

/// Maximum reduction.
#[derive(Debug, Clone, Copy)]
pub struct Max<T> {
    _t: std::marker::PhantomData<T>,
}

/// Euclidean norm: contributions are squared, summed, and square-rooted at
/// the end (`finish`).
#[derive(Debug, Clone, Copy)]
pub struct Norm2;

macro_rules! impl_sum {
    ($($t:ty => $name:literal),*) => {$(
        impl ReduceOp for Sum<$t> {
            type Input = $t;
            type Acc = $t;
            fn identity() -> $t { 0 as $t }
            fn lift(v: $t) -> $t { v }
            fn combine(a: $t, b: $t) -> $t { a + b }
            fn name() -> &'static str { $name }
        }
    )*};
}

impl_sum!(f64 => "sum-f64", u64 => "sum-u64", i64 => "sum-i64", usize => "sum-usize");

impl ReduceOp for Min<f64> {
    type Input = f64;
    type Acc = f64;
    fn identity() -> f64 {
        f64::INFINITY
    }
    fn lift(v: f64) -> f64 {
        v
    }
    fn combine(a: f64, b: f64) -> f64 {
        a.min(b)
    }
    fn name() -> &'static str {
        "min-f64"
    }
}

impl ReduceOp for Min<u64> {
    type Input = u64;
    type Acc = u64;
    fn identity() -> u64 {
        u64::MAX
    }
    fn lift(v: u64) -> u64 {
        v
    }
    fn combine(a: u64, b: u64) -> u64 {
        a.min(b)
    }
    fn name() -> &'static str {
        "min-u64"
    }
}

impl ReduceOp for Max<f64> {
    type Input = f64;
    type Acc = f64;
    fn identity() -> f64 {
        f64::NEG_INFINITY
    }
    fn lift(v: f64) -> f64 {
        v
    }
    fn combine(a: f64, b: f64) -> f64 {
        a.max(b)
    }
    fn name() -> &'static str {
        "max-f64"
    }
}

impl ReduceOp for Max<u64> {
    type Input = u64;
    type Acc = u64;
    fn identity() -> u64 {
        u64::MIN
    }
    fn lift(v: u64) -> u64 {
        v
    }
    fn combine(a: u64, b: u64) -> u64 {
        a.max(b)
    }
    fn name() -> &'static str {
        "max-u64"
    }
}

impl ReduceOp for Norm2 {
    type Input = f64;
    type Acc = f64;
    fn identity() -> f64 {
        0.0
    }
    fn lift(v: f64) -> f64 {
        v * v
    }
    fn combine(a: f64, b: f64) -> f64 {
        a + b
    }
    fn finish(acc: f64) -> f64 {
        acc.sqrt()
    }
    fn name() -> &'static str {
        "norm2"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_folds_in_the_given_order() {
        // Non-associative-sensitive values: a different fold order rounds
        // differently, so equality here pins the order down.
        let xs = [1.0e16, 1.0, -1.0e16, 1.0];
        let folded = Sum::<f64>::fold(xs);
        let mut manual = 0.0f64;
        for x in xs {
            manual += x;
        }
        assert_eq!(folded.to_bits(), manual.to_bits());
    }

    #[test]
    fn combine_partials_is_a_rank_ordered_fold() {
        let partials = [0.1f64, 0.2, 0.3, 0.4];
        let combined = combine_partials::<Sum<f64>>(partials);
        assert_eq!(combined.to_bits(), (((0.1f64 + 0.2) + 0.3) + 0.4).to_bits());
    }

    #[test]
    fn tree_combine_partials_uses_the_binomial_bracketing() {
        // Rounding-sensitive partials: the tree bracketing provably rounds
        // differently from the flat fold at 4+ ranks, so equality with the
        // hand-written tree pins the bracketing down.
        let p: Vec<f64> = (0..7).map(|r| 0.1 * (r as f64 + 1.0)).collect();
        let tree = tree_combine_partials::<Sum<f64>>(p.clone());
        let manual = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + p[6]);
        assert_eq!(tree.to_bits(), manual.to_bits());

        let four = tree_combine_partials::<Sum<f64>>(p[..4].to_vec());
        assert_eq!(four.to_bits(), ((p[0] + p[1]) + (p[2] + p[3])).to_bits());
        // ... and the bracketing is observable: with partials whose pairwise
        // sums are exact but whose flat prefix sums are not, the tree and
        // the flat fold round differently.
        let sensitive = [1.0e16, 1.0, 1.0, 1.0];
        let tree4 = tree_combine_partials::<Sum<f64>>(sensitive);
        let flat4 = combine_partials::<Sum<f64>>(sensitive);
        assert_eq!(tree4, 1.0e16 + 2.0);
        assert_ne!(tree4.to_bits(), flat4.to_bits());

        // Degenerate sizes.
        assert_eq!(tree_combine_partials::<Sum<f64>>([1.5]), 1.5);
        assert_eq!(tree_combine_partials::<Sum<f64>>([1.5, 2.5]), 4.0);
    }

    #[test]
    fn tree_and_flat_agree_for_exact_values() {
        for p in 1..=16usize {
            let partials: Vec<u64> = (0..p as u64).map(|r| r * r + 1).collect();
            assert_eq!(
                tree_combine_partials::<Sum<u64>>(partials.clone()),
                combine_partials::<Sum<u64>>(partials),
                "p = {p}"
            );
        }
    }

    #[test]
    fn min_max_identities_are_absorbing() {
        assert_eq!(Min::<f64>::fold([3.0, -1.0, 2.0]), -1.0);
        assert_eq!(Max::<f64>::fold([3.0, -1.0, 2.0]), 3.0);
        assert_eq!(Min::<f64>::fold(std::iter::empty()), f64::INFINITY);
        assert_eq!(Max::<u64>::fold([7, 2, 9]), 9);
        assert_eq!(Min::<u64>::fold([7, 2, 9]), 2);
        assert_eq!(Sum::<u64>::fold([7, 2, 9]), 18);
        assert_eq!(Sum::<usize>::fold([1, 2, 3]), 6);
        assert_eq!(Sum::<i64>::fold([-5, 2]), -3);
    }

    #[test]
    fn norm2_squares_and_roots() {
        let acc = Norm2::fold([3.0, 4.0]);
        assert_eq!(acc, 25.0);
        assert_eq!(Norm2::finish(acc), 5.0);
        assert_eq!(Norm2::name(), "norm2");
    }

    /// A typed reduction marks the event trace with its operator's name,
    /// and a trace crossing a process boundary decodes only names the wire
    /// table knows.
    #[test]
    fn built_in_operator_names_survive_a_shipped_trace() {
        fn known<R: ReduceOp>() -> bool {
            crate::wire::KNOWN_COLLECTIVE_OPS.contains(&R::name())
        }
        assert!(known::<Sum<f64>>() && known::<Sum<u64>>() && known::<Sum<i64>>());
        assert!(known::<Sum<usize>>() && known::<Min<f64>>() && known::<Min<u64>>());
        assert!(known::<Max<f64>>() && known::<Max<u64>>() && known::<Norm2>());
    }

    #[test]
    fn reduce_token_is_zero_sized() {
        assert_eq!(std::mem::size_of::<Reduce<Sum<f64>>>(), 0);
        let _ = Reduce::<Norm2>::new();
        let _ = Reduce::<Sum<f64>>::default();
    }
}
