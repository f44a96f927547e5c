//! Multi-dimensional array decompositions (paper §2.2, Figure 1).
//!
//! Kali distributes an array by giving one pattern per array dimension —
//! `dist by [block, *]` distributes the rows by blocks and keeps whole rows
//! together (`*` means "not distributed").  The number of distributed
//! dimensions must match the dimensionality of the processor array, exactly
//! as in the paper.  Arrays with no `dist` clause are replicated.

use crate::dist::DimDist;
use crate::distribution::{fnv1a, push_run, runs_if_long, Distribution, LocalRun, MIN_MEAN_RUN};
use crate::grid::ProcGrid;
use crate::index::{IndexRange, IndexSet};

/// How one array dimension is mapped.
#[derive(Debug, Clone)]
pub enum DimAssign {
    /// The dimension is distributed across one dimension of the processor
    /// grid using the given pattern.
    Distributed(DimDist),
    /// The dimension is not distributed (`*` in Kali): every owner of the
    /// distributed dimensions stores the full extent of this dimension.
    Star(usize),
}

impl DimAssign {
    /// Extent of the array dimension.
    pub fn extent(&self) -> usize {
        match self {
            DimAssign::Distributed(d) => d.n(),
            DimAssign::Star(n) => *n,
        }
    }

    /// Stable identity of the assignment (see
    /// [`Distribution::fingerprint`]); `*` dimensions hash their extent.
    pub fn fingerprint(&self) -> u64 {
        match self {
            DimAssign::Distributed(d) => d.fingerprint(),
            DimAssign::Star(n) => fnv1a([u64::MAX, *n as u64]),
        }
    }
}

/// The distribution of a (possibly multi-dimensional) array over a
/// processor grid.
#[derive(Debug, Clone)]
pub struct ArrayDist {
    grid: ProcGrid,
    dims: Vec<DimAssign>,
    /// Positions of the distributed dimensions, in array-dimension order.
    distributed_dims: Vec<usize>,
}

impl ArrayDist {
    /// Create a distribution.  The number of [`DimAssign::Distributed`]
    /// entries must equal the dimensionality of the processor grid (the
    /// paper's rule), and each distributed dimension must be spread over the
    /// same number of processors as the corresponding grid dimension.
    pub fn new(grid: ProcGrid, dims: Vec<DimAssign>) -> Self {
        let distributed_dims: Vec<usize> = dims
            .iter()
            .enumerate()
            .filter_map(|(i, d)| matches!(d, DimAssign::Distributed(_)).then_some(i))
            .collect();
        assert_eq!(
            distributed_dims.len(),
            grid.ndims(),
            "the number of distributed array dimensions ({}) must match the \
             processor-array dimensionality ({})",
            distributed_dims.len(),
            grid.ndims()
        );
        for (k, &dim) in distributed_dims.iter().enumerate() {
            if let DimAssign::Distributed(d) = &dims[dim] {
                assert_eq!(
                    d.nprocs(),
                    grid.extent(k),
                    "array dimension {dim} is distributed over {} processors but grid \
                     dimension {k} has extent {}",
                    d.nprocs(),
                    grid.extent(k)
                );
            }
        }
        ArrayDist {
            grid,
            dims,
            distributed_dims,
        }
    }

    /// A fully replicated array (no `dist` clause): one copy per processor.
    pub fn replicated(grid: ProcGrid, shape: &[usize]) -> Self {
        let dims = shape.iter().map(|&n| DimAssign::Star(n)).collect();
        ArrayDist {
            grid,
            dims,
            distributed_dims: Vec::new(),
        }
    }

    /// A one-dimensional array distributed by blocks over a 1-D grid —
    /// the most common declaration in the paper (`dist by [ block ]`).
    pub fn block_1d(n: usize, p: usize) -> Self {
        ArrayDist::new(
            ProcGrid::new_1d(p),
            vec![DimAssign::Distributed(DimDist::block(n, p))],
        )
    }

    /// A two-dimensional array whose rows are distributed by blocks and whose
    /// columns stay together (`dist by [ block, * ]`), as used for the `adj`
    /// and `coef` arrays in Figure 4.
    pub fn block_rows(rows: usize, cols: usize, p: usize) -> Self {
        ArrayDist::new(
            ProcGrid::new_1d(p),
            vec![
                DimAssign::Distributed(DimDist::block(rows, p)),
                DimAssign::Star(cols),
            ],
        )
    }

    /// A two-dimensional array whose columns are distributed by blocks and
    /// whose rows stay together (`dist by [ *, block ]`) — the phase-change
    /// counterpart of [`ArrayDist::block_rows`] used when a program switches
    /// from row-oriented to column-oriented sweeps.
    pub fn block_cols(rows: usize, cols: usize, p: usize) -> Self {
        ArrayDist::new(
            ProcGrid::new_1d(p),
            vec![
                DimAssign::Star(rows),
                DimAssign::Distributed(DimDist::block(cols, p)),
            ],
        )
    }

    /// The processor grid this array is distributed over.
    pub fn grid(&self) -> &ProcGrid {
        &self.grid
    }

    /// Shape of the global array.
    pub fn shape(&self) -> Vec<usize> {
        self.dims.iter().map(|d| d.extent()).collect()
    }

    /// Per-dimension assignments.
    pub fn dims(&self) -> &[DimAssign] {
        &self.dims
    }

    /// True when the array is fully replicated.
    pub fn is_replicated(&self) -> bool {
        self.distributed_dims.is_empty()
    }

    /// Owning processor rank of a global multi-index, or `None` for a
    /// replicated array (every processor holds a copy).
    pub fn owner(&self, index: &[usize]) -> Option<usize> {
        assert_eq!(index.len(), self.dims.len(), "index arity mismatch");
        if self.is_replicated() {
            return None;
        }
        let coords: Vec<usize> = self
            .distributed_dims
            .iter()
            .map(|&dim| match &self.dims[dim] {
                DimAssign::Distributed(d) => d.owner(index[dim]),
                DimAssign::Star(_) => unreachable!(),
            })
            .collect();
        Some(self.grid.rank(&coords))
    }

    /// True when processor `rank` stores the element at `index` (always true
    /// for replicated arrays).
    pub fn is_local(&self, rank: usize, index: &[usize]) -> bool {
        self.owner(index).is_none_or(|o| o == rank)
    }

    /// Shape of the local piece stored on `rank`.
    pub fn local_shape(&self, rank: usize) -> Vec<usize> {
        let coords = if self.is_replicated() {
            Vec::new()
        } else {
            self.grid.coords(rank)
        };
        let mut k = 0usize;
        self.dims
            .iter()
            .map(|d| match d {
                DimAssign::Distributed(dist) => {
                    let c = coords[k];
                    k += 1;
                    dist.local_count(c)
                }
                DimAssign::Star(n) => *n,
            })
            .collect()
    }

    /// Number of elements stored on `rank`.
    pub fn local_len(&self, rank: usize) -> usize {
        self.local_shape(rank).iter().product()
    }

    /// Translate a global multi-index into the owner's local multi-index.
    pub fn global_to_local(&self, index: &[usize]) -> Vec<usize> {
        assert_eq!(index.len(), self.dims.len(), "index arity mismatch");
        self.dims
            .iter()
            .zip(index)
            .map(|(d, &i)| match d {
                DimAssign::Distributed(dist) => dist.local_index(i),
                DimAssign::Star(_) => i,
            })
            .collect()
    }

    /// Translate a local multi-index on `rank` back to the global index.
    pub fn local_to_global(&self, rank: usize, local: &[usize]) -> Vec<usize> {
        assert_eq!(local.len(), self.dims.len(), "index arity mismatch");
        let coords = if self.is_replicated() {
            Vec::new()
        } else {
            self.grid.coords(rank)
        };
        let mut k = 0usize;
        self.dims
            .iter()
            .zip(local)
            .map(|(d, &l)| match d {
                DimAssign::Distributed(dist) => {
                    let c = coords[k];
                    k += 1;
                    dist.global_index(c, l)
                }
                DimAssign::Star(_) => l,
            })
            .collect()
    }

    /// The distribution pattern of array dimension 0, if it is distributed.
    ///
    /// The paper's example programs all distribute the first dimension and
    /// keep the rest with `*`, so this accessor is used heavily by the
    /// solver layer.
    pub fn row_dist(&self) -> Option<&DimDist> {
        match self.dims.first() {
            Some(DimAssign::Distributed(d)) => Some(d),
            _ => None,
        }
    }

    /// Number of array dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// The global indices `rank` owns along array dimension `dim`: the full
    /// extent for a `*` dimension, the per-dimension `local(coord)` set for a
    /// distributed one.  Ownership of a multi-index factorises over
    /// dimensions, so the owned set of the whole array is the Cartesian
    /// product of these per-dimension sets (see [`FlatDist::local_set`]).
    pub fn owned_along(&self, dim: usize, rank: usize) -> IndexSet {
        match &self.dims[dim] {
            DimAssign::Star(n) => IndexSet::from_range(0, *n),
            DimAssign::Distributed(d) => {
                let axis = self
                    .distributed_dims
                    .iter()
                    .position(|&x| x == dim)
                    .expect("distributed dim is registered");
                let coord = self.grid.coords(rank)[axis];
                d.local_set(coord)
            }
        }
    }

    /// Stable identity of the whole decomposition — grid layout plus every
    /// per-dimension assignment — for schedule-cache keys (the multi-dim
    /// analogue of [`Distribution::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        let words = std::iter::once(0x4D44u64) // "MD" tag
            .chain(self.grid.dims().iter().map(|&d| d as u64))
            .chain(std::iter::once(u64::MAX))
            .chain(self.dims.iter().map(DimAssign::fingerprint));
        fnv1a(words)
    }
}

/// Row-major linearisation of a multi-index into `shape`.
pub fn flatten_index(shape: &[usize], idx: &[usize]) -> usize {
    debug_assert_eq!(shape.len(), idx.len(), "index arity mismatch");
    let mut flat = 0usize;
    for (&n, &i) in shape.iter().zip(idx) {
        debug_assert!(i < n, "index {i} outside dimension extent {n}");
        flat = flat * n + i;
    }
    flat
}

/// Inverse of [`flatten_index`]: recover the multi-index from the row-major
/// linear index.
pub fn unflatten_index(shape: &[usize], flat: usize) -> Vec<usize> {
    let mut idx = vec![0usize; shape.len()];
    let mut rest = flat;
    for (k, &n) in shape.iter().enumerate().rev() {
        idx[k] = rest % n;
        rest /= n;
    }
    debug_assert_eq!(rest, 0, "flat index outside the array");
    idx
}

/// The row-major flattening of a Cartesian product of per-dimension index
/// sets: `{ flatten(i_0, …, i_{d-1}) | i_k ∈ dims[k] }`.
///
/// Because the flat index of the last dimension is contiguous, every range of
/// the last dimension's set stays one flat range; outer dimensions contribute
/// base offsets.  This is how per-dimension closed forms (owned sets, exec
/// sets, halo sets) become the flat [`IndexSet`]s the 1-D analysis machinery
/// consumes.
pub fn product_flat(dims: &[IndexSet], shape: &[usize]) -> IndexSet {
    assert_eq!(dims.len(), shape.len(), "set arity mismatch");
    assert!(!dims.is_empty(), "need at least one dimension");
    if dims.iter().any(IndexSet::is_empty) {
        return IndexSet::new();
    }
    let mut bases: Vec<usize> = vec![0];
    for (d, set) in dims.iter().enumerate().take(dims.len() - 1) {
        let stride: usize = shape[d + 1..].iter().product();
        let mut next = Vec::with_capacity(bases.len() * set.len());
        for &b in &bases {
            for i in set.iter() {
                next.push(b + i * stride);
            }
        }
        bases = next;
    }
    let last = &dims[dims.len() - 1];
    IndexSet::from_ranges(bases.iter().flat_map(|&b| {
        last.ranges()
            .iter()
            .map(move |r| IndexRange::new(b + r.start, b + r.end))
    }))
}

/// The most array dimensions a [`FlatDist`] supports (bounds the stack
/// scratch its allocation-free translation paths use).
const MAX_FLAT_DIMS: usize = 8;

/// The row-major *flattened* view of an [`ArrayDist`]: a 1-D
/// [`Distribution`] over `0..shape.product()` whose owner function, local
/// storage layout and owned sets are those of the multi-dimensional
/// decomposition.
///
/// This is the bridge between `dist by [block, *]`-style declarations and the
/// 1-D runtime: wrap the `ArrayDist` in a `FlatDist` and the inspector,
/// executor, schedule cache and redistribution all operate on the
/// multi-dimensional array unchanged — local storage is the row-major
/// linearisation of the rank's local shape, exactly how a compiler would lay
/// out the local piece.
///
/// ## Memoised translation
///
/// [`FlatDist::owner`] and [`FlatDist::local_index`] sit on the inspector's
/// innermost path (one locality check *per reference*) and on the executor's
/// fetch path, and [`FlatDist::global_index`] on every scatter and gather of
/// a whole field, so the definitional route — unflatten into a fresh `Vec`,
/// dispatch per-dimension owner calls, re-flatten through the owner's local
/// shape — is construction-time work, not per-call work.  `new` memoises,
/// per array dimension, the owner's **rank contribution** (the per-dimension
/// owner composed with the grid stride) and the **local coordinate** of
/// every global coordinate (and its inverse per grid coordinate), plus each
/// rank's local row-major strides; all three calls then strength-reduce to
/// one div-mod chain over the shape with table lookups — no allocation, no
/// virtual dispatch.  The tables cost
/// `O(Σ_d extent_d)` words, negligible next to the array itself.
#[derive(Debug, Clone)]
pub struct FlatDist {
    array: ArrayDist,
    shape: Vec<usize>,
    n: usize,
    local_shapes: Vec<Vec<usize>>,
    local_counts: Vec<usize>,
    fingerprint: u64,
    /// Per array dimension: each global coordinate's contribution to the
    /// owning rank (per-dimension owner × grid stride); `None` for `*`
    /// dimensions, which contribute nothing.
    rank_contrib: Vec<Option<Vec<usize>>>,
    /// Per array dimension: the local coordinate of each global coordinate;
    /// `None` for `*` dimensions, where local = global.
    local_along: Vec<Option<Vec<usize>>>,
    /// Per array dimension, the inverse of `local_along`: the grid stride of
    /// the dimension's axis and, for each grid coordinate along it, the
    /// global coordinate of every local coordinate; `None` for `*`.
    global_along: Vec<Option<(usize, Vec<Vec<usize>>)>>,
    /// Row-major strides of each rank's local shape.
    local_strides: Vec<Vec<usize>>,
}

impl FlatDist {
    /// Flatten a decomposition.  The array must have at least one distributed
    /// dimension (a replicated array has no owner function to flatten).
    pub fn new(array: ArrayDist) -> Self {
        assert!(
            !array.is_replicated(),
            "a replicated array has no owner function to flatten"
        );
        let shape = array.shape();
        assert!(
            shape.len() <= MAX_FLAT_DIMS,
            "FlatDist supports at most {MAX_FLAT_DIMS} dimensions"
        );
        let n = shape.iter().product();
        let nprocs = array.grid().len();
        let local_shapes: Vec<Vec<usize>> = (0..nprocs).map(|r| array.local_shape(r)).collect();
        let local_counts: Vec<usize> = local_shapes.iter().map(|s| s.iter().product()).collect();
        let fingerprint = array.fingerprint();

        // Memoised per-dimension owner/local tables (see the type docs).
        let mut rank_contrib: Vec<Option<Vec<usize>>> = vec![None; shape.len()];
        let mut local_along: Vec<Option<Vec<usize>>> = vec![None; shape.len()];
        let mut global_along: Vec<Option<(usize, Vec<Vec<usize>>)>> = vec![None; shape.len()];
        let mut axis = 0usize;
        for (d, assign) in array.dims().iter().enumerate() {
            if let DimAssign::Distributed(dist) = assign {
                let gstride: usize = array.grid().dims()[axis + 1..].iter().product();
                rank_contrib[d] = Some((0..dist.n()).map(|i| dist.owner(i) * gstride).collect());
                local_along[d] = Some((0..dist.n()).map(|i| dist.local_index(i)).collect());
                let globals_of = |c: usize| {
                    (0..dist.local_count(c))
                        .map(|l| dist.global_index(c, l))
                        .collect()
                };
                global_along[d] = Some((gstride, (0..dist.nprocs()).map(globals_of).collect()));
                axis += 1;
            }
        }
        let local_strides: Vec<Vec<usize>> = local_shapes
            .iter()
            .map(|ls| {
                let mut strides = vec![1usize; ls.len()];
                for d in (0..ls.len().saturating_sub(1)).rev() {
                    strides[d] = strides[d + 1] * ls[d + 1];
                }
                strides
            })
            .collect();

        FlatDist {
            array,
            shape,
            n,
            local_shapes,
            local_counts,
            fingerprint,
            rank_contrib,
            local_along,
            global_along,
            local_strides,
        }
    }

    /// One reverse div-mod pass over the shape: recover the multi-index
    /// digits into `digits` (stack scratch) and accumulate the owning rank
    /// from the memoised per-dimension contributions.
    #[inline]
    fn digits_and_rank(&self, flat: usize, digits: &mut [usize; MAX_FLAT_DIMS]) -> usize {
        let mut rest = flat;
        let mut rank = 0usize;
        for d in (0..self.shape.len()).rev() {
            let digit = rest % self.shape[d];
            rest /= self.shape[d];
            digits[d] = digit;
            if let Some(contrib) = &self.rank_contrib[d] {
                rank += contrib[digit];
            }
        }
        debug_assert_eq!(rest, 0, "flat index outside the array");
        rank
    }

    /// The underlying multi-dimensional decomposition.
    pub fn array(&self) -> &ArrayDist {
        &self.array
    }

    /// Shape of the global array.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of array dimensions.
    pub fn ndims(&self) -> usize {
        self.shape.len()
    }

    /// Row-major flat index of a global multi-index.
    pub fn flatten(&self, idx: &[usize]) -> usize {
        flatten_index(&self.shape, idx)
    }

    /// Global multi-index of a row-major flat index.
    pub fn unflatten(&self, flat: usize) -> Vec<usize> {
        unflatten_index(&self.shape, flat)
    }
}

impl Distribution for FlatDist {
    fn n(&self) -> usize {
        self.n
    }

    fn nprocs(&self) -> usize {
        self.array.grid().len()
    }

    fn owner(&self, i: usize) -> usize {
        debug_assert!(i < self.n, "index {i} out of bounds (n = {})", self.n);
        let mut digits = [0usize; MAX_FLAT_DIMS];
        self.digits_and_rank(i, &mut digits)
    }

    fn local_index(&self, i: usize) -> usize {
        debug_assert!(i < self.n, "index {i} out of bounds (n = {})", self.n);
        let mut digits = [0usize; MAX_FLAT_DIMS];
        let rank = self.digits_and_rank(i, &mut digits);
        let strides = &self.local_strides[rank];
        let mut l = 0usize;
        for d in 0..self.shape.len() {
            let local = match &self.local_along[d] {
                Some(table) => table[digits[d]],
                None => digits[d],
            };
            l += local * strides[d];
        }
        l
    }

    fn global_index(&self, rank: usize, l: usize) -> usize {
        // One reverse div-mod pass over the rank's local shape, each local
        // digit mapped to its global coordinate and weighted by the global
        // row-major stride.
        let local_shape = &self.local_shapes[rank];
        let (mut rest, mut flat, mut stride) = (l, 0usize, 1usize);
        for d in (0..self.shape.len()).rev() {
            let digit = rest % local_shape[d];
            rest /= local_shape[d];
            let global = match &self.global_along[d] {
                Some((gstride, by_coord)) => by_coord[rank / gstride % by_coord.len()][digit],
                None => digit,
            };
            flat += global * stride;
            stride *= self.shape[d];
        }
        debug_assert_eq!(rest, 0, "local offset outside rank {rank}'s storage");
        flat
    }

    fn local_count(&self, rank: usize) -> usize {
        self.local_counts[rank]
    }

    fn local_set(&self, rank: usize) -> IndexSet {
        let dims: Vec<IndexSet> = (0..self.shape.len())
            .map(|d| self.array.owned_along(d, rank))
            .collect();
        product_flat(&dims, &self.shape)
    }

    fn local_runs(&self, rank: usize) -> Option<Vec<LocalRun>> {
        // One run per owned row segment: the owned set is the Cartesian
        // product of the per-dimension owned sets, the flat index is
        // contiguous along the last dimension only, and local storage is
        // row-major over the local shape — so a segment of the last
        // dimension that is contiguous globally *and* locally stays one run
        // under every combination of outer coordinates.  `push_run` then
        // joins segments that continue each other across rows (`[block, *]`
        // collapses to a single run).
        let last = self.shape.len() - 1;
        let local_along = |d: usize, i: usize| match &self.local_along[d] {
            Some(table) => table[i],
            None => i,
        };
        let mut segments = Vec::new();
        for i in self.array.owned_along(last, rank).iter() {
            push_run(
                &mut segments,
                LocalRun {
                    low: i,
                    high: i + 1,
                    local_base: local_along(last, i),
                },
            );
        }
        // Several segments per row never join within a row, and rows join at
        // most pairwise, so the runs outnumber `rows · (segments − 1)`: when
        // even that bound fails the length rule, skip enumerating them.
        let owned_last: usize = segments.iter().map(LocalRun::len).sum();
        if segments.len() > 1 && owned_last < MIN_MEAN_RUN * (segments.len() - 1) {
            return None;
        }
        // (global, local) offsets of every owned outer-coordinate tuple, in
        // ascending global order.
        let mut rows = vec![(0usize, 0usize)];
        for (d, &lstride) in self.local_strides[rank].iter().enumerate().take(last) {
            let gstride: usize = self.shape[d + 1..].iter().product();
            let owned = self.array.owned_along(d, rank);
            rows = rows
                .iter()
                .flat_map(|&(g, l)| {
                    owned
                        .iter()
                        .map(move |i| (g + i * gstride, l + local_along(d, i) * lstride))
                })
                .collect();
        }
        let mut runs = Vec::new();
        for (g, l) in rows {
            for seg in &segments {
                push_run(
                    &mut runs,
                    LocalRun {
                        low: g + seg.low,
                        high: g + seg.high,
                        local_base: l + seg.local_base,
                    },
                );
            }
        }
        runs_if_long(runs)
    }

    fn kind_name(&self) -> &'static str {
        "multi-dim"
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_1d_owner_and_roundtrip() {
        let a = ArrayDist::block_1d(100, 4);
        assert_eq!(a.shape(), vec![100]);
        assert_eq!(a.owner(&[0]), Some(0));
        assert_eq!(a.owner(&[99]), Some(3));
        assert_eq!(a.local_shape(1), vec![25]);
        let l = a.global_to_local(&[30]);
        assert_eq!(a.local_to_global(1, &l), vec![30]);
    }

    #[test]
    fn block_rows_keeps_columns_together() {
        let a = ArrayDist::block_rows(16, 4, 4);
        assert_eq!(a.shape(), vec![16, 4]);
        // Whole rows live on one processor regardless of column.
        for j in 0..4 {
            assert_eq!(a.owner(&[5, j]), Some(1));
        }
        assert_eq!(a.local_shape(2), vec![4, 4]);
        assert_eq!(a.local_len(2), 16);
        let l = a.global_to_local(&[9, 3]);
        assert_eq!(l, vec![1, 3]);
        assert_eq!(a.local_to_global(2, &l), vec![9, 3]);
    }

    #[test]
    fn replicated_arrays_have_no_owner() {
        let a = ArrayDist::replicated(ProcGrid::new_1d(4), &[10, 10]);
        assert!(a.is_replicated());
        assert_eq!(a.owner(&[3, 3]), None);
        assert!(a.is_local(2, &[3, 3]));
        assert_eq!(a.local_shape(0), vec![10, 10]);
    }

    #[test]
    fn two_dimensional_grid_distribution() {
        // A 6x6 array distributed [block, cyclic] over a 2x3 grid.
        let grid = ProcGrid::new_2d(2, 3);
        let a = ArrayDist::new(
            grid,
            vec![
                DimAssign::Distributed(DimDist::block(6, 2)),
                DimAssign::Distributed(DimDist::cyclic(6, 3)),
            ],
        );
        // Element (4, 5): row block 1, column 5 % 3 = 2 -> rank 1*3+2 = 5.
        assert_eq!(a.owner(&[4, 5]), Some(5));
        // Every element has exactly one owner and roundtrips.
        let mut counts = [0usize; 6];
        for i in 0..6 {
            for j in 0..6 {
                let o = a.owner(&[i, j]).unwrap();
                counts[o] += 1;
                let l = a.global_to_local(&[i, j]);
                assert_eq!(a.local_to_global(o, &l), vec![i, j]);
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), 36);
        for (rank, &c) in counts.iter().enumerate() {
            assert_eq!(c, a.local_len(rank), "rank {rank}");
        }
    }

    #[test]
    fn cyclic_rows_matches_figure_1_array_b() {
        // Figure 1: B : array[1..N,1..M] dist by [cyclic, *].
        let a = ArrayDist::new(
            ProcGrid::new_1d(10),
            vec![
                DimAssign::Distributed(DimDist::cyclic(100, 10)),
                DimAssign::Star(7),
            ],
        );
        // "processor 1 would store elements in rows 1, 11, 21, ..." (0-based:
        // processor 0 stores rows 0, 10, 20, ...).
        assert_eq!(a.owner(&[0, 3]), Some(0));
        assert_eq!(a.owner(&[10, 6]), Some(0));
        assert_eq!(a.owner(&[21, 0]), Some(1));
        assert_eq!(a.local_shape(0), vec![10, 7]);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_grid_dimensionality_panics() {
        ArrayDist::new(
            ProcGrid::new_2d(2, 2),
            vec![DimAssign::Distributed(DimDist::block(10, 4))],
        );
    }

    #[test]
    #[should_panic(expected = "has extent")]
    fn mismatched_processor_count_panics() {
        ArrayDist::new(
            ProcGrid::new_1d(4),
            vec![DimAssign::Distributed(DimDist::block(10, 5))],
        );
    }

    #[test]
    fn flatten_and_unflatten_roundtrip() {
        let shape = [3usize, 4, 5];
        for flat in 0..60 {
            let idx = unflatten_index(&shape, flat);
            assert_eq!(flatten_index(&shape, &idx), flat);
        }
        assert_eq!(flatten_index(&shape, &[2, 3, 4]), 59);
        assert_eq!(unflatten_index(&shape, 27), vec![1, 1, 2]);
    }

    #[test]
    fn product_flat_matches_explicit_enumeration() {
        let shape = [4usize, 6];
        let rows = IndexSet::from_ranges([IndexRange::new(0, 2), IndexRange::new(3, 4)]);
        let cols = IndexSet::from_ranges([IndexRange::new(1, 3), IndexRange::new(5, 6)]);
        let flat = product_flat(&[rows.clone(), cols.clone()], &shape);
        let mut expected = Vec::new();
        for i in rows.iter() {
            for j in cols.iter() {
                expected.push(i * 6 + j);
            }
        }
        expected.sort_unstable();
        assert_eq!(flat.iter().collect::<Vec<_>>(), expected);
        // An empty factor annihilates the product.
        assert!(product_flat(&[rows, IndexSet::new()], &shape).is_empty());
    }

    #[test]
    fn flat_dist_upholds_the_distribution_invariants() {
        let cases = vec![
            FlatDist::new(ArrayDist::block_1d(23, 4)),
            FlatDist::new(ArrayDist::block_rows(10, 7, 3)),
            FlatDist::new(ArrayDist::block_cols(10, 7, 3)),
            FlatDist::new(ArrayDist::new(
                ProcGrid::new_2d(2, 3),
                vec![
                    DimAssign::Distributed(DimDist::block(8, 2)),
                    DimAssign::Distributed(DimDist::cyclic(9, 3)),
                ],
            )),
        ];
        for d in cases {
            let n = d.n();
            let p = d.nprocs();
            let mut seen = vec![false; n];
            for rank in 0..p {
                let set = d.local_set(rank);
                assert_eq!(set.len(), d.local_count(rank), "count vs set, rank {rank}");
                for g in set.iter() {
                    assert!(!seen[g], "flat index {g} owned twice");
                    seen[g] = true;
                    assert_eq!(d.owner(g), rank);
                    let l = d.local_index(g);
                    assert!(l < d.local_count(rank));
                    assert_eq!(d.global_index(rank, l), g, "roundtrip of {g}");
                }
            }
            assert!(seen.into_iter().all(|s| s), "some flat index has no owner");
        }
    }

    #[test]
    fn flat_block_rows_local_storage_is_row_major() {
        // [block, *] on 8x3 over 4 procs: rank 1 owns rows 2..4, stored as
        // two contiguous rows of 3.
        let d = FlatDist::new(ArrayDist::block_rows(8, 3, 4));
        assert_eq!(d.local_count(1), 6);
        assert_eq!(d.local_index(d.flatten(&[2, 0])), 0);
        assert_eq!(d.local_index(d.flatten(&[2, 2])), 2);
        assert_eq!(d.local_index(d.flatten(&[3, 1])), 4);
        // The owned flat set is one contiguous range (whole rows).
        assert_eq!(d.local_set(1).range_count(), 1);
        // [*, block] on the same array: rank owns whole columns, so the
        // owned flat set is one strided range per row.
        let d = FlatDist::new(ArrayDist::block_cols(8, 12, 4));
        assert_eq!(d.local_set(1).range_count(), 8);
        assert_eq!(d.owner(d.flatten(&[5, 4])), 1);
        assert_eq!(d.local_index(d.flatten(&[5, 4])), 5 * 3 + 1);
    }

    #[test]
    fn memoised_owner_tables_agree_with_the_definitional_route() {
        // The memoised owner/local_index strength reduction must be
        // observationally identical to the definitional computation
        // (unflatten → per-dimension owner → grid rank → local flatten).
        let cases = vec![
            FlatDist::new(ArrayDist::block_rows(13, 7, 4)),
            FlatDist::new(ArrayDist::block_cols(9, 11, 3)),
            FlatDist::new(ArrayDist::new(
                ProcGrid::new_2d(2, 3),
                vec![
                    DimAssign::Distributed(DimDist::block(10, 2)),
                    DimAssign::Distributed(DimDist::cyclic(7, 3)),
                ],
            )),
            FlatDist::new(ArrayDist::new(
                ProcGrid::new(&[2, 2]),
                vec![
                    DimAssign::Distributed(DimDist::cyclic(5, 2)),
                    DimAssign::Star(4),
                    DimAssign::Distributed(DimDist::block_cyclic(9, 2, 2)),
                ],
            )),
        ];
        for d in cases {
            for i in 0..d.n() {
                let idx = d.unflatten(i);
                let rank = d.array().owner(&idx).expect("not replicated");
                assert_eq!(d.owner(i), rank, "owner of flat {i}");
                let local = d.array().global_to_local(&idx);
                let definitional = flatten_index(&d.array().local_shape(rank), &local);
                assert_eq!(d.local_index(i), definitional, "local_index of flat {i}");
            }
        }
    }

    #[test]
    fn fingerprints_distinguish_decompositions() {
        let fps = [
            ArrayDist::block_rows(16, 4, 4).fingerprint(),
            ArrayDist::block_cols(16, 4, 4).fingerprint(),
            ArrayDist::block_rows(16, 5, 4).fingerprint(),
            ArrayDist::block_1d(64, 4).fingerprint(),
            ArrayDist::replicated(ProcGrid::new_1d(4), &[16, 4]).fingerprint(),
        ];
        for (i, a) in fps.iter().enumerate() {
            for (j, b) in fps.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "fingerprints {i} and {j} collide");
                }
            }
        }
        assert_eq!(
            ArrayDist::block_rows(16, 4, 4).fingerprint(),
            ArrayDist::block_rows(16, 4, 4).fingerprint()
        );
        assert_eq!(
            FlatDist::new(ArrayDist::block_rows(16, 4, 4)).fingerprint(),
            ArrayDist::block_rows(16, 4, 4).fingerprint()
        );
    }

    #[test]
    #[should_panic(expected = "replicated")]
    fn flattening_a_replicated_array_panics() {
        FlatDist::new(ArrayDist::replicated(ProcGrid::new_1d(4), &[10]));
    }
}
