//! Algorithm Construct: build the distributed range tree in `d` phases,
//! each a constant number of h-relations.
//!
//! Phase `j` receives the phase records `S^j` — one `(hat tree, point)`
//! pair for every point of every dimension-`j` segment tree whose hat
//! part is non-trivial (`S^0` is the input itself, assigned to the
//! primary tree, hat tree 0) — and performs, per the paper:
//!
//! 1. **sort** `S^j` by `(tree, rank_j)`, so every tree's points are
//!    contiguous and ordered (one sample all-gather + one bucket
//!    exchange), and hold each tree's run as a stretch of points. `S^0`'s
//!    records are the bare points: a share dealt in dimension-0 order
//!    stays where it is, in the buffer it came in;
//! 2. **scan**: all-gather the per-processor per-tree counts, from which
//!    every processor derives — identically — each tree's total size,
//!    its own offset inside each tree, and the global forest-id
//!    numbering (trees in label order, see [`crate::dist::hat`]; groups
//!    of `g = n/p` in rank order);
//! 3. **deal**: route every record to the home of its group,
//!    `owner(fid) = fid mod p` — the round-robin deal of the forest. A
//!    group travels as runs, one piece per sender, which the model meters
//!    as the `(tree, group, point)` records it carries. A stretch inside
//!    one group is moved, not copied: each share of `S^0` in the even
//!    deal is its own group `r` of tree 0, whose home is `r`;
//! 4. locally build each received group's forest subtree (a
//!    `(d-j)`-dimensional [`DimTree`] on `g` points, pads included so
//!    sizes stay exact powers of two) on its pieces: a lone piece is the
//!    tree's leaves, several are put end to end into `g` points;
//! 5. **summary broadcast**: all-gather per-group summaries `(interval,
//!    real count, fid)`, from which every processor assembles the
//!    identical hat replica for this dimension; then locally emit
//!    `S^(j+1)` — each owned group's points, once per internal hat
//!    ancestor of its leaf (the descendant structures of hat nodes), in
//!    dimension `j+1` order: step 1 never meets an unsorted run (`S^0` is
//!    dealt in dimension-0 order), so its sort is a scan and a merge. A
//!    one-leaf hat tree's group (every group at `p = 1`) emits nothing.
//!
//! That is 5 supersteps per dimension (sample, sort, deal, scan,
//! summary), `5d` in total — the constant-round bound of Corollary 1 —
//! and the phase volumes `|S^j| = n log^j p` of the paper's Section 5
//! caveat, recorded in [`ProcState::phase_records`].

use std::mem::{replace, take};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ddrs_cgm::{shallow_words, Ctx, Payload};

use crate::dist::hat::HatTree;
use crate::heap;
use crate::point::RPoint;
use crate::seq::DimTree;

/// One forest element: a sequential range tree over one `n/p`-point
/// group, starting at the dimension of the hat tree it hangs from.
///
/// Deliberately not `Clone`: an element is built once, held in an [`Arc`]
/// by its owner, and a congestion copy is another handle to the same
/// tree. The *model* still pays for a full copy per shipment (see the
/// [`Payload`] impl); the host does not, because the simulator's transport
/// is shared memory and moves pointers, for this payload as for every
/// `Vec` bucket.
#[derive(Debug, PartialEq, Eq)]
pub struct ForestEntry<const D: usize> {
    /// The group's subtree: dimensions `start_dim..D` over `g` points
    /// (pads included as trailing leaves).
    pub tree: DimTree<D>,
    /// Dimension of the hat tree this element is a leaf of.
    pub start_dim: u8,
    /// This element's forest id.
    pub fid: u32,
}

impl<const D: usize> Payload for ForestEntry<D> {
    fn words(&self) -> u64 {
        // Id/dim header plus the whole subtree payload: what a real machine
        // would serialize to ship a congestion copy, however it is handed over.
        2 + self.tree.payload_words()
    }
}

/// Per-processor state of the distributed structure after Algorithm
/// Construct: the (replicated) hat and this processor's forest shard.
#[derive(Debug)]
pub struct ProcState<const D: usize> {
    /// The hat replica (identical on every processor), by hat index.
    pub hat: Vec<HatTree>,
    /// Forest elements owned by this processor (`owner(fid) = fid mod
    /// p`), ascending: entry `i` is forest id `i·p + rank`. Shared
    /// handles, so a congestion copy is an `Arc` clone. Look one up with
    /// [`entry`](Self::entry).
    pub forest: Vec<Arc<ForestEntry<D>>>,
    /// Global record volume `|S^j|` of each construction phase (identical
    /// on every processor; the paper's Section 5 caveat quantities).
    pub phase_records: Vec<u64>,
    /// This processor's share of `S^j` after each phase's collective sort:
    /// what `repro t2` holds to the sort's balance bound.
    pub sorted_records: Vec<u64>,
    /// Wall time this processor spent in step 1 (the collective sorts), in
    /// steps 2, 3 and 5 (scan, deal, summaries, each `S^j`'s records made)
    /// and in step 4 (its local builds), summed over the phases: `repro t2`.
    pub step_wall: [Duration; 3],
    /// Padded global point count (a power of two).
    pub m: usize,
    /// Group size `g = m / p`.
    pub g: usize,
    /// Processor count.
    pub p: usize,
}

impl<const D: usize> ProcState<D> {
    /// This processor's forest element `fid`; panics, in every build, if
    /// this processor does not own it.
    pub fn entry(&self, fid: u32) -> &Arc<ForestEntry<D>> {
        match self.forest.get(fid as usize / self.p) {
            Some(e) if e.fid == fid => e,
            _ => panic!("forest id {fid} is not held on this processor"),
        }
    }
}

/// One sender's run of one group in the deal, `(tree, group, points)`:
/// metered as the `(tree, group, point)` records it carries.
struct Piece<const D: usize>(u32, u32, Vec<RPoint<D>>);
impl<const D: usize> Payload for Piece<D> {
    fn words(&self) -> u64 {
        self.2.len() as u64 * (2 + shallow_words::<RPoint<D>>())
    }
}

/// SPMD body of Algorithm Construct.
///
/// Every processor passes its `m/p`-point share of the rank-space input
/// (any order; a run sorted by `ranks[0]` costs step 1 least, and a `Vec`
/// that is its own group of that order becomes the group's leaves) and the
/// padded global size `m`; all processors must call with the same `m`.
/// Returns this processor's [`ProcState`].
///
/// # Panics
/// Panics if `m` is not a positive power of two divisible by `p`.
pub fn construct<const D: usize>(
    ctx: &mut Ctx<'_>,
    local: impl IntoIterator<Item = RPoint<D>>,
    m: usize,
) -> ProcState<D> {
    let (p, g) = (ctx.p(), m / ctx.p());
    assert!(m.is_power_of_two(), "padded size must be a power of two");
    assert!(m >= p && m.is_multiple_of(p), "padded size must be divisible by p");

    let (mut hat, mut forest, mut next_fid) = (Vec::new(), Vec::new(), 0u32);
    let (mut phase_records, mut sorted_records) = (Vec::with_capacity(D), Vec::with_capacity(D));
    let (mut step_wall, mut clock) = ([Duration::ZERO; 3], Instant::now());
    let mut lap = |step: usize| step_wall[step] += replace(&mut clock, Instant::now()).elapsed();

    // S^0 is the input, every point in the primary tree: left untagged (a
    // `Vec` is collected in place), its sort key `(0, rank)` a tagged
    // phase's, so its samples are too. Phase j's hat trees: `first..next`.
    let mut share = Some(local.into_iter().collect::<Vec<_>>());
    let (mut records, mut first, mut next) = (Vec::<(u32, RPoint<D>)>::new(), 0u32, 1u32);

    for j in 0..D {
        // (1) Sort S^j by (tree, rank in dimension j), then hold it as a
        // stretch of points per tree. Ranks are unique within a tree, so
        // the global order is fully determined.
        let mut stretches: Vec<(u32, Vec<RPoint<D>>)> = match share.take() {
            Some(s0) => vec![(0, ctx.sort_by_key(s0, |pt| (0u32, pt.ranks[0])))],
            None => {
                let sorted = ctx.sort_by_key(records, move |&(t, pt)| (t, pt.ranks[j]));
                let trees = sorted.chunk_by(|a, b| a.0 == b.0);
                trees.map(|tree| (tree[0].0, tree.iter().map(|rec| rec.1).collect())).collect()
            }
        };
        stretches.retain(|(_, pts)| !pts.is_empty());
        sorted_records.push(stretches.iter().map(|(_, pts)| pts.len() as u64).sum());
        lap(0);

        // (2) Scan: per-tree local counts, all-gathered. Every processor
        // derives the identical tree table: total sizes, own offsets,
        // forest-id bases (trees in hat order, phases consecutive).
        let gathered =
            ctx.all_gather(stretches.iter().map(|(t, pts)| (*t, pts.len() as u64)).collect());
        // By tree - first: (total, my_offset, base).
        let mut table: Vec<(u64, u64, u32)> = vec![(0, 0, 0); (next - first) as usize];
        for (rank, counts) in gathered.iter().enumerate() {
            for &(t, c) in counts {
                let entry = &mut table[(t - first) as usize];
                entry.0 += c;
                entry.1 += if rank < ctx.rank() { c } else { 0 };
            }
        }
        phase_records.push(table.iter().map(|&(total, ..)| total).sum());
        for (total, _, base) in &mut table {
            debug_assert_eq!(*total % g as u64, 0, "tree sizes are multiples of g");
            *base = next_fid;
            next_fid += (*total / g as u64) as u32;
        }

        // (3) Deal: ship each group's run to its home processor. A tree's
        // stretch holds positions `lo..hi` in the tree, cut at group
        // boundaries. A stretch inside one group goes as it is: a share of
        // S^0 in the even deal is its group, and its home is its holder.
        let mut outgoing: Vec<Vec<Piece<D>>> = (0..p).map(|_| Vec::new()).collect();
        for (t, mut pts) in stretches {
            let (_, lo, base) = table[(t - first) as usize];
            let (lo, hi) = (lo as usize, lo as usize + pts.len());
            for gidx in lo / g..hi.div_ceil(g) {
                let (a, b) = ((gidx * g).max(lo) - lo, (gidx * g + g).min(hi) - lo);
                let run = if b - a < pts.len() { pts[a..b].to_vec() } else { take(&mut pts) };
                outgoing[(base as usize + gidx) % p].push(Piece(t, gidx as u32, run));
            }
        }
        let mut received = ctx.all_to_all(outgoing).into_iter().flatten().peekable();

        // (4) Build owned forest subtrees locally. The senders hold
        // consecutive stretches of the sorted order, so a group is the next
        // pieces with one header, sorted end to end (`DimTree::build` checks
        // in debug builds). A lone piece is the leaves; several fill `g`.
        lap(1);
        let mut summaries: Vec<(u32, u32, u32, u32, u32, u32)> = Vec::new();
        while let Some(Piece(t, gidx, pts)) = received.next() {
            debug_assert!(summaries.last().is_none_or(|s| (s.0, s.1) < (t, gidx)));
            let more = std::iter::from_fn(|| received.next_if(|pc| (pc.0, pc.1) == (t, gidx)));
            let mut runs: Vec<_> = std::iter::once(pts).chain(more.map(|pc| pc.2)).collect();
            let pts = if runs.len() == 1 { runs.swap_remove(0) } else { runs.concat() };
            debug_assert_eq!(pts.len(), g, "every group holds exactly g records");
            let fid = table[(t - first) as usize].2 + gidx;
            debug_assert_eq!(fid as usize, forest.len() * p + ctx.rank(), "forest ids are dense");
            let real = pts.iter().take_while(|pt| !pt.is_pad()).count();
            let (lo, hi) =
                if real == 0 { (u32::MAX, 0) } else { (pts[0].ranks[j], pts[real - 1].ranks[j]) };
            summaries.push((t, gidx, fid, lo, hi, real as u32));
            let tree = DimTree::build(j, pts);
            forest.push(Arc::new(ForestEntry { tree, start_dim: j as u8, fid }));
        }
        lap(2);

        // (5) Summary broadcast: assemble the dimension-j hat replica and
        // number the next dimension's trees, (tree, heap node) in order.
        let all_summaries: Vec<_> = ctx.all_gather(summaries).into_iter().flatten().collect();
        let mut child_base = next;
        for &(total, _, base) in &table {
            let nleaves = (total / g as u64) as usize;
            hat.push(HatTree::empty(j as u8, nleaves, child_base, base));
            child_base += nleaves as u32 - 1;
        }
        for &(t, gidx, _, lo, hi, cnt) in &all_summaries {
            hat[t as usize].set_leaf(gidx as usize, lo, hi, cnt);
        }
        hat[first as usize..].iter_mut().for_each(HatTree::fill_internal);
        (first, next) = (next, child_base);

        // Emit S^(j+1): each owned group's points, once per internal hat
        // ancestor (the point sets of the descendant structures), in the
        // next dimension's order: a sorted run per tree for its sort.
        records = Vec::new();
        let mine = all_summaries.iter().filter(|s| j + 1 < D && s.2 as usize % p == ctx.rank());
        for &(t, gidx, fid, ..) in mine.filter(|s| hat[s.0 as usize].nleaves > 1) {
            let t = &hat[t as usize];
            let pts = forest[fid as usize / p].tree.in_next_dimension();
            for anc in heap::internal_ancestors(t.nleaves as usize, gidx as usize) {
                records.extend(pts.iter().map(|pt| (t.child(anc) as u32, *pt)));
            }
        }
        lap(1);
    }

    ProcState { hat, forest, phase_records, sorted_records, step_wall, m, g, p }
}
