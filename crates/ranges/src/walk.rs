//! What one prefix-box walk of the range trees accumulates: the box
//! aggregate ([`Acc`], for the 3D and 4D trees) and the weighted
//! covering pieces ([`Pieces`]) from which a uniformly random unfinished
//! point is drawn without a second walk.
//!
//! A prefix walk over a static outer tree visits at most one partially
//! covered node per level, and each contributes at most one fully
//! covered piece (a covered child or a leaf bucket). Outer trees over
//! `u32` ids with 64-point buckets have at most 26 internal levels, so
//! a walk yields at most 27 pieces and they fit a fixed stack buffer.

use crate::range2d::PrefixInfo;
use pp_parlay::rng::Rng;

/// Aggregate of a 3D/4D prefix walk. `rep_unfinished` is a
/// *representative* unfinished point (exact max id within leaf buckets,
/// a per-piece representative for internal pieces) — callers use it as
/// an existence witness / heuristic pivot, never for max-id semantics.
#[derive(Default)]
pub(crate) struct Acc {
    pub(crate) unfinished: u32,
    pub(crate) max_dp: Option<u32>,
    pub(crate) rep_unfinished: Option<u32>,
}

impl Acc {
    /// Fold in one point scanned from a leaf bucket.
    pub(crate) fn add_point(&mut self, id: u32, finished: bool, dp: u32) {
        if finished {
            self.note_dp(dp);
        } else {
            self.unfinished += 1;
            self.note_rep(id);
        }
    }

    /// Fold in an inner tree's answer; `id_of` maps the inner tree's
    /// point ids to this tree's.
    pub(crate) fn add_info(&mut self, info: PrefixInfo, id_of: impl Fn(u32) -> u32) {
        self.unfinished += info.unfinished;
        if let Some(d) = info.max_dp {
            self.note_dp(d);
        }
        if let Some(x) = info.maxx_unfinished {
            self.note_rep(id_of(x));
        }
    }

    pub(crate) fn info(&self) -> PrefixInfo {
        PrefixInfo {
            unfinished: self.unfinished,
            max_dp: self.max_dp,
            maxx_unfinished: self.rep_unfinished,
        }
    }

    fn note_dp(&mut self, dp: u32) {
        self.max_dp = Some(self.max_dp.map_or(dp, |m| m.max(dp)));
    }

    fn note_rep(&mut self, id: u32) {
        self.rep_unfinished = Some(self.rep_unfinished.map_or(id, |m| m.max(id)));
    }
}

/// Capacity of [`Pieces`]; see the module docs for the bound.
const MAX_PIECES: usize = 32;

/// Up to [`MAX_PIECES`] `(unfinished count, payload)` pairs in walk
/// order. Pieces with no unfinished point are not kept.
pub(crate) struct Pieces<P> {
    len: usize,
    buf: [(u32, P); MAX_PIECES],
}

impl<P: Copy + Default> Pieces<P> {
    pub(crate) fn new() -> Self {
        Self {
            len: 0,
            buf: [(0, P::default()); MAX_PIECES],
        }
    }

    /// Record a piece holding `cnt` unfinished points.
    #[inline]
    pub(crate) fn push(&mut self, cnt: u32, piece: P) {
        if cnt > 0 {
            self.buf[self.len] = (cnt, piece);
            self.len += 1;
        }
    }

    /// Draw one of the `total` unfinished points uniformly — one
    /// `rng.range(total)` call, the same draw a list of the pieces'
    /// points in walk order would take — and return its piece and its
    /// 0-based rank among the piece's unfinished points.
    pub(crate) fn draw(&self, total: u32, rng: &mut Rng) -> (P, u32) {
        let mut t = rng.range(total as u64) as u32;
        for &(cnt, piece) in &self.buf[..self.len] {
            if t < cnt {
                return (piece, t);
            }
            t -= cnt;
        }
        unreachable!("weighted draw out of range")
    }
}
