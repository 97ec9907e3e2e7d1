//! Subsequence references and views.
//!
//! A *subsequence* is `len` consecutive PLR segments of one stream —
//! equivalently the `len + 1` vertices from `start` to `start + len`.
//! [`SubseqRef`] is the 12-byte value the matcher and the index pass
//! around; [`SubseqView`] pins the owning stream (via `Arc`) and exposes
//! the vertex slice and derived features.

use crate::ids::StreamId;
use crate::stream::MotionStream;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tsm_model::{state_signature, BreathState, PlrTrajectory, Position, Segment, Vertex};

/// A lightweight reference to a subsequence of a stored stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SubseqRef {
    /// The owning stream.
    pub stream: StreamId,
    /// Index of the first vertex.
    pub start: u32,
    /// Number of segments (vertices spanned = `len + 1`).
    pub len: u32,
}

impl SubseqRef {
    /// Creates a reference.
    pub fn new(stream: StreamId, start: usize, len: usize) -> Self {
        SubseqRef {
            stream,
            start: start as u32,
            len: len as u32,
        }
    }

    /// Index of the window's last vertex in `plr`, or `None` when the
    /// window is empty or runs past the trajectory's end. Every view and
    /// every snapshot lookup resolves a reference by this rule.
    pub fn last_vertex_in(self, plr: &PlrTrajectory) -> Option<usize> {
        let last = self.start as usize + self.len as usize;
        (self.len > 0 && last < plr.num_vertices()).then_some(last)
    }
}

/// A resolved subsequence: the owning stream plus the window bounds.
#[derive(Debug, Clone)]
pub struct SubseqView {
    stream: Arc<MotionStream>,
    start: usize,
    len: usize,
}

impl SubseqView {
    /// Resolves a reference against its stream. Returns `None` when the
    /// window falls outside the trajectory.
    pub fn new(stream: Arc<MotionStream>, r: SubseqRef) -> Option<Self> {
        debug_assert_eq!(stream.meta.id, r.stream, "stream/ref mismatch");
        r.last_vertex_in(&stream.plr)?;
        Some(SubseqView {
            stream,
            start: r.start as usize,
            len: r.len as usize,
        })
    }

    /// The owning stream.
    pub fn stream(&self) -> &Arc<MotionStream> {
        &self.stream
    }

    /// The reference this view resolves.
    pub fn subseq_ref(&self) -> SubseqRef {
        SubseqRef::new(self.stream.meta.id, self.start, self.len)
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false (zero-length views cannot be constructed).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `len + 1` vertices of the window.
    pub fn vertices(&self) -> &[Vertex] {
        &self.stream.plr.vertices()[self.start..=self.start + self.len]
    }

    /// First vertex of the window.
    pub fn first_vertex(&self) -> &Vertex {
        &self.stream.plr.vertices()[self.start]
    }

    /// Last vertex of the window (the "current time" end for online
    /// queries).
    pub fn last_vertex(&self) -> &Vertex {
        &self.stream.plr.vertices()[self.start + self.len]
    }

    /// Segment `i` of the window (`0 <= i < len`).
    pub fn segment(&self, i: usize) -> Segment {
        let v = self.vertices();
        Segment::between(&v[i], &v[i + 1])
    }

    /// Iterates the window's segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.vertices()
            .windows(2)
            .map(|w| Segment::between(&w[0], &w[1]))
    }

    /// The state order of the window.
    pub fn states(&self) -> impl Iterator<Item = BreathState> + '_ {
        let v = self.vertices();
        v[..self.len].iter().map(|x| x.state)
    }

    /// Packed state-order signature (None for windows over 60 segments).
    pub fn state_signature(&self) -> Option<u128> {
        state_signature(self.states())
    }

    /// Position of the stream `dt` seconds after this window's last
    /// vertex, interpolated along the stored trajectory (extrapolated when
    /// the trajectory ends before that). This is the "known immediate
    /// future of a historical subsequence" that prediction consumes.
    pub fn position_after(&self, dt: f64) -> Position {
        self.stream
            .plr
            .position_after_vertex(self.start + self.len, dt)
    }

    /// Total duration of the window in seconds.
    pub fn duration(&self) -> f64 {
        self.last_vertex().time - self.first_vertex().time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PatientId;
    use crate::stream::StreamMeta;
    use tsm_model::{PlrTrajectory, Vertex};
    use BreathState::*;

    fn stream() -> Arc<MotionStream> {
        let plr = PlrTrajectory::from_vertices(vec![
            Vertex::new_1d(0.0, 10.0, Exhale),
            Vertex::new_1d(2.0, 0.0, EndOfExhale),
            Vertex::new_1d(3.0, 0.0, Inhale),
            Vertex::new_1d(4.5, 10.0, Exhale),
            Vertex::new_1d(6.5, 0.0, EndOfExhale),
        ])
        .unwrap();
        Arc::new(MotionStream {
            meta: StreamMeta {
                id: StreamId(1),
                patient: PatientId(1),
                session: 0,
            },
            plr,
            raw_len: 200,
        })
    }

    #[test]
    fn resolution_bounds() {
        let s = stream();
        assert!(SubseqView::new(s.clone(), SubseqRef::new(StreamId(1), 0, 4)).is_some());
        assert!(SubseqView::new(s.clone(), SubseqRef::new(StreamId(1), 0, 5)).is_none());
        assert!(SubseqView::new(s.clone(), SubseqRef::new(StreamId(1), 4, 1)).is_none());
        assert!(SubseqView::new(s.clone(), SubseqRef::new(StreamId(1), 0, 0)).is_none());
        assert!(SubseqView::new(s, SubseqRef::new(StreamId(1), 3, 1)).is_some());
    }

    #[test]
    fn window_contents() {
        let s = stream();
        let v = SubseqView::new(s, SubseqRef::new(StreamId(1), 1, 2)).unwrap();
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
        assert_eq!(v.vertices().len(), 3);
        assert_eq!(v.first_vertex().time, 2.0);
        assert_eq!(v.last_vertex().time, 4.5);
        assert_eq!(v.duration(), 2.5);
        let states: Vec<_> = v.states().collect();
        assert_eq!(states, vec![EndOfExhale, Inhale]);
        assert_eq!(v.segment(1).amplitude(0), 10.0);
        assert_eq!(v.segments().count(), 2);
    }

    #[test]
    fn signatures_gate_state_order() {
        let s = stream();
        let a = SubseqView::new(s.clone(), SubseqRef::new(StreamId(1), 0, 3)).unwrap();
        let b = SubseqView::new(s.clone(), SubseqRef::new(StreamId(1), 1, 3)).unwrap();
        assert_ne!(a.state_signature(), b.state_signature());
        let c = SubseqView::new(s, SubseqRef::new(StreamId(1), 0, 3)).unwrap();
        assert_eq!(a.state_signature(), c.state_signature());
    }

    #[test]
    fn position_after_interpolates_and_extrapolates() {
        let s = stream();
        let v = SubseqView::new(s, SubseqRef::new(StreamId(1), 0, 2)).unwrap();
        // Last vertex at t=3.0; 0.75 s later is halfway up the inhale.
        assert_eq!(v.position_after(0.75)[0], 5.0);
        // 5 s later is past the stored end (6.5): extrapolates the final
        // exhale segment.
        assert!(v.position_after(5.0)[0] < 0.0);
    }

    #[test]
    fn subseq_ref_roundtrip() {
        let s = stream();
        let r = SubseqRef::new(StreamId(1), 2, 2);
        let v = SubseqView::new(s, r).unwrap();
        assert_eq!(v.subseq_ref(), r);
    }
}
