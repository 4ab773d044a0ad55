//! Packed struct-of-arrays trace storage and zero-copy shared replay.
//!
//! [`Trace`] keeps a `Vec<ThreadEvent>` — 24 bytes per event of which a
//! replay touches every byte. A [`PackedTrace`] stores the same sequence
//! column-wise (`gaps`/`addrs`/`mlps` arrays, a write bitmap, and barrier
//! positions), cutting the replay's memory traffic to ~14 bytes per event,
//! and is immutable after construction so any number of replay streams can
//! share one materialisation behind an [`Arc`] — the record-once,
//! simulate-many-schemes pattern the experiment sweeps use (each suite
//! workload is generated exactly once per sweep and replayed zero-copy for
//! every partitioning scheme).
//!
//! [`PackedBlock`] is the *mutable, bounded* counterpart: the same columns
//! as a chunk. It is the unit of columnar event transport everywhere events
//! move between stages — generators write columns straight into a block
//! ([`AccessStream::fill_packed`]), the pipeline hands whole blocks across
//! its channel by ownership, the simulator's per-core ring drains blocks in
//! place, and [`PackedTrace::record`] assembles blocks into a trace with
//! column memcpys. No stage materialises per-event `ThreadEvent`s.

use std::sync::Arc;

use icp_hot_path::{deterministic, hot_path};

use crate::stream::{AccessStream, ThreadEvent};
use crate::trace::Trace;

/// Copies `len` bits from `src` starting at bit `src_start` into `dst`
/// starting at bit `dst_start`, growing `dst` to hold them.
///
/// Both bitmaps follow the packed-write-column invariant: bits at or past
/// the logical length are zero. `dst`'s tail word is OR-merged, so
/// `dst_start` must be `dst`'s current logical bit length.
fn copy_bits(dst: &mut Vec<u64>, dst_start: usize, src: &[u64], src_start: usize, len: usize) {
    if len == 0 {
        return;
    }
    let total = dst_start + len;
    dst.resize(total.div_ceil(64), 0);
    let words = len.div_ceil(64);
    for wi in 0..words {
        // Gather 64 source bits at an arbitrary bit offset from up to two
        // adjacent words (shifts stay in 1..=63 by the `sub != 0` guards).
        let bit = src_start + wi * 64;
        let sub = bit & 63;
        let mut w = src[bit >> 6] >> sub;
        let next = (bit >> 6) + 1;
        if sub != 0 && next < src.len() {
            w |= src[next] << (64 - sub);
        }
        let rem = len - wi * 64;
        if rem < 64 {
            w &= (1u64 << rem) - 1;
        }
        // Scatter them at the destination offset, again over two words.
        let db = dst_start + wi * 64;
        let dsub = db & 63;
        dst[db >> 6] |= w << dsub;
        let dnext = (db >> 6) + 1;
        if dsub != 0 && dnext < dst.len() {
            dst[dnext] |= w >> (64 - dsub);
        }
    }
}

/// A bounded, reusable chunk of events in packed column form.
///
/// The columns mirror [`PackedTrace`]'s (gap/addr/mlp arrays, write bitmap,
/// barrier positions *within the chunk*), plus a `finished` flag standing in
/// for the trailing [`ThreadEvent::Finished`]. Blocks are built to be
/// recycled: [`Self::clear`] keeps the column allocations, so steady-state
/// producers and consumers exchange them without touching the allocator.
///
/// # Examples
///
/// ```
/// use icp_cmp_sim::{PackedBlock, ThreadEvent};
///
/// let mut block = PackedBlock::with_capacity(16);
/// block.push_access(3, 0x40, true, 10);
/// block.push_barrier();
/// assert_eq!(block.len(), 2);
/// assert_eq!(block.access_at(0), ThreadEvent::Access { gap: 3, addr: 0x40, write: true, mlp_tenths: 10 });
/// block.clear(); // keeps capacity for reuse
/// assert!(block.is_empty());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackedBlock {
    /// Non-memory instruction gap of each access.
    gaps: Vec<u32>,
    /// Byte address of each access.
    addrs: Vec<u64>,
    /// Memory-level parallelism (tenths) of each access.
    mlps: Vec<u16>,
    /// Store flags, one bit per access (bit `i & 63` of word `i >> 6`);
    /// bits at or past `gaps.len()` are zero.
    writes: Vec<u64>,
    /// Barrier markers: entry `b` fires after `b` of this block's accesses
    /// have been delivered. Non-decreasing; duplicates are consecutive
    /// barriers.
    barriers: Vec<u32>,
    /// The stream terminated within (or at the end of) this block.
    finished: bool,
}

impl PackedBlock {
    /// An empty block with column capacity for `cap` accesses.
    pub fn with_capacity(cap: usize) -> Self {
        PackedBlock {
            gaps: Vec::with_capacity(cap),
            addrs: Vec::with_capacity(cap),
            mlps: Vec::with_capacity(cap),
            writes: Vec::with_capacity(cap.div_ceil(64)),
            barriers: Vec::new(),
            finished: false,
        }
    }

    /// Empties the block for refilling, keeping every column's allocation.
    pub fn clear(&mut self) {
        self.gaps.clear();
        self.addrs.clear();
        self.mlps.clear();
        self.writes.clear();
        self.barriers.clear();
        self.finished = false;
    }

    /// Appends one access.
    #[inline]
    pub fn push_access(&mut self, gap: u32, addr: u64, write: bool, mlp_tenths: u16) {
        let i = self.gaps.len();
        if i.is_multiple_of(64) {
            self.writes.push(0);
        }
        if write {
            self.writes[i >> 6] |= 1 << (i & 63);
        }
        self.gaps.push(gap);
        self.addrs.push(addr);
        self.mlps.push(mlp_tenths);
    }

    /// Appends a barrier at the current position.
    #[inline]
    pub fn push_barrier(&mut self) {
        self.barriers.push(self.gaps.len() as u32);
    }

    /// Marks (or unmarks) the stream as terminating with this block.
    pub fn set_finished(&mut self, finished: bool) {
        self.finished = finished;
    }

    /// Whether the stream terminated within this block.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Number of packed accesses.
    pub fn accesses(&self) -> usize {
        self.gaps.len()
    }

    /// Number of packed barriers.
    pub fn barrier_count(&self) -> usize {
        self.barriers.len()
    }

    /// Packed events (accesses + barriers; the `finished` flag is not an
    /// event).
    pub fn len(&self) -> usize {
        self.gaps.len() + self.barriers.len()
    }

    /// True when the block holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The gap column.
    pub fn gaps(&self) -> &[u32] {
        &self.gaps
    }

    /// The address column.
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// The memory-level-parallelism column (tenths).
    pub fn mlps(&self) -> &[u16] {
        &self.mlps
    }

    /// The barrier marker of index `b` (accesses delivered before it
    /// fires).
    #[inline]
    pub fn barrier_at(&self, b: usize) -> usize {
        self.barriers[b] as usize
    }

    /// Whether access `i` is a store.
    #[inline]
    pub fn write_at(&self, i: usize) -> bool {
        (self.writes[i >> 6] >> (i & 63)) & 1 != 0
    }

    /// Decodes access `i` into an event.
    #[inline]
    #[hot_path]
    pub fn access_at(&self, i: usize) -> ThreadEvent {
        ThreadEvent::Access {
            gap: self.gaps[i],
            addr: self.addrs[i],
            write: self.write_at(i),
            mlp_tenths: self.mlps[i],
        }
    }

    /// Decodes the event at cursor (`pos` accesses and `nb` barriers
    /// already delivered), or `None` when the cursor is past the block's
    /// events (delivery of `finished` is the caller's job).
    #[inline]
    pub fn event_at(&self, pos: usize, nb: usize) -> Option<ThreadEvent> {
        if nb < self.barriers.len() && self.barriers[nb] as usize == pos {
            return Some(ThreadEvent::Barrier);
        }
        if pos < self.gaps.len() {
            return Some(self.access_at(pos));
        }
        None
    }

    /// Appends a run of accesses copied out of packed columns: the
    /// subslices plus `run` write bits starting at bit `write_bit` of
    /// `writes` — the column-memcpy primitive replay and hand-off paths
    /// use instead of per-event decoding.
    pub fn extend_accesses(
        &mut self,
        gaps: &[u32],
        addrs: &[u64],
        mlps: &[u16],
        writes: &[u64],
        write_bit: usize,
    ) {
        let run = gaps.len();
        debug_assert_eq!(run, addrs.len());
        debug_assert_eq!(run, mlps.len());
        copy_bits(&mut self.writes, self.gaps.len(), writes, write_bit, run);
        self.gaps.extend_from_slice(gaps);
        self.addrs.extend_from_slice(addrs);
        self.mlps.extend_from_slice(mlps);
    }

    /// Unpacks into the equivalent event sequence, `finished` rendered as a
    /// trailing [`ThreadEvent::Finished`] (tests/interchange).
    pub fn to_events(&self) -> Vec<ThreadEvent> {
        let mut out = Vec::with_capacity(self.len() + 1);
        let (mut pos, mut nb) = (0, 0);
        while let Some(e) = self.event_at(pos, nb) {
            match e {
                ThreadEvent::Barrier => nb += 1,
                _ => pos += 1,
            }
            out.push(e);
        }
        if self.finished {
            out.push(ThreadEvent::Finished);
        }
        out
    }
}

/// An immutable event sequence in packed struct-of-arrays form.
///
/// Accesses live in parallel columns indexed by *access number*; barriers
/// are stored out of line as the access number they precede (non-decreasing,
/// with duplicates encoding consecutive barriers). The trailing `Finished`
/// is implicit, as in [`Trace`].
///
/// # Examples
///
/// ```
/// use icp_cmp_sim::{PackedTrace, ThreadEvent};
/// use icp_cmp_sim::stream::AccessStream;
///
/// let packed = PackedTrace::from_events(&[
///     ThreadEvent::access(3, 0x40),
///     ThreadEvent::Barrier,
///     ThreadEvent::access(0, 0x80),
/// ]);
/// let shared = std::sync::Arc::new(packed);
/// let mut replay = PackedTrace::stream(&shared); // zero-copy
/// assert_eq!(replay.next_event(), ThreadEvent::access(3, 0x40));
/// assert_eq!(replay.next_event(), ThreadEvent::Barrier);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackedTrace {
    /// Non-memory instruction gap of each access.
    gaps: Vec<u32>,
    /// Byte address of each access.
    addrs: Vec<u64>,
    /// Memory-level parallelism (tenths) of each access.
    mlps: Vec<u16>,
    /// Store flags, one bit per access (bit `i & 63` of word `i >> 6`).
    writes: Vec<u64>,
    /// Barrier markers: entry `b` means a barrier fires after `b` accesses
    /// have been delivered. Non-decreasing; equal entries are consecutive
    /// barriers.
    barriers: Vec<u64>,
}

impl PackedTrace {
    /// Creates an empty packed trace.
    pub fn new() -> Self {
        PackedTrace::default()
    }

    /// Packs an explicit event sequence (ignoring anything after a
    /// `Finished`).
    pub fn from_events(events: &[ThreadEvent]) -> Self {
        let mut p = PackedTrace::new();
        for &e in events {
            match e {
                ThreadEvent::Access { gap, addr, write, mlp_tenths } => {
                    p.push_access(gap, addr, write, mlp_tenths);
                }
                ThreadEvent::Barrier => p.push_barrier(),
                ThreadEvent::Finished => break,
            }
        }
        p
    }

    /// Packs a recorded [`Trace`].
    pub fn from_trace(trace: &Trace) -> Self {
        PackedTrace::from_events(trace.events())
    }

    /// Drains `stream` until it finishes (or `max_events` events — accesses
    /// plus barriers — have been recorded) and packs everything, pulling
    /// whole column blocks through [`AccessStream::fill_packed`] so
    /// columnar generators never materialise per-event enums and block
    /// assembly is a handful of column memcpys.
    ///
    /// The recorded prefix is exactly what [`Trace::record`] would store;
    /// `fill_packed`'s exact cap means no surplus events are generated when
    /// the limit truncates mid-stream.
    #[deterministic]
    pub fn record<S: AccessStream>(stream: &mut S, max_events: usize) -> Self {
        const RECORD_BATCH: usize = 4096;
        // Bounded recordings up to this size (128 MB of columns) are
        // generated as one whole-trace fill whose columns are *adopted* —
        // moved into the trace, not copied. Open-ended (`usize::MAX`)
        // recordings can't pre-size a block and go through the batched
        // append path.
        const ADOPT_MAX: usize = 1 << 23;
        let mut p = PackedTrace::new();
        let mut block = PackedBlock::default();
        if max_events > 0 && max_events <= ADOPT_MAX {
            // Pre-sized so the fill never pays column-growth reallocation
            // copies; over-allocation for short streams is only untouched
            // virtual memory, released with the adopted columns.
            block = PackedBlock::with_capacity(max_events);
            stream.fill_packed(&mut block, max_events);
            let done = block.finished() || block.is_empty();
            p.adopt_block(&mut block);
            if done {
                return p;
            }
        }
        while p.len() < max_events {
            stream.fill_packed(&mut block, RECORD_BATCH.min(max_events - p.len()));
            p.append_block(&block);
            if block.finished() || block.is_empty() {
                break;
            }
        }
        p
    }

    /// Moves `block`'s events into this trace, stealing the access columns
    /// outright when the trace is still empty (the whole-trace recording
    /// fast path: zero column copies) and falling back to
    /// [`Self::append_block`] otherwise. `block` is left cleared either
    /// way, with its allocations gone on the move path and retained on the
    /// copy path.
    pub fn adopt_block(&mut self, block: &mut PackedBlock) {
        if self.gaps.is_empty() && self.barriers.is_empty() {
            self.gaps = std::mem::take(&mut block.gaps);
            self.addrs = std::mem::take(&mut block.addrs);
            self.mlps = std::mem::take(&mut block.mlps);
            self.writes = std::mem::take(&mut block.writes);
            // Block-relative barrier positions are already absolute here;
            // only the width changes (barrier counts stay tiny).
            self.barriers = block.barriers.drain(..).map(u64::from).collect();
            block.clear();
        } else {
            self.append_block(block);
            block.clear();
        }
    }

    /// Appends a block's events — column memcpys plus barrier markers
    /// rebased onto the trace's current access count.
    pub fn append_block(&mut self, block: &PackedBlock) {
        let base = self.gaps.len();
        copy_bits(&mut self.writes, base, &block.writes, 0, block.gaps.len());
        self.gaps.extend_from_slice(&block.gaps);
        self.addrs.extend_from_slice(&block.addrs);
        self.mlps.extend_from_slice(&block.mlps);
        self.barriers.reserve(block.barriers.len());
        for &b in &block.barriers {
            self.barriers.push(base as u64 + b as u64);
        }
    }

    /// Appends one access.
    pub fn push_access(&mut self, gap: u32, addr: u64, write: bool, mlp_tenths: u16) {
        let i = self.gaps.len();
        if i.is_multiple_of(64) {
            self.writes.push(0);
        }
        if write {
            self.writes[i >> 6] |= 1 << (i & 63);
        }
        self.gaps.push(gap);
        self.addrs.push(addr);
        self.mlps.push(mlp_tenths);
    }

    /// Appends a barrier at the current position.
    pub fn push_barrier(&mut self) {
        self.barriers.push(self.gaps.len() as u64);
    }

    /// Number of packed accesses.
    pub fn accesses(&self) -> usize {
        self.gaps.len()
    }

    /// Number of packed barriers.
    pub fn barriers(&self) -> usize {
        self.barriers.len()
    }

    /// Total packed events (accesses + barriers, excluding the implicit
    /// `Finished`).
    pub fn len(&self) -> usize {
        self.gaps.len() + self.barriers.len()
    }

    /// True when nothing was packed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total instructions the trace retires when replayed.
    pub fn instructions(&self) -> u64 {
        self.gaps.iter().map(|&g| g as u64 + 1).sum()
    }

    /// Heap bytes held by the packed columns (capacity, not length) —
    /// lets harnesses report the footprint advantage over `Vec<ThreadEvent>`.
    pub fn packed_bytes(&self) -> usize {
        self.gaps.capacity() * 4
            + self.addrs.capacity() * 8
            + self.mlps.capacity() * 2
            + self.writes.capacity() * 8
            + self.barriers.capacity() * 8
    }

    /// Unpacks into the equivalent event sequence (tests/interchange; the
    /// hot path replays in place via [`PackedReplayStream`]).
    pub fn to_events(&self) -> Vec<ThreadEvent> {
        let mut out = Vec::with_capacity(self.len());
        let mut stream = PackedReplayStream::new(Arc::new(self.clone()));
        loop {
            match stream.next_event() {
                ThreadEvent::Finished => break,
                e => out.push(e),
            }
        }
        out
    }

    /// Unpacks into a [`Trace`].
    pub fn to_trace(&self) -> Trace {
        Trace::from_events(self.to_events())
    }

    /// A zero-copy replay stream over a shared packed trace.
    #[deterministic]
    pub fn stream(this: &Arc<Self>) -> PackedReplayStream {
        PackedReplayStream::new(Arc::clone(this))
    }
}

/// A stream replaying a shared [`PackedTrace`], then `Finished` forever.
///
/// Cloning the stream (or creating several via [`PackedTrace::stream`])
/// shares the packed columns — replays for different partitioning schemes
/// cost two cursor words each, not a copy of the trace.
#[derive(Clone, Debug)]
pub struct PackedReplayStream {
    trace: Arc<PackedTrace>,
    /// Next access column index to deliver.
    next_access: usize,
    /// Next barrier marker to fire.
    next_barrier: usize,
}

impl PackedReplayStream {
    /// Creates a replay cursor at the start of `trace`.
    pub fn new(trace: Arc<PackedTrace>) -> Self {
        PackedReplayStream { trace, next_access: 0, next_barrier: 0 }
    }

    /// Decodes access `i` from the packed columns.
    #[inline]
    #[hot_path]
    fn access_at(t: &PackedTrace, i: usize) -> ThreadEvent {
        ThreadEvent::Access {
            gap: t.gaps[i],
            addr: t.addrs[i],
            write: (t.writes[i >> 6] >> (i & 63)) & 1 != 0,
            mlp_tenths: t.mlps[i],
        }
    }
}

impl AccessStream for PackedReplayStream {
    fn next_event(&mut self) -> ThreadEvent {
        let t = &self.trace;
        if self.next_barrier < t.barriers.len()
            && t.barriers[self.next_barrier] == self.next_access as u64
        {
            self.next_barrier += 1;
            return ThreadEvent::Barrier;
        }
        if self.next_access < t.gaps.len() {
            let e = Self::access_at(t, self.next_access);
            self.next_access += 1;
            return e;
        }
        ThreadEvent::Finished
    }

    /// Native batch delivery: runs of accesses between barrier markers are
    /// decoded straight out of the packed columns.
    #[hot_path]
    fn fill_batch(&mut self, out: &mut [ThreadEvent]) -> usize {
        let trace = Arc::clone(&self.trace);
        let t = &*trace;
        let mut n = 0;
        while n < out.len() {
            // Barriers due at the cursor fire before the next access run.
            if self.next_barrier < t.barriers.len()
                && t.barriers[self.next_barrier] == self.next_access as u64
            {
                out[n] = ThreadEvent::Barrier;
                n += 1;
                self.next_barrier += 1;
                continue;
            }
            if self.next_access >= t.gaps.len() {
                // Exhausted: one synthesised `Finished` ends the batch, as
                // in `ReplayStream`.
                out[n] = ThreadEvent::Finished;
                n += 1;
                break;
            }
            // Copy the access run up to the next barrier or buffer end.
            let until = t
                .barriers
                .get(self.next_barrier)
                .map_or(t.gaps.len(), |&b| b as usize);
            let run = (until - self.next_access).min(out.len() - n);
            for k in 0..run {
                out[n + k] = Self::access_at(t, self.next_access + k);
            }
            self.next_access += run;
            n += run;
        }
        n
    }

    /// Native columnar delivery: access runs between barriers become
    /// column-range memcpys out of the shared trace — no per-event decode
    /// at all on the replay side.
    fn fill_packed(&mut self, out: &mut PackedBlock, cap: usize) {
        out.clear();
        let trace = Arc::clone(&self.trace);
        let t = &*trace;
        while out.len() < cap {
            if self.next_barrier < t.barriers.len()
                && t.barriers[self.next_barrier] == self.next_access as u64
            {
                out.push_barrier();
                self.next_barrier += 1;
                continue;
            }
            if self.next_access >= t.gaps.len() {
                out.set_finished(true);
                break;
            }
            let until = t
                .barriers
                .get(self.next_barrier)
                .map_or(t.gaps.len(), |&b| b as usize);
            let run = (until - self.next_access).min(cap - out.len());
            let (a, b) = (self.next_access, self.next_access + run);
            out.extend_accesses(&t.gaps[a..b], &t.addrs[a..b], &t.mlps[a..b], &t.writes, a);
            self.next_access += run;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::ReplayStream;

    fn sample_events() -> Vec<ThreadEvent> {
        vec![
            ThreadEvent::Access { gap: 3, addr: 0x1234_5678_9abc, write: false, mlp_tenths: 10 },
            ThreadEvent::Access { gap: 0, addr: 64, write: true, mlp_tenths: 60 },
            ThreadEvent::Barrier,
            ThreadEvent::Barrier,
            ThreadEvent::Access { gap: 7, addr: 128, write: false, mlp_tenths: 10 },
            ThreadEvent::Barrier,
        ]
    }

    #[test]
    fn roundtrip_preserves_events() {
        let events = sample_events();
        let p = PackedTrace::from_events(&events);
        assert_eq!(p.to_events(), events);
        assert_eq!(p.accesses(), 3);
        assert_eq!(p.barriers(), 3);
        assert_eq!(p.len(), 6);
        assert_eq!(p.instructions(), 4 + 1 + 8);
    }

    #[test]
    fn replay_matches_replay_stream_exactly() {
        let events = sample_events();
        let p = Arc::new(PackedTrace::from_events(&events));
        let mut packed = PackedTrace::stream(&p);
        let mut plain = ReplayStream::new(events);
        for _ in 0..10 {
            assert_eq!(packed.next_event(), plain.next_event());
        }
    }

    #[test]
    fn fill_batch_matches_next_event_at_all_batch_sizes() {
        let events = sample_events();
        for batch in [1usize, 2, 3, 5, 16] {
            let p = Arc::new(PackedTrace::from_events(&events));
            let mut batched = PackedTrace::stream(&p);
            let mut single = PackedTrace::stream(&p);
            let mut buf = vec![ThreadEvent::Finished; batch];
            'outer: loop {
                let n = batched.fill_batch(&mut buf);
                assert!(n > 0);
                for &e in &buf[..n] {
                    assert_eq!(e, single.next_event(), "batch size {batch}");
                    if matches!(e, ThreadEvent::Finished) {
                        break 'outer;
                    }
                }
            }
        }
    }

    #[test]
    fn record_matches_trace_record() {
        let events = sample_events();
        for max in [0usize, 1, 2, 3, 4, 6, 100] {
            let mut s1 = ReplayStream::new(events.clone());
            let mut s2 = ReplayStream::new(events.clone());
            let t = Trace::record(&mut s1, max);
            let p = PackedTrace::record(&mut s2, max);
            assert_eq!(p.to_events(), t.events(), "max_events {max}");
        }
    }

    #[test]
    fn shared_streams_are_independent_cursors() {
        let p = Arc::new(PackedTrace::from_events(&sample_events()));
        let mut a = PackedTrace::stream(&p);
        let mut b = PackedTrace::stream(&p);
        assert_eq!(a.next_event(), b.next_event());
        a.next_event();
        // `b` is unaffected by `a`'s progress.
        assert_eq!(b.next_event(), ThreadEvent::Access { gap: 0, addr: 64, write: true, mlp_tenths: 60 });
    }

    #[test]
    fn exhausted_stream_keeps_yielding_finished() {
        let p = Arc::new(PackedTrace::from_events(&[ThreadEvent::access(0, 0)]));
        let mut s = PackedTrace::stream(&p);
        s.next_event();
        assert_eq!(s.next_event(), ThreadEvent::Finished);
        assert_eq!(s.next_event(), ThreadEvent::Finished);
        let mut buf = [ThreadEvent::Barrier; 4];
        assert_eq!(s.fill_batch(&mut buf), 1);
        assert_eq!(buf[0], ThreadEvent::Finished);
    }

    #[test]
    fn empty_trace_is_finished_immediately() {
        let p = Arc::new(PackedTrace::new());
        assert!(p.is_empty());
        let mut s = PackedTrace::stream(&p);
        assert_eq!(s.next_event(), ThreadEvent::Finished);
    }

    #[test]
    fn leading_and_trailing_barriers_survive() {
        let events = vec![
            ThreadEvent::Barrier,
            ThreadEvent::access(1, 64),
            ThreadEvent::Barrier,
        ];
        let p = PackedTrace::from_events(&events);
        assert_eq!(p.to_events(), events);
    }

    #[test]
    fn write_bitmap_crosses_word_boundaries() {
        // 130 accesses with writes on a stride: exercises bits in three
        // bitmap words.
        let events: Vec<ThreadEvent> = (0..130)
            .map(|i| ThreadEvent::Access {
                gap: i as u32,
                addr: i as u64 * 64,
                write: i % 3 == 0,
                mlp_tenths: 10,
            })
            .collect();
        let p = PackedTrace::from_events(&events);
        assert_eq!(p.to_events(), events);
    }

    #[test]
    fn trace_interop_roundtrips() {
        let t = Trace::from_events(sample_events());
        let p = PackedTrace::from_trace(&t);
        assert_eq!(p.to_trace(), t);
        assert!(p.packed_bytes() > 0);
    }

    #[test]
    fn copy_bits_matches_per_bit_copy_at_all_offsets() {
        // A fixed pseudo-random source bitmap, copied at every combination
        // of small src/dst misalignments and lengths crossing word
        // boundaries, must equal the bit-by-bit reference.
        let src: Vec<u64> = (0..4u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) | 1)
            .collect();
        for src_start in [0usize, 1, 7, 63, 64, 65, 100] {
            for dst_start in [0usize, 1, 31, 63, 64, 77] {
                for len in [0usize, 1, 5, 63, 64, 65, 130] {
                    if src_start + len > src.len() * 64 {
                        continue;
                    }
                    // Seed dst with the bits below dst_start set to a known
                    // pattern and everything above zero (the invariant).
                    let mut dst = vec![0u64; dst_start.div_ceil(64)];
                    for b in 0..dst_start {
                        if b % 3 == 0 {
                            dst[b / 64] |= 1 << (b % 64);
                        }
                    }
                    let mut expect = dst.clone();
                    expect.resize((dst_start + len).div_ceil(64).max(expect.len()), 0);
                    for k in 0..len {
                        let bit = (src[(src_start + k) / 64] >> ((src_start + k) % 64)) & 1;
                        expect[(dst_start + k) / 64] |= bit << ((dst_start + k) % 64);
                    }
                    copy_bits(&mut dst, dst_start, &src, src_start, len);
                    assert_eq!(dst, expect, "src_start={src_start} dst_start={dst_start} len={len}");
                }
            }
        }
    }

    #[test]
    fn block_roundtrips_events_and_recycles() {
        let mut block = PackedBlock::with_capacity(4);
        block.push_barrier();
        block.push_access(3, 0x40, true, 10);
        block.push_access(0, 0x80, false, 60);
        block.push_barrier();
        block.set_finished(true);
        assert_eq!(block.accesses(), 2);
        assert_eq!(block.barrier_count(), 2);
        assert_eq!(block.len(), 4);
        assert_eq!(
            block.to_events(),
            vec![
                ThreadEvent::Barrier,
                ThreadEvent::Access { gap: 3, addr: 0x40, write: true, mlp_tenths: 10 },
                ThreadEvent::Access { gap: 0, addr: 0x80, write: false, mlp_tenths: 60 },
                ThreadEvent::Barrier,
                ThreadEvent::Finished,
            ]
        );
        block.clear();
        assert!(block.is_empty());
        assert!(!block.finished());
        assert_eq!(block.to_events(), vec![]);
    }

    #[test]
    fn append_block_matches_event_pushes() {
        // Appending blocks of awkward sizes (bitmap tails at non-word
        // boundaries) equals pushing the same events one at a time.
        let events: Vec<ThreadEvent> = (0..300)
            .map(|i| {
                if i % 71 == 0 {
                    ThreadEvent::Barrier
                } else {
                    ThreadEvent::Access {
                        gap: i as u32,
                        addr: i as u64 * 64,
                        write: i % 5 == 0,
                        mlp_tenths: 10,
                    }
                }
            })
            .collect();
        let reference = PackedTrace::from_events(&events);
        let mut assembled = PackedTrace::new();
        let mut block = PackedBlock::default();
        let mut it = events.iter();
        for chunk in [1usize, 3, 64, 65, 90, 200] {
            block.clear();
            for &e in it.by_ref().take(chunk) {
                match e {
                    ThreadEvent::Access { gap, addr, write, mlp_tenths } => {
                        block.push_access(gap, addr, write, mlp_tenths);
                    }
                    ThreadEvent::Barrier => block.push_barrier(),
                    ThreadEvent::Finished => unreachable!(),
                }
            }
            assembled.append_block(&block);
        }
        assert_eq!(assembled, reference);
    }

    #[test]
    fn replay_fill_packed_matches_fill_batch() {
        // The columnar replay override must deliver the same sequence as
        // the enum batch path, for caps that land on and off barrier and
        // word boundaries.
        let events: Vec<ThreadEvent> = (0..300)
            .map(|i| {
                if i % 67 == 0 {
                    ThreadEvent::Barrier
                } else {
                    ThreadEvent::Access {
                        gap: (i % 7) as u32,
                        addr: ((i * 31) % 256) * 64,
                        write: i % 4 == 1,
                        mlp_tenths: 10,
                    }
                }
            })
            .collect();
        let p = Arc::new(PackedTrace::from_events(&events));
        for cap in [1usize, 2, 63, 64, 65, 67, 256] {
            let mut packed = PackedTrace::stream(&p);
            let mut plain = ReplayStream::new(events.clone());
            let mut block = PackedBlock::default();
            loop {
                packed.fill_packed(&mut block, cap);
                for e in block.to_events() {
                    assert_eq!(e, plain.next_event(), "cap {cap}");
                }
                if block.finished() {
                    break;
                }
                assert_eq!(block.len(), cap, "unfinished block must be full");
            }
        }
    }

    #[test]
    fn default_fill_packed_bridges_fill_batch() {
        // `ReplayStream` has no override, so this exercises the trait
        // default — including the finished-flag handoff and that an
        // exhausted stream keeps yielding empty finished blocks.
        let events = sample_events();
        let mut s = ReplayStream::new(events.clone());
        let mut block = PackedBlock::default();
        s.fill_packed(&mut block, 4);
        assert_eq!(block.len(), 4);
        assert!(!block.finished());
        s.fill_packed(&mut block, 100);
        assert_eq!(block.len(), 2);
        assert!(block.finished());
        s.fill_packed(&mut block, 100);
        assert!(block.is_empty());
        assert!(block.finished());
        // cap == 0 consumes nothing.
        let mut fresh = ReplayStream::new(events);
        fresh.fill_packed(&mut block, 0);
        assert!(block.is_empty());
        assert!(!block.finished());
        assert_eq!(fresh.next_event(), sample_events()[0]);
    }

    #[test]
    fn record_is_exact_under_truncation() {
        // The packed record path must stop at exactly `max_events` without
        // drawing surplus events from the stream.
        let events = sample_events();
        let mut s = ReplayStream::new(events.clone());
        let p = PackedTrace::record(&mut s, 3);
        assert_eq!(p.len(), 3);
        assert_eq!(s.next_event(), events[3], "no surplus events consumed");
    }

    #[test]
    fn packed_simulation_digest_matches_vec_replay() {
        use crate::config::SystemConfig;
        use crate::simulator::Simulator;

        let events: Vec<ThreadEvent> = (0..500)
            .map(|i| ThreadEvent::Access {
                gap: (i % 5) as u32,
                addr: ((i * 37) % 512) * 64,
                write: i % 3 == 0,
                mlp_tenths: 10,
            })
            .collect();
        let mut cfg = SystemConfig::scaled_down();
        cfg.cores = 1;
        cfg.interval_instructions = 100;
        let run = |stream: Box<dyn AccessStream>| {
            let mut sim = Simulator::new(cfg, vec![stream]);
            while sim.run_interval().is_some() {}
            (sim.wall_cycles(), sim.stats().threads[0])
        };
        let packed = Arc::new(PackedTrace::from_events(&events));
        let (w1, c1) = run(Box::new(ReplayStream::new(events)));
        let (w2, c2) = run(Box::new(PackedTrace::stream(&packed)));
        assert_eq!(w1, w2);
        assert_eq!(c1, c2);
    }
}
