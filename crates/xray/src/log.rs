//! XRay's built-in logging modes, as one sink.
//!
//! The real XRay ships pre-existing handler modes (paper §V-A: "XRay
//! provides a few different pre-existing modes, each defining their own
//! handler functions"): *basic* mode appends every event to a trace, and
//! *flight-data-recorder* mode keeps a fixed-size ring of encoded records
//! in which the newest events overwrite the oldest, bounding memory for
//! long runs. Both are [`ShardedLog`]; they differ only in retention:
//!
//! * [`ShardedLog::new`]`(ranks)` keeps everything (basic mode),
//! * [`ShardedLog::ring`]`(ranks, records)` keeps each rank's newest
//!   `records` events (FDR mode).
//!
//! Every rank appends 17-byte encoded records to its own cache-padded
//! shard, so concurrent ranks never contend on a shared lock or cache
//! line, and a chatty rank cannot evict a quiet rank's records. One
//! deterministic merge (stable order: rank, then per-rank append order)
//! makes [`ShardedLog::events`] byte-identical across runs whenever each
//! rank's own event stream is deterministic — the property the live
//! adaptation tests assert.

use crate::handler::{Event, EventKind, Handler};
use crate::packed_id::PackedId;
use bytes::{Buf, BufMut, BytesMut};
use parking_lot::Mutex;

/// Size of one encoded record:
/// 4 (packed id) + 1 (kind) + 8 (tsc) + 4 (rank) bytes.
const RECORD_BYTES: usize = 17;

fn encode_record(buf: &mut BytesMut, event: &Event) {
    buf.put_u32(event.id.raw());
    buf.put_u8(match event.kind {
        EventKind::Entry => 0,
        EventKind::Exit => 1,
        EventKind::TailExit => 2,
    });
    buf.put_u64(event.tsc);
    buf.put_u32(event.rank);
}

fn decode_records(buf: &[u8], out: &mut Vec<Event>) {
    let mut view = buf;
    while view.len() >= RECORD_BYTES {
        let id = PackedId::from_raw(view.get_u32());
        let kind = match view.get_u8() {
            0 => EventKind::Entry,
            1 => EventKind::Exit,
            _ => EventKind::TailExit,
        };
        let tsc = view.get_u64();
        let rank = view.get_u32();
        out.push(Event {
            id,
            kind,
            tsc,
            rank,
        });
    }
}

/// One cache-padded shard. The padding keeps rank R's append from
/// invalidating rank R±1's cache line; the per-shard mutex exists only
/// to satisfy `&self` interior mutability — with one rank per shard it
/// is never contended, so the append path never waits.
#[repr(align(64))]
struct Shard {
    inner: Mutex<ShardInner>,
}

struct ShardInner {
    /// Encoded records, oldest first.
    buf: BytesMut,
    /// Events ever appended (≥ retained under ring retention).
    written: u64,
}

impl ShardInner {
    fn retained(&self) -> usize {
        self.buf.len() / RECORD_BYTES
    }
}

/// The event sink, sharded by rank: each rank appends to its own
/// cache-padded buffer, and [`ShardedLog::events`] merges them in the
/// deterministic order (rank, per-rank append order). Two runs whose
/// per-rank streams are identical therefore produce byte-identical
/// merged traces, regardless of how the rank threads interleaved.
pub struct ShardedLog {
    shards: Box<[Shard]>,
    /// Per-shard retention in records; `None` keeps everything.
    ring_records: Option<usize>,
    /// Virtual cost per event in ns: 25 for the growing trace, 15 for
    /// the ring (fixed-size encode, no realloc).
    pub cost_ns: u64,
}

impl ShardedLog {
    /// Creates a log with one shard per expected rank that keeps every
    /// event. Ranks beyond `ranks` fold onto shards modulo the shard
    /// count — appends then contend on the shared shard, but the merge
    /// stays deterministic: [`Self::events`] stable-sorts by rank, which
    /// restores rank-major order and each rank's own append order
    /// regardless of how folded ranks interleaved. Sizing to the world's
    /// rank count gives the contention-free fast path.
    pub fn new(ranks: u32) -> Self {
        Self::with_retention(ranks, None, 25)
    }

    /// Creates a flight-data-recorder-style log: each rank's shard is a
    /// ring retaining its newest `records` events. Folded ranks (see
    /// [`Self::new`]) share a ring; ordering stays rank-major, but
    /// *which* records the shared ring retains then depends on how the
    /// folded ranks interleaved — size to the world's rank count to
    /// keep retention deterministic.
    pub fn ring(ranks: u32, records: usize) -> Self {
        assert!(records > 0, "ring retention needs capacity");
        Self::with_retention(ranks, Some(records), 15)
    }

    fn with_retention(ranks: u32, ring_records: Option<usize>, cost_ns: u64) -> Self {
        let shard = || Shard {
            inner: Mutex::new(ShardInner {
                buf: BytesMut::with_capacity(ring_records.unwrap_or(0) * RECORD_BYTES),
                written: 0,
            }),
        };
        Self {
            shards: (0..ranks.max(1)).map(|_| shard()).collect(),
            ring_records,
            cost_ns,
        }
    }

    #[inline]
    fn shard(&self, rank: u32) -> &Shard {
        &self.shards[rank as usize % self.shards.len()]
    }

    /// Number of shards (== ranks it was sized for).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Deterministically merged trace of the retained events: rank
    /// order, each rank's events oldest first. The stable sort is a
    /// no-op scan when every rank owns its shard, and restores
    /// determinism when ranks were folded onto shared shards.
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            decode_records(&shard.inner.lock().buf, &mut out);
        }
        // Stable: preserves each rank's per-shard append order.
        out.sort_by_key(|e| e.rank);
        out
    }

    /// Runs `f` over the merged trace without handing out a clone to the
    /// caller (one internal merge buffer is still materialized).
    pub fn with_events<R>(&self, f: impl FnOnce(&[Event]) -> R) -> R {
        f(&self.events())
    }

    /// Retained events of one rank, oldest first (filtered by the
    /// event's actual rank, so folded shards do not leak co-owners'
    /// events).
    pub fn rank_events(&self, rank: u32) -> Vec<Event> {
        let mut out = Vec::new();
        decode_records(&self.shard(rank).inner.lock().buf, &mut out);
        out.retain(|e| e.rank == rank);
        out
    }

    /// Events currently retained across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().retained()).sum()
    }

    /// Whether no shard retains anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events appended across all shards (≥ [`Self::len`] once a
    /// ring has wrapped).
    pub fn total_written(&self) -> u64 {
        self.shards.iter().map(|s| s.inner.lock().written).sum()
    }

    /// Clears every shard.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            let mut guard = s.inner.lock();
            guard.buf.clear();
            guard.written = 0;
        }
    }
}

impl Handler for ShardedLog {
    fn on_event(&self, event: Event) -> u64 {
        let mut shard = self.shard(event.rank).inner.lock();
        if self.ring_records == Some(shard.retained()) {
            // Drop the oldest record.
            shard.buf.advance(RECORD_BYTES);
        }
        encode_record(&mut shard.buf, &event);
        shard.written += 1;
        self.cost_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(fid: u32, kind: EventKind, tsc: u64) -> Event {
        rev(3, fid, kind, tsc)
    }

    fn rev(rank: u32, fid: u32, kind: EventKind, tsc: u64) -> Event {
        Event {
            id: PackedId::pack(1, fid).unwrap(),
            kind,
            tsc,
            rank,
        }
    }

    #[test]
    fn fdr_round_trips_encoding() {
        let fdr = ShardedLog::ring(4, 8);
        fdr.on_event(ev(42, EventKind::Entry, 123));
        fdr.on_event(ev(42, EventKind::TailExit, 456));
        let evs = fdr.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].id.function(), 42);
        assert_eq!(evs[0].id.object(), 1);
        assert_eq!(evs[0].rank, 3);
        assert_eq!(evs[1].kind, EventKind::TailExit);
        assert_eq!(evs[1].tsc, 456);
    }

    #[test]
    fn fdr_overwrites_oldest_when_full() {
        let fdr = ShardedLog::ring(1, 3);
        for i in 0..10u64 {
            fdr.on_event(ev(i as u32, EventKind::Entry, i));
        }
        assert_eq!(fdr.len(), 3);
        assert_eq!(fdr.total_written(), 10);
        let evs = fdr.events();
        let tscs: Vec<u64> = evs.iter().map(|e| e.tsc).collect();
        assert_eq!(tscs, vec![7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn fdr_zero_capacity_panics() {
        let _ = ShardedLog::ring(2, 0);
    }

    #[test]
    fn sharded_log_merges_rank_major_regardless_of_arrival_order() {
        let log = ShardedLog::new(3);
        // Interleave ranks out of order on purpose.
        log.on_event(rev(2, 9, EventKind::Entry, 1));
        log.on_event(rev(0, 7, EventKind::Entry, 2));
        log.on_event(rev(1, 8, EventKind::Entry, 3));
        log.on_event(rev(0, 7, EventKind::Exit, 4));
        log.on_event(rev(2, 9, EventKind::Exit, 5));
        let merged = log.events();
        let order: Vec<(u32, u64)> = merged.iter().map(|e| (e.rank, e.tsc)).collect();
        assert_eq!(order, vec![(0, 2), (0, 4), (1, 3), (2, 1), (2, 5)]);
        assert_eq!(log.len(), 5);
        assert_eq!(log.rank_events(0).len(), 2);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn sharded_log_folds_out_of_range_ranks_deterministically() {
        let log = ShardedLog::new(2);
        // Ranks 1 and 3 fold onto shard 1; the merge must still come
        // out rank-major with each rank's own order preserved, and
        // rank_events must not leak the co-owner's events.
        log.on_event(rev(3, 9, EventKind::Entry, 1));
        log.on_event(rev(1, 7, EventKind::Entry, 2));
        log.on_event(rev(3, 9, EventKind::Exit, 3));
        log.on_event(rev(1, 7, EventKind::Exit, 4));
        assert_eq!(log.shards(), 2);
        let order: Vec<(u32, u64)> = log.events().iter().map(|e| (e.rank, e.tsc)).collect();
        assert_eq!(order, vec![(1, 2), (1, 4), (3, 1), (3, 3)]);
        assert_eq!(log.rank_events(5).len(), 0); // shard 1, but no rank-5 events
        let r3: Vec<u64> = log.rank_events(3).iter().map(|e| e.tsc).collect();
        assert_eq!(r3, vec![1, 3]);
    }

    #[test]
    fn sharded_fdr_retains_per_rank_and_merges_deterministically() {
        let fdr = ShardedLog::ring(2, 2);
        // Rank 0 is chatty, rank 1 writes once: rank 1's record survives.
        for i in 0..5u64 {
            fdr.on_event(rev(0, 1, EventKind::Entry, i));
        }
        fdr.on_event(rev(1, 2, EventKind::Entry, 100));
        assert_eq!(fdr.total_written(), 6);
        assert_eq!(fdr.len(), 3); // 2 from rank 0's ring + 1 from rank 1
        let evs = fdr.events();
        let order: Vec<(u32, u64)> = evs.iter().map(|e| (e.rank, e.tsc)).collect();
        assert_eq!(order, vec![(0, 3), (0, 4), (1, 100)]);
    }
}
