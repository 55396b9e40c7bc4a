//! Deterministic hash partitioning.
//!
//! Partition *placement* ([`stable_hash`] / [`partition_for`]) is part of
//! the simulated cost model's identity: where a record lands decides task
//! sizes, skew, and therefore simulated schedules. It is SipHash-1-3 with
//! zero keys, written out below and bit-identical to std's
//! `DefaultHasher::new()`, except that an integer write of up to a word goes
//! straight into the state instead of through a byte buffer. The tests pin
//! it against std on a seeded corpus *and* against fixed values: std may
//! change its default hasher between releases, and such a change fails one
//! named test here instead of moving placement and every golden with it.
//!
//! The *scatter* below is host-side mechanics only: one counting scatter
//! behind two entry points (move out of owned partitions, clone out of
//! shared ones) that produces the exact same buckets in the exact same order
//! as the naive sequential loop, at a host cost of O(records + input
//! partitions + output partitions) — never (input partitions × output
//! partitions), which at the paper's 1,200 partitions is 1.44 M. Pass 1
//! hashes every record once, into one table of destinations for the whole
//! scatter; pass 2 counts each bucket's records; pass 3 moves or clones
//! each record straight into its exact-size bucket. Below
//! `PARALLEL_SCATTER_MIN_RECORDS` records all three run on the calling
//! thread. From there up pass 1 runs on the pool, one input partition per
//! item, and so do passes 2 and 3 where the buckets are large enough
//! (`MIN_RUN_BYTES_PER_BUCKET`): per *run*, a contiguous range of input
//! partitions, one per pool thread, balanced by record count. A prefix sum
//! over the runs' counts gives each run its own sub-slice of every bucket,
//! runs in input order, so each record moves once, no run waits for
//! another, and every bucket is record-for-record the sequential loop's.
//!
//! A scatter whose records are all already home — one input per output, and
//! every record hashed to its own input's index — places nothing: its first
//! pass finds that out, and the inputs come back as they are (owned ones as
//! the same buffers, shared ones with no clone). Those are the buckets the
//! sequential loop builds, by construction. A co-partitioned loop re-keys
//! and re-shuffles state that an earlier shuffle of the same key already
//! placed, so in Listing 4's lifted PageRank 21 of a job's 41 scatters are of
//! this kind. A scatter into one partition hashes nothing either: every key
//! lands in partition 0, so its bucket is the inputs concatenated in order.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use crate::pool::parallel_map_range;

/// Deterministic hash of a key (SipHash-1-3 with zero keys, the value std's
/// `DefaultHasher::new()` gives), stable across runs, threads and toolchains
/// so that simulated schedules and test results are reproducible.
pub fn stable_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = SipHasher13::new();
    key.hash(&mut h);
    h.finish()
}

/// Partition index for `key` among `partitions` partitions.
pub fn partition_for<K: Hash + ?Sized>(key: &K, partitions: usize) -> usize {
    (stable_hash(key) % partitions.max(1) as u64) as usize
}

/// SipHash-1-3 with both keys zero. std feeds every write through a byte
/// buffer; here an integer of up to a word is shifted into the pending tail
/// (or, with the tail empty, a whole word compressed at once). The message —
/// every write's native-endian bytes, read little-endian — and so the
/// result are std's.
#[derive(Clone, Copy)]
struct SipHasher13 {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// Bytes written so far; the low byte enters the last block.
    length: usize,
    /// The `ntail` (0–7) bytes written since the last whole word,
    /// little-endian; every higher bit is zero.
    tail: u64,
    ntail: usize,
}

impl SipHasher13 {
    #[inline]
    fn new() -> Self {
        SipHasher13 {
            v0: 0x736f_6d65_7073_6575,
            v1: 0x646f_7261_6e64_6f6d,
            v2: 0x6c79_6765_6e65_7261,
            v3: 0x7465_6462_7974_6573,
            length: 0,
            tail: 0,
            ntail: 0,
        }
    }

    #[inline]
    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13) ^ self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16) ^ self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21) ^ self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17) ^ self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    /// One 8-byte message block: one compression round.
    #[inline]
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        self.round();
        self.v0 ^= m;
    }

    /// Append the `n` (0–8) low bytes of `x`, whose higher bits are zero.
    #[inline]
    fn write_le(&mut self, x: u64, n: usize) {
        self.length += n;
        let filled = self.ntail + n;
        self.tail |= x << (8 * self.ntail);
        if filled < 8 {
            self.ntail = filled;
            return;
        }
        self.compress(self.tail);
        // The bytes of `x` that did not fit in the block start the next tail.
        self.tail = if filled == 8 { 0 } else { x >> (8 * (8 - self.ntail)) };
        self.ntail = filled - 8;
    }
}

/// The `bytes.len()` (0–7) bytes as the low bytes of a little-endian word,
/// read in at most three loads (4, 2 and 1 bytes) as std does.
#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    let (mut word, mut i) = (0u64, 0);
    if bytes.len() >= 4 {
        word = u64::from(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]));
        i = 4;
    }
    if bytes.len() >= i + 2 {
        word |= u64::from(u16::from_le_bytes([bytes[i], bytes[i + 1]])) << (8 * i);
        i += 2;
    }
    if bytes.len() > i {
        word |= u64::from(bytes[i]) << (8 * i);
    }
    word
}

impl Hasher for SipHasher13 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        if self.ntail != 0 {
            let fill = rest.len().min(8 - self.ntail);
            self.write_le(le_word(&rest[..fill]), fill);
            rest = &rest[fill..];
        }
        let mut words = rest.chunks_exact(8);
        for word in &mut words {
            self.length += 8;
            self.compress(u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")));
        }
        let left = words.remainder();
        self.write_le(le_word(left), left.len());
    }

    // The signed writes default to these, and `write_str` to `write` plus a
    // `write_u8(0xff)`, as std's hasher does.
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_le(u64::from(i), 1);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_le(u64::from(u16::from_le_bytes(i.to_ne_bytes())), 2);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_le(u64::from(u32::from_le_bytes(i.to_ne_bytes())), 4);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.write_le(u64::from_le_bytes(i.to_ne_bytes()), 8);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        // A 64-bit `usize` is a whole word, and `le_word` reads up to 7 bytes.
        let mut word = [0u8; 8];
        word[..std::mem::size_of::<usize>()].copy_from_slice(&i.to_ne_bytes());
        self.write_le(u64::from_le_bytes(word), std::mem::size_of::<usize>());
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut s = *self;
        s.compress(((self.length as u64 & 0xff) << 56) | self.tail);
        s.v2 ^= 0xff;
        s.round();
        s.round();
        s.round();
        s.v0 ^ s.v1 ^ s.v2 ^ s.v3
    }
}

/// Below this many total records a scatter runs on the calling thread and
/// makes no pool call (`avg_distances` runs thousands of tiny scatters per
/// job). A pool dispatch costs ~1 µs (`engine.pool.dispatch_us`), yet a
/// lower cut for the hashing pass measured no faster: at 512 on a 2-core
/// host, `service_tcp` `wall_ms_min` read 1.06x this value's (lower in 1 of
/// 6 alternating pairs) and `avg_distances` 1.02x (1 of 3), so handing the
/// workers a few thousand hashes still costs about what it saves.
const PARALLEL_SCATTER_MIN_RECORDS: usize = 4096;

/// The least a placement run writes into an average bucket, in bytes, for a
/// scatter to place in more than one run. Adjacent runs meet inside every
/// bucket, and the cache line where they meet is written from two cores; at
/// eight lines per run and bucket that line is at most an eighth of a run's
/// writes. On a 2-core host, 16-byte records into 1,200 buckets: at 17 per
/// bucket two runs placed in 2.3x the time of one, at 42 in 0.85x, at 83
/// in 0.58x.
const MIN_RUN_BYTES_PER_BUCKET: usize = 512;

/// How many runs a scatter of `inputs` into `partitions` buckets places in:
/// one per pool thread, but no more than the inputs, from
/// `PARALLEL_SCATTER_MIN_RECORDS` records up while each run still writes
/// `MIN_RUN_BYTES_PER_BUCKET` into an average bucket; else one, on the
/// calling thread.
fn runs_for<T, P: Borrow<Vec<T>>>(inputs: &[P], partitions: usize) -> usize {
    let total: usize = inputs.iter().map(|p| p.borrow().len()).sum();
    if total < PARALLEL_SCATTER_MIN_RECORDS {
        return 1;
    }
    let by_bytes =
        total * std::mem::size_of::<T>() / (partitions.max(1) * MIN_RUN_BYTES_PER_BUCKET);
    crate::pool::host_parallelism().min(inputs.len()).min(by_bytes).max(1)
}

/// Scatter `(key, value)`-shaped records of several input partitions into
/// `partitions` output buckets by key hash, consuming the inputs (no
/// per-record clone).
///
/// Bucket contents and record order are those of the sequential loop over
/// inputs in input order, whichever thread hashed or placed what. Inputs
/// whose records are all home come back unchanged, the same buffers.
pub fn scatter_by_key<T, K, F>(inputs: Vec<Vec<T>>, partitions: usize, key_of: F) -> Vec<Vec<T>>
where
    T: Send + Sync,
    K: Hash + ?Sized,
    F: Fn(&T) -> &K + Send + Sync,
{
    let runs = runs_for(&inputs, partitions);
    scatter_owned(inputs, partitions, key_of, runs)
}

/// [`scatter_by_key`], placing in `runs` runs. One run frees each input's
/// buffer as soon as it has moved its records out. Several runs drain the
/// inputs, and the emptied buffers are freed here, on the calling thread:
/// glibc frees another thread's blocks under its arena lock.
fn scatter_owned<T, K, F>(
    mut inputs: Vec<Vec<T>>,
    partitions: usize,
    key_of: F,
    runs: usize,
) -> Vec<Vec<T>>
where
    T: Send + Sync,
    K: Hash + ?Sized,
    F: Fn(&T) -> &K + Send + Sync,
{
    let partitions = partitions.max(1);
    if partitions == 1 {
        return match inputs.len() {
            1 => inputs,
            _ => vec![concat(inputs.iter().map(Vec::len).sum(), inputs.into_iter().flatten())],
        };
    }
    match destinations(&inputs, partitions, key_of) {
        Some(dests) if runs > 1 => {
            place(&dests, partitions, inputs.iter_mut().map(|p| p.drain(..)), |rec| rec, runs)
        }
        Some(dests) => {
            place(&dests, partitions, inputs.into_iter().map(Vec::into_iter), |rec| rec, 1)
        }
        None => inputs,
    }
}

/// [`scatter_by_key`] over *shared* partitions: records are cloned exactly
/// once, straight into their destination bucket, with no intermediate deep
/// copy of the input.
///
/// This is what lets every shuffle site read a memoized parent's partitions
/// in place instead of materializing `p.to_vec()` first.
pub fn scatter_shared_by_key<T, K, F>(
    inputs: &[Arc<Vec<T>>],
    partitions: usize,
    key_of: F,
) -> Vec<Vec<T>>
where
    T: Clone + Send + Sync,
    K: Hash + ?Sized,
    F: Fn(&T) -> &K + Send + Sync,
{
    scatter_shared_unless_home(inputs, partitions, key_of)
        .unwrap_or_else(|| inputs.iter().map(|p| p.to_vec()).collect())
}

/// [`scatter_shared_by_key`] over borrowed partitions, or `None` where every
/// record is already home: the caller keeps the shared partitions as they
/// are, and no record is cloned.
pub(crate) fn scatter_shared_unless_home<T, P, K, F>(
    inputs: &[P],
    partitions: usize,
    key_of: F,
) -> Option<Vec<Vec<T>>>
where
    T: Clone + Send + Sync,
    P: Borrow<Vec<T>> + Sync,
    K: Hash + ?Sized,
    F: Fn(&T) -> &K + Send + Sync,
{
    scatter_shared(inputs, partitions, key_of, runs_for(inputs, partitions))
}

/// [`scatter_shared_unless_home`], placing in `runs` runs.
fn scatter_shared<T, P, K, F>(
    inputs: &[P],
    partitions: usize,
    key_of: F,
    runs: usize,
) -> Option<Vec<Vec<T>>>
where
    T: Clone + Send + Sync,
    P: Borrow<Vec<T>> + Sync,
    K: Hash + ?Sized,
    F: Fn(&T) -> &K + Send + Sync,
{
    let partitions = partitions.max(1);
    if partitions == 1 {
        return match inputs.len() {
            1 => None,
            _ => Some(vec![concat(
                inputs.iter().map(|p| p.borrow().len()).sum(),
                inputs.iter().flat_map(|p| p.borrow().iter().cloned()),
            )]),
        };
    }
    let dests = destinations(inputs, partitions, key_of)?;
    Some(place(&dests, partitions, inputs.iter().map(|p| p.borrow().iter()), T::clone, runs))
}

/// The one bucket of a scatter into one partition: every record, in input
/// order. Every key hashes to partition 0, so nothing is hashed.
fn concat<T>(total: usize, records: impl Iterator<Item = T>) -> Vec<T> {
    let mut bucket = Vec::with_capacity(total);
    bucket.extend(records);
    bucket
}

/// Every record's destination partition, in one table for the whole
/// scatter: input `i`'s records' at `ids[starts[i]..starts[i + 1]]`.
struct Destinations {
    ids: Vec<u32>,
    starts: Vec<usize>,
}

impl Destinations {
    /// The destinations of inputs `from..to`, in input order.
    fn of(&self, from: usize, to: usize) -> &[u32] {
        &self.ids[self.starts[from]..self.starts[to]]
    }
}

/// Pass 1 of the scatter: every record's destination partition (inputs owned
/// `Vec<T>`s or shared, borrowed either way) — the only [`partition_for`]
/// call a record gets. Hashing is order-free, so large scatters run it on
/// the pool, one input partition per item, each writing its own range of
/// the one table. Each input also reports whether all its records are home
/// (destined for its own index); `None` when, with one input per output,
/// every input is.
fn destinations<T, P, K, F>(inputs: &[P], partitions: usize, key_of: F) -> Option<Destinations>
where
    P: Borrow<Vec<T>> + Sync,
    K: Hash + ?Sized,
    F: Fn(&T) -> &K + Sync,
{
    assert!(partitions <= u32::MAX as usize, "scatter exceeds u32 destination capacity");
    let mut starts = Vec::with_capacity(inputs.len() + 1);
    starts.push(0);
    for p in inputs {
        starts.push(starts[starts.len() - 1] + p.borrow().len());
    }
    let total = starts[inputs.len()];
    let ids: Vec<AtomicU32> = (0..total).map(|_| AtomicU32::new(0)).collect();
    let hash_input = |i: usize| -> bool {
        let part: &Vec<T> = inputs[i].borrow();
        let mut home = true;
        for (rec, id) in part.iter().zip(&ids[starts[i]..starts[i + 1]]) {
            let d = partition_for(key_of(rec), partitions);
            home &= d == i;
            id.store(d as u32, Ordering::Relaxed);
        }
        home
    };
    let home: Vec<bool> = if total < PARALLEL_SCATTER_MIN_RECORDS
        || inputs.len() <= 1
        || crate::pool::host_parallelism() <= 1
    {
        (0..inputs.len()).map(hash_input).collect()
    } else {
        parallel_map_range(inputs.len(), hash_input)
    };
    if inputs.len() == partitions && home.into_iter().all(|home| home) {
        return None;
    }
    // The cells publish nothing else, and a pool call returns only once every
    // item has completed, so `Relaxed` stores are all read here.
    let ids = ids.into_iter().map(AtomicU32::into_inner).collect();
    Some(Destinations { ids, starts })
}

/// Passes 2 and 3 of the scatter: count each bucket's records, allocate
/// every bucket at its exact size (an empty bucket allocates nothing, none
/// regrows), and move or clone each record into its bucket, walking the
/// inputs in input order — the sequential loop's order, record for record.
/// One run does this on the calling thread; more go to
/// [`place_in_runs`].
///
/// `take` turns what the input iterators yield into the stored record at the
/// write site: the identity for a move, `T::clone` for a borrow. (A cloning
/// *iterator* zipped with the ids builds every clone in a temporary first —
/// twice the time of this loop on 48-byte `Value` pairs.)
fn place<I, T>(
    dests: &Destinations,
    partitions: usize,
    inputs: impl Iterator<Item = I>,
    take: impl Fn(I::Item) -> T + Sync,
    runs: usize,
) -> Vec<Vec<T>>
where
    I: Iterator + Send,
    T: Send,
{
    if runs > 1 {
        return place_in_runs(dests, partitions, inputs, take, runs);
    }
    let mut counts = vec![0usize; partitions];
    for &d in &dests.ids {
        counts[d as usize] += 1;
    }
    let mut out: Vec<Vec<T>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (i, part) in inputs.enumerate() {
        for (rec, &d) in part.zip(dests.of(i, i + 1)) {
            out[d as usize].push(take(rec));
        }
    }
    out
}

/// Where each of `runs` runs starts in the inputs, plus the end: contiguous
/// ranges of input partitions with about the same number of records each
/// (a range may be empty). `starts` is where each input's records start,
/// plus the total.
fn run_bounds(starts: &[usize], runs: usize) -> Vec<usize> {
    let (inputs, total) = (starts.len() - 1, starts[starts.len() - 1]);
    let mut bounds = Vec::with_capacity(runs + 1);
    bounds.push(0);
    let mut i = 0;
    for run in 1..runs {
        while i < inputs && starts[i] * runs < run * total {
            i += 1;
        }
        bounds.push(i);
    }
    bounds.push(inputs);
    bounds
}

/// A run's input partitions and its sub-slice of every bucket.
type Run<'a, I, T> = (Vec<I>, Vec<std::slice::IterMut<'a, MaybeUninit<T>>>);

/// [`place`] on the pool, in `runs` runs (see [`run_bounds`]). Each run
/// counts its own records per bucket. A prefix sum over the runs cuts every
/// exact-size bucket's spare capacity into one sub-slice per run, run 0
/// first, and each run moves or clones its records into its own sub-slices
/// in input order. Runs are contiguous and in input order, so every bucket
/// is the sequential loop's; each record moves once, and no run waits for
/// another.
///
/// A panic in `take` unwinds with every bucket still empty: the records
/// already written leak, and none is dropped twice.
fn place_in_runs<I, T>(
    dests: &Destinations,
    partitions: usize,
    mut inputs: impl Iterator<Item = I>,
    take: impl Fn(I::Item) -> T + Sync,
    runs: usize,
) -> Vec<Vec<T>>
where
    I: Iterator + Send,
    T: Send,
{
    let bounds = run_bounds(&dests.starts, runs);
    let counts: Vec<Vec<usize>> = parallel_map_range(runs, |r| {
        let mut counts = vec![0usize; partitions];
        for &d in dests.of(bounds[r], bounds[r + 1]) {
            counts[d as usize] += 1;
        }
        counts
    });
    let sizes: Vec<usize> = (0..partitions).map(|p| counts.iter().map(|c| c[p]).sum()).collect();
    let mut out: Vec<Vec<T>> = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();

    let mut slots: Vec<Vec<_>> = (0..runs).map(|_| Vec::with_capacity(partitions)).collect();
    for (p, bucket) in out.iter_mut().enumerate() {
        let mut spare = bucket.spare_capacity_mut();
        for (run, counts) in slots.iter_mut().zip(&counts) {
            let (own, rest) = std::mem::take(&mut spare).split_at_mut(counts[p]);
            run.push(own.iter_mut());
            spare = rest;
        }
    }
    let work: Vec<Mutex<Option<Run<'_, I, T>>>> = slots
        .into_iter()
        .enumerate()
        .map(|(r, slots)| {
            let parts = inputs.by_ref().take(bounds[r + 1] - bounds[r]).collect();
            Mutex::new(Some((parts, slots)))
        })
        .collect();
    let filled = parallel_map_range(runs, |r| {
        let (parts, mut slots) = work[r]
            .lock()
            .expect("scatter run lock poisoned")
            .take()
            .expect("a run is placed once");
        for (part, i) in parts.into_iter().zip(bounds[r]..) {
            for (rec, &d) in part.zip(dests.of(i, i + 1)) {
                slots[d as usize].next().expect("a slot per counted record").write(take(rec));
            }
        }
        slots.iter().all(|s| s.len() == 0)
    });
    assert!(filled.into_iter().all(|full| full), "a scatter run left a slot unwritten");
    drop(work); // its sub-slices borrow the buckets
    for (bucket, n) in out.iter_mut().zip(sizes) {
        // SAFETY: the runs' sub-slices tile the bucket's first `n` spare
        // slots (`n` is the sum of the runs' counts, each run's sub-slice is
        // its own count long), and every run wrote every slot of its
        // sub-slices: an `IterMut` hands each slot out once, and each run
        // reported all of them taken.
        unsafe { bucket.set_len(n) };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(stable_hash(&42u64), stable_hash(&42u64));
        assert_eq!(stable_hash(&"abc"), stable_hash(&"abc"));
    }

    /// SipHash-1-3 values placement depends on, independent of the
    /// toolchain: if std's `DefaultHasher` ever changes, the equivalence
    /// test below fails and this one keeps placement (and every golden) put.
    #[test]
    fn siphash13_values_are_pinned() {
        assert_eq!(stable_hash(&0u64), 0xbd60_acb6_58c7_9e45);
        assert_eq!(stable_hash(&42u32), 0xd58c_7ca4_a2fb_d834);
        assert_eq!(stable_hash(&(7u32, 11u64)), 0x30df_d75c_8e93_ac6c);
        assert_eq!(stable_hash(&(3u8, u128::MAX, -1i16)), 0xaa94_b789_c110_f21c);
        assert_eq!(stable_hash("matryoshka"), 0x4376_0d5d_2c90_171e);
        assert_eq!(stable_hash(&b"thirteen byte"[..]), 0xe7fa_6312_9314_beb1);
        assert_eq!(stable_hash(&(1u64, ("bounce", 2u32), vec![3u16, 4])), 0xb19d_4a95_e835_fd4d);
    }

    /// One write of a seeded write script.
    #[derive(Debug)]
    enum Write {
        U8(u8),
        U16(u16),
        U32(u32),
        U64(u64),
        Usize(usize),
        I64(i64),
        U128(u128),
        Bytes(Vec<u8>),
        Str(String),
    }

    fn feed(h: &mut impl Hasher, script: &[Write]) -> u64 {
        for w in script {
            match w {
                Write::U8(x) => h.write_u8(*x),
                Write::U16(x) => h.write_u16(*x),
                Write::U32(x) => h.write_u32(*x),
                Write::U64(x) => h.write_u64(*x),
                Write::Usize(x) => h.write_usize(*x),
                Write::I64(x) => h.write_i64(*x),
                Write::U128(x) => h.write_u128(*x),
                Write::Bytes(b) => h.write(b),
                Write::Str(s) => s.hash(h),
            }
        }
        h.finish()
    }

    fn std_hash<K: Hash + ?Sized>(key: &K) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    /// `stable_hash` is std's `DefaultHasher::new()`, bit for bit: seeded
    /// write scripts that leave every tail length (0–7 bytes) before a word,
    /// a `u128` or a byte run of 0–40 bytes, and typed keys — small integers
    /// before a `u64`, strings, byte slices, nested tuples.
    #[test]
    fn stable_hash_equals_std_default_hasher() {
        let mut rng = 46;
        let bytes = |rng: &mut u64, n: usize| (0..n).map(|_| splitmix64(rng) as u8).collect();
        for case in 0..2_000 {
            let script: Vec<Write> = (0..(case % 9))
                .map(|_| {
                    let r = splitmix64(&mut rng);
                    let len = (splitmix64(&mut rng) % 41) as usize;
                    match r % 9 {
                        0 => Write::U8(r as u8),
                        1 => Write::U16(r as u16),
                        2 => Write::U32(r as u32),
                        3 => Write::U64(r),
                        4 => Write::Usize(r as usize),
                        5 => Write::I64(r as i64),
                        6 => Write::U128(u128::from(r) << 64 | u128::from(r.rotate_left(7))),
                        7 => Write::Bytes(bytes(&mut rng, len)),
                        _ => {
                            Write::Str(String::from_utf8_lossy(&bytes(&mut rng, len)).into_owned())
                        }
                    }
                })
                .collect();
            let mut std_hasher = std::collections::hash_map::DefaultHasher::new();
            let want = feed(&mut std_hasher, &script);
            assert_eq!(feed(&mut SipHasher13::new(), &script), want, "case {case}: {script:?}");
        }
        for _ in 0..2_000 {
            let r = splitmix64(&mut rng);
            let len = (r % 41) as usize;
            let raw: Vec<u8> = bytes(&mut rng, len);
            let text = String::from_utf8_lossy(&raw).into_owned();
            let key = (r as u8, (r >> 8) as u16, (r >> 16) as u32, r);
            assert_eq!(stable_hash(&key), std_hash(&key), "{key:?}");
            assert_eq!(stable_hash(&(r as u32, r)), std_hash(&(r as u32, r)));
            assert_eq!(stable_hash(&u128::from(r)), std_hash(&u128::from(r)));
            assert_eq!(stable_hash(&raw[..]), std_hash(&raw[..]), "{raw:?}");
            assert_eq!(stable_hash(&text), std_hash(&text), "{text:?}");
            let nested =
                ((r as i16, text.as_str()), ((r as u8, raw.clone()), r as i64), [r as u32; 3]);
            assert_eq!(stable_hash(&nested), std_hash(&nested), "{nested:?}");
        }
    }

    #[test]
    fn partition_in_range() {
        for k in 0..1000u64 {
            assert!(partition_for(&k, 7) < 7);
        }
    }

    #[test]
    fn zero_partitions_clamped_to_one() {
        assert_eq!(partition_for(&1u64, 0), 0);
    }

    #[test]
    fn scatter_groups_same_keys_together() {
        let inputs = vec![vec![(1u64, "a"), (2, "b")], vec![(1, "c"), (3, "d")]];
        let out = scatter_by_key(inputs, 4, |r| &r.0);
        // All records with key 1 must land in the same partition.
        let p1 = partition_for(&1u64, 4);
        let ones: Vec<_> = out[p1].iter().filter(|r| r.0 == 1).collect();
        assert_eq!(ones.len(), 2);
        let total: usize = out.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn scatter_spreads_distinct_keys() {
        let inputs = vec![(0..1000u64).map(|k| (k, ())).collect::<Vec<_>>()];
        let out = scatter_by_key(inputs, 8, |r| &r.0);
        let nonempty = out.iter().filter(|p| !p.is_empty()).count();
        assert!(nonempty >= 7, "hash partitioning should use nearly all partitions");
    }

    /// Reference implementation: the naive sequential scatter every variant
    /// must reproduce bit-for-bit (contents *and* order).
    fn sequential_scatter<T: Clone>(
        inputs: &[Vec<T>],
        partitions: usize,
        key_of: impl Fn(&T) -> u64,
    ) -> Vec<Vec<T>> {
        let mut out: Vec<Vec<T>> = (0..partitions).map(|_| Vec::new()).collect();
        for part in inputs {
            for rec in part {
                out[(stable_hash(&key_of(rec)) % partitions as u64) as usize].push(rec.clone());
            }
        }
        out
    }

    #[test]
    fn parallel_scatter_matches_sequential_exactly() {
        // Well above the parallel threshold, uneven partition sizes.
        let inputs: Vec<Vec<(u64, u64)>> = (0..9)
            .map(|p| (0..(1500 + p * 321)).map(|i| ((i * 31 + p) % 4093, i)).collect())
            .collect();
        let expect = sequential_scatter(&inputs, 13, |r| r.0);
        let owned = scatter_by_key(inputs.clone(), 13, |r| &r.0);
        assert_eq!(owned, expect, "owned parallel scatter must match the sequential loop");
        let shared: Vec<Arc<Vec<(u64, u64)>>> = inputs.into_iter().map(Arc::new).collect();
        let zero_copy = scatter_shared_by_key(&shared, 13, |r| &r.0);
        assert_eq!(zero_copy, expect, "shared parallel scatter must match the sequential loop");
    }

    /// splitmix64, the repository's seedable generator: every case is
    /// reproducible from its number alone.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Both entry points equal the naive loop — contents *and* order — over
    /// random shapes: 0–64 input partitions (some empty, sometimes all),
    /// 1–1,500 outputs, totals on both sides of `PARALLEL_SCATTER_MIN_RECORDS`,
    /// uniform / single-key / Zipf-ish keys, a non-`Copy` record type, each
    /// placed in 1–8 runs whatever the host's core count. Every bucket a
    /// scatter builds has its exact size.
    #[test]
    fn scatter_equals_the_sequential_loop_on_random_shapes() {
        const CASES: u64 = 240;
        let (mut inline, mut pooled, mut all_empty, mut one_output) = (0, 0, 0, 0);
        for case in 0..CASES {
            let mut rng = case;
            let n_inputs = (splitmix64(&mut rng) % 65) as usize;
            let partitions =
                if case % 8 == 0 { 1 } else { 1 + (splitmix64(&mut rng) % 1500) as usize };
            // Every third case aims well above the threshold, every 16th is
            // all-empty, the rest stay below it.
            let target = match (case % 16, case % 3) {
                (5, _) => 0,
                (_, 0) => PARALLEL_SCATTER_MIN_RECORDS + (splitmix64(&mut rng) % 4000) as usize,
                _ => (splitmix64(&mut rng) % 3000) as usize,
            };
            let key_shape = splitmix64(&mut rng) % 3;
            // A quarter of the input partitions stay empty; the rest share
            // exactly `target` records.
            let open: Vec<usize> =
                (0..n_inputs).filter(|_| !splitmix64(&mut rng).is_multiple_of(4)).collect();
            let mut inputs: Vec<Vec<(u64, String)>> = vec![Vec::new(); n_inputs];
            let records = if open.is_empty() { 0 } else { target };
            for id in 0..records {
                let r = splitmix64(&mut rng);
                let key = match key_shape {
                    0 => r,                     // uniform
                    1 => 7,                     // a single key
                    _ => 1000 / (1 + r % 1000), // Zipf-ish: a few hot keys
                };
                let part = open[splitmix64(&mut rng) as usize % open.len()];
                inputs[part].push((key, format!("rec-{id}")));
            }
            let total: usize = inputs.iter().map(Vec::len).sum();
            match total {
                0 => all_empty += 1,
                t if t >= PARALLEL_SCATTER_MIN_RECORDS && n_inputs > 1 => pooled += 1,
                _ => inline += 1,
            }
            one_output += usize::from(partitions == 1);

            let expect = sequential_scatter(&inputs, partitions, |r| r.0);
            assert_eq!(expect.iter().map(Vec::len).sum::<usize>(), total);
            let shared: Vec<Arc<Vec<(u64, String)>>> =
                inputs.iter().cloned().map(Arc::new).collect();
            let exact =
                |buckets: &[Vec<(u64, String)>]| buckets.iter().all(|b| b.capacity() == b.len());
            for runs in 1..=8 {
                let at = format!("case {case}, {runs} runs");
                match scatter_shared(&shared, partitions, |r| &r.0, runs) {
                    // The inputs are the buckets: one of them into one
                    // partition, or all of them home.
                    None => assert!(shared.iter().map(|p| p.as_ref()).eq(&expect), "{at}"),
                    Some(cloned) => {
                        assert!(cloned == expect, "{at}: shared scatter differs from the loop");
                        assert!(
                            exact(&cloned),
                            "{at}: a shared scatter's bucket is not exact-size"
                        );
                        let moved = scatter_owned(inputs.clone(), partitions, |r| &r.0, runs);
                        assert!(moved == expect, "{at}: owned scatter differs from the loop");
                        assert!(exact(&moved), "{at}: an owned scatter's bucket is not exact-size");
                    }
                }
            }
            assert!(scatter_by_key(inputs, partitions, |r| &r.0) == expect, "case {case}");
        }
        // The draw must actually cover what the doc comment promises.
        assert!(inline >= 50 && pooled >= 50, "inline {inline}, pooled {pooled}");
        assert!(all_empty >= 10 && one_output >= 20, "empty {all_empty}, one {one_output}");
    }

    /// Runs cut the inputs into contiguous ranges of about equal records.
    #[test]
    fn runs_split_inputs_by_record_count() {
        let starts = |lens: &[usize]| -> Vec<usize> {
            let mut starts = vec![0];
            for n in lens {
                starts.push(starts[starts.len() - 1] + n);
            }
            starts
        };
        assert_eq!(run_bounds(&starts(&[10, 10, 10, 10]), 2), [0, 2, 4]);
        assert_eq!(run_bounds(&starts(&[30, 5, 5, 0, 20]), 2), [0, 1, 5]);
        assert_eq!(run_bounds(&starts(&[1, 1, 1]), 1), [0, 3]);
        // More runs than records or inputs: some runs are empty.
        assert_eq!(run_bounds(&starts(&[0, 4]), 4), [0, 2, 2, 2, 2]);
        assert_eq!(run_bounds(&starts(&[]), 3), [0, 0, 0, 0]);
    }

    /// A record whose `Clone` panics on the `n`th clone (counting from one),
    /// and which records each drop by identity.
    #[derive(Debug)]
    struct Fused {
        id: u64,
        _heap: Box<u64>,
    }

    static CLONES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    static PANIC_AT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(u64::MAX);
    static DROPPED: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());

    impl Fused {
        fn new(v: u64) -> Self {
            let id = NEXT_ID.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Fused { id, _heap: Box::new(v) }
        }
    }

    impl Clone for Fused {
        fn clone(&self) -> Self {
            let n = 1 + CLONES.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            assert!(n != PANIC_AT.load(std::sync::atomic::Ordering::SeqCst), "clone {n} fails");
            Fused::new(*self._heap)
        }
    }

    impl Drop for Fused {
        fn drop(&mut self) {
            DROPPED.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).push(self.id);
        }
    }

    /// A clone that panics midway through a pooled scatter unwinds out of
    /// it: the clones already placed leak, and no record — original or
    /// clone — is dropped twice.
    #[test]
    fn a_panicking_clone_unwinds_with_no_double_drop() {
        use std::sync::atomic::Ordering::SeqCst;
        let records = 2 * PARALLEL_SCATTER_MIN_RECORDS as u64;
        let shared: Vec<Arc<Vec<(u64, Fused)>>> = (0..6)
            .map(|p| Arc::new((p..records).step_by(6).map(|i| (i % 991, Fused::new(i))).collect()))
            .collect();
        let originals = NEXT_ID.load(SeqCst);
        for runs in [1, 3, 6] {
            CLONES.store(0, SeqCst);
            PANIC_AT.store(records / 2, SeqCst);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                scatter_shared(&shared, 5, |r| &r.0, runs)
            }));
            assert!(unwound.is_err(), "{runs} runs: the clone's panic reaches the caller");
        }
        PANIC_AT.store(u64::MAX, SeqCst);
        drop(shared);
        let mut dropped = std::mem::take(&mut *DROPPED.lock().unwrap());
        dropped.sort_unstable();
        let before = dropped.len();
        dropped.dedup();
        assert_eq!(dropped.len(), before, "a record was dropped twice");
        assert!(dropped.iter().all(|&id| id < NEXT_ID.load(SeqCst)), "a dropped id was never made");
        assert!((0..originals).all(|id| dropped.binary_search(&id).is_ok()), "an original leaked");
    }

    /// Inputs already placed by key, one per output: every record home.
    fn home_inputs(partitions: usize, records: u64) -> Vec<Vec<(u64, u64)>> {
        let all: Vec<(u64, u64)> = (0..records).map(|i| (i % 997, i)).collect();
        sequential_scatter(&[all], partitions, |r| r.0)
    }

    /// Below and above the pooled-hashing threshold, owned inputs whose
    /// records are all home come back as the same buffers, and shared ones
    /// place nothing; both are what the sequential loop builds.
    #[test]
    fn inputs_all_home_come_back_as_they_are() {
        for records in [300, 3 * PARALLEL_SCATTER_MIN_RECORDS as u64] {
            let inputs = home_inputs(7, records);
            let expect = sequential_scatter(&inputs, 7, |r| r.0);
            assert_eq!(expect, inputs, "{records}: placed inputs are the loop's buckets");
            let shared: Vec<Arc<Vec<(u64, u64)>>> = inputs.iter().cloned().map(Arc::new).collect();
            assert!(scatter_shared_unless_home(&shared, 7, |r| &r.0).is_none(), "{records}");
            assert_eq!(scatter_shared_by_key(&shared, 7, |r| &r.0), expect, "{records}");
            let buffers: Vec<*const (u64, u64)> = inputs.iter().map(|p| p.as_ptr()).collect();
            let moved = scatter_by_key(inputs, 7, |r| &r.0);
            assert_eq!(moved, expect, "{records}");
            let same: Vec<*const (u64, u64)> = moved.iter().map(|p| p.as_ptr()).collect();
            assert_eq!(same, buffers, "{records}: the same buffers, not copies");
            // One input more than outputs: a scatter, though every record
            // hashes to an index it could keep.
            let mut wider = home_inputs(7, records);
            wider.push(Vec::new());
            assert_eq!(scatter_by_key(wider, 7, |r| &r.0), expect, "{records}");
        }
    }

    /// A shared input whose records are all home clones none of them.
    #[test]
    fn shared_inputs_all_home_clone_nothing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CLONES: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug, PartialEq)]
        struct Counted(u64);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, Ordering::Relaxed);
                Counted(self.0)
            }
        }
        let records = 2 * PARALLEL_SCATTER_MIN_RECORDS as u64;
        let shared: Vec<Arc<Vec<(u64, Counted)>>> = home_inputs(5, records)
            .into_iter()
            .map(|p| Arc::new(p.into_iter().map(|(k, v)| (k, Counted(v))).collect()))
            .collect();
        CLONES.store(0, Ordering::Relaxed);
        assert!(scatter_shared_unless_home(&shared, 5, |r| &r.0).is_none());
        assert_eq!(CLONES.load(Ordering::Relaxed), 0, "an all-home scatter clones nothing");
    }

    /// One record out of place and the whole scatter runs, equal to the
    /// sequential loop through both entry points.
    #[test]
    fn one_misplaced_record_falls_back_to_the_counting_scatter() {
        for records in [300, 3 * PARALLEL_SCATTER_MIN_RECORDS as u64] {
            let mut inputs = home_inputs(7, records);
            let stray = inputs[2].pop().expect("a record to misplace");
            inputs[5].insert(1, stray);
            let expect = sequential_scatter(&inputs, 7, |r| r.0);
            assert_ne!(expect, inputs, "{records}: the stray record moves home");
            let shared: Vec<Arc<Vec<(u64, u64)>>> = inputs.iter().cloned().map(Arc::new).collect();
            assert_eq!(scatter_shared_unless_home(&shared, 7, |r| &r.0), Some(expect.clone()));
            assert_eq!(scatter_by_key(inputs, 7, |r| &r.0), expect, "{records}");
        }
    }

    #[test]
    fn shared_scatter_small_input_serial_path_matches_too() {
        let inputs: Vec<Arc<Vec<u64>>> = vec![Arc::new((0..50).collect())];
        let out = scatter_shared_by_key(&inputs, 4, |x| x);
        let expect = sequential_scatter(&[(0..50).collect()], 4, |x| *x);
        assert_eq!(out, expect);
    }
}
